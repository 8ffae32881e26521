//! Zero-copy packed reference segments.
//!
//! The mapping pipeline stores one reference and compares thousands of
//! reads against millions of overlapping windows of it. Re-slicing (or
//! worse, re-packing) the reference per window would dominate the packed
//! kernels it feeds, so this module packs the reference **once** into a
//! [`PackedRef`] and hands out [`SegmentView`]s — `(offset, width)` views
//! whose words are produced on demand by a word-aligned bit-shift across
//! word boundaries. A view never allocates; extracting word `i` of a view
//! costs two shifts and an OR.
//!
//! Views implement [`PackedWords`], so the `asmcap-metrics` kernels
//! (`ed_star_packed`, `hamming_packed`) consume them directly: comparing a
//! packed read against any reference window is word-parallel end to end.

use crate::packed::{extract, shifted_word, tail_mask, PackedSeq, PackedWords, BASES_PER_WORD};
use crate::seq::DnaSeq;

/// A reference sequence packed once at 2 bits per base, serving zero-copy
/// segment views.
///
/// # Examples
///
/// ```
/// use asmcap_genome::{DnaSeq, PackedRef, PackedWords as _};
/// let reference: DnaSeq = "ACGTACGTACGT".parse()?;
/// let packed = PackedRef::new(&reference);
/// let view = packed.segment(3, 6);
/// assert_eq!(view.len(), 6);
/// assert_eq!(view.to_packed().to_seq(), reference.window(3..9));
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRef {
    packed: PackedSeq,
}

impl PackedRef {
    /// Packs a reference sequence.
    #[must_use]
    pub fn new(reference: &DnaSeq) -> Self {
        Self {
            packed: PackedSeq::from_seq(reference),
        }
    }

    /// Reference length in bases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether the reference is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The underlying packing.
    #[must_use]
    pub fn as_packed(&self) -> &PackedSeq {
        &self.packed
    }

    /// A zero-copy view of the `width`-base segment starting at `offset` —
    /// the packed equivalent of `&reference[offset..offset + width]`.
    ///
    /// # Panics
    ///
    /// Panics if the segment runs past the reference end.
    #[must_use]
    pub fn segment(&self, offset: usize, width: usize) -> SegmentView<'_> {
        assert!(
            offset
                .checked_add(width)
                .is_some_and(|end| end <= self.len()),
            "segment {offset}+{width} out of reference of {} bases",
            self.len()
        );
        SegmentView {
            words: self.packed.as_words(),
            first_word: offset / BASES_PER_WORD,
            shift: (2 * (offset % BASES_PER_WORD)) as u32,
            offset,
            width,
        }
    }
}

impl From<&DnaSeq> for PackedRef {
    fn from(reference: &DnaSeq) -> Self {
        Self::new(reference)
    }
}

/// A borrowed `(offset, width)` window of a [`PackedRef`].
///
/// [`PackedWords::word`] assembles each output word from at most two
/// underlying reference words (a shift pair), masking the tail so the
/// zero-lanes invariant holds — which is what lets the matching kernels run
/// on views and owned sequences interchangeably.
#[derive(Debug, Clone, Copy)]
pub struct SegmentView<'a> {
    words: &'a [u64],
    first_word: usize,
    shift: u32,
    offset: usize,
    width: usize,
}

impl SegmentView<'_> {
    /// Start offset of the view within the reference.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The base at `index` within the view, or `None` past the end.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<crate::Base> {
        if index >= self.width {
            return None;
        }
        let word = self.word(index / BASES_PER_WORD);
        let shift = 2 * (index % BASES_PER_WORD);
        Some(crate::Base::from_code((word >> shift) as u8))
    }

    /// Unpacks the view into an owned [`DnaSeq`].
    #[must_use]
    pub fn to_seq(&self) -> DnaSeq {
        self.to_packed().to_seq()
    }
}

impl PackedWords for SegmentView<'_> {
    fn len(&self) -> usize {
        self.width
    }

    fn word(&self, i: usize) -> u64 {
        let word = shifted_word(self.words, self.first_word, self.shift, i);
        let remaining = self.width - i * BASES_PER_WORD;
        if remaining >= BASES_PER_WORD {
            word
        } else {
            word & tail_mask(remaining)
        }
    }

    fn as_word_slice(&self) -> Option<&[u64]> {
        // A view is a contiguous subslice of the reference words only when
        // it starts on a word boundary AND fills its last word completely
        // (otherwise that word's tail lanes hold live reference bases, which
        // would violate the zero-tail contract).
        if self.shift == 0 && self.width.is_multiple_of(BASES_PER_WORD) {
            let n_words = self.width / BASES_PER_WORD;
            Some(&self.words[self.first_word..self.first_word + n_words])
        } else {
            None
        }
    }

    fn to_packed(&self) -> PackedSeq {
        extract(self.words, self.offset, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use proptest::prelude::*;

    fn test_seq(len: usize) -> DnaSeq {
        (0..len)
            .map(|i| Base::from_code(((i * 5 + i / 11) % 4) as u8))
            .collect()
    }

    #[test]
    fn views_agree_with_slices_across_word_boundaries() {
        let reference = test_seq(300);
        let packed = PackedRef::new(&reference);
        for (offset, width) in [
            (0, 64),
            (1, 64),
            (31, 33),
            (32, 32),
            (33, 100),
            (63, 65),
            (299, 1),
            (0, 300),
        ] {
            let view = packed.segment(offset, width);
            assert_eq!(
                view.to_seq(),
                reference.window(offset..offset + width),
                "segment({offset}, {width})"
            );
            assert_eq!(view.len(), width);
            assert_eq!(view.offset(), offset);
        }
    }

    #[test]
    fn view_words_keep_the_tail_invariant() {
        let reference = test_seq(200);
        let packed = PackedRef::new(&reference);
        let view = packed.segment(17, 40); // last view word holds 8 bases
        let last = view.word(view.n_words() - 1);
        assert_eq!(last >> 16, 0, "tail lanes must be zero");
        assert_eq!(
            view.to_packed(),
            PackedSeq::from_seq(&reference.window(17..57))
        );
    }

    #[test]
    fn get_indexes_within_the_view() {
        let reference = test_seq(100);
        let packed = PackedRef::new(&reference);
        let view = packed.segment(30, 40);
        for i in 0..40 {
            assert_eq!(view.get(i), Some(reference[30 + i]));
        }
        assert_eq!(view.get(40), None);
    }

    #[test]
    #[should_panic(expected = "out of reference")]
    fn oversized_segment_panics() {
        let packed = PackedRef::new(&test_seq(64));
        let _ = packed.segment(60, 8);
    }

    proptest! {
        #[test]
        fn prop_view_equals_window(
            codes in proptest::collection::vec(0u8..4, 1..300),
            offset_frac in 0.0f64..1.0,
            width_frac in 0.0f64..1.0
        ) {
            let reference: DnaSeq = codes.into_iter().map(Base::from_code).collect();
            let offset = ((reference.len() as f64) * offset_frac) as usize;
            let width = (((reference.len() - offset) as f64) * width_frac) as usize;
            let packed = PackedRef::new(&reference);
            let view = packed.segment(offset, width);
            prop_assert_eq!(view.to_seq(), reference.window(offset..offset + width));
            prop_assert_eq!(view.to_packed(), PackedSeq::from_seq(&reference.window(offset..offset + width)));
        }
    }
}
