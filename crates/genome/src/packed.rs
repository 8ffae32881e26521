//! 2-bit packed sequence encoding.
//!
//! One DNA base occupies two bits, exactly as in the two 6T SRAM cells of an
//! ASMCap cell (paper Fig. 4c). Packing 32 bases per `u64` word enables the
//! word-parallel matching kernels in `asmcap-metrics`
//! (`ed_star_packed` / `hamming_packed`): XOR the 2-bit lanes, OR the odd and
//! even bitplanes, popcount — 32 cell comparisons per instruction instead of
//! one.
//!
//! [`PackedWords`] is the word-access abstraction those kernels run on. Both
//! owned sequences ([`PackedSeq`]) and zero-copy reference segments
//! ([`crate::packedref::SegmentView`]) implement it, so a kernel can compare
//! a read against a reference window without materialising the window.

use crate::base::Base;
use crate::seq::DnaSeq;
use std::fmt;
use std::ops::Range;

/// Bases per `u64` word at 2 bits per base.
pub const BASES_PER_WORD: usize = 32;

/// Word-level access to a 2-bit packed base sequence.
///
/// Word `i` holds bases `32*i .. 32*i + 32` little-endian (base `j` in bits
/// `2*(j % 32) ..= 2*(j % 32) + 1`). Implementations must keep every lane at
/// index `>= len()` zero — the kernels in `asmcap-metrics` rely on clean
/// tails to skip masking in their inner loops.
pub trait PackedWords {
    /// Number of bases.
    fn len(&self) -> usize;

    /// Word `i` of the packing. Must be callable for `i < n_words()`;
    /// lanes beyond [`PackedWords::len`] are zero.
    fn word(&self, i: usize) -> u64;

    /// Whether the sequence is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The packing's words as one contiguous slice, when such a slice
    /// exists — `None` for views whose words are assembled on demand.
    ///
    /// The slice must satisfy the same contract as [`PackedWords::word`]
    /// (little-endian lanes, zero tail lanes beyond [`PackedWords::len`]),
    /// so callers like the `asmcap-metrics` lane kernels can run their
    /// multi-word inner loops directly on it instead of fetching one word
    /// at a time through the trait.
    fn as_word_slice(&self) -> Option<&[u64]> {
        None
    }

    /// Number of words covering [`PackedWords::len`] bases.
    fn n_words(&self) -> usize {
        self.len().div_ceil(BASES_PER_WORD)
    }

    /// Materialises the words into an owned [`PackedSeq`].
    fn to_packed(&self) -> PackedSeq {
        PackedSeq {
            words: (0..self.n_words()).map(|i| self.word(i)).collect(),
            len: self.len(),
        }
    }
}

/// Mask keeping the `2 * len_in_word` low bits of a word: the lanes a
/// partially filled final word actually uses.
pub(crate) fn tail_mask(len_in_word: usize) -> u64 {
    debug_assert!(len_in_word <= BASES_PER_WORD);
    if len_in_word == BASES_PER_WORD {
        u64::MAX
    } else {
        (1u64 << (2 * len_in_word)) - 1
    }
}

/// A DNA sequence packed at 2 bits per base, 32 bases per `u64` word.
///
/// Bases are stored little-endian within each word: base `i` occupies bits
/// `2*(i % 32) ..= 2*(i % 32) + 1` of word `i / 32`. Unused high bits of the
/// final word are zero — an invariant relied on by the word-parallel
/// matching kernels (`asmcap-metrics`' `ed_star_packed` and
/// `hamming_packed`), which consume this type through the [`PackedWords`]
/// trait.
///
/// # Examples
///
/// ```
/// use asmcap_genome::{DnaSeq, PackedSeq};
/// let seq: DnaSeq = "ACGTACGT".parse()?;
/// let packed = PackedSeq::from_seq(&seq);
/// assert_eq!(packed.len(), 8);
/// assert_eq!(packed.to_seq(), seq);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// Packs a [`DnaSeq`].
    #[must_use]
    pub fn from_seq(seq: &DnaSeq) -> Self {
        Self::from_bases(seq.as_slice())
    }

    /// Packs a base slice.
    #[must_use]
    pub fn from_bases(bases: &[Base]) -> Self {
        let mut words = vec![0u64; bases.len().div_ceil(BASES_PER_WORD)];
        for (i, base) in bases.iter().enumerate() {
            let word = i / BASES_PER_WORD;
            let shift = 2 * (i % BASES_PER_WORD);
            words[word] |= u64::from(base.code()) << shift;
        }
        Self {
            words,
            len: bases.len(),
        }
    }

    /// Number of bases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the base at `index`, or `None` past the end.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Base> {
        if index >= self.len {
            return None;
        }
        let word = self.words[index / BASES_PER_WORD];
        let shift = 2 * (index % BASES_PER_WORD);
        Some(Base::from_code((word >> shift) as u8))
    }

    /// Borrows the packed words.
    ///
    /// Unused high bits of the last word are guaranteed zero.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Wraps pre-packed words covering `len` bases.
    ///
    /// # Panics
    ///
    /// Panics if the word count does not cover `len` or the unused tail
    /// lanes are non-zero (the invariant every kernel relies on).
    #[must_use]
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(BASES_PER_WORD),
            "word count must cover len"
        );
        if let Some(&last) = words.last() {
            let used = len - (words.len() - 1) * BASES_PER_WORD;
            assert_eq!(last & !tail_mask(used), 0, "unused tail lanes must be zero");
        }
        Self { words, len }
    }

    /// Copies the half-open base window `range` into a new packed sequence
    /// (word-aligned extraction: two shifts per output word).
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    #[must_use]
    pub fn window(&self, range: Range<usize>) -> PackedSeq {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "window out of bounds"
        );
        extract(&self.words, range.start, range.end - range.start)
    }

    /// Returns a copy rotated left by `amount` bases (wrapping):
    /// `out[i] = self[(i + amount) % len]`, matching
    /// [`crate::DnaSeq::rotated_left`].
    #[must_use]
    pub fn rotated_left(&self, amount: usize) -> PackedSeq {
        if self.len == 0 {
            return self.clone();
        }
        let amount = amount % self.len;
        if amount == 0 {
            return self.clone();
        }
        let mut words = vec![0u64; self.words.len()];
        write_packed(&mut words, 0, &self.window(amount..self.len));
        write_packed(&mut words, self.len - amount, &self.window(0..amount));
        Self {
            words,
            len: self.len,
        }
    }

    /// Returns a copy rotated right by `amount` bases (wrapping), matching
    /// [`crate::DnaSeq::rotated_right`].
    #[must_use]
    pub fn rotated_right(&self, amount: usize) -> PackedSeq {
        if self.len == 0 {
            return self.clone();
        }
        let amount = amount % self.len;
        self.rotated_left(self.len - amount)
    }

    /// Unpacks into a [`DnaSeq`].
    #[must_use]
    pub fn to_seq(&self) -> DnaSeq {
        (0..self.len)
            .map(|i| self.get(i).expect("index within length"))
            .collect()
    }

    /// Counts positions where `self` and `other` hold different bases.
    ///
    /// This is the word-parallel Hamming kernel: XOR the 2-bit lanes, then
    /// OR the two bits of each lane together and popcount. The generalised
    /// kernels (over [`PackedWords`], including zero-copy segment views, and
    /// with the ED\* neighbour windows) live in `asmcap-metrics` as
    /// `hamming_packed` and `ed_star_packed`; this convenience method exists
    /// because `asmcap-genome` sits below `asmcap-metrics` in the dependency
    /// order. Both copies are property-tested against the same naive
    /// position-wise count, which is what keeps them in agreement.
    ///
    /// # Panics
    ///
    /// Panics if the sequences have different lengths.
    #[must_use]
    pub fn hamming_distance(&self, other: &PackedSeq) -> usize {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal-length sequences"
        );
        const LOW_BITS: u64 = 0x5555_5555_5555_5555;
        let mut distance = 0usize;
        for (a, b) in self.words.iter().zip(&other.words) {
            let diff = a ^ b;
            // A lane differs iff either of its two bits differs.
            let lane_mismatch = (diff | (diff >> 1)) & LOW_BITS;
            distance += lane_mismatch.count_ones() as usize;
        }
        distance
    }
}

impl PackedWords for PackedSeq {
    fn len(&self) -> usize {
        self.len
    }

    fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    fn as_word_slice(&self) -> Option<&[u64]> {
        Some(&self.words)
    }

    fn to_packed(&self) -> PackedSeq {
        self.clone()
    }
}

/// Output word `i` of a view starting `shift` bits into `words[first]`: the
/// shift pair assembling each extracted word from at most two source words.
/// The single home of the word-boundary extraction logic, shared by
/// [`extract`] and [`crate::packedref::SegmentView`]. The caller masks the
/// tail of the final word.
#[inline]
pub(crate) fn shifted_word(words: &[u64], first: usize, shift: u32, i: usize) -> u64 {
    let lo = words[first + i] >> shift;
    let hi = if shift == 0 {
        0
    } else {
        words.get(first + i + 1).map_or(0, |&w| w << (64 - shift))
    };
    lo | hi
}

/// Extracts `count` bases starting at base `start` from `words` into an
/// owned packing — the word-aligned bit-shift extraction shared by
/// [`PackedSeq::window`] and [`crate::packedref::SegmentView`].
pub(crate) fn extract(words: &[u64], start: usize, count: usize) -> PackedSeq {
    let n_words = count.div_ceil(BASES_PER_WORD);
    let mut out = vec![0u64; n_words];
    let first = start / BASES_PER_WORD;
    let shift = (2 * (start % BASES_PER_WORD)) as u32;
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = shifted_word(words, first, shift, i);
    }
    if let Some(last) = out.last_mut() {
        *last &= tail_mask(count - (n_words - 1) * BASES_PER_WORD);
    }
    PackedSeq {
        words: out,
        len: count,
    }
}

/// ORs `src` into `dst` starting at base `dst_base`. `dst` must be zero in
/// the target range (regions are written disjointly).
pub(crate) fn write_packed(dst: &mut [u64], dst_base: usize, src: &impl PackedWords) {
    for k in 0..src.n_words() {
        let w = src.word(k);
        let bit = 2 * dst_base + 64 * k;
        let word = bit / 64;
        let sh = bit % 64;
        dst[word] |= w << sh;
        if sh != 0 && word + 1 < dst.len() {
            dst[word + 1] |= w >> (64 - sh);
        }
    }
}

impl From<&DnaSeq> for PackedSeq {
    fn from(seq: &DnaSeq) -> Self {
        Self::from_seq(seq)
    }
}

impl From<&PackedSeq> for DnaSeq {
    fn from(packed: &PackedSeq) -> Self {
        packed.to_seq()
    }
}

impl fmt::Display for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    #[test]
    fn roundtrip_short() {
        let s = seq("ACGTACGTA");
        assert_eq!(PackedSeq::from_seq(&s).to_seq(), s);
    }

    #[test]
    fn roundtrip_word_boundaries() {
        for len in [0, 1, 31, 32, 33, 63, 64, 65, 256] {
            let bases: Vec<Base> = (0..len).map(|i| Base::from_code(i as u8)).collect();
            let s = DnaSeq::from_bases(bases);
            let packed = PackedSeq::from_seq(&s);
            assert_eq!(packed.len(), len);
            assert_eq!(packed.to_seq(), s);
        }
    }

    #[test]
    fn get_past_end_is_none() {
        let packed = PackedSeq::from_seq(&seq("ACG"));
        assert_eq!(packed.get(2), Some(Base::G));
        assert_eq!(packed.get(3), None);
    }

    #[test]
    fn hamming_simple() {
        let a = PackedSeq::from_seq(&seq("ACGT"));
        let b = PackedSeq::from_seq(&seq("ACGA"));
        assert_eq!(a.hamming_distance(&b), 1);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn hamming_length_mismatch_panics() {
        let a = PackedSeq::from_seq(&seq("ACGT"));
        let b = PackedSeq::from_seq(&seq("ACG"));
        let _ = a.hamming_distance(&b);
    }

    #[test]
    fn unused_bits_are_zero() {
        let packed = PackedSeq::from_seq(&seq("TTT"));
        // 3 bases -> 6 bits used; rest must be zero.
        assert_eq!(packed.as_words()[0] >> 6, 0);
    }

    #[test]
    fn window_matches_seq_window() {
        let bases: Vec<Base> = (0..150)
            .map(|i| Base::from_code((i % 4) as u8 ^ ((i / 7) as u8 % 4)))
            .collect();
        let s = DnaSeq::from_bases(bases);
        let packed = PackedSeq::from_seq(&s);
        for (start, end) in [
            (0, 0),
            (0, 150),
            (1, 33),
            (31, 97),
            (32, 64),
            (63, 150),
            (64, 96),
            (149, 150),
        ] {
            assert_eq!(
                packed.window(start..end).to_seq(),
                s.window(start..end),
                "window {start}..{end}"
            );
        }
    }

    #[test]
    fn rotations_match_dnaseq_rotations() {
        let s = GenomeModelFree::generate(77);
        let packed = PackedSeq::from_seq(&s);
        for amount in [0usize, 1, 2, 31, 32, 33, 76, 77, 100] {
            assert_eq!(
                packed.rotated_left(amount).to_seq(),
                s.rotated_left(amount),
                "left {amount}"
            );
            assert_eq!(
                packed.rotated_right(amount).to_seq(),
                s.rotated_right(amount),
                "right {amount}"
            );
        }
        assert!(PackedSeq::default().rotated_left(3).is_empty());
    }

    /// Tiny deterministic sequence generator for the rotation tests.
    struct GenomeModelFree;
    impl GenomeModelFree {
        fn generate(len: usize) -> DnaSeq {
            (0..len)
                .map(|i| Base::from_code(((i * 7 + i / 3) % 4) as u8))
                .collect()
        }
    }

    #[test]
    fn from_words_validates_the_tail_invariant() {
        let packed = PackedSeq::from_seq(&seq("ACGTACGTA"));
        let rebuilt = PackedSeq::from_words(packed.as_words().to_vec(), packed.len());
        assert_eq!(rebuilt, packed);
        let dirty = vec![u64::MAX];
        assert!(std::panic::catch_unwind(|| PackedSeq::from_words(dirty, 3)).is_err());
    }

    proptest! {
        #[test]
        fn prop_window_matches_seq(
            codes in proptest::collection::vec(0u8..4, 1..200),
            start_frac in 0.0f64..1.0,
            len_frac in 0.0f64..1.0
        ) {
            let s = DnaSeq::from_bases(codes.iter().map(|&c| Base::from_code(c)).collect());
            let start = ((s.len() as f64) * start_frac) as usize;
            let count = (((s.len() - start) as f64) * len_frac) as usize;
            let packed = PackedSeq::from_seq(&s);
            prop_assert_eq!(packed.window(start..start + count).to_seq(), s.window(start..start + count));
        }

        #[test]
        fn prop_roundtrip(codes in proptest::collection::vec(0u8..4, 0..300)) {
            let s = DnaSeq::from_bases(codes.iter().map(|&c| Base::from_code(c)).collect());
            prop_assert_eq!(PackedSeq::from_seq(&s).to_seq(), s);
        }

        #[test]
        fn prop_hamming_matches_naive(
            pairs in proptest::collection::vec((0u8..4, 0u8..4), 0..300)
        ) {
            let a = DnaSeq::from_bases(pairs.iter().map(|&(x, _)| Base::from_code(x)).collect());
            let b = DnaSeq::from_bases(pairs.iter().map(|&(_, y)| Base::from_code(y)).collect());
            let naive = a
                .iter()
                .zip(b.iter())
                .filter(|(x, y)| x != y)
                .count();
            let packed = PackedSeq::from_seq(&a).hamming_distance(&PackedSeq::from_seq(&b));
            prop_assert_eq!(packed, naive);
        }
    }
}
