//! The optional extension/alignment stage: from *where does this read map*
//! to *how does it align there*.
//!
//! The CAM shortlist answers match/no-match per segment; real genome
//! analysis needs the edit transcript too. When
//! [`PipelineConfig::extension`](crate::PipelineConfig::extension) is armed,
//! each read's candidate origins are re-visited after the matching kernels:
//! the read is aligned against the packed reference segment at each of the
//! first [`ExtensionConfig::max_candidates`] origins with the GenASM-style
//! banded bit-vector traceback ([`asmcap_metrics::align_packed`]), and the
//! best alignment (lowest score, ties to the lowest origin) is attached to
//! the read's [`MapRecord`](crate::MapRecord).
//!
//! The stage is pure dynamic programming — no RNG, no cycle or energy
//! accounting — so arming it changes **only** the `alignment` field:
//! positions, statuses, cycles, searches, energy, and draw order stay
//! byte-identical to an extension-off run, and results remain
//! worker-count-independent (pinned by `tests/packed_equivalence.rs` and
//! `tests/pipeline_api.rs`).

use asmcap_genome::{DnaSeq, PackedRef, PackedSeq};
use asmcap_metrics::{align_packed, Alignment};

/// Configuration for the extension/alignment stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtensionConfig {
    /// Edit budget for the banded traceback, or `None` to derive it from
    /// the pipeline threshold as `2·T + 2` — wide enough that every
    /// candidate the matcher accepted (true ED ≤ T, plus ED\*'s tolerated
    /// misjudgments near the threshold) still receives a transcript.
    pub band: Option<usize>,
    /// How many candidate origins (ascending) to align per read; the best
    /// alignment wins. The shortlist is typically a handful, so this caps
    /// worst-case work on repetitive references.
    pub max_candidates: usize,
}

impl Default for ExtensionConfig {
    /// Derived band (`2·T + 2`), four candidates.
    fn default() -> Self {
        Self {
            band: None,
            max_candidates: 4,
        }
    }
}

impl ExtensionConfig {
    /// The band actually used at pipeline threshold `threshold`.
    #[must_use]
    pub fn effective_band(&self, threshold: usize) -> usize {
        self.band.unwrap_or(2 * threshold + 2)
    }
}

/// The built stage: the packed reference plus resolved knobs, assembled
/// once at [`PipelineBuilder::build`](crate::PipelineBuilder) time.
pub(crate) struct ExtensionStage {
    reference: PackedRef,
    width: usize,
    band: usize,
    max_candidates: usize,
}

impl ExtensionStage {
    pub(crate) fn new(
        reference: &DnaSeq,
        width: usize,
        threshold: usize,
        config: ExtensionConfig,
    ) -> Self {
        Self {
            reference: PackedRef::new(reference),
            width,
            band: config.effective_band(threshold),
            max_candidates: config.max_candidates.max(1),
        }
    }

    /// The resolved edit budget (for `Debug` output).
    pub(crate) fn band(&self) -> usize {
        self.band
    }

    /// Aligns `read` against the reference segment at each of the first
    /// `max_candidates` origins and returns the best transcript — lowest
    /// score, ties broken toward the lowest origin (positions arrive
    /// ascending). Origins whose segment would run past the reference end
    /// (a custom backend can report any position) are skipped, as are
    /// candidates whose distance exceeds the band.
    pub(crate) fn extend(&self, read: &PackedSeq, positions: &[usize]) -> Option<Alignment> {
        let mut best: Option<Alignment> = None;
        for &origin in positions.iter().take(self.max_candidates) {
            let in_range = origin
                .checked_add(self.width)
                .is_some_and(|end| end <= self.reference.len());
            if !in_range {
                continue;
            }
            let segment = self.reference.segment(origin, self.width);
            if let Some((score, cigar)) = align_packed(read, &segment, self.band) {
                let improves = match &best {
                    None => true,
                    Some(current) => score < current.score,
                };
                if improves {
                    best = Some(Alignment {
                        origin,
                        score,
                        cigar,
                    });
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::GenomeModel;

    #[test]
    fn effective_band_derives_from_threshold() {
        assert_eq!(ExtensionConfig::default().effective_band(8), 18);
        let explicit = ExtensionConfig {
            band: Some(5),
            max_candidates: 4,
        };
        assert_eq!(explicit.effective_band(8), 5);
    }

    #[test]
    fn best_candidate_wins_and_out_of_range_origins_are_skipped() {
        let genome = GenomeModel::uniform().generate(1_024, 3);
        let stage = ExtensionStage::new(&genome, 64, 4, ExtensionConfig::default());
        let read = PackedSeq::from_seq(&genome.window(300..364));
        // 200 is a real but worse origin; 300 is exact; 2_000 runs past the
        // reference end and `usize::MAX - 3` overflows `origin + width`:
        // both must be skipped, not panic.
        let alignment = stage
            .extend(&read, &[200, 300, 2_000, usize::MAX - 3])
            .expect("exact origin aligns");
        assert_eq!(alignment.origin, 300);
        assert_eq!(alignment.score, 0);
        assert_eq!(alignment.cigar.to_string(), "64=");
        assert!(stage.extend(&read, &[]).is_none());
    }

    #[test]
    fn candidate_cap_bounds_the_work() {
        let genome = GenomeModel::uniform().generate(1_024, 5);
        let stage = ExtensionStage::new(
            &genome,
            64,
            4,
            ExtensionConfig {
                band: None,
                max_candidates: 1,
            },
        );
        let read = PackedSeq::from_seq(&genome.window(500..564));
        // The exact origin is second in the list but beyond the cap; the
        // first candidate is too far for the band, so nothing aligns.
        assert!(stage.extend(&read, &[0, 500]).is_none());
    }
}
