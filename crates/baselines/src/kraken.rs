//! A Kraken2-style exact-matching classifier (paper §V-A).
//!
//! The paper normalises every F1 score by "the popular tool Kraken2 … as a
//! baseline" and later notes it is "Kraken with exact matching". Two modes
//! are provided:
//!
//! * [`KrakenMode::Exact`] — the whole read must match the segment exactly,
//!   which is the only interpretation consistent with the magnitude of the
//!   paper's normalised-F1 axis (ASMCap lands 4.5–7.7× above Kraken2);
//! * [`KrakenMode::KmerHit`] — Kraken2's actual mechanism (exact 35-mer
//!   hits with a confidence cutoff), provided for completeness and for the
//!   ablation benches.

use asmcap::{AsmMatcher, MatchOutcome};
use asmcap_genome::{Base, PackedSeq};
use std::collections::HashSet;

/// Decision rule of the classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KrakenMode {
    /// Read equals segment, base for base.
    Exact,
    /// At least `min_fraction` of the read's `k`-mers occur in the segment.
    KmerHit {
        /// `k`-mer length (Kraken2 default: 35).
        k: usize,
        /// Minimum hit fraction in `[0, 1]` (Kraken2 confidence; 0 means a
        /// single hit classifies).
        min_fraction: f64,
    },
}

impl KrakenMode {
    /// Kraken2's defaults for the k-mer mode: `k = 35`, confidence 0.
    #[must_use]
    pub fn kraken2_defaults() -> Self {
        KrakenMode::KmerHit {
            k: 35,
            min_fraction: 0.0,
        }
    }
}

/// The exact-matching classifier.
///
/// Note the threshold `T` plays no role in the decision — exact matching
/// has no notion of distance — which is exactly why its F1 collapses as `T`
/// grows and the ground-truth positive set widens.
///
/// # Examples
///
/// ```
/// use asmcap::AsmMatcher;
/// use asmcap_baselines::{KrakenClassifier, KrakenMode};
/// use asmcap_genome::DnaSeq;
///
/// let mut kraken = KrakenClassifier::new(KrakenMode::Exact);
/// let s: DnaSeq = "ACGTACGT".parse()?;
/// let r: DnaSeq = "ACGTACGA".parse()?;
/// assert!(kraken.matches(s.as_slice(), s.as_slice(), 0).matched);
/// assert!(!kraken.matches(s.as_slice(), r.as_slice(), 8).matched);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KrakenClassifier {
    mode: KrakenMode,
}

impl KrakenClassifier {
    /// Creates a classifier in the given mode.
    #[must_use]
    pub fn new(mode: KrakenMode) -> Self {
        Self { mode }
    }

    /// The active mode.
    #[must_use]
    pub fn mode(&self) -> KrakenMode {
        self.mode
    }

    fn kmer_hit_fraction(k: usize, segment: &[Base], read: &[Base]) -> f64 {
        if read.len() < k || segment.len() < k {
            return 0.0;
        }
        let segment_kmers: HashSet<&[Base]> = segment.windows(k).collect();
        let total = read.len() - k + 1;
        let hits = read
            .windows(k)
            .filter(|w| segment_kmers.contains(w))
            .count();
        hits as f64 / total as f64
    }
}

impl AsmMatcher for KrakenClassifier {
    fn matches(&mut self, segment: &[Base], read: &[Base], _threshold: usize) -> MatchOutcome {
        let matched = match self.mode {
            KrakenMode::Exact => segment == read,
            KrakenMode::KmerHit { k, min_fraction } => {
                let fraction = Self::kmer_hit_fraction(k, segment, read);
                if min_fraction == 0.0 {
                    fraction > 0.0
                } else {
                    fraction >= min_fraction
                }
            }
        };
        MatchOutcome::plain(matched)
    }

    fn matches_packed(
        &mut self,
        segment: &PackedSeq,
        read: &PackedSeq,
        threshold: usize,
    ) -> MatchOutcome {
        match self.mode {
            // Exact identity is a word compare on the packings — 32 bases
            // per comparison, no unpack.
            KrakenMode::Exact => MatchOutcome::plain(segment == read),
            // Kraken2's real k = 35 exceeds the 32-base packed-code limit,
            // so the k-mer mode keeps the byte-windowed scan.
            KrakenMode::KmerHit { .. } => self.matches(
                segment.to_seq().as_slice(),
                read.to_seq().as_slice(),
                threshold,
            ),
        }
    }

    fn name(&self) -> &str {
        match self.mode {
            KrakenMode::Exact => "Kraken2 (exact)",
            KrakenMode::KmerHit { .. } => "Kraken2 (k-mer)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, ReadSampler};

    #[test]
    fn exact_mode_requires_identity() {
        let mut kraken = KrakenClassifier::new(KrakenMode::Exact);
        let s = GenomeModel::uniform().generate(256, 1);
        assert!(kraken.matches(s.as_slice(), s.as_slice(), 0).matched);
        let mut bases = s.clone().into_bases();
        bases[0] = bases[0].substituted(0);
        let r = DnaSeq::from_bases(bases);
        assert!(!kraken.matches(s.as_slice(), r.as_slice(), 16).matched);
    }

    #[test]
    fn exact_mode_sensitivity_matches_error_free_probability() {
        // P(read error-free) in Condition A = (1 - 1.1%)^256 ≈ 5.9%; the
        // exact classifier can only accept those.
        let genome = GenomeModel::uniform().generate(100_000, 2);
        let sampler = ReadSampler::new(256, ErrorProfile::condition_a());
        let reads = sampler.sample_many(&genome, 800, 3);
        let mut kraken = KrakenClassifier::new(KrakenMode::Exact);
        let accepted = reads
            .iter()
            .filter(|r| {
                let segment = r.aligned_segment(&genome);
                kraken
                    .matches(segment.as_slice(), r.bases.as_slice(), 8)
                    .matched
            })
            .count();
        let rate = accepted as f64 / reads.len() as f64;
        let expected = (1.0f64 - 0.011).powi(256);
        assert!(
            (rate - expected).abs() < 0.03,
            "accept rate {rate} vs theoretical {expected}"
        );
    }

    #[test]
    fn kmer_mode_tolerates_sparse_errors() {
        let genome = GenomeModel::uniform().generate(1_000, 4);
        let segment = genome.window(0..256);
        let mut bases = segment.clone().into_bases();
        bases[128] = bases[128].substituted(0); // one substitution
        let read = DnaSeq::from_bases(bases);
        let mut kraken = KrakenClassifier::new(KrakenMode::kraken2_defaults());
        assert!(
            kraken
                .matches(segment.as_slice(), read.as_slice(), 0)
                .matched
        );
        let mut exact = KrakenClassifier::new(KrakenMode::Exact);
        assert!(
            !exact
                .matches(segment.as_slice(), read.as_slice(), 0)
                .matched
        );
    }

    #[test]
    fn packed_matcher_agrees_with_slice_matcher() {
        let genome = GenomeModel::uniform().generate(1_000, 8);
        let segment = genome.window(0..256);
        let mut bases = segment.clone().into_bases();
        bases[100] = bases[100].substituted(2);
        let near = DnaSeq::from_bases(bases);
        for mode in [KrakenMode::Exact, KrakenMode::kraken2_defaults()] {
            let mut kraken = KrakenClassifier::new(mode);
            for read in [&segment, &near] {
                assert_eq!(
                    kraken.matches(segment.as_slice(), read.as_slice(), 0),
                    kraken.matches_packed(
                        &asmcap_genome::PackedSeq::from_seq(&segment),
                        &asmcap_genome::PackedSeq::from_seq(read),
                        0,
                    ),
                    "{mode:?}"
                );
            }
        }
    }

    #[test]
    fn kmer_mode_rejects_decoys() {
        let a = GenomeModel::uniform().generate(256, 5);
        let b = GenomeModel::uniform().generate(256, 6);
        let mut kraken = KrakenClassifier::new(KrakenMode::kraken2_defaults());
        assert!(!kraken.matches(a.as_slice(), b.as_slice(), 16).matched);
    }

    #[test]
    fn confidence_threshold_raises_the_bar() {
        let genome = GenomeModel::uniform().generate(1_000, 7);
        let segment = genome.window(0..256);
        let mut bases = segment.clone().into_bases();
        for i in [40usize, 80, 120, 160, 200] {
            bases[i] = bases[i].substituted(0);
        }
        let read = DnaSeq::from_bases(bases);
        let mut loose = KrakenClassifier::new(KrakenMode::kraken2_defaults());
        let mut strict = KrakenClassifier::new(KrakenMode::KmerHit {
            k: 35,
            min_fraction: 0.8,
        });
        assert!(
            loose
                .matches(segment.as_slice(), read.as_slice(), 0)
                .matched
        );
        assert!(
            !strict
                .matches(segment.as_slice(), read.as_slice(), 0)
                .matched
        );
    }
}
