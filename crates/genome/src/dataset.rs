//! Evaluation datasets of (read, reference-segment) pairs.
//!
//! The accuracy experiments (paper Fig. 7) reduce to a binary decision per
//! pair: does this read match this stored reference segment at threshold
//! `T`? A [`PairDataset`] bundles, for every sampled read, its truly aligned
//! segment plus a configurable number of decoy segments drawn from other
//! genome positions. Ground truth is *defined* by exact edit distance
//! (`ED(read, segment) ≤ T`), which `asmcap-metrics` computes; this crate
//! only stores the pairs.

use crate::errors::{ErrorModel, ErrorProfile};
use crate::reads::{ReadSampler, SampledRead};
use crate::seq::DnaSeq;
use crate::Rng;
use rand::Rng as _;

/// One evaluation unit: a read paired with a stored reference segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPair {
    /// Index of the read in [`PairDataset::reads`].
    pub read_index: usize,
    /// The stored reference segment this read is compared against.
    pub segment: DnaSeq,
    /// Start position of the segment in the reference genome.
    pub segment_origin: usize,
    /// Whether this segment is the read's true origin (as opposed to a
    /// decoy). Note this is provenance, not ground truth: ground truth for a
    /// threshold `T` is `ED(read, segment) ≤ T`.
    pub is_aligned: bool,
}

/// A full evaluation dataset: reads plus aligned/decoy pairs.
///
/// # Examples
///
/// ```
/// use asmcap_genome::{GenomeModel, ErrorProfile, PairDataset};
/// let genome = GenomeModel::uniform().generate(50_000, 1);
/// let ds = PairDataset::build(&genome, 256, ErrorProfile::condition_a(), 20, 5, 42);
/// assert_eq!(ds.reads().len(), 20);
/// assert_eq!(ds.pairs().len(), 20 * 6); // aligned + 5 decoys each
/// ```
#[derive(Debug, Clone)]
pub struct PairDataset {
    reads: Vec<SampledRead>,
    pairs: Vec<ReadPair>,
    profile: ErrorProfile,
    read_len: usize,
}

impl PairDataset {
    /// Builds a dataset of `num_reads` reads of `read_len` bases each, with
    /// one aligned pair and `decoys_per_read` decoy pairs per read.
    ///
    /// Decoy segments are sampled from positions at least one read length
    /// away from the read's origin so that provenance labels are meaningful
    /// even on repetitive genomes.
    ///
    /// # Panics
    ///
    /// Panics if the reference is too short for the requested read length
    /// (see [`ReadSampler`]) or `num_reads` is zero.
    #[must_use]
    pub fn build(
        reference: &DnaSeq,
        read_len: usize,
        profile: ErrorProfile,
        num_reads: usize,
        decoys_per_read: usize,
        seed: u64,
    ) -> Self {
        Self::build_with_model(
            reference,
            read_len,
            ErrorModel::Iid(profile),
            num_reads,
            decoys_per_read,
            seed,
        )
    }

    /// Like [`PairDataset::build`] but with an explicit [`ErrorModel`]
    /// (e.g. bursty indels for the TASR stress ablation).
    ///
    /// # Panics
    ///
    /// Same conditions as [`PairDataset::build`].
    #[must_use]
    pub fn build_with_model(
        reference: &DnaSeq,
        read_len: usize,
        model: ErrorModel,
        num_reads: usize,
        decoys_per_read: usize,
        seed: u64,
    ) -> Self {
        assert!(num_reads > 0, "dataset needs at least one read");
        let profile = *model.profile();
        let sampler = ReadSampler::with_model(read_len, model);
        let mut rng = crate::rng(seed);
        let reads: Vec<SampledRead> = (0..num_reads)
            .map(|_| sampler.sample_with(reference, &mut rng))
            .collect();
        let max_segment_origin = reference.len() - read_len;
        let mut pairs = Vec::with_capacity(num_reads * (decoys_per_read + 1));
        for (read_index, read) in reads.iter().enumerate() {
            pairs.push(ReadPair {
                read_index,
                segment: read.aligned_segment(reference),
                segment_origin: read.origin,
                is_aligned: true,
            });
            for _ in 0..decoys_per_read {
                let origin =
                    Self::decoy_origin(read.origin, read_len, max_segment_origin, &mut rng);
                pairs.push(ReadPair {
                    read_index,
                    segment: reference.window(origin..origin + read_len),
                    segment_origin: origin,
                    is_aligned: false,
                });
            }
        }
        Self {
            reads,
            pairs,
            profile,
            read_len,
        }
    }

    fn decoy_origin(
        read_origin: usize,
        read_len: usize,
        max_segment_origin: usize,
        rng: &mut Rng,
    ) -> usize {
        loop {
            let origin = rng.gen_range(0..=max_segment_origin);
            if origin.abs_diff(read_origin) >= read_len {
                return origin;
            }
        }
    }

    /// The sampled reads.
    #[must_use]
    pub fn reads(&self) -> &[SampledRead] {
        &self.reads
    }

    /// All (read, segment) pairs, aligned first within each read group.
    #[must_use]
    pub fn pairs(&self) -> &[ReadPair] {
        &self.pairs
    }

    /// The error profile the reads were generated with.
    #[must_use]
    pub fn profile(&self) -> &ErrorProfile {
        &self.profile
    }

    /// The read length in bases.
    #[must_use]
    pub fn read_len(&self) -> usize {
        self.read_len
    }

    /// Convenience accessor: the read belonging to a pair.
    #[must_use]
    pub fn read_for(&self, pair: &ReadPair) -> &SampledRead {
        &self.reads[pair.read_index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::GenomeModel;

    fn genome() -> DnaSeq {
        GenomeModel::uniform().generate(30_000, 17)
    }

    #[test]
    fn build_produces_expected_counts() {
        let ds = PairDataset::build(&genome(), 128, ErrorProfile::condition_a(), 10, 3, 1);
        assert_eq!(ds.reads().len(), 10);
        assert_eq!(ds.pairs().len(), 40);
        assert_eq!(ds.pairs().iter().filter(|p| p.is_aligned).count(), 10);
        assert_eq!(ds.read_len(), 128);
    }

    #[test]
    fn aligned_pairs_reference_true_origin() {
        let g = genome();
        let ds = PairDataset::build(&g, 128, ErrorProfile::error_free(), 5, 2, 2);
        for pair in ds.pairs().iter().filter(|p| p.is_aligned) {
            let read = ds.read_for(pair);
            assert_eq!(pair.segment_origin, read.origin);
            assert_eq!(pair.segment, read.bases); // error-free
        }
    }

    #[test]
    fn decoys_are_far_from_origin() {
        let ds = PairDataset::build(&genome(), 128, ErrorProfile::condition_b(), 10, 5, 3);
        for pair in ds.pairs().iter().filter(|p| !p.is_aligned) {
            let read = ds.read_for(pair);
            assert!(pair.segment_origin.abs_diff(read.origin) >= 128);
            assert_eq!(pair.segment.len(), 128);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let g = genome();
        let a = PairDataset::build(&g, 128, ErrorProfile::condition_a(), 8, 2, 9);
        let b = PairDataset::build(&g, 128, ErrorProfile::condition_a(), 8, 2, 9);
        assert_eq!(a.pairs(), b.pairs());
    }

    #[test]
    fn zero_decoys_is_allowed() {
        let ds = PairDataset::build(&genome(), 64, ErrorProfile::condition_a(), 4, 0, 5);
        assert_eq!(ds.pairs().len(), 4);
        assert!(ds.pairs().iter().all(|p| p.is_aligned));
    }
}
