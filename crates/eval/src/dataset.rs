//! Evaluation datasets with exact ground truth (paper §V-A).
//!
//! The paper builds "metagenomic datasets" by sampling 256-base reads from
//! random genome positions and injecting edits under two mixed error
//! profiles. A pair (read, stored segment) is ground-truth positive at
//! threshold `T` iff the read's anchored semi-global edit distance against
//! the segment *in genome context* is at most `T` (the paper's ED
//! convention, see `asmcap_metrics::edit`).

use asmcap::{AsmMatcher, AsmcapPipeline, BackendKind, PipelineConfig, PipelineError};
use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, PackedSeq, PairDataset};
use asmcap_metrics::edit::anchored_semi_global;
use asmcap_metrics::ConfusionMatrix;

/// The two error-mix conditions of §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Condition {
    /// Substitution-dominant: `e_s = 1 %`, `e_i = e_d = 0.05 %`.
    A,
    /// Indel-dominant: `e_s = 0.1 %`, `e_i = e_d = 0.5 %`.
    B,
}

impl Condition {
    /// The condition's error profile.
    #[must_use]
    pub fn profile(self) -> ErrorProfile {
        match self {
            Condition::A => ErrorProfile::condition_a(),
            Condition::B => ErrorProfile::condition_b(),
        }
    }

    /// The thresholds swept in Fig. 7: 1–8 for Condition A, 2–16 (even)
    /// for Condition B.
    #[must_use]
    pub fn thresholds(self) -> Vec<usize> {
        match self {
            Condition::A => (1..=8).collect(),
            Condition::B => (1..=8).map(|t| 2 * t).collect(),
        }
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Condition::A => "Condition A (es=1%, ei=ed=0.05%)",
            Condition::B => "Condition B (es=0.1%, ei=ed=0.5%)",
        }
    }
}

/// Per-threshold cycle statistics of an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleStats {
    /// Mean search cycles per pair decision.
    pub mean_cycles: f64,
    /// Fraction of decisions that issued an HDAC HD search.
    pub hd_fraction: f64,
    /// Mean TASR rotations per decision.
    pub mean_rotations: f64,
}

/// Origin-recovery result of [`EvalDataset::mapping_recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingRecovery {
    /// Reads whose true origin appeared among the candidates.
    pub recovered: usize,
    /// Reads mapped in total.
    pub reads: usize,
}

/// A fully labelled evaluation dataset.
///
/// Every (segment, read) pair is 2-bit packed **once** at build time:
/// [`EvalDataset::evaluate`] scores matchers through
/// [`AsmMatcher::matches_packed`], so a Fig. 7 sweep (engines × thresholds
/// × pairs) never re-packs or re-walks a byte-per-base slice — the
/// "packed everywhere else" port of the eval harness.
#[derive(Debug, Clone)]
pub struct EvalDataset {
    genome: DnaSeq,
    pairs: PairDataset,
    packed_pairs: Vec<(PackedSeq, PackedSeq)>,
    gt_distance: Vec<usize>,
}

/// Context bases appended past the segment when computing ground truth, so
/// deletions near the segment end are charged their true cost (Fig. 2's ED
/// convention). Must exceed the largest threshold swept.
const CONTEXT_SLACK: usize = 24;

impl EvalDataset {
    /// Builds the dataset for a condition: `reads` reads of `read_len`
    /// bases with `decoys` decoy segments each, sampled from a fresh
    /// uniform genome of `genome_len` bases.
    ///
    /// # Panics
    ///
    /// Panics if the genome is too short for the read length (see
    /// [`asmcap_genome::ReadSampler`]).
    #[must_use]
    pub fn build(
        condition: Condition,
        reads: usize,
        decoys: usize,
        read_len: usize,
        genome_len: usize,
        seed: u64,
    ) -> Self {
        Self::build_with_model(
            asmcap_genome::ErrorModel::Iid(condition.profile()),
            reads,
            decoys,
            read_len,
            genome_len,
            seed,
        )
    }

    /// Like [`EvalDataset::build`] but with an explicit error model — used
    /// by the burst-length ablation that stresses TASR with consecutive
    /// indels.
    ///
    /// # Panics
    ///
    /// Same conditions as [`EvalDataset::build`].
    #[must_use]
    pub fn build_with_model(
        model: asmcap_genome::ErrorModel,
        reads: usize,
        decoys: usize,
        read_len: usize,
        genome_len: usize,
        seed: u64,
    ) -> Self {
        let genome = GenomeModel::uniform().generate(genome_len, seed);
        let pairs =
            PairDataset::build_with_model(&genome, read_len, model, reads, decoys, seed ^ 0x5EED);
        let gt_distance = pairs
            .pairs()
            .iter()
            .map(|pair| {
                let read = &pairs.read_for(pair).bases;
                let end = (pair.segment_origin + read_len + CONTEXT_SLACK).min(genome.len());
                let context = &genome.as_slice()[pair.segment_origin..end];
                anchored_semi_global(read.as_slice(), context)
            })
            .collect();
        let packed_pairs = pairs
            .pairs()
            .iter()
            .map(|pair| {
                (
                    PackedSeq::from_seq(&pair.segment),
                    PackedSeq::from_seq(&pairs.read_for(pair).bases),
                )
            })
            .collect();
        Self {
            genome,
            pairs,
            packed_pairs,
            gt_distance,
        }
    }

    /// The underlying pair dataset.
    #[must_use]
    pub fn pairs(&self) -> &PairDataset {
        &self.pairs
    }

    /// The reference genome.
    #[must_use]
    pub fn genome(&self) -> &DnaSeq {
        &self.genome
    }

    /// The exact context-aware distance of pair `index`.
    #[must_use]
    pub fn distance(&self, index: usize) -> usize {
        self.gt_distance[index]
    }

    /// Ground-truth label of pair `index` at `threshold`.
    #[must_use]
    pub fn ground_truth(&self, index: usize, threshold: usize) -> bool {
        self.gt_distance[index] <= threshold
    }

    /// Scores a matcher over every pair at one threshold, through the
    /// packed pairs cached at build time ([`AsmMatcher::matches_packed`]).
    /// Decisions are identical to the byte-per-base path — the engines'
    /// packed overrides are pinned byte-identical, and the trait default
    /// unpacks — so F1 scores are unchanged; only the per-pair walk cost
    /// drops.
    pub fn evaluate(
        &self,
        matcher: &mut dyn AsmMatcher,
        threshold: usize,
    ) -> (ConfusionMatrix, CycleStats) {
        let mut cm = ConfusionMatrix::new();
        let mut cycles = 0u64;
        let mut hd = 0u64;
        let mut rotations = 0u64;
        for (index, (segment, read)) in self.packed_pairs.iter().enumerate() {
            let outcome = matcher.matches_packed(segment, read, threshold);
            cm.record(self.ground_truth(index, threshold), outcome.matched);
            cycles += u64::from(outcome.cycles);
            hd += u64::from(outcome.used_hd);
            rotations += u64::from(outcome.rotations);
        }
        let n = self.pairs.pairs().len() as f64;
        (
            cm,
            CycleStats {
                mean_cycles: cycles as f64 / n,
                hd_fraction: hd as f64 / n,
                mean_rotations: rotations as f64 / n,
            },
        )
    }

    /// Builds an [`AsmcapPipeline`] over this dataset's genome: paper
    /// strategy configuration at `threshold` under the dataset's error
    /// profile, stride-1 segmentation at the dataset's read length.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`] from the builder (cannot happen for a
    /// well-formed dataset, whose genome always exceeds the read length).
    pub fn pipeline(
        &self,
        threshold: usize,
        backend: BackendKind,
        seed: u64,
    ) -> Result<AsmcapPipeline, PipelineError> {
        AsmcapPipeline::builder()
            .reference(self.genome.clone())
            .config(PipelineConfig {
                row_width: self.pairs.read_len(),
                seed,
                ..PipelineConfig::paper(threshold, *self.pairs.profile())
            })
            .backend(backend)
            .build()
    }

    /// Maps every sampled read through `pipeline` as one batch and counts
    /// how many recover their true origin among the candidates — the
    /// end-to-end mapping metric complementing the per-pair F1 sweeps.
    #[must_use]
    pub fn mapping_recovery(&self, pipeline: &AsmcapPipeline) -> MappingRecovery {
        let reads: Vec<DnaSeq> = self.pairs.reads().iter().map(|r| r.bases.clone()).collect();
        let records = pipeline.map_batch(&reads);
        let recovered = records
            .iter()
            .zip(self.pairs.reads())
            .filter(|(record, read)| record.positions.contains(&read.origin))
            .count();
        MappingRecovery {
            recovered,
            reads: reads.len(),
        }
    }

    /// Mean ED\* across all pairs — the `n_mis` level the Eq. 1 energy
    /// model sees on this workload. Runs on the cached packed pairs via
    /// the word-parallel kernel.
    #[must_use]
    pub fn mean_ed_star(&self) -> f64 {
        let total: usize = self
            .packed_pairs
            .iter()
            .map(|(segment, read)| asmcap_metrics::ed_star_packed(segment, read))
            .sum();
        total as f64 / self.packed_pairs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap::ExactEdMatcher;

    fn tiny() -> EvalDataset {
        EvalDataset::build(Condition::A, 12, 4, 128, 20_000, 7)
    }

    #[test]
    fn thresholds_match_fig7_axes() {
        assert_eq!(Condition::A.thresholds(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(Condition::B.thresholds(), vec![2, 4, 6, 8, 10, 12, 14, 16]);
    }

    #[test]
    fn aligned_pairs_have_small_distance() {
        let ds = tiny();
        for (index, pair) in ds.pairs().pairs().iter().enumerate() {
            if pair.is_aligned {
                assert!(
                    ds.distance(index) <= 12,
                    "aligned pair {index} has distance {}",
                    ds.distance(index)
                );
            } else {
                assert!(
                    ds.distance(index) > 30,
                    "decoy pair {index} has distance {}",
                    ds.distance(index)
                );
            }
        }
    }

    #[test]
    fn evaluate_runs_a_matcher_over_all_pairs() {
        let ds = tiny();
        let mut oracle = ExactEdMatcher::new();
        let (cm, stats) = ds.evaluate(&mut oracle, 8);
        assert_eq!(cm.total() as usize, ds.pairs().pairs().len());
        assert_eq!(stats.mean_cycles, 1.0);
        // Global ED against the bare segment can only overestimate the
        // context distance, so the oracle never false-positives.
        assert_eq!(cm.false_positives, 0);
    }

    #[test]
    fn pipeline_recovers_dataset_read_origins() {
        let ds = EvalDataset::build(Condition::A, 6, 2, 128, 10_000, 9);
        let pipeline = ds.pipeline(8, asmcap::BackendKind::Device, 1).unwrap();
        let recovery = ds.mapping_recovery(&pipeline);
        assert_eq!(recovery.reads, 6);
        assert!(
            recovery.recovered >= 5,
            "only {}/6 origins recovered",
            recovery.recovered
        );
    }

    #[test]
    fn mean_ed_star_is_plausible() {
        let ds = tiny();
        let mean = ds.mean_ed_star();
        // Aligned pairs are near 0; decoys near 0.42 * 128 ≈ 54. With a
        // 1:4 mix the mean sits around 43.
        assert!(mean > 20.0 && mean < 60.0, "mean ED* {mean}");
    }
}
