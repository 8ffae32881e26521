//! The named workloads and the seeded inputs each one generates.
//!
//! Every workload uses a uniform synthetic reference, 128-base rows at
//! stride 8, the device backend, and reads sampled on the stride grid. The
//! program under test only ever sees the generated reads; the planted
//! origins stay here, for scoring.

use asmcap::{AsmcapPipeline, BackendKind, ExtensionConfig, PipelineConfig, PrefilterConfig};
use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, PackedSeq, ReadSampler};
use rand::Rng as _;

/// Row width (= read length) in bases.
pub const WIDTH: usize = 128;
/// Reference segmentation stride; read origins sit on this grid.
pub const STRIDE: usize = 8;
/// Pipeline worker threads.
pub const WORKERS: usize = 2;
/// The pipeline's sensing seed: part of the configuration, not an input.
pub const PIPELINE_SEED: u64 = 0xA5C0_BE9C;

/// How the load reaches the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `map_batch_packed_indexed` called directly, in fixed batches.
    Offline,
    /// A loopback `Server` driven by closed-loop connections.
    Serve,
}

/// The paper's read error conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Substitution-heavy: `e_s = 1%`, `e_i = e_d = 0.05%`.
    A,
    /// Indel-heavy: `e_s = 0.1%`, `e_i = e_d = 0.5%`.
    B,
}

impl Condition {
    #[must_use]
    pub fn profile(self) -> ErrorProfile {
        match self {
            Condition::A => ErrorProfile::condition_a(),
            Condition::B => ErrorProfile::condition_b(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub reference_len: usize,
    pub condition: Condition,
    pub threshold: usize,
    pub prefilter: bool,
    pub extension: bool,
    /// One read in this many comes from a foreign reference (0 = none).
    pub foreign_every: usize,
    /// Distinct reads generated; the timed loop cycles over them.
    pub pool: usize,
    pub mode: Mode,
}

pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "shortlist_1m",
        reference_len: 1 << 20,
        condition: Condition::A,
        threshold: 6,
        prefilter: true,
        extension: true,
        foreign_every: 0,
        pool: 4_096,
        mode: Mode::Offline,
    },
    Workload {
        name: "fullscan_b",
        reference_len: 1 << 14,
        condition: Condition::B,
        threshold: 8,
        prefilter: false,
        extension: false,
        foreign_every: 8,
        pool: 1_024,
        mode: Mode::Offline,
    },
    Workload {
        name: "serve_mixed",
        reference_len: 1 << 14,
        condition: Condition::A,
        threshold: 6,
        prefilter: true,
        extension: false,
        foreign_every: 128,
        pool: 4_096,
        mode: Mode::Serve,
    },
];

#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    #[must_use]
    pub fn config(&self) -> PipelineConfig {
        PipelineConfig {
            row_width: WIDTH,
            stride: STRIDE,
            seed: PIPELINE_SEED,
            prefilter: self.prefilter.then(PrefilterConfig::default),
            extension: self.extension.then(ExtensionConfig::default),
            ..PipelineConfig::paper(self.threshold, self.condition.profile())
        }
    }

    /// Builds the pipeline under test; the caller times this.
    ///
    /// # Panics
    ///
    /// Panics if the fixed configuration is rejected (a benchmark bug).
    #[must_use]
    pub fn build_pipeline(&self, reference: DnaSeq) -> AsmcapPipeline {
        AsmcapPipeline::builder()
            .reference(reference)
            .config(self.config())
            .backend(BackendKind::Device)
            .workers(WORKERS)
            .build()
            .expect("benchmark pipeline configuration is valid")
    }
}

/// SplitMix64 over `seed` and a stream number: independent sub-seeds.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a workload run derives from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub reference: DnaSeq,
    /// The reads, exactly [`WIDTH`] bases each, packed.
    pub reads: Vec<PackedSeq>,
    /// Planted origin of each read; `None` for a foreign read.
    pub origins: Vec<Option<usize>>,
}

impl Inputs {
    /// # Panics
    ///
    /// Panics if a reference is too short to sample from (a workload bug).
    #[must_use]
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        let reference = GenomeModel::uniform().generate(workload.reference_len, mix(seed, 1));
        let foreign = (workload.foreign_every > 0)
            .then(|| GenomeModel::uniform().generate(workload.reference_len, mix(seed, 2)));
        let sampler = ReadSampler::new(WIDTH, workload.condition.profile());
        let mut rng = asmcap_genome::rng(mix(seed, 3));
        let mut reads = Vec::with_capacity(workload.pool);
        let mut origins = Vec::with_capacity(workload.pool);
        for i in 0..workload.pool {
            let from_foreign = foreign
                .as_ref()
                .filter(|_| i % workload.foreign_every == workload.foreign_every - 1);
            let source = from_foreign.unwrap_or(&reference);
            let grid = sampler
                .max_origin(source.len())
                .expect("reference holds a read")
                / STRIDE
                + 1;
            let origin = (rng.gen::<u64>() % grid as u64) as usize * STRIDE;
            let read = sampler.sample_at(source, origin, &mut rng);
            assert_eq!(read.bases.len(), WIDTH, "sampled reads are row-width");
            reads.push(PackedSeq::from_seq(&read.bases));
            origins.push(from_foreign.is_none().then_some(origin));
        }
        Inputs {
            reference,
            reads,
            origins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        Workload {
            name: "test",
            reference_len: 4_096,
            pool: 64,
            ..*by_name("fullscan_b").unwrap()
        }
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let w = small();
        let a = Inputs::generate(&w, 7);
        assert_eq!(a, Inputs::generate(&w, 7));
        let b = Inputs::generate(&w, 8);
        assert_ne!(a.reference, b.reference);
        assert_ne!(a.reads, b.reads);
    }

    #[test]
    fn reads_sit_on_the_stride_grid_with_the_foreign_share() {
        let w = small();
        let inputs = Inputs::generate(&w, 3);
        assert_eq!(inputs.reads.len(), 64);
        assert!(inputs.reads.iter().all(|r| r.len() == WIDTH));
        let foreign = inputs.origins.iter().filter(|o| o.is_none()).count();
        assert_eq!(foreign, 64 / w.foreign_every);
        for origin in inputs.origins.iter().flatten() {
            assert_eq!(origin % STRIDE, 0);
            assert!(origin + WIDTH <= w.reference_len);
        }
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert!(std::ptr::eq(by_name(w.name).unwrap(), w));
        }
        assert!(by_name("nope").is_none());
    }
}
