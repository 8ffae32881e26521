//! # ASMCap
//!
//! A from-scratch reproduction of *“ASMCap: An Approximate String Matching
//! Accelerator for Genome Sequence Analysis Based on Capacitive Content
//! Addressable Memory”* (DAC 2023).
//!
//! ASMCap matches DNA reads against stored reference segments with the
//! neighbor-tolerant **ED\*** distance evaluated in one shot by a capacitive
//! multi-level CAM, and corrects ED\*'s two systematic misjudgments with
//! two hardware-friendly strategies:
//!
//! * [`hdac`] — **Hamming-Distance Aid Correction** for
//!   substitution-dominant edits (paper Algorithm 1);
//! * [`tasr`] — **Threshold-Aware Sequence Rotation** for consecutive
//!   indels (paper Algorithm 2).
//!
//! # The pipeline API
//!
//! The public mapping surface is one type: [`AsmcapPipeline`]. A builder
//! loads and segments the reference once, picks an execution backend, and
//! then maps single reads or batches (sharded across threads with
//! worker-count-independent results) — yielding
//! [`MapRecord`]s with per-read [`MapStatus`] and aggregated
//! [`PipelineStats`]:
//!
//! ```
//! use asmcap::{AsmcapPipeline, BackendKind, PipelineConfig};
//! use asmcap_genome::{ErrorProfile, GenomeModel, ReadSampler};
//!
//! // A synthetic reference and reads with Condition-A errors.
//! let genome = GenomeModel::uniform().generate(10_000, 1);
//! let sampler = ReadSampler::new(256, ErrorProfile::condition_a());
//! let reads: Vec<_> = sampler
//!     .sample_many(&genome, 4, 42)
//!     .into_iter()
//!     .map(|r| r.bases)
//!     .collect();
//!
//! // One pipeline: reference stored once, reads mapped in a batch.
//! let pipeline = AsmcapPipeline::builder()
//!     .reference(genome.clone())
//!     .config(PipelineConfig::paper(8, ErrorProfile::condition_a()))
//!     .backend(BackendKind::Device)
//!     .build()?;
//! for record in pipeline.map_batch(&reads) {
//!     assert!(record.status.is_mapped());
//! }
//! let stats = pipeline.stats();
//! assert_eq!(stats.mapped, 4);
//! # Ok::<(), asmcap::PipelineError>(())
//! ```
//!
//! Three [`backend`] implementations sit behind the [`MappingBackend`]
//! trait: [`DeviceBackend`] (the simulated 512-array device with full cycle
//! and energy accounting), [`PairBackend`] (the per-pair engine fast path
//! used by the accuracy sweeps), and [`SoftwareBackend`] (a noiseless ED\*
//! reference). A read longer than the CAM row has its row-width prefix
//! searched and is marked [`MapStatus::Truncated`].
//!
//! The lower layers remain public for evaluation code: [`matcher`] (the
//! [`AsmMatcher`] trait and reference matchers) and [`engine`]
//! ([`AsmcapEngine`] / [`EdamEngine`] per-pair engines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod backend;
pub mod config;
pub mod engine;
pub mod executor;
pub mod extension;
pub mod hdac;
pub mod matcher;
pub mod pipeline;
pub mod tasr;

pub use backend::{
    segment_count, segment_starts, BackendOutcome, DeviceBackend, MappingBackend, PairBackend,
    SoftwareBackend,
};
pub use config::{AsmcapConfig, EdamConfig, MapperConfig};
pub use engine::{AsmcapEngine, EdamEngine};
pub use extension::ExtensionConfig;
pub use hdac::{Hdac, HdacParams};
pub use matcher::{AsmMatcher, ExactEdMatcher, MatchOutcome, NoiselessEdStarMatcher};
pub use pipeline::{
    read_seed, AsmcapPipeline, BackendKind, MapRecord, MapStatus, PipelineBuilder, PipelineConfig,
    PipelineError, PipelineStats,
};
pub use tasr::{RotationSchedule, Tasr, TasrParams};

// The fault model lives in `asmcap-arch` (faults are a device artefact);
// re-exported here because the pipeline config embeds the plan.
pub use asmcap_arch::FaultPlan;

// The prefilter's types live in `asmcap-genome` (the index is a genome
// artefact, like the packing); re-exported here because the pipeline
// config embeds them.
pub use asmcap_genome::{PrefilterConfig, PrefilterError, PrefilterIndex, Shortlist};

// The alignment types live in `asmcap-metrics` (the traceback is a metric
// artefact, like the distances); re-exported here because `MapRecord`
// embeds them when the extension stage is armed.
pub use asmcap_metrics::{Alignment, Cigar};

/// Deterministic RNG shared across the workspace (ChaCha8).
pub type Rng = asmcap_circuit::Rng;

/// Creates the workspace-standard deterministic RNG from a `u64` seed.
pub fn rng(seed: u64) -> Rng {
    asmcap_circuit::rng(seed)
}
