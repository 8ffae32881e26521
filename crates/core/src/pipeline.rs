//! The batch-first mapping pipeline: one reference, one config, any number
//! of reads.
//!
//! [`AsmcapPipeline`] is the public entry point for read mapping. A builder
//! loads and segments the reference **once**, picks an execution backend
//! (see [`crate::backend`]), and then serves
//!
//! * [`AsmcapPipeline::map`] — one read;
//! * [`AsmcapPipeline::map_batch`] — a slice of reads, sharded across
//!   `std::thread::scope` workers.
//!
//! Every read yields a [`MapRecord`] with a [`MapStatus`]
//! (mapped / unmapped / truncated / rejected), and the pipeline aggregates
//! [`PipelineStats`] (cycles, searches, energy, wall-clock) across all calls.
//!
//! # Determinism
//!
//! Results are **independent of the worker count**: the sensing seed of read
//! `i` is derived from the pipeline seed and the read's index via a
//! SplitMix64-style mix ([`read_seed`]), never from shared RNG state. Mapping
//! a batch with 1, 2, or 8 workers — or read-by-read through
//! [`AsmcapPipeline::map`] on a fresh pipeline — produces byte-identical
//! records. `tests/pipeline_api.rs` pins this rule.
//!
//! # Example
//!
//! ```
//! use asmcap::{AsmcapPipeline, PipelineConfig};
//! use asmcap_genome::GenomeModel;
//!
//! let genome = GenomeModel::uniform().generate(4_096, 1);
//! let pipeline = AsmcapPipeline::builder()
//!     .reference(genome.clone())
//!     .config(PipelineConfig {
//!         threshold: 2,
//!         row_width: 64,
//!         ..PipelineConfig::default()
//!     })
//!     .build()?;
//! let record = pipeline.map(&genome.window(777..841));
//! assert!(record.status.is_mapped());
//! assert!(record.positions.contains(&777));
//! # Ok::<(), asmcap::PipelineError>(())
//! ```

use crate::backend::{DeviceBackend, MappingBackend, PairBackend, SoftwareBackend};
use crate::config::MapperConfig;
use crate::extension::{ExtensionConfig, ExtensionStage};
use crate::hdac::HdacParams;
use crate::tasr::TasrParams;
use asmcap_arch::{DeviceBuilder, FaultPlan};
use asmcap_genome::{
    DnaSeq, ErrorProfile, PackedRef, PackedSeq, PrefilterConfig, PrefilterError, PrefilterIndex,
};
use asmcap_metrics::Alignment;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Everything a mapping run needs, in one place — the single config type
/// the CLI flags, the examples, and the library all share.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Edit-distance threshold `T`.
    pub threshold: usize,
    /// Expected error profile (parameterises HDAC and TASR).
    pub profile: ErrorProfile,
    /// HDAC parameters, or `None` to disable.
    pub hdac: Option<HdacParams>,
    /// TASR parameters, or `None` to disable.
    pub tasr: Option<TasrParams>,
    /// Reference segmentation stride (1 = every alignment offset).
    pub stride: usize,
    /// CAM row width = read length in bases.
    pub row_width: usize,
    /// Rows per simulated array (device backend geometry).
    pub rows_per_array: usize,
    /// Pipeline seed; per-read seeds derive from it (see [`read_seed`]).
    pub seed: u64,
    /// Seed-and-extend k-mer prefilter, or `None` (the default) to scan
    /// the full segment list per read. With `None` the pipeline is
    /// byte-identical to the pre-prefilter behaviour; with `Some` each
    /// read's candidates are shortlisted first and only those segments
    /// reach the matching kernels (recall pinned by
    /// `tests/prefilter_equivalence.rs`).
    pub prefilter: Option<PrefilterConfig>,
    /// Extension/alignment stage, or `None` (the default) to stop at
    /// candidate positions. With `Some` each record's best candidate
    /// origins are re-aligned with the banded bit-vector traceback and the
    /// winning [`Alignment`] is attached to the record. The stage is pure
    /// DP: arming it changes *only* [`MapRecord::alignment`] — every other
    /// field stays byte-identical to an extension-off run (pinned by
    /// `tests/packed_equivalence.rs`).
    pub extension: Option<ExtensionConfig>,
    /// Device fault-injection plan, or `None` (the default) for a pristine
    /// device. An **inactive** plan (e.g. [`FaultPlan::none`]) is treated
    /// exactly like `None` — nothing is installed and every result stays
    /// byte-identical. An active plan is only supported on
    /// [`BackendKind::Device`]; other backends fail the build with
    /// [`PipelineError::FaultUnsupported`]. Faults are installed **after**
    /// the reference is stored, then each array's self-test quarantine scan
    /// runs at the pipeline threshold (pinned by `tests/fault_injection.rs`
    /// and the fault pins in `tests/packed_equivalence.rs`).
    pub fault: Option<FaultPlan>,
}

impl Default for PipelineConfig {
    /// The defaults every entry point shares: `T = 8`, Condition-A profile,
    /// both strategies at paper constants, stride 1, 256-base rows in
    /// 256-row arrays, seed 0.
    fn default() -> Self {
        Self {
            threshold: 8,
            profile: ErrorProfile::condition_a(),
            hdac: Some(HdacParams::paper()),
            tasr: Some(TasrParams::paper()),
            stride: 1,
            row_width: 256,
            rows_per_array: 256,
            seed: 0,
            prefilter: None,
            extension: None,
            fault: None,
        }
    }
}

impl PipelineConfig {
    /// The paper's full strategy configuration at a threshold and profile.
    #[must_use]
    pub fn paper(threshold: usize, profile: ErrorProfile) -> Self {
        Self {
            threshold,
            profile,
            ..Self::default()
        }
    }

    /// Plain ED\* matching (no strategies) at a threshold.
    #[must_use]
    pub fn plain(threshold: usize) -> Self {
        Self {
            threshold,
            profile: ErrorProfile::error_free(),
            hdac: None,
            tasr: None,
            ..Self::default()
        }
    }

    /// The per-read matching slice of this config.
    #[must_use]
    pub fn mapper(&self) -> MapperConfig {
        MapperConfig {
            threshold: self.threshold,
            profile: self.profile,
            hdac: self.hdac,
            tasr: self.tasr,
        }
    }
}

/// Which execution engine the pipeline maps through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The simulated multi-array device (cycle + energy faithful).
    #[default]
    Device,
    /// The per-pair engine fast path (statistically equivalent sensing).
    Pair,
    /// The noiseless software ED\* reference.
    Software,
}

impl BackendKind {
    /// Parses a CLI-style backend name.
    ///
    /// # Errors
    ///
    /// Returns the offending string for anything but
    /// `device`/`pair`/`software`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "device" => Ok(Self::Device),
            "pair" => Ok(Self::Pair),
            "software" => Ok(Self::Software),
            other => Err(format!(
                "unknown backend '{other}' (use device, pair, or software)"
            )),
        }
    }

    /// The backend's display name, as [`BackendKind::parse`] accepts it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Device => "device",
            Self::Pair => "pair",
            Self::Software => "software",
        }
    }
}

/// Why a pipeline could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// No reference was supplied to the builder.
    MissingReference,
    /// The reference is shorter than one CAM row.
    ReferenceTooShort {
        /// Reference length in bases.
        reference: usize,
        /// Configured row width.
        row_width: usize,
    },
    /// The segmentation stride is zero.
    ZeroStride,
    /// The CAM row width is zero.
    ZeroRowWidth,
    /// The prefilter configuration is unusable (k-mer length outside
    /// `1..=32`, zero minimizer window, or zero candidate cap).
    BadPrefilter(PrefilterError),
    /// The segmented reference does not fit the device.
    Capacity(asmcap_arch::CapacityError),
    /// An active fault plan was configured on a backend without a device
    /// to inject faults into (only [`BackendKind::Device`] supports it).
    FaultUnsupported {
        /// Display name of the backend that cannot host the plan.
        backend: &'static str,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MissingReference => {
                write!(f, "pipeline builder needs a reference sequence")
            }
            PipelineError::ReferenceTooShort {
                reference,
                row_width,
            } => write!(
                f,
                "reference of {reference} bases is shorter than one {row_width}-base row"
            ),
            PipelineError::ZeroStride => write!(f, "segmentation stride must be positive"),
            PipelineError::ZeroRowWidth => write!(f, "row width must be positive"),
            PipelineError::BadPrefilter(e) => write!(f, "bad prefilter configuration: {e}"),
            PipelineError::Capacity(e) => write!(f, "{e}"),
            PipelineError::FaultUnsupported { backend } => write!(
                f,
                "fault injection requires the device backend ('{backend}' cannot host a fault plan)"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Per-read outcome classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapStatus {
    /// At least one candidate position was found.
    Mapped,
    /// The read was searched but matched nothing.
    Unmapped,
    /// The read was longer than the row width and its row-width prefix
    /// was searched (candidates, if any, are in [`MapRecord::positions`]).
    Truncated,
    /// The read was shorter than the row width and could not be searched.
    Rejected,
}

impl MapStatus {
    /// Whether the status is exactly [`MapStatus::Mapped`] — a full-width
    /// read with candidates. A `Truncated` read can also carry candidates
    /// (a non-empty [`MapRecord::positions`]).
    #[must_use]
    pub fn is_mapped(self) -> bool {
        matches!(self, MapStatus::Mapped)
    }
}

impl fmt::Display for MapStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            MapStatus::Mapped => "mapped",
            MapStatus::Unmapped => "unmapped",
            MapStatus::Truncated => "truncated",
            MapStatus::Rejected => "rejected",
        };
        write!(f, "{label}")
    }
}

/// The structured result of mapping one read.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRecord {
    /// Zero-based read index within this pipeline's lifetime (batch order).
    pub index: u64,
    /// Outcome classification.
    pub status: MapStatus,
    /// Candidate reference positions, ascending. Empty unless candidates
    /// were found (a `Truncated` read can still carry candidates for its
    /// mapped prefix).
    pub positions: Vec<usize>,
    /// Cycles this read consumed.
    pub cycles: u64,
    /// Search operations this read issued.
    pub searches: u64,
    /// Energy this read consumed, in joules.
    pub energy_j: f64,
    /// Best candidate alignment (origin, score, CIGAR), present only when
    /// the extension stage is armed and a candidate aligned within the
    /// band. Always `None` with extension off.
    pub alignment: Option<Alignment>,
    /// Rows where re-sense majority voting fired for this read (0 without
    /// fault injection).
    pub resensed: u64,
    /// Quarantined rows answered by the exact digital fallback for this
    /// read (0 without fault injection).
    pub requarried: u64,
    /// Whether any fault mitigation fired for this read
    /// (`resensed + requarried > 0`) — the read completed, but through a
    /// degraded path.
    pub degraded: bool,
}

/// Aggregated statistics across everything a pipeline has mapped.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineStats {
    /// Reads processed in total.
    pub reads: u64,
    /// Reads with at least one candidate (status `Mapped`).
    pub mapped: u64,
    /// Reads searched but unmatched.
    pub unmapped: u64,
    /// Reads truncated to the row width before searching.
    pub truncated: u64,
    /// Reads rejected as shorter than the row width.
    pub rejected: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Total search operations.
    pub searches: u64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Reads that received an alignment from the extension stage (always
    /// zero with extension off).
    pub aligned: u64,
    /// Reads that completed through a degraded path (any mitigation
    /// fired; always zero without fault injection).
    pub degraded: u64,
    /// Total re-sense voting events across all reads.
    pub resensed: u64,
    /// Total quarantined-row digital fallbacks across all reads.
    pub requarried: u64,
    /// Host wall-clock spent inside `map`/`map_batch`, in seconds.
    pub wall_s: f64,
}

impl PipelineStats {
    fn absorb(&mut self, record: &MapRecord) {
        self.reads += 1;
        match record.status {
            MapStatus::Mapped => self.mapped += 1,
            MapStatus::Unmapped => self.unmapped += 1,
            MapStatus::Truncated => self.truncated += 1,
            MapStatus::Rejected => self.rejected += 1,
        }
        self.cycles += record.cycles;
        self.searches += record.searches;
        self.energy_j += record.energy_j;
        if record.alignment.is_some() {
            self.aligned += 1;
        }
        self.degraded += u64::from(record.degraded);
        self.resensed += record.resensed;
        self.requarried += record.requarried;
    }
}

/// The sensing seed for read `index` under pipeline seed `seed`.
///
/// A SplitMix64-style mix — this is the pipeline's documented determinism
/// rule: read `i` always draws the same noise, whether it is mapped alone,
/// in a batch of a thousand, or on any worker thread.
#[must_use]
pub fn read_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builder for [`AsmcapPipeline`]. Obtain via [`AsmcapPipeline::builder`].
pub struct PipelineBuilder {
    reference: Option<DnaSeq>,
    config: PipelineConfig,
    kind: BackendKind,
    workers: Option<usize>,
}

impl fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("reference_len", &self.reference.as_ref().map(DnaSeq::len))
            .field("config", &self.config)
            .field("kind", &self.kind)
            .field("workers", &self.workers)
            .finish()
    }
}

impl PipelineBuilder {
    fn new() -> Self {
        Self {
            reference: None,
            config: PipelineConfig::default(),
            kind: BackendKind::default(),
            workers: None,
        }
    }

    /// The reference sequence to segment and store.
    #[must_use]
    pub fn reference(mut self, reference: DnaSeq) -> Self {
        self.reference = Some(reference);
        self
    }

    /// The full pipeline configuration.
    #[must_use]
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Which built-in backend to execute on (default: [`BackendKind::Device`]).
    #[must_use]
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Arms the seed-and-extend k-mer prefilter: each read is shortlisted
    /// against a [`asmcap_genome::PrefilterIndex`] built over the packed
    /// reference at [`PipelineBuilder::build`] time, and only shortlisted
    /// segments reach the matching kernels (on the device backend, only
    /// shortlisted rows are sensed). Equivalent to setting
    /// [`PipelineConfig::prefilter`].
    ///
    /// # Examples
    ///
    /// ```
    /// use asmcap::{AsmcapPipeline, PipelineConfig};
    /// use asmcap_genome::{GenomeModel, PrefilterConfig};
    ///
    /// let genome = GenomeModel::uniform().generate(8_192, 1);
    /// let pipeline = AsmcapPipeline::builder()
    ///     .reference(genome.clone())
    ///     .config(PipelineConfig {
    ///         threshold: 2,
    ///         row_width: 128,
    ///         ..PipelineConfig::default()
    ///     })
    ///     .prefilter(PrefilterConfig::default())
    ///     .build()?;
    /// let record = pipeline.map(&genome.window(700..828));
    /// assert!(record.positions.contains(&700));
    /// # Ok::<(), asmcap::PipelineError>(())
    /// ```
    #[must_use]
    pub fn prefilter(mut self, prefilter: PrefilterConfig) -> Self {
        self.config.prefilter = Some(prefilter);
        self
    }

    /// Arms the extension/alignment stage: after the matching kernels,
    /// each record's best candidate origins are re-aligned against the
    /// packed reference with the GenASM-style banded bit-vector traceback
    /// and the winning [`Alignment`] is attached to the record. Equivalent
    /// to setting [`PipelineConfig::extension`].
    ///
    /// # Examples
    ///
    /// ```
    /// use asmcap::{AsmcapPipeline, ExtensionConfig, PipelineConfig};
    /// use asmcap_genome::GenomeModel;
    ///
    /// let genome = GenomeModel::uniform().generate(4_096, 1);
    /// let pipeline = AsmcapPipeline::builder()
    ///     .reference(genome.clone())
    ///     .config(PipelineConfig {
    ///         threshold: 2,
    ///         row_width: 64,
    ///         ..PipelineConfig::default()
    ///     })
    ///     .extension(ExtensionConfig::default())
    ///     .build()?;
    /// let record = pipeline.map(&genome.window(777..841));
    /// let alignment = record.alignment.expect("exact window aligns");
    /// assert_eq!(alignment.origin, 777);
    /// assert_eq!(alignment.score, 0);
    /// assert_eq!(alignment.cigar.to_string(), "64=");
    /// # Ok::<(), asmcap::PipelineError>(())
    /// ```
    #[must_use]
    pub fn extension(mut self, extension: ExtensionConfig) -> Self {
        self.config.extension = Some(extension);
        self
    }

    /// Arms seeded device fault injection ([`FaultPlan`]). Only the
    /// [`BackendKind::Device`] backend can host a plan; building any other
    /// backend with an active plan fails with
    /// [`PipelineError::FaultUnsupported`]. An inactive plan (all rates
    /// zero, e.g. [`FaultPlan::none`]) is equivalent to not calling this.
    #[must_use]
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.config.fault = Some(plan);
        self
    }

    /// Worker threads for [`AsmcapPipeline::map_batch`] (default: available
    /// parallelism, capped at 8). Worker count never changes results.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Loads/segments the reference and assembles the pipeline.
    ///
    /// # Errors
    ///
    /// [`PipelineError::MissingReference`] without a reference,
    /// [`PipelineError::ZeroRowWidth`] / [`PipelineError::ZeroStride`] /
    /// [`PipelineError::ReferenceTooShort`] for degenerate geometry,
    /// [`PipelineError::BadPrefilter`] for an unusable prefilter,
    /// [`PipelineError::FaultUnsupported`] for an active fault plan off the
    /// device backend, and [`PipelineError::Capacity`] if the device cannot
    /// hold the segments.
    pub fn build(self) -> Result<AsmcapPipeline, PipelineError> {
        let config = self.config;
        let width = config.row_width;
        let reference = self.reference.ok_or(PipelineError::MissingReference)?;
        if width == 0 {
            return Err(PipelineError::ZeroRowWidth);
        }
        if config.stride == 0 {
            return Err(PipelineError::ZeroStride);
        }
        if reference.len() < width {
            return Err(PipelineError::ReferenceTooShort {
                reference: reference.len(),
                row_width: width,
            });
        }
        // An active fault plan needs a simulated device to inject into.
        let fault_active = config.fault.as_ref().is_some_and(FaultPlan::is_active);
        if fault_active && self.kind != BackendKind::Device {
            return Err(PipelineError::FaultUnsupported {
                backend: self.kind.name(),
            });
        }
        // The prefilter index and the extension stage share the backend's
        // segmentation: `width`-base segments every `stride` bases. The
        // extension band derives from the threshold unless set explicitly.
        let prefilter = config
            .prefilter
            .map(|prefilter| {
                PrefilterIndex::new(&PackedRef::new(&reference), width, config.stride, prefilter)
                    .map_err(PipelineError::BadPrefilter)
            })
            .transpose()?;
        let extension = config
            .extension
            .map(|extension| ExtensionStage::new(&reference, width, config.threshold, extension));
        let mut quarantined = 0usize;
        let backend: Box<dyn MappingBackend> = match self.kind {
            BackendKind::Device => {
                let rows = crate::backend::segment_count(reference.len(), width, config.stride);
                let mut device = DeviceBuilder::new()
                    .arrays(rows.div_ceil(config.rows_per_array))
                    .rows_per_array(config.rows_per_array)
                    .row_width(width)
                    .build_asmcap();
                device
                    .store_reference(&reference, config.stride)
                    .map_err(PipelineError::Capacity)?;
                let mut backend = DeviceBackend::new(device, config.mapper());
                if let Some(plan) = &config.fault {
                    // Install after the reference is stored, so faults land
                    // on occupied rows and the self-test scan sees the real
                    // stored words. An inactive plan is a no-op by
                    // construction.
                    backend.install_fault_plan(plan);
                    quarantined = backend.quarantined_rows();
                }
                Box::new(backend)
            }
            BackendKind::Pair => Box::new(PairBackend::new(
                reference,
                config.stride,
                width,
                config.mapper(),
            )),
            BackendKind::Software => Box::new(SoftwareBackend::new(
                reference,
                config.stride,
                width,
                config.threshold,
            )),
        };
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8)
        });
        Ok(AsmcapPipeline {
            backend,
            kind: self.kind,
            prefilter,
            extension,
            width,
            workers,
            seed: config.seed,
            fault_armed: fault_active,
            quarantined,
            counter: AtomicU64::new(0),
            stats: Mutex::new(PipelineStats::default()),
        })
    }
}

/// The batch-first mapping pipeline. See the [module docs](self) for the
/// API shape and determinism rule, and [`AsmcapPipeline::builder`] to
/// construct one.
pub struct AsmcapPipeline {
    backend: Box<dyn MappingBackend>,
    kind: BackendKind,
    prefilter: Option<PrefilterIndex>,
    extension: Option<ExtensionStage>,
    width: usize,
    workers: usize,
    seed: u64,
    fault_armed: bool,
    quarantined: usize,
    counter: AtomicU64,
    stats: Mutex<PipelineStats>,
}

impl fmt::Debug for AsmcapPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsmcapPipeline")
            .field("backend", &self.kind.name())
            .field("prefilter", &self.prefilter.as_ref().map(PrefilterIndex::k))
            .field(
                "extension",
                &self.extension.as_ref().map(ExtensionStage::band),
            )
            .field("row_width", &self.width)
            .field("workers", &self.workers)
            .field("seed", &self.seed)
            .finish()
    }
}

impl AsmcapPipeline {
    /// Starts building a pipeline.
    #[must_use]
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::new()
    }

    /// Row width (= read length) in bases.
    #[must_use]
    pub fn row_width(&self) -> usize {
        self.width
    }

    /// The active backend's display name.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.kind.name()
    }

    /// Worker threads used by [`AsmcapPipeline::map_batch`].
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The armed prefilter index, or `None` when every read takes the
    /// full scan.
    #[must_use]
    pub fn prefilter(&self) -> Option<&PrefilterIndex> {
        self.prefilter.as_ref()
    }

    /// Whether the extension/alignment stage is armed.
    #[must_use]
    pub fn extension_armed(&self) -> bool {
        self.extension.is_some()
    }

    /// Whether an active fault plan is installed on the device.
    #[must_use]
    pub fn fault_armed(&self) -> bool {
        self.fault_armed
    }

    /// Rows quarantined by the install-time self-test scan. Zero when no
    /// fault plan is armed; static after build.
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.quarantined
    }

    /// Aggregated statistics across everything mapped so far.
    #[must_use]
    pub fn stats(&self) -> PipelineStats {
        *self.stats_guard()
    }

    /// The stats lock. A thread that panicked while holding it poisons
    /// it, but the guarded value is plain counters that stay valid at
    /// every step of an update (an interrupted batch has counted the
    /// reads absorbed so far), so the lock is recovered rather than
    /// turning one panic into a panic on every later call.
    fn stats_guard(&self) -> MutexGuard<'_, PipelineStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maps one executor tile — the pipeline's only per-read dispatch.
    /// Statuses and truncation are resolved here, and each searchable
    /// read gets its prefilter shortlist (`None` = full scan: no prefilter
    /// armed, or the shortlist's fallback fired). The searchable remainder
    /// drains through [`MappingBackend::map_batch_shortlisted`] in one
    /// call. A record depends only on its read and index, never on the
    /// tile it shared (pinned by `tests/packed_equivalence.rs` /
    /// `tests/pipeline_api.rs`).
    fn map_tile(&self, reads: &[PackedSeq], indices: &[u64]) -> Vec<MapRecord> {
        debug_assert_eq!(reads.len(), indices.len());
        let mut searchable: Vec<PackedSeq> = Vec::with_capacity(reads.len());
        let mut seeds: Vec<u64> = Vec::with_capacity(reads.len());
        let mut shortlists: Vec<Option<Vec<usize>>> = Vec::with_capacity(reads.len());
        // `None` = rejected (too short, never reaches the backend);
        // `Some(())` slots consume backend outcomes in input order.
        let mut searched: Vec<bool> = Vec::with_capacity(reads.len());
        for (read, &index) in reads.iter().zip(indices) {
            if read.len() < self.width {
                searched.push(false);
                continue;
            }
            let query = if read.len() > self.width {
                read.window(0..self.width)
            } else {
                read.clone()
            };
            seeds.push(read_seed(self.seed, index));
            shortlists.push(self.prefilter.as_ref().and_then(|prefilter| {
                let shortlist = prefilter.shortlist(&query);
                (!shortlist.is_full_scan()).then(|| shortlist.starts_ascending())
            }));
            searchable.push(query);
            searched.push(true);
        }
        let outcomes = if searchable.is_empty() {
            Vec::new()
        } else {
            self.backend
                .map_batch_shortlisted(&searchable, &seeds, &shortlists)
        };
        let mut outcomes = outcomes.into_iter();
        let mut queries = searchable.iter();
        reads
            .iter()
            .zip(indices)
            .zip(searched)
            .map(|((read, &index), searched)| {
                if !searched {
                    return MapRecord {
                        index,
                        status: MapStatus::Rejected,
                        positions: Vec::new(),
                        cycles: 0,
                        searches: 0,
                        energy_j: 0.0,
                        alignment: None,
                        resensed: 0,
                        requarried: 0,
                        degraded: false,
                    };
                }
                let outcome = outcomes
                    .next()
                    .expect("one backend outcome per searchable read");
                let query = queries.next().expect("one query per searchable read");
                let status = if read.len() > self.width {
                    MapStatus::Truncated
                } else if outcome.positions.is_empty() {
                    MapStatus::Unmapped
                } else {
                    MapStatus::Mapped
                };
                let alignment = self
                    .extension
                    .as_ref()
                    .and_then(|stage| stage.extend(query, &outcome.positions));
                MapRecord {
                    index,
                    status,
                    positions: outcome.positions,
                    cycles: outcome.cycles,
                    searches: outcome.searches,
                    energy_j: outcome.energy_j,
                    alignment,
                    resensed: outcome.resensed,
                    requarried: outcome.requarried,
                    degraded: outcome.resensed + outcome.requarried > 0,
                }
            })
            .collect()
    }

    /// Maps one read.
    ///
    /// Reads longer than the row width are truncated to it (status
    /// [`MapStatus::Truncated`]); shorter reads are not searched at all
    /// (status [`MapStatus::Rejected`]).
    pub fn map(&self, read: &DnaSeq) -> MapRecord {
        self.map_packed(&PackedSeq::from_seq(read))
    }

    /// [`AsmcapPipeline::map`] over an already packed read — the zero-repack
    /// entry point for callers that hold packed data.
    pub fn map_packed(&self, read: &PackedSeq) -> MapRecord {
        // lint: timing-ok — wall_s is a stats field; decisions never read it.
        let start = Instant::now();
        // lint: relaxed-ok — a fresh-index ticket; no memory is published.
        let index = self.counter.fetch_add(1, Ordering::Relaxed);
        let record = self
            .map_tile(std::slice::from_ref(read), &[index])
            .pop()
            .expect("a tile of one read yields one record");
        let mut stats = self.stats_guard();
        stats.absorb(&record);
        stats.wall_s += start.elapsed().as_secs_f64();
        record
    }

    /// Maps a batch of reads across up to [`AsmcapPipeline::workers`]
    /// scoped threads through the work-stealing tile executor
    /// ([`crate::executor`]): the batch is cut into fixed-size tiles and
    /// workers claim tiles off a shared atomic queue, so a few expensive
    /// reads (a skewed prefilter shortlist, a full-scan fallback) no longer
    /// serialize the batch on one worker.
    ///
    /// Each read is packed once here; everything downstream runs
    /// word-parallel. Records come back in input order and are
    /// byte-identical for every worker count (see the [module docs](self)
    /// determinism rule).
    ///
    /// # Panics
    ///
    /// Propagates panics from worker threads (a panicking backend).
    pub fn map_batch(&self, reads: &[DnaSeq]) -> Vec<MapRecord> {
        let packed: Vec<PackedSeq> = reads.iter().map(PackedSeq::from_seq).collect();
        self.map_batch_packed(&packed)
    }

    /// [`AsmcapPipeline::map_batch`] over already packed reads. Each
    /// executor tile drains through the backend's one entry point
    /// ([`MappingBackend::map_batch_shortlisted`]), and the records stay
    /// byte-identical to mapping each read on its own.
    ///
    /// # Panics
    ///
    /// Propagates panics from worker threads (a panicking backend).
    pub fn map_batch_packed(&self, reads: &[PackedSeq]) -> Vec<MapRecord> {
        let base = self
            .counter
            .fetch_add(reads.len() as u64, Ordering::Relaxed); // lint: relaxed-ok — index ticket only
        self.map_batch_with(reads, &|i| base + i as u64)
    }

    /// [`AsmcapPipeline::map_batch_packed`] with **explicit per-read
    /// indices**: read `i` is mapped as read index `indices[i]`, so its
    /// sensing seed is [`read_seed`]`(pipeline_seed, indices[i])` and its
    /// record carries that index. The pipeline's running read counter is
    /// not consumed.
    ///
    /// This is the entry point for callers whose determinism key is not
    /// arrival order: `asmcap-serve` derives each request's index from the
    /// client-supplied request id, so the same request set produces the
    /// same records under any interleaving, batch assembly, or worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `reads` and `indices` lengths differ; propagates panics
    /// from worker threads (a panicking backend).
    pub fn map_batch_packed_indexed(&self, reads: &[PackedSeq], indices: &[u64]) -> Vec<MapRecord> {
        assert_eq!(
            reads.len(),
            indices.len(),
            "one explicit index per batched read"
        );
        self.map_batch_with(reads, &|i| indices[i])
    }

    /// The shared batch body: tile the index space, drain each tile
    /// through [`AsmcapPipeline::map_tile`] on the work-stealing executor,
    /// absorb stats.
    fn map_batch_with(
        &self,
        reads: &[PackedSeq],
        index_of: &(dyn Fn(usize) -> u64 + Sync),
    ) -> Vec<MapRecord> {
        // lint: timing-ok — wall_s is a stats field; decisions never read it.
        let start = Instant::now();
        let records = crate::executor::run_tiled(reads.len(), self.workers, |tile| {
            let indices: Vec<u64> = tile.clone().map(index_of).collect();
            self.map_tile(&reads[tile], &indices)
        });
        let mut stats = self.stats_guard();
        for record in &records {
            stats.absorb(record);
        }
        stats.wall_s += start.elapsed().as_secs_f64();
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::GenomeModel;

    fn pipeline(workers: usize) -> (AsmcapPipeline, DnaSeq) {
        let genome = GenomeModel::uniform().generate(2_048, 3);
        let pipeline = AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(PipelineConfig {
                threshold: 2,
                row_width: 64,
                ..PipelineConfig::default()
            })
            .workers(workers)
            .build()
            .unwrap();
        (pipeline, genome)
    }

    #[test]
    fn build_validates_inputs() {
        assert!(matches!(
            AsmcapPipeline::builder().build(),
            Err(PipelineError::MissingReference)
        ));
        let genome = GenomeModel::uniform().generate(100, 1);
        let err = AsmcapPipeline::builder()
            .reference(genome.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, PipelineError::ReferenceTooShort { .. }));
        let err = AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(PipelineConfig {
                row_width: 64,
                stride: 0,
                ..PipelineConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, PipelineError::ZeroStride);
        let err = AsmcapPipeline::builder()
            .reference(genome)
            .config(PipelineConfig {
                row_width: 0,
                ..PipelineConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, PipelineError::ZeroRowWidth);
        assert!(err.to_string().contains("row width"), "{err}");
    }

    #[test]
    fn bad_prefilter_k_is_a_typed_error() {
        use asmcap_genome::{KmerError, PrefilterConfig, PrefilterError};
        let genome = GenomeModel::uniform().generate(2_048, 9);
        let build_with = |prefilter: PrefilterConfig| {
            AsmcapPipeline::builder()
                .reference(genome.clone())
                .config(PipelineConfig {
                    threshold: 2,
                    row_width: 64,
                    ..PipelineConfig::default()
                })
                .prefilter(prefilter)
                .build()
        };
        for k in [0usize, 33] {
            let err = build_with(PrefilterConfig {
                k,
                ..PrefilterConfig::default()
            })
            .unwrap_err();
            assert_eq!(
                err,
                PipelineError::BadPrefilter(PrefilterError::Index(KmerError::BadK { k }))
            );
            assert!(err.to_string().contains("1..=32"), "{err}");
        }
        // Degenerate windows and caps are errors too, not panics.
        assert_eq!(
            build_with(PrefilterConfig {
                window: 0,
                ..PrefilterConfig::default()
            })
            .unwrap_err(),
            PipelineError::BadPrefilter(PrefilterError::ZeroWindow)
        );
        assert_eq!(
            build_with(PrefilterConfig {
                max_candidates: 0,
                ..PrefilterConfig::default()
            })
            .unwrap_err(),
            PipelineError::BadPrefilter(PrefilterError::ZeroCandidateCap)
        );
        // The k = 32 boundary builds (and still maps).
        let pipeline = AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(PipelineConfig {
                threshold: 2,
                row_width: 64,
                ..PipelineConfig::default()
            })
            .prefilter(PrefilterConfig {
                k: 32,
                ..PrefilterConfig::default()
            })
            .build()
            .unwrap();
        assert_eq!(pipeline.prefilter().unwrap().k(), 32);
        let record = pipeline.map(&genome.window(500..564));
        assert!(record.positions.contains(&500));
    }

    #[test]
    fn statuses_cover_all_read_lengths() {
        let (pipeline, genome) = pipeline(2);
        let exact = pipeline.map(&genome.window(100..164));
        assert_eq!(exact.status, MapStatus::Mapped);
        let long = pipeline.map(&genome.window(200..300));
        assert_eq!(long.status, MapStatus::Truncated);
        assert!(long.positions.contains(&200), "truncated prefix still maps");
        let short = pipeline.map(&genome.window(0..10));
        assert_eq!(short.status, MapStatus::Rejected);
        assert_eq!(short.cycles, 0);
        let foreign = GenomeModel::uniform().generate(64, 999);
        let unmapped = pipeline.map(&foreign);
        assert_eq!(unmapped.status, MapStatus::Unmapped);

        let stats = pipeline.stats();
        assert_eq!(stats.reads, 4);
        assert_eq!(stats.mapped, 1);
        assert_eq!(stats.truncated, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.unmapped, 1);
        assert!(stats.wall_s > 0.0);
    }

    #[test]
    fn a_panic_holding_the_stats_lock_does_not_break_later_calls() {
        let (mapped, genome) = pipeline(2);
        let reads: Vec<PackedSeq> = (0..6)
            .map(|i| PackedSeq::from_seq(&genome.window(i * 64..(i + 1) * 64)))
            .collect();
        let indices: Vec<u64> = (0..6).collect();
        let expected = pipeline(2).0.map_batch_packed_indexed(&reads, &indices);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = mapped.stats.lock();
                panic!("a worker panics while holding the stats lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(mapped.stats.is_poisoned());
        assert_eq!(mapped.stats().reads, 0);
        assert_eq!(mapped.map_batch_packed_indexed(&reads, &indices), expected);
        assert_eq!(mapped.stats().reads, 6);
    }

    #[test]
    fn read_seed_mix_separates_indices() {
        let a = read_seed(0, 0);
        let b = read_seed(0, 1);
        let c = read_seed(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(read_seed(7, 42), read_seed(7, 42));
    }

    #[test]
    fn active_fault_plan_requires_the_device_backend() {
        let genome = GenomeModel::uniform().generate(2_048, 3);
        let build_with = |backend: BackendKind, plan: FaultPlan| {
            AsmcapPipeline::builder()
                .reference(genome.clone())
                .config(PipelineConfig {
                    threshold: 2,
                    row_width: 64,
                    ..PipelineConfig::default()
                })
                .backend(backend)
                .fault(plan)
                .build()
        };
        for backend in [BackendKind::Pair, BackendKind::Software] {
            let err = build_with(backend, FaultPlan::paper_corner(1)).unwrap_err();
            assert!(matches!(err, PipelineError::FaultUnsupported { .. }));
            assert!(err.to_string().contains("device"), "{err}");
            // An inactive plan is a no-op on every backend.
            let pipeline = build_with(backend, FaultPlan::none()).unwrap();
            assert!(!pipeline.fault_armed());
            assert_eq!(pipeline.quarantined_rows(), 0);
        }
    }

    #[test]
    fn inactive_fault_plan_on_device_is_byte_identical_to_none() {
        let genome = GenomeModel::uniform().generate(2_048, 3);
        let build = |plan: Option<FaultPlan>| {
            let mut builder = AsmcapPipeline::builder()
                .reference(genome.clone())
                .config(PipelineConfig {
                    threshold: 2,
                    row_width: 64,
                    ..PipelineConfig::default()
                })
                .backend(BackendKind::Device)
                .workers(2);
            if let Some(plan) = plan {
                builder = builder.fault(plan);
            }
            builder.build().unwrap()
        };
        let plain = build(None);
        let off = build(Some(FaultPlan::none()));
        assert!(!off.fault_armed());
        let reads: Vec<DnaSeq> = (0..8)
            .map(|i| genome.window(i * 64..(i + 1) * 64))
            .collect();
        assert_eq!(plain.map_batch(&reads), off.map_batch(&reads));
    }

    #[test]
    fn fault_plan_degradation_is_observable_and_deterministic() {
        let genome = GenomeModel::uniform().generate(4_096, 11);
        let build = |workers: usize| {
            AsmcapPipeline::builder()
                .reference(genome.clone())
                .config(PipelineConfig {
                    threshold: 2,
                    row_width: 64,
                    seed: 0x0DD5,
                    ..PipelineConfig::default()
                })
                .backend(BackendKind::Device)
                .fault(FaultPlan {
                    dead_row_rate: 0.05,
                    transient_flip_rate: 0.01,
                    resense_votes: 3,
                    ..FaultPlan::paper_corner(9)
                })
                .workers(workers)
                .build()
                .unwrap()
        };
        let pipeline = build(1);
        assert!(pipeline.fault_armed());
        assert!(
            pipeline.quarantined_rows() > 0,
            "5% dead rows must trip the self-test"
        );
        let reads: Vec<DnaSeq> = (0..16)
            .map(|i| genome.window(i * 64..(i + 1) * 64))
            .collect();
        let records = pipeline.map_batch(&reads);
        let stats = pipeline.stats();
        // Every mitigated read is flagged, and the aggregate counters
        // account for exactly the per-record ones.
        assert_eq!(
            stats.degraded,
            records.iter().filter(|r| r.degraded).count() as u64
        );
        assert_eq!(
            stats.resensed,
            records.iter().map(|r| r.resensed).sum::<u64>()
        );
        assert_eq!(
            stats.requarried,
            records.iter().map(|r| r.requarried).sum::<u64>()
        );
        assert!(stats.requarried > 0, "quarantined rows must be consulted");
        for record in &records {
            assert_eq!(record.degraded, record.resensed + record.requarried > 0);
        }
        // Same seed + plan => identical records, independent of workers.
        for workers in [2usize, 8] {
            assert_eq!(
                build(workers).map_batch(&reads),
                records,
                "workers={workers}"
            );
        }
    }
}
