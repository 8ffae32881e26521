//! Pluggable execution engines behind [`crate::AsmcapPipeline`].
//!
//! A [`MappingBackend`] turns one row-width read into candidate reference
//! positions. The pipeline owns batching, sharding, statuses, and statistics;
//! a backend only answers "where does this read match, and what did the
//! search cost". Three implementations ship:
//!
//! * [`DeviceBackend`] — the hardware-faithful path through the simulated
//!   multi-array device (instruction-level cycle and energy accounting);
//! * [`PairBackend`] — the per-pair [`crate::AsmcapEngine`] fast path used
//!   by the accuracy sweeps: statistically equivalent sensing without
//!   materialising arrays (and therefore without an energy model);
//! * [`SoftwareBackend`] — a noiseless pure-software ED\* reference, the
//!   functional ground truth the hardware paths approximate.
//!
//! Backends take `&self` and a **per-read seed**: all mutable state (sensing
//! RNG, rotation registers) is created per call, which is what lets
//! [`crate::AsmcapPipeline::map_batch`] shard reads across threads while
//! staying bit-identical to a sequential run.
//!
//! All three built-in backends run on the packed matchplane: the reference
//! is 2-bit packed once at construction, reads arrive packed through
//! [`MappingBackend::map_packed`], and every distance is computed by the
//! word-parallel kernels in `asmcap-metrics` over zero-copy
//! [`asmcap_genome::SegmentView`]s — no per-segment re-slicing anywhere.
//!
//! They also all honour a prefilter shortlist
//! ([`MappingBackend::map_shortlisted`]): when the pipeline's k-mer
//! prefilter is on, only shortlisted segment starts reach the kernels —
//! the software and pair paths skip unlisted segments outright, and the
//! device path senses only the masked-in rows through
//! [`asmcap_arch::AsmcapDevice::search_packed_masked`].

use crate::mapper::MapperConfig;
use asmcap_arch::{AsmcapDevice, DeviceSearchResult, FaultPlan, MatchMode, RowId, RowMask};
use asmcap_circuit::ChargeDomainCam;
use asmcap_genome::{DnaSeq, PackedRef, PackedSeq};
use asmcap_metrics::ed_star_packed;
use rand::Rng as _;
use std::collections::BTreeMap;

/// What one backend invocation found and what it cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BackendOutcome {
    /// Genome origins of all matching stored segments, ascending.
    pub positions: Vec<usize>,
    /// Cycles consumed (1 read latch + 1 per search operation).
    pub cycles: u64,
    /// Search operations issued.
    pub searches: u64,
    /// Energy in joules (0 for backends without a circuit energy model).
    pub energy_j: f64,
    /// Rows where re-sense majority voting fired (0 without fault
    /// injection).
    pub resensed: u64,
    /// Quarantined rows answered by the exact digital fallback (0 without
    /// fault injection).
    pub requarried: u64,
}

/// One execution engine the pipeline can map reads through.
///
/// Implementations must be `Send + Sync`: [`crate::AsmcapPipeline::map_batch`]
/// calls [`MappingBackend::map_seeded`] concurrently from scoped worker
/// threads. All randomness must derive from the passed `seed` so a read's
/// result depends only on `(read, seed)`, never on which worker ran it.
///
/// [`MappingBackend::map_seeded`] is the required method, so a backend that
/// implements nothing fails at compile time. Packed-native backends (all
/// three built-ins) additionally override [`MappingBackend::map_packed`] —
/// the entry point the pipeline calls — and implement `map_seeded` as a
/// pack-and-forward one-liner; slice-based backends implement only
/// `map_seeded` and inherit the unpacking default of `map_packed`.
pub trait MappingBackend: Send + Sync {
    /// Short display name for reports (e.g. `"device"`).
    fn name(&self) -> &'static str;

    /// Row width every read must match exactly (the pipeline truncates or
    /// rejects other lengths before calling in).
    fn row_width(&self) -> usize;

    /// Maps one row-width read with all randomness derived from `seed`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `read.len() != self.row_width()`.
    fn map_seeded(&self, read: &DnaSeq, seed: u64) -> BackendOutcome;

    /// [`MappingBackend::map_seeded`] over an already packed read — the
    /// entry point the pipeline calls (it packs each read exactly once).
    ///
    /// # Panics
    ///
    /// Implementations panic if `read.len() != self.row_width()`.
    fn map_packed(&self, read: &PackedSeq, seed: u64) -> BackendOutcome {
        self.map_seeded(&read.to_seq(), seed)
    }

    /// [`MappingBackend::map_packed`] restricted to a prefilter shortlist:
    /// `candidates` holds segment start offsets (ascending, on the shared
    /// [`segment_starts`] grid) and only those segments may be evaluated.
    ///
    /// The default ignores the shortlist and scans everything — always
    /// correct, so custom backends keep compiling — while the three
    /// built-ins override it: the software and pair paths iterate only the
    /// shortlisted starts, and the device path senses only the masked-in
    /// rows ([`asmcap_arch::AsmcapDevice::search_packed_masked`]). With
    /// every stored start listed, each built-in is byte-identical to
    /// [`MappingBackend::map_packed`], RNG draws included.
    ///
    /// # Panics
    ///
    /// Implementations panic if `read.len() != self.row_width()` or
    /// `candidates` is not sorted ascending.
    fn map_shortlisted(&self, read: &PackedSeq, seed: u64, candidates: &[usize]) -> BackendOutcome {
        let _ = candidates;
        self.map_packed(read, seed)
    }

    /// Maps a whole batch of row-width reads in one call — the entry point
    /// [`crate::AsmcapPipeline::map_batch_packed`] drains each executor
    /// tile through, and the surface a serving coalescer batches for.
    ///
    /// `shortlists[i]` is read `i`'s prefilter shortlist (`None` = full
    /// scan — no prefilter armed, or its fallback fired). The contract is
    /// **byte-identity with the per-read path**: `outcomes[i]` must equal
    /// `map_packed(&reads[i], seeds[i])` when `shortlists[i]` is `None`
    /// and `map_shortlisted(&reads[i], seeds[i], &shortlists[i])`
    /// otherwise — positions, cycle/energy accounting, and RNG draw order
    /// included. The default dispatches read-by-read (trivially
    /// identical); [`DeviceBackend`] overrides it to issue each search
    /// instruction once for the whole batch through
    /// [`asmcap_arch::AsmcapDevice::search_packed_batch`] /
    /// [`asmcap_arch::AsmcapDevice::search_packed_batch_masked`], whose
    /// per-read byte-identity is pinned at the arch layer.
    ///
    /// # Panics
    ///
    /// Implementations panic if `reads`, `seeds`, and `shortlists` lengths
    /// differ, any read width differs from the row width, or a shortlist
    /// is not sorted ascending.
    fn map_batch_shortlisted(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        shortlists: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome> {
        assert_eq!(reads.len(), seeds.len(), "one seed per batched read");
        assert_eq!(
            reads.len(),
            shortlists.len(),
            "one shortlist slot per batched read"
        );
        reads
            .iter()
            .zip(seeds)
            .zip(shortlists)
            .map(|((read, &seed), shortlist)| match shortlist {
                None => self.map_packed(read, seed),
                Some(candidates) => self.map_shortlisted(read, seed, candidates),
            })
            .collect()
    }
}

pub(crate) fn collect(result: &DeviceSearchResult) -> BTreeMap<RowId, usize> {
    result.matches.iter().map(|m| (m.id, m.n_mis)).collect()
}

/// The segment start offsets a `width`-row backend stores for `reference`
/// at `stride` — the one segmentation rule every backend shares (and the
/// device's [`asmcap_arch::AsmcapDevice::store_reference`] follows).
///
/// # Panics
///
/// Panics if `stride` is zero or the reference is shorter than one row.
#[must_use]
pub fn segment_starts(reference: &DnaSeq, width: usize, stride: usize) -> Vec<usize> {
    assert!(stride > 0, "stride must be positive");
    assert!(reference.len() >= width, "reference shorter than one row");
    (0..=reference.len() - width).step_by(stride).collect()
}

/// How many segments [`segment_starts`] would produce, without allocating
/// them — for sizing devices over large references.
///
/// # Panics
///
/// Panics if `stride` is zero or the reference is shorter than one row.
#[must_use]
pub fn segment_count(reference_len: usize, width: usize, stride: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(reference_len >= width, "reference shorter than one row");
    (reference_len - width) / stride + 1
}

/// The hardware-faithful backend: searches through the simulated
/// multi-array device, with HDAC's HD-mode search and TASR's rotated
/// searches issued exactly as the controller would sequence them.
///
/// One hardware-faithful detail carried over from the device path: HDAC
/// draws its random number **once per read** (a host-side draw steering the
/// result MUX for all rows), rather than once per pair.
#[derive(Debug)]
pub struct DeviceBackend {
    device: AsmcapDevice<ChargeDomainCam>,
    config: MapperConfig,
    fault: Option<FaultPlan>,
}

impl DeviceBackend {
    /// Wraps a device that already stores the segmented reference.
    #[must_use]
    pub fn new(device: AsmcapDevice<ChargeDomainCam>, config: MapperConfig) -> Self {
        Self {
            device,
            config,
            fault: None,
        }
    }

    /// Installs `plan` on the wrapped device (instantiation + self-test
    /// quarantine at this backend's threshold) and arms the per-read fault
    /// streams. An inactive plan (e.g. [`FaultPlan::none`]) uninstalls all
    /// fault state, leaving the backend byte-identical to a fresh one.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.device.install_faults(plan, self.config.threshold);
        self.fault = plan.is_active().then(|| plan.clone());
    }

    /// The armed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Quarantined rows across the device (0 without faults).
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.device.quarantined_rows()
    }

    /// The wrapped device.
    #[must_use]
    pub fn device(&self) -> &AsmcapDevice<ChargeDomainCam> {
        &self.device
    }

    /// The per-read matching configuration.
    #[must_use]
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// One device search, full or row-masked, optionally through the
    /// installed fault model (the caller threads one fault stream per
    /// read across all of that read's searches).
    fn search(
        &self,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        mask: Option<&RowMask>,
        rng: &mut crate::Rng,
        fault_rng: Option<&mut crate::Rng>,
    ) -> DeviceSearchResult {
        match (mask, fault_rng) {
            (Some(mask), Some(fault_rng)) => self
                .device
                .search_packed_masked_with_faults(read, threshold, mode, mask, rng, fault_rng),
            (Some(mask), None) => self
                .device
                .search_packed_masked(read, threshold, mode, mask, rng),
            (None, Some(fault_rng)) => self
                .device
                .search_packed_with_faults(read, threshold, mode, rng, fault_rng),
            (None, None) => self.device.search_packed(read, threshold, mode, rng),
        }
    }

    /// The shared body of [`MappingBackend::map_packed`] (no mask) and
    /// [`MappingBackend::map_shortlisted`] (shortlist mask): identical
    /// instruction sequencing either way, so the unmasked call stays
    /// byte-identical to the pre-prefilter path.
    fn run(&self, read: &PackedSeq, seed: u64, mask: Option<&RowMask>) -> BackendOutcome {
        assert_eq!(
            read.len(),
            self.row_width(),
            "read must match the row width"
        );
        let t = self.config.threshold;
        // Same split as the deprecated `ReadMapper`: one stream for sensing
        // noise, one for the host-side HDAC draw. Fault injection adds a
        // third, dedicated stream so the first two keep their draw order.
        let mut sense_rng = crate::rng(seed);
        let mut host_rng = crate::rng(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let mut fault_rng = self.fault.as_ref().map(|plan| plan.read_fault_rng(seed));
        let mut searches = 0u64;
        let mut energy = 0.0f64;
        let mut resensed = 0u64;
        let mut requarried = 0u64;

        // Cycle 1 (after the latch): the ED* search.
        let base = self.search(
            read,
            t,
            MatchMode::EdStar,
            mask,
            &mut sense_rng,
            fault_rng.as_mut(),
        );
        searches += 1;
        energy += base.stats.energy_j;
        resensed += base.stats.resensed;
        requarried += base.stats.requarried;
        let mut matched: BTreeMap<RowId, usize> = collect(&base);

        // HDAC: one HD-mode search, one host-side draw for the result MUX.
        if let Some(hdac) = self.config.hdac {
            if hdac.enabled(&self.config.profile, t) {
                let hd = self.search(
                    read,
                    t,
                    MatchMode::Hamming,
                    mask,
                    &mut sense_rng,
                    fault_rng.as_mut(),
                );
                searches += 1;
                energy += hd.stats.energy_j;
                resensed += hd.stats.resensed;
                requarried += hd.stats.requarried;
                if host_rng.gen::<f64>() < hdac.probability(&self.config.profile, t) {
                    matched = collect(&hd);
                }
            }
        }

        // TASR: N_R rotated ED* searches, OR-ed into the result set. Each
        // rotated read is what the shift register file would present after
        // `amount` single-position rotations — computed word-parallel here.
        if let Some(tasr) = self.config.tasr {
            if tasr.active(&self.config.profile, read.len(), t) {
                for i in 1..=tasr.rotations {
                    let rotated_read = tasr.schedule.rotated_packed(read, i);
                    let rotated = self.search(
                        &rotated_read,
                        t,
                        MatchMode::EdStar,
                        mask,
                        &mut sense_rng,
                        fault_rng.as_mut(),
                    );
                    searches += 1;
                    energy += rotated.stats.energy_j;
                    resensed += rotated.stats.resensed;
                    requarried += rotated.stats.requarried;
                    for (id, n_mis) in collect(&rotated) {
                        matched.entry(id).or_insert(n_mis);
                    }
                }
            }
        }

        let mut positions: Vec<usize> = matched
            .keys()
            .filter_map(|&id| self.device.origin_of(id))
            .collect();
        positions.sort_unstable();
        positions.dedup();
        BackendOutcome {
            positions,
            cycles: 1 + searches,
            searches,
            energy_j: energy,
            resensed,
            requarried,
        }
    }

    /// The shared body of the batch dispatch: the same ED\* → HDAC → TASR
    /// instruction sequencing as [`DeviceBackend::run`], but each stage
    /// drains the **whole read queue** through one of the device's batch
    /// entry points (array-major for full scans, a per-read row-list walk
    /// under masks). Read `i` draws all sensing noise from its own
    /// seed-derived streams in exactly the order the per-read path would,
    /// so `outcomes[i]` is byte-identical to `run(&reads[i], seeds[i], …)`
    /// (pinned by `tests/packed_equivalence.rs` and the arch-layer batch
    /// equivalence tests).
    fn run_batch(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        masks: Option<&[RowMask]>,
    ) -> Vec<BackendOutcome> {
        let t = self.config.threshold;
        // Same stream split as `run`: one sensing stream and one host-side
        // HDAC stream per read, plus one dedicated fault stream per read
        // when a fault plan is armed.
        let mut sense_rngs: Vec<crate::Rng> = seeds.iter().map(|&s| crate::rng(s)).collect();
        let mut host_rngs: Vec<crate::Rng> = seeds
            .iter()
            .map(|&s| crate::rng(s.wrapping_mul(0x9E37_79B9).wrapping_add(1)))
            .collect();
        let mut fault_rngs: Option<Vec<crate::Rng>> = self
            .fault
            .as_ref()
            .map(|plan| seeds.iter().map(|&s| plan.read_fault_rng(s)).collect());
        let search_batch = |queue: &[PackedSeq],
                            mode: MatchMode,
                            rngs: &mut [crate::Rng],
                            fault_rngs: Option<&mut [crate::Rng]>| {
            match (masks, fault_rngs) {
                (Some(masks), Some(fault_rngs)) => {
                    self.device.search_packed_batch_masked_with_faults(
                        queue, t, mode, masks, rngs, fault_rngs,
                    )
                }
                (Some(masks), None) => self
                    .device
                    .search_packed_batch_masked(queue, t, mode, masks, rngs),
                (None, Some(fault_rngs)) => self
                    .device
                    .search_packed_batch_with_faults(queue, t, mode, rngs, fault_rngs),
                (None, None) => self.device.search_packed_batch(queue, t, mode, rngs),
            }
        };

        // Cycle 1 (after the latch): the ED* search, whole queue at once.
        let base = search_batch(
            reads,
            MatchMode::EdStar,
            &mut sense_rngs,
            fault_rngs.as_deref_mut(),
        );
        let mut searches: Vec<u64> = vec![1; reads.len()];
        let mut energy: Vec<f64> = base.iter().map(|r| r.stats.energy_j).collect();
        let mut resensed: Vec<u64> = base.iter().map(|r| r.stats.resensed).collect();
        let mut requarried: Vec<u64> = base.iter().map(|r| r.stats.requarried).collect();
        let mut matched: Vec<BTreeMap<RowId, usize>> = base.iter().map(collect).collect();

        // HDAC: one batched HD-mode search, one host-side draw per read.
        if let Some(hdac) = self.config.hdac {
            if hdac.enabled(&self.config.profile, t) {
                let hd = search_batch(
                    reads,
                    MatchMode::Hamming,
                    &mut sense_rngs,
                    fault_rngs.as_deref_mut(),
                );
                let p = hdac.probability(&self.config.profile, t);
                for (i, result) in hd.iter().enumerate() {
                    searches[i] += 1;
                    energy[i] += result.stats.energy_j;
                    resensed[i] += result.stats.resensed;
                    requarried[i] += result.stats.requarried;
                    if host_rngs[i].gen::<f64>() < p {
                        matched[i] = collect(result);
                    }
                }
            }
        }

        // TASR: each rotation is one batched ED* search over the rotated
        // queue, OR-ed into each read's result set.
        if let Some(tasr) = self.config.tasr {
            if tasr.active(&self.config.profile, self.row_width(), t) {
                for amount in 1..=tasr.rotations {
                    let rotated: Vec<PackedSeq> = reads
                        .iter()
                        .map(|read| tasr.schedule.rotated_packed(read, amount))
                        .collect();
                    let results = search_batch(
                        &rotated,
                        MatchMode::EdStar,
                        &mut sense_rngs,
                        fault_rngs.as_deref_mut(),
                    );
                    for (i, result) in results.iter().enumerate() {
                        searches[i] += 1;
                        energy[i] += result.stats.energy_j;
                        resensed[i] += result.stats.resensed;
                        requarried[i] += result.stats.requarried;
                        for (id, n_mis) in collect(result) {
                            matched[i].entry(id).or_insert(n_mis);
                        }
                    }
                }
            }
        }

        matched
            .into_iter()
            .zip(searches)
            .zip(energy)
            .zip(resensed.into_iter().zip(requarried))
            .map(
                |(((matched, searches), energy_j), (resensed, requarried))| {
                    let mut positions: Vec<usize> = matched
                        .keys()
                        .filter_map(|&id| self.device.origin_of(id))
                        .collect();
                    positions.sort_unstable();
                    positions.dedup();
                    BackendOutcome {
                        positions,
                        cycles: 1 + searches,
                        searches,
                        energy_j,
                        resensed,
                        requarried,
                    }
                },
            )
            .collect()
    }
}

impl MappingBackend for DeviceBackend {
    fn name(&self) -> &'static str {
        "device"
    }

    fn row_width(&self) -> usize {
        self.device.row_width()
    }

    fn map_seeded(&self, read: &DnaSeq, seed: u64) -> BackendOutcome {
        self.map_packed(&PackedSeq::from_seq(read), seed)
    }

    fn map_packed(&self, read: &PackedSeq, seed: u64) -> BackendOutcome {
        self.run(read, seed, None)
    }

    fn map_shortlisted(&self, read: &PackedSeq, seed: u64, candidates: &[usize]) -> BackendOutcome {
        let mask = self.device.mask_for_origins(candidates);
        self.run(read, seed, Some(&mask))
    }

    /// The batch dispatch the issue of serving builds on: an all-full-scan
    /// queue drains unmasked ([`asmcap_arch::AsmcapDevice::search_packed_batch`]);
    /// any shortlisted read switches the queue to the masked drain, with
    /// full-scan reads carrying [`RowMask::full`] (pinned byte-identical
    /// to the unmasked search at the arch layer).
    fn map_batch_shortlisted(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        shortlists: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome> {
        assert_eq!(reads.len(), seeds.len(), "one seed per batched read");
        assert_eq!(
            reads.len(),
            shortlists.len(),
            "one shortlist slot per batched read"
        );
        for read in reads {
            assert_eq!(
                read.len(),
                self.row_width(),
                "read must match the row width"
            );
        }
        if reads.is_empty() {
            return Vec::new();
        }
        if shortlists.iter().all(Option::is_none) {
            self.run_batch(reads, seeds, None)
        } else {
            let masks: Vec<RowMask> = shortlists
                .iter()
                .map(|shortlist| match shortlist {
                    None => RowMask::full(self.device.stored_rows()),
                    Some(candidates) => self.device.mask_for_origins(candidates),
                })
                .collect();
            self.run_batch(reads, seeds, Some(&masks))
        }
    }
}

/// The per-pair fast path: one [`crate::AsmcapEngine`] decision per stored
/// segment, with the same ED\* + HDAC + TASR semantics and sensing-noise
/// model as the device but no array bookkeeping — the right backend for
/// large statistical sweeps.
///
/// Cycle accounting models the rows being sensed in parallel (as the
/// hardware would): the read costs the *maximum* per-pair cycle count, not
/// the sum. There is no energy model on this path (`energy_j` is 0).
#[derive(Debug, Clone)]
pub struct PairBackend {
    reference: PackedRef,
    starts: Vec<usize>,
    width: usize,
    config: MapperConfig,
}

impl PairBackend {
    /// Segments `reference` into `width`-base windows every `stride` bases.
    /// The reference is packed once here; each per-pair decision runs on a
    /// zero-copy segment view of that packing.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the reference is shorter than one row.
    #[must_use]
    pub fn new(reference: DnaSeq, stride: usize, width: usize, config: MapperConfig) -> Self {
        let starts = segment_starts(&reference, width, stride);
        Self {
            reference: PackedRef::new(&reference),
            starts,
            width,
            config,
        }
    }

    /// Number of stored segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.starts.len()
    }

    /// One per-pair engine pass over `starts` (the full segment list or a
    /// prefilter shortlist).
    fn run(&self, read: &PackedSeq, seed: u64, starts: &[usize]) -> BackendOutcome {
        assert_eq!(read.len(), self.width, "read must match the row width");
        let mut builder = crate::config::AsmcapConfig::new(self.config.profile);
        builder
            .hdac(self.config.hdac)
            .tasr(self.config.tasr)
            .seed(seed);
        let mut engine = builder.build();
        let t = self.config.threshold;
        let mut positions = Vec::new();
        let mut max_cycles = 0u64;
        for &start in starts {
            let segment = self.reference.segment(start, self.width);
            let outcome = engine.matches_packed(&segment, read, t);
            max_cycles = max_cycles.max(u64::from(outcome.cycles));
            if outcome.matched {
                positions.push(start);
            }
        }
        BackendOutcome {
            positions,
            cycles: 1 + max_cycles,
            searches: max_cycles,
            energy_j: 0.0,
            ..BackendOutcome::default()
        }
    }
}

impl MappingBackend for PairBackend {
    fn name(&self) -> &'static str {
        "pair"
    }

    fn row_width(&self) -> usize {
        self.width
    }

    fn map_seeded(&self, read: &DnaSeq, seed: u64) -> BackendOutcome {
        self.map_packed(&PackedSeq::from_seq(read), seed)
    }

    fn map_packed(&self, read: &PackedSeq, seed: u64) -> BackendOutcome {
        self.run(read, seed, &self.starts)
    }

    fn map_shortlisted(&self, read: &PackedSeq, seed: u64, candidates: &[usize]) -> BackendOutcome {
        // lint: index-ok — windows(2) yields exactly two elements per pair
        debug_assert!(candidates.windows(2).all(|pair| pair[0] < pair[1]));
        self.run(read, seed, candidates)
    }
}

/// The noiseless software reference: a read matches a stored segment iff
/// `ED*(segment, read) <= T`, with ideal sensing and no correction
/// strategies. This is the functional behaviour both hardware backends
/// reduce to when their noise and strategies are stripped away, and the
/// determinism anchor for the backend-equivalence tests.
#[derive(Debug, Clone)]
pub struct SoftwareBackend {
    reference: PackedRef,
    starts: Vec<usize>,
    width: usize,
    threshold: usize,
}

impl SoftwareBackend {
    /// Segments `reference` into `width`-base windows every `stride` bases.
    /// The reference is packed once here; every scan step is a word-parallel
    /// ED\* over a zero-copy segment view.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the reference is shorter than one row.
    #[must_use]
    pub fn new(reference: DnaSeq, stride: usize, width: usize, threshold: usize) -> Self {
        let starts = segment_starts(&reference, width, stride);
        Self {
            reference: PackedRef::new(&reference),
            starts,
            width,
            threshold,
        }
    }

    /// One noiseless ED\* pass over `starts` (the full segment list or a
    /// prefilter shortlist).
    fn run(&self, read: &PackedSeq, starts: &[usize]) -> BackendOutcome {
        assert_eq!(read.len(), self.width, "read must match the row width");
        let positions = starts
            .iter()
            .copied()
            .filter(|&start| {
                ed_star_packed(&self.reference.segment(start, self.width), read) <= self.threshold
            })
            .collect();
        BackendOutcome {
            positions,
            cycles: 2,
            searches: 1,
            energy_j: 0.0,
            ..BackendOutcome::default()
        }
    }
}

impl MappingBackend for SoftwareBackend {
    fn name(&self) -> &'static str {
        "software"
    }

    fn row_width(&self) -> usize {
        self.width
    }

    fn map_seeded(&self, read: &DnaSeq, seed: u64) -> BackendOutcome {
        self.map_packed(&PackedSeq::from_seq(read), seed)
    }

    fn map_packed(&self, read: &PackedSeq, _seed: u64) -> BackendOutcome {
        self.run(read, &self.starts)
    }

    fn map_shortlisted(
        &self,
        read: &PackedSeq,
        _seed: u64,
        candidates: &[usize],
    ) -> BackendOutcome {
        // lint: index-ok — windows(2) yields exactly two elements per pair
        debug_assert!(candidates.windows(2).all(|pair| pair[0] < pair[1]));
        self.run(read, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_arch::DeviceBuilder;
    use asmcap_genome::GenomeModel;
    use asmcap_metrics::ed_star;

    fn device_for(genome: &DnaSeq, width: usize, stride: usize) -> AsmcapDevice<ChargeDomainCam> {
        let rows = (genome.len() - width) / stride + 1;
        let mut device = DeviceBuilder::new()
            .arrays(rows.div_ceil(64))
            .rows_per_array(64)
            .row_width(width)
            .build_asmcap();
        device.store_reference(genome, stride).unwrap();
        device
    }

    #[test]
    fn device_backend_is_seed_deterministic() {
        let genome = GenomeModel::uniform().generate(2_048, 11);
        let backend = DeviceBackend::new(device_for(&genome, 64, 1), MapperConfig::plain(2));
        let read = genome.window(500..564);
        let a = backend.map_seeded(&read, 42);
        let b = backend.map_seeded(&read, 42);
        assert_eq!(a, b);
        assert!(a.positions.contains(&500));
        assert_eq!(a.cycles, 2); // latch + ED* search
    }

    #[test]
    fn software_backend_is_pure_edstar() {
        let genome = GenomeModel::uniform().generate(1_024, 12);
        let backend = SoftwareBackend::new(genome.clone(), 1, 64, 0);
        let read = genome.window(100..164);
        let out = backend.map_seeded(&read, 0);
        assert!(out.positions.contains(&100));
        for &p in &out.positions {
            assert!(ed_star(genome.window(p..p + 64).as_slice(), read.as_slice()) == 0);
        }
    }

    #[test]
    fn pair_backend_recovers_origins() {
        let genome = GenomeModel::uniform().generate(1_024, 13);
        let backend = PairBackend::new(genome.clone(), 1, 64, MapperConfig::plain(2));
        assert_eq!(backend.segments(), 1_024 - 64 + 1);
        let read = genome.window(300..364);
        let out = backend.map_seeded(&read, 7);
        assert!(out.positions.contains(&300));
        assert_eq!(out.energy_j, 0.0);
        assert!(out.cycles >= 2);
    }
}
