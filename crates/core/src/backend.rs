//! Pluggable execution engines behind [`crate::AsmcapPipeline`].
//!
//! A [`MappingBackend`] turns row-width reads into candidate reference
//! positions. The pipeline owns batching, sharding, statuses, and statistics;
//! a backend only answers "where does each read match, and what did the
//! search cost". Three implementations ship:
//!
//! * [`DeviceBackend`] — the hardware-faithful path through the simulated
//!   multi-array device (per-search cycle and energy accounting);
//! * [`PairBackend`] — the per-pair [`crate::AsmcapEngine`] fast path used
//!   by the accuracy sweeps: statistically equivalent sensing without
//!   materialising arrays (and therefore without an energy model);
//! * [`SoftwareBackend`] — a noiseless pure-software ED\* reference, the
//!   functional ground truth the hardware paths approximate.
//!
//! Backends take `&self` and a **per-read seed**: all mutable state (the
//! sensing, host-side and fault RNG streams) is created per read, so
//! [`crate::AsmcapPipeline::map_batch`] can shard reads across threads while
//! staying bit-identical to a sequential run.
//!
//! All three built-in backends run on the packed matchplane: the reference
//! is 2-bit packed once at construction, reads arrive packed through
//! [`MappingBackend::map_batch_shortlisted`], and every distance is computed
//! by the word-parallel kernels in `asmcap-metrics` over zero-copy
//! [`asmcap_genome::SegmentView`]s — no per-segment re-slicing anywhere.
//!
//! They also all honour a read's prefilter shortlist: when the pipeline's
//! k-mer prefilter is on, only shortlisted segment starts reach the
//! kernels — the software and pair paths skip unlisted segments outright,
//! and the device path senses only the masked-in rows through
//! [`asmcap_arch::AsmcapDevice::search`].

use crate::config::MapperConfig;
use asmcap_arch::{AsmcapDevice, FaultPlan, MatchMode, RowId, RowMask};
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
/// Implementations must be `Send + Sync`: the pipeline calls
/// [`MappingBackend::map_batch_shortlisted`] concurrently from scoped
/// worker threads, one executor tile per call. All randomness must derive
/// from the passed seeds so a read's result depends only on
/// `(read, seed, shortlist)`, never on which worker ran it or which reads
/// shared its batch.
pub trait MappingBackend: Send + Sync {
    /// Short display name for reports (e.g. `"device"`).
    fn name(&self) -> &'static str;

    /// Row width every read must match exactly (the pipeline truncates or
    /// rejects other lengths before calling in).
    fn row_width(&self) -> usize;

    /// Maps a batch of row-width reads — the one mapping entry point, which
    /// [`crate::AsmcapPipeline`] drains each executor tile through and a
    /// serving coalescer batches for.
    ///
    /// Read `i` is mapped with all randomness derived from `seeds[i]`.
    /// `shortlists[i]` is its prefilter shortlist: `None` scans every
    /// stored segment (no prefilter armed, or its fallback fired), and
    /// `Some(starts)` — ascending, on the shared [`segment_starts`] grid —
    /// evaluates only those segments. `outcomes[i]` must not depend on the
    /// other reads in the batch; with every stored start listed, each
    /// built-in is byte-identical to the full scan, RNG draws included.
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
    ) -> Vec<BackendOutcome>;
}

/// Maps a batch read by read through `map_one(read, seed, shortlist)`
/// after checking its shape — the batch body every built-in shares.
fn each_read(
    reads: &[PackedSeq],
    seeds: &[u64],
    shortlists: &[Option<Vec<usize>>],
    mut map_one: impl FnMut(&PackedSeq, u64, Option<&[usize]>) -> BackendOutcome,
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
        .map(|((read, &seed), shortlist)| map_one(read, seed, shortlist.as_deref()))
        .collect()
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
    device: AsmcapDevice,
    config: MapperConfig,
    fault: Option<FaultPlan>,
}

impl DeviceBackend {
    /// Wraps a device that already stores the segmented reference.
    #[must_use]
    pub fn new(device: AsmcapDevice, config: MapperConfig) -> Self {
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

    /// Quarantined rows across the device (0 without faults).
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.device.quarantined_rows()
    }

    /// The wrapped device.
    #[must_use]
    pub fn device(&self) -> &AsmcapDevice {
        &self.device
    }

    /// The per-read matching configuration.
    #[must_use]
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Maps one read: the ED\* search, then HDAC's HD-mode search, then
    /// TASR's rotated searches, each one device search under `mask`
    /// (`None` = every stored row).
    fn run(&self, read: &PackedSeq, seed: u64, mask: Option<&RowMask>) -> BackendOutcome {
        assert_eq!(
            read.len(),
            self.row_width(),
            "read must match the row width"
        );
        let t = self.config.threshold;
        // One stream for sensing noise, one for the host-side HDAC draw.
        // Fault injection adds a third, dedicated stream so the first two
        // keep their draw order.
        let mut sense_rng = crate::rng(seed);
        let mut host_rng = crate::rng(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let mut fault_rng = self.fault.as_ref().map(|plan| plan.read_fault_rng(seed));
        let mut outcome = BackendOutcome::default();
        let mut search = |read: &PackedSeq, mode: MatchMode| -> BTreeMap<RowId, usize> {
            let result =
                self.device
                    .search(read, t, mode, mask, &mut sense_rng, fault_rng.as_mut());
            outcome.searches += 1;
            outcome.energy_j += result.stats.energy_j;
            outcome.resensed += result.stats.resensed;
            outcome.requarried += result.stats.requarried;
            result.matches.iter().map(|m| (m.id, m.n_mis)).collect()
        };

        // Cycle 1 (after the latch): the ED* search.
        let mut matched = search(read, MatchMode::EdStar);

        // HDAC: one HD-mode search, one host-side draw for the result MUX.
        if let Some(hdac) = self.config.hdac {
            if hdac.enabled(&self.config.profile, t) {
                let hd = search(read, MatchMode::Hamming);
                if host_rng.gen::<f64>() < hdac.probability(&self.config.profile, t) {
                    matched = hd;
                }
            }
        }

        // TASR: N_R rotated ED* searches, OR-ed into the result set. Each
        // rotated read is what the hardware's shift registers would present
        // after `amount` single-position rotations, computed word-parallel.
        if let Some(tasr) = self.config.tasr {
            if tasr.active(&self.config.profile, read.len(), t) {
                for i in 1..=tasr.rotations {
                    let rotated = search(&tasr.schedule.rotated_packed(read, i), MatchMode::EdStar);
                    for (id, n_mis) in rotated {
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
        outcome.positions = positions;
        outcome.cycles = 1 + outcome.searches;
        outcome
    }
}

impl MappingBackend for DeviceBackend {
    fn name(&self) -> &'static str {
        "device"
    }

    fn row_width(&self) -> usize {
        self.device.row_width()
    }

    fn map_batch_shortlisted(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        shortlists: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome> {
        each_read(reads, seeds, shortlists, |read, seed, shortlist| {
            let mask = shortlist.map(|candidates| self.device.mask_for_origins(candidates));
            self.run(read, seed, mask.as_ref())
        })
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
        // lint: index-ok — windows(2) yields exactly two elements per pair
        debug_assert!(starts.windows(2).all(|pair| pair[0] < pair[1]));
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

    fn map_batch_shortlisted(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        shortlists: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome> {
        each_read(reads, seeds, shortlists, |read, seed, shortlist| {
            self.run(read, seed, shortlist.unwrap_or(&self.starts))
        })
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
        // lint: index-ok — windows(2) yields exactly two elements per pair
        debug_assert!(starts.windows(2).all(|pair| pair[0] < pair[1]));
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

    fn map_batch_shortlisted(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        shortlists: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome> {
        each_read(reads, seeds, shortlists, |read, _seed, shortlist| {
            self.run(read, shortlist.unwrap_or(&self.starts))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_arch::DeviceBuilder;
    use asmcap_genome::{ErrorProfile, GenomeModel, ReadSampler};
    use asmcap_metrics::ed_star;

    fn device_for(genome: &DnaSeq, width: usize, stride: usize) -> AsmcapDevice {
        let rows = (genome.len() - width) / stride + 1;
        let mut device = DeviceBuilder::new()
            .arrays(rows.div_ceil(64))
            .rows_per_array(64)
            .row_width(width)
            .build_asmcap();
        device.store_reference(genome, stride).unwrap();
        device
    }

    /// One read's full scan through the batch entry point.
    fn map_one(backend: &dyn MappingBackend, read: &DnaSeq, seed: u64) -> BackendOutcome {
        backend
            .map_batch_shortlisted(&[PackedSeq::from_seq(read)], &[seed], &[None])
            .remove(0)
    }

    #[test]
    fn device_backend_is_seed_deterministic() {
        let genome = GenomeModel::uniform().generate(2_048, 11);
        let backend = DeviceBackend::new(device_for(&genome, 64, 1), MapperConfig::plain(2));
        let read = genome.window(500..564);
        let a = map_one(&backend, &read, 42);
        let b = map_one(&backend, &read, 42);
        assert_eq!(a, b);
        assert!(a.positions.contains(&500));
        assert_eq!(a.cycles, 2); // latch + ED* search
    }

    #[test]
    fn exact_read_maps_to_its_origin() {
        let genome = GenomeModel::uniform().generate(4096, 31);
        let backend = DeviceBackend::new(device_for(&genome, 64, 1), MapperConfig::plain(0));
        let mapped = map_one(&backend, &genome.window(777..841), 1);
        // With stride-1 storage the rows at ±1 are one-shift windows of the
        // read, which ED*'s neighbor tolerance can legitimately accept (the
        // false-positive mode of paper Fig. 2c that HDAC corrects); plain
        // ED* must still report the true origin, and nothing further away.
        assert!(mapped.positions.contains(&777), "origin 777 not mapped");
        assert!(
            mapped.positions.iter().all(|&p| p.abs_diff(777) <= 1),
            "plain ED* matched beyond one-shift neighbors: {:?}",
            mapped.positions
        );
        assert_eq!(mapped.cycles, 2); // latch + search
    }

    #[test]
    fn erroneous_read_maps_with_paper_config() {
        let genome = GenomeModel::uniform().generate(8192, 32);
        let profile = ErrorProfile::condition_a();
        let backend =
            DeviceBackend::new(device_for(&genome, 256, 1), MapperConfig::paper(8, profile));
        let sampler = ReadSampler::new(256, profile);
        let read = sampler.sample_at(&genome, 1000, &mut asmcap_genome::rng(5));
        let mapped = map_one(&backend, &read.bases, 2);
        assert!(
            mapped.positions.contains(&1000),
            "expected origin 1000 among {:?}",
            mapped.positions
        );
    }

    #[test]
    fn hdac_spends_its_cycle_only_when_armed() {
        let genome = GenomeModel::uniform().generate(2048, 33);
        let read = genome.window(0..256);
        // T=1: HDAC armed in Condition A; TASR gated off (T_l = 52).
        let backend = DeviceBackend::new(
            device_for(&genome, 256, 256),
            MapperConfig::paper(1, ErrorProfile::condition_a()),
        );
        let outcome = map_one(&backend, &read, 3);
        assert_eq!(outcome.searches, 2); // ED* + HD
        assert_eq!(outcome.cycles, 1 + outcome.searches); // latch + searches

        // Condition B: HDAC disabled, T=8 >= T_l=6 arms TASR (2 rotations).
        let backend = DeviceBackend::new(
            device_for(&genome, 256, 256),
            MapperConfig::paper(8, ErrorProfile::condition_b()),
        );
        let outcome = map_one(&backend, &read, 4);
        assert_eq!(outcome.searches, 3); // ED* + 2 rotated
        assert_eq!(outcome.cycles, 1 + outcome.searches); // latch + searches
    }

    #[test]
    fn tasr_recovers_shifted_reads_on_device() {
        let genome = GenomeModel::uniform().generate(4096, 34);
        let width = 256usize;
        // Read with two consecutive deletions at its origin 500.
        let mut bases = genome.window(500..500 + width).into_bases();
        bases.drain(30..32);
        bases.extend_from_slice(&genome.as_slice()[500 + width..500 + width + 2]);
        let read = DnaSeq::from_bases(bases);

        let plain = DeviceBackend::new(device_for(&genome, width, 1), MapperConfig::plain(8));
        let without = map_one(&plain, &read, 5);
        let with = DeviceBackend::new(
            device_for(&genome, width, 1),
            MapperConfig::paper(8, ErrorProfile::condition_b()),
        );
        let recovered = map_one(&with, &read, 6);

        assert!(
            !without.positions.contains(&500),
            "plain ED* should miss the shifted read"
        );
        assert!(
            recovered.positions.contains(&500),
            "TASR should recover origin 500, got {:?}",
            recovered.positions
        );
    }

    #[test]
    fn software_backend_is_pure_edstar() {
        let genome = GenomeModel::uniform().generate(1_024, 12);
        let backend = SoftwareBackend::new(genome.clone(), 1, 64, 0);
        let read = genome.window(100..164);
        let out = map_one(&backend, &read, 0);
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
        let out = map_one(&backend, &read, 7);
        assert!(out.positions.contains(&300));
        assert_eq!(out.energy_j, 0.0);
        assert!(out.cycles >= 2);
    }
}
