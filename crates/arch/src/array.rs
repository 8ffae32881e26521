//! The `M×N` CAM array (paper Fig. 4b).
//!
//! Each row stores a reference segment as wide as the incoming read; a
//! search drives the read onto the searchlines, every cell compares in
//! parallel, the per-row mismatch counts land on the matchlines, and the
//! sense amplifiers compare against `V_ref` through the charge-domain
//! sensing model ([`ChargeDomainCam`]).
//!
//! Rows are held 2-bit packed — one base per two SRAM bits, as in the
//! silicon — and a search runs in two stages mirroring the hardware split:
//! a **digital pre-pass** computes every row's exact mismatch count
//! `n_mis` with the word-parallel kernels (32 cells per instruction; what
//! the cell comparison logic encodes on the matchline), then the **analog
//! stage** senses each count against `V_ref(threshold)` through the noisy
//! sense-amplifier model, in row order. The per-cell functional model the
//! pre-pass vectorises lives in [`crate::cell`] / [`crate::driver`].

use crate::fault::{ArrayFaults, FaultPlan, FaultTally};
use asmcap_circuit::energy::asmcap_array_search_energy;
use asmcap_circuit::{ChargeDomainCam, Rng, SenseAmp, VrefPolicy};
use asmcap_genome::{Base, PackedSeq};
use asmcap_metrics::{ed_star_packed, hamming_packed};
use std::fmt;

/// The shared MUX select signal `S`: which distance the array evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatchMode {
    /// `S = 1`: cell matches if any of `O_L`, `O_C`, `O_R` matched (ED\*).
    #[default]
    EdStar,
    /// `S = 0`: only the co-located comparison counts (Hamming distance).
    Hamming,
}

impl fmt::Display for MatchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchMode::EdStar => write!(f, "ED*"),
            MatchMode::Hamming => write!(f, "HD"),
        }
    }
}

/// Error returned by [`CamArray::store_row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreRowError {
    /// All `M` rows are occupied.
    ArrayFull,
    /// The segment length differs from the array width.
    WidthMismatch {
        /// Configured array width.
        expected: usize,
        /// Length of the rejected segment.
        actual: usize,
    },
}

impl fmt::Display for StoreRowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreRowError::ArrayFull => write!(f, "array is full"),
            StoreRowError::WidthMismatch { expected, actual } => {
                write!(
                    f,
                    "segment of {actual} bases does not fit {expected}-wide rows"
                )
            }
        }
    }
}

impl std::error::Error for StoreRowError {}

/// Result of sensing one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSearchOutcome {
    /// Row index within the array.
    pub row: usize,
    /// Mismatch count the matchline encodes: the exact digital count, or
    /// the stuck-cell-perturbed effective count when faults are installed.
    pub n_mis: usize,
    /// The sense amplifier's (noisy) decision.
    pub matched: bool,
}

/// Result of one array search operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Per-row outcomes, in row order.
    pub rows: Vec<RowSearchOutcome>,
    /// The mode the search ran in.
    pub mode: MatchMode,
    /// The threshold `T` encoded on `V_ref`.
    pub threshold: usize,
    /// Energy consumed by this search, in joules.
    pub energy_j: f64,
}

impl SearchOutcome {
    /// Indices of rows the SAs declared matching.
    #[must_use]
    pub fn matched_rows(&self) -> Vec<usize> {
        self.rows
            .iter()
            .filter(|r| r.matched)
            .map(|r| r.row)
            .collect()
    }

    /// Mean mismatch count across the searched rows.
    #[must_use]
    pub fn mean_n_mis(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.n_mis as f64).sum::<f64>() / self.rows.len() as f64
    }
}

/// What [`SenseAmp::certain`] says about one mismatch count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Not classified yet in this search.
    Unknown,
    /// The draw can change the decision: sense it.
    Draw,
    /// Every draw matches.
    Match,
    /// Every draw misses.
    Miss,
}

/// Mismatch counts a [`CleanSense`] memoizes: every count of a row up to
/// 256 cells. Wider rows classify their higher counts per row.
const VERDICT_MEMO: usize = 257;

/// One clean search's sensing: each distinct `n_mis` is classified by
/// [`SenseAmp::certain`] once, a certain row costs one lookup, and a run
/// of certain rows costs one stream seek, taken before the next real draw
/// or at [`CleanSense::flush`]. The memo lives on the stack, so a search
/// over a few masked rows allocates nothing for it.
struct CleanSense<'a> {
    sense: &'a SenseAmp<ChargeDomainCam>,
    width: usize,
    threshold: usize,
    verdicts: [Verdict; VERDICT_MEMO],
    /// Draws decided without drawing and not yet sought past.
    skipped: u64,
}

impl<'a> CleanSense<'a> {
    fn new(sense: &'a SenseAmp<ChargeDomainCam>, width: usize, threshold: usize) -> Self {
        Self {
            sense,
            width,
            threshold,
            verdicts: [Verdict::Unknown; VERDICT_MEMO],
            skipped: 0,
        }
    }

    /// The row's decision; draws from `rng` exactly as
    /// [`SenseAmp::decide`] once [`CleanSense::flush`] has run.
    fn decide(&mut self, n_mis: usize, rng: &mut Rng) -> bool {
        let verdict = match self.verdicts.get(n_mis) {
            Some(&known) if known != Verdict::Unknown => known,
            _ => {
                let verdict = match self.sense.certain(n_mis, self.width, self.threshold, 0.0) {
                    None => Verdict::Draw,
                    Some(true) => Verdict::Match,
                    Some(false) => Verdict::Miss,
                };
                if let Some(slot) = self.verdicts.get_mut(n_mis) {
                    *slot = verdict;
                }
                verdict
            }
        };
        match verdict {
            Verdict::Match | Verdict::Miss => {
                self.skipped += 1;
                verdict == Verdict::Match
            }
            _ => {
                self.flush(rng);
                self.sense.decide(n_mis, self.width, self.threshold, rng)
            }
        }
    }

    /// Moves `rng` past the draws decided without drawing.
    fn flush(&mut self, rng: &mut Rng) {
        if self.skipped > 0 {
            asmcap_circuit::noise::skip_standard_normals(rng, self.skipped);
            self.skipped = 0;
        }
    }
}

/// An `M×N` content-addressable array with charge-domain sensing.
///
/// # Examples
///
/// ```
/// use asmcap_arch::{CamArray, MatchMode};
/// use asmcap_genome::{DnaSeq, PackedSeq};
///
/// let mut array = CamArray::asmcap(4, 8);
/// array.store_row("ACGTACGT".parse::<DnaSeq>()?.as_slice())?;
/// array.store_row("TTTTTTTT".parse::<DnaSeq>()?.as_slice())?;
/// let mut rng = asmcap_circuit::rng(1);
/// let read = PackedSeq::from_seq(&"ACGTACGA".parse()?);
/// let outcome = array.search(&read, 2, MatchMode::EdStar, None, &mut rng, None);
/// assert_eq!(outcome.matched_rows(), vec![0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CamArray {
    rows: Vec<PackedSeq>,
    width: usize,
    max_rows: usize,
    sense: SenseAmp<ChargeDomainCam>,
    faults: Option<ArrayFaults>,
}

impl CamArray {
    /// An ASMCap array with the paper's charge-domain sensing and centred
    /// `V_ref` placement.
    ///
    /// # Panics
    ///
    /// Panics if `max_rows` or `width` is zero.
    #[must_use]
    pub fn asmcap(max_rows: usize, width: usize) -> Self {
        assert!(
            max_rows > 0 && width > 0,
            "array dimensions must be positive"
        );
        Self {
            rows: Vec::new(),
            width,
            max_rows,
            sense: SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Centered),
            faults: None,
        }
    }

    /// Row width `N` in cells.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Occupied row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Maximum row count `M`.
    #[must_use]
    pub fn max_rows(&self) -> usize {
        self.max_rows
    }

    /// Whether every row is occupied.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.rows.len() == self.max_rows
    }

    /// The sense amplifier (and through it, the sensing model).
    #[must_use]
    pub fn sense(&self) -> &SenseAmp<ChargeDomainCam> {
        &self.sense
    }

    /// Writes `segment` into the next free row and returns its row index.
    ///
    /// # Errors
    ///
    /// [`StoreRowError::ArrayFull`] when all rows are occupied, and
    /// [`StoreRowError::WidthMismatch`] when the segment length differs from
    /// the array width.
    pub fn store_row(&mut self, segment: &[Base]) -> Result<usize, StoreRowError> {
        if segment.len() != self.width {
            return Err(StoreRowError::WidthMismatch {
                expected: self.width,
                actual: segment.len(),
            });
        }
        self.store_row_packed(PackedSeq::from_bases(segment))
    }

    /// Writes an already packed `segment` into the next free row — the
    /// zero-repack path [`crate::AsmcapDevice::store_reference`] uses when
    /// segmenting a packed reference.
    ///
    /// # Errors
    ///
    /// Same contract as [`CamArray::store_row`].
    pub fn store_row_packed(&mut self, segment: PackedSeq) -> Result<usize, StoreRowError> {
        if segment.len() != self.width {
            return Err(StoreRowError::WidthMismatch {
                expected: self.width,
                actual: segment.len(),
            });
        }
        if self.is_full() {
            return Err(StoreRowError::ArrayFull);
        }
        self.rows.push(segment);
        Ok(self.rows.len() - 1)
    }

    /// The segment stored in `row`, or `None` for an unoccupied row.
    #[must_use]
    pub fn stored_row(&self, row: usize) -> Option<Vec<Base>> {
        self.rows
            .get(row)
            .map(|packed| packed.to_seq().into_bases())
    }

    /// The noiseless mismatch count of `read` against `row` in `mode`
    /// (exactly what the matchline encodes before sensing noise).
    ///
    /// # Panics
    ///
    /// Panics if the row does not exist or the read width differs.
    #[must_use]
    pub fn row_mismatches(&self, row: usize, read: &[Base], mode: MatchMode) -> usize {
        assert_eq!(read.len(), self.width, "read must match the array width");
        self.row_mismatches_packed(row, &PackedSeq::from_bases(read), mode)
    }

    /// [`CamArray::row_mismatches`] over an already packed read: the
    /// word-parallel digital pre-pass for one row.
    ///
    /// # Panics
    ///
    /// Same contract as [`CamArray::row_mismatches`].
    #[must_use]
    pub fn row_mismatches_packed(&self, row: usize, read: &PackedSeq, mode: MatchMode) -> usize {
        assert_eq!(read.len(), self.width, "read must match the array width");
        match mode {
            MatchMode::EdStar => ed_star_packed(&self.rows[row], read),
            MatchMode::Hamming => hamming_packed(&self.rows[row], read),
        }
    }

    /// One in-array search — the array's only row loop. The listed rows
    /// (`rows: None` = every occupied row) compare against `read` in
    /// parallel and each matchline is sensed against `V_ref(threshold)`:
    /// the digital pre-pass computes the row's exact `n_mis` word-parallel,
    /// then the analog stage senses it, in ascending row order.
    ///
    /// A row list is the controller's row-mask gating: only the listed rows
    /// run the pre-pass and draw sensing noise, and the energy model is
    /// charged for the sensed rows only — unlisted matchlines stay
    /// pre-charged and untouched. Listing every row is byte-identical to
    /// `None`, RNG draws included.
    ///
    /// `fault` is the read's dedicated fault stream and the tally its
    /// mitigations accumulate into. With faults installed and a fault
    /// stream passed, every row senses through the fault model (see
    /// [`CamArray::install_faults`]); otherwise rows sense cleanly and the
    /// fault stream is left untouched. Either way the sensing stream `rng`
    /// advances by exactly one draw (four stream words) per live,
    /// non-quarantined sensed row: drawn when the noise can change the
    /// row's decision, sought past when [`SenseAmp::certain`] settles it,
    /// so the outcome and the stream afterwards equal drawing every row.
    ///
    /// # Panics
    ///
    /// Panics if the read width differs from the array width, `rows` is not
    /// strictly ascending, or a listed row is unoccupied.
    #[must_use]
    pub fn search(
        &self,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        rows: Option<&[usize]>,
        rng: &mut Rng,
        fault: Option<(&mut Rng, &mut FaultTally)>,
    ) -> SearchOutcome {
        assert_eq!(read.len(), self.width, "read must match the array width");
        let rows = match rows {
            None => self.sense_rows(0..self.rows.len(), read, threshold, mode, rng, fault),
            Some(rows) => {
                assert!(
                    rows.windows(2).all(|pair| pair[0] < pair[1]),
                    "row shortlist must be strictly ascending"
                );
                self.sense_rows(rows.iter().copied(), read, threshold, mode, rng, fault)
            }
        };
        let mut outcome = SearchOutcome {
            rows,
            mode,
            threshold,
            energy_j: 0.0,
        };
        outcome.energy_j = asmcap_array_search_energy(
            self.sense.cam().params(),
            outcome.rows.len(),
            self.width,
            outcome.mean_n_mis(),
        );
        outcome
    }

    /// [`CamArray::search`] over a row list without fault streams.
    ///
    /// # Panics
    ///
    /// Same contract as [`CamArray::search`].
    #[must_use]
    pub fn search_packed_rows(
        &self,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        rows: &[usize],
        rng: &mut Rng,
    ) -> SearchOutcome {
        self.search(read, threshold, mode, Some(rows), rng, None)
    }

    /// Senses `rows` in order, choosing the clean or the faulty sense once
    /// for the whole search.
    fn sense_rows(
        &self,
        rows: impl Iterator<Item = usize>,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        rng: &mut Rng,
        fault: Option<(&mut Rng, &mut FaultTally)>,
    ) -> Vec<RowSearchOutcome> {
        match (&self.faults, fault) {
            (Some(faults), Some((fault_rng, tally))) => {
                self.row_loop(rows, read, mode, |row, stored, n_true| {
                    self.sense_row_faulty(
                        faults, row, stored, read, n_true, threshold, mode, rng, fault_rng, tally,
                    )
                })
            }
            _ => {
                let mut clean = CleanSense::new(&self.sense, self.width, threshold);
                let outcomes = self.row_loop(rows, read, mode, |_, _, n_mis| {
                    (n_mis, clean.decide(n_mis, rng))
                });
                clean.flush(rng);
                outcomes
            }
        }
    }

    /// Per row: the digital comparison (the exact matchline encoding, no
    /// noise involved), then `sense(row, stored, n_mis)` for the reported
    /// count and decision. Counting draws nothing from any RNG, so fusing
    /// the two stages row by row keeps the noise streams identical to a
    /// separate pre-pass without an intermediate counts buffer.
    fn row_loop(
        &self,
        rows: impl Iterator<Item = usize>,
        read: &PackedSeq,
        mode: MatchMode,
        mut sense: impl FnMut(usize, &PackedSeq, usize) -> (usize, bool),
    ) -> Vec<RowSearchOutcome> {
        rows.map(|row| {
            let stored = &self.rows[row];
            let n_true = match mode {
                MatchMode::EdStar => ed_star_packed(stored, read),
                MatchMode::Hamming => hamming_packed(stored, read),
            };
            let (n_mis, matched) = sense(row, stored, n_true);
            RowSearchOutcome {
                row,
                n_mis,
                matched,
            }
        })
        .collect()
    }

    /// Instantiates and installs `plan`'s faults for this array (as array
    /// number `array_index` of the device), then runs the self-test
    /// quarantine scan: each row is sensed `selftest_trials` times against
    /// its own stored word (expected mismatch count = the row's welded
    /// stuck-at-mismatch cells) from the dedicated self-test stream; rows
    /// failing a strict majority of trials — dead rows always do — are
    /// quarantined. An inactive plan uninstalls any fault state.
    ///
    /// Call after the rows are stored: faults are instantiated for the
    /// occupied rows only.
    pub fn install_faults(&mut self, plan: &FaultPlan, array_index: usize, threshold: usize) {
        if !plan.is_active() {
            self.faults = None;
            return;
        }
        let mut faults = plan.instantiate(array_index, self.rows.len(), self.width);
        if plan.selftest_trials > 0 {
            let mut rng = plan.selftest_rng(array_index);
            let drift = faults.drift_states;
            for rf in &mut faults.rows {
                let self_mis = rf.self_mismatches();
                let mut fails = 0u32;
                for _ in 0..plan.selftest_trials {
                    // A dead matchline fails every trial without sensing;
                    // live rows burn one self-test draw per trial.
                    let pass = !rf.dead
                        && self
                            .sense
                            .decide_with_offset(self_mis, self.width, threshold, drift, &mut rng);
                    fails += u32::from(!pass);
                }
                rf.quarantined = fails * 2 > plan.selftest_trials;
            }
        }
        self.faults = Some(faults);
    }

    /// The installed fault state, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&ArrayFaults> {
        self.faults.as_ref()
    }

    /// Number of quarantined rows (0 when no faults are installed).
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.faults
            .as_ref()
            .map_or(0, ArrayFaults::quarantined_rows)
    }

    /// One row's fault-aware decision: `(n_reported, matched)`.
    ///
    /// Draw discipline — the invariant the determinism pins rely on:
    /// exactly **one** draw from the main sensing stream `rng` per live,
    /// non-quarantined row (quarantined and dead rows draw nothing), and
    /// every transient-flip or re-sense draw comes from the dedicated
    /// per-read `fault_rng`, so the sensing stream's order matches the
    /// fault-free path row for row.
    #[allow(clippy::too_many_arguments)]
    fn sense_row_faulty(
        &self,
        faults: &ArrayFaults,
        row: usize,
        stored: &PackedSeq,
        read: &PackedSeq,
        n_true: usize,
        threshold: usize,
        mode: MatchMode,
        rng: &mut Rng,
        fault_rng: &mut Rng,
        tally: &mut FaultTally,
    ) -> (usize, bool) {
        // Rows stored after the plan was installed have no fault entry and
        // sense cleanly.
        let Some(rf) = faults.rows.get(row) else {
            return (
                n_true,
                self.sense.decide(n_true, self.width, threshold, rng),
            );
        };
        if rf.quarantined {
            // The controller answers from its pristine stored copy: exact
            // digital comparison, no analog sense, no draws.
            tally.requarried += 1;
            return (n_true, n_true <= threshold);
        }
        let n_eff = if rf.stuck.is_empty() {
            n_true
        } else {
            ArrayFaults::effective_n_mis(rf, stored, read, n_true, mode)
        };
        if rf.dead {
            // The matchline never discharges; the SA reads "no match".
            return (n_eff, false);
        }
        let drift = faults.drift_states;
        let flip_rate = faults.transient_flip_rate;
        let mut decision = self
            .sense
            .decide_with_offset(n_eff, self.width, threshold, drift, rng);
        if flip_rate > 0.0 && asmcap_circuit::noise::uniform(fault_rng) < flip_rate {
            decision = !decision;
        }
        // Re-sense voting: when the analog decision disagrees with the
        // matchline's digital expectation, sense again and let the
        // majority win. Extra senses draw from the fault stream so the
        // main stream stays in lockstep with the unvoted path.
        let expected = n_eff <= threshold;
        if faults.resense_votes > 1 && decision != expected {
            tally.resensed += 1;
            let mut yes = u32::from(decision);
            for _ in 1..faults.resense_votes {
                let mut vote = self
                    .sense
                    .decide_with_offset(n_eff, self.width, threshold, drift, fault_rng);
                if flip_rate > 0.0 && asmcap_circuit::noise::uniform(fault_rng) < flip_rate {
                    vote = !vote;
                }
                yes += u32::from(vote);
            }
            decision = yes * 2 > faults.resense_votes;
        }
        (n_eff, decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_circuit::{rng, MlCam};
    use asmcap_genome::{DnaSeq, GenomeModel};

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    #[test]
    fn store_and_read_back() {
        let mut array = CamArray::asmcap(2, 4);
        let row = array.store_row(seq("ACGT").as_slice()).unwrap();
        assert_eq!(row, 0);
        assert_eq!(array.stored_row(0).unwrap(), seq("ACGT").into_bases());
        assert!(array.stored_row(1).is_none());
    }

    #[test]
    fn store_rejects_bad_width_and_overflow() {
        let mut array = CamArray::asmcap(1, 4);
        assert_eq!(
            array.store_row(seq("ACG").as_slice()),
            Err(StoreRowError::WidthMismatch {
                expected: 4,
                actual: 3
            })
        );
        array.store_row(seq("ACGT").as_slice()).unwrap();
        assert_eq!(
            array.store_row(seq("TTTT").as_slice()),
            Err(StoreRowError::ArrayFull)
        );
    }

    #[test]
    fn mismatch_counts_agree_with_metrics() {
        let genome = GenomeModel::uniform().generate(4_000, 5);
        let mut array = CamArray::asmcap(8, 64);
        for i in 0..8 {
            array
                .store_row(&genome.as_slice()[i * 100..i * 100 + 64])
                .unwrap();
        }
        let read = &genome.as_slice()[1234..1298];
        for row in 0..8 {
            let stored = array.stored_row(row).unwrap();
            assert_eq!(
                array.row_mismatches(row, read, MatchMode::EdStar),
                asmcap_metrics::ed_star(&stored, read),
                "ED* mismatch on row {row}"
            );
            assert_eq!(
                array.row_mismatches(row, read, MatchMode::Hamming),
                asmcap_metrics::hamming(&stored, read),
                "HD mismatch on row {row}"
            );
        }
    }

    #[test]
    fn search_finds_exact_row() {
        let mut array = CamArray::asmcap(4, 32);
        let genome = GenomeModel::uniform().generate(400, 9);
        for i in 0..4 {
            array
                .store_row(&genome.as_slice()[i * 40..i * 40 + 32])
                .unwrap();
        }
        let mut rng = rng(2);
        let read = PackedSeq::from_seq(&genome.window(80..112)); // row 2's segment
        let outcome = array.search(&read, 0, MatchMode::EdStar, None, &mut rng, None);
        assert_eq!(outcome.matched_rows(), vec![2]);
        assert_eq!(outcome.rows[2].n_mis, 0);
    }

    #[test]
    fn search_reports_energy() {
        let mut array = CamArray::asmcap(4, 32);
        let genome = GenomeModel::uniform().generate(200, 1);
        for i in 0..4 {
            array
                .store_row(&genome.as_slice()[i * 40..i * 40 + 32])
                .unwrap();
        }
        let mut rng = rng(4);
        let read = PackedSeq::from_seq(&genome.window(60..92));
        let outcome = array.search(&read, 2, MatchMode::EdStar, None, &mut rng, None);
        assert!(outcome.energy_j > 0.0);
        // The array charges the circuit model's search energy for the
        // rows it sensed.
        assert_eq!(
            outcome.energy_j,
            asmcap_array_search_energy(array.sense().cam().params(), 4, 32, outcome.mean_n_mis())
        );
    }

    #[test]
    fn outcome_mean_n_mis() {
        let outcome = SearchOutcome {
            rows: vec![
                RowSearchOutcome {
                    row: 0,
                    n_mis: 2,
                    matched: true,
                },
                RowSearchOutcome {
                    row: 1,
                    n_mis: 4,
                    matched: false,
                },
            ],
            mode: MatchMode::EdStar,
            threshold: 2,
            energy_j: 0.0,
        };
        assert_eq!(outcome.mean_n_mis(), 3.0);
    }

    fn faulty_test_array() -> CamArray {
        let genome = GenomeModel::uniform().generate(8_000, 31);
        let mut array = CamArray::asmcap(32, 64);
        for i in 0..32 {
            array
                .store_row(&genome.as_slice()[i * 200..i * 200 + 64])
                .unwrap();
        }
        array
    }

    #[test]
    fn inactive_plan_installs_nothing_and_search_is_byte_identical() {
        let mut array = faulty_test_array();
        array.install_faults(&FaultPlan::none(), 0, 6);
        assert!(array.faults().is_none());
        assert_eq!(array.quarantined_rows(), 0);
        let read = array
            .stored_row(3)
            .map(|bases| PackedSeq::from_bases(&bases))
            .unwrap();
        let mut tally = FaultTally::default();
        let mut plain_rng = rng(42);
        let mut fault_path_rng = rng(42);
        let mut fault_rng = FaultPlan::none().read_fault_rng(42);
        let plain = array.search(&read, 6, MatchMode::EdStar, None, &mut plain_rng, None);
        let faulted = array.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut fault_path_rng,
            Some((&mut fault_rng, &mut tally)),
        );
        assert_eq!(plain, faulted);
        assert_eq!(tally, FaultTally::default());
        // The main stream consumed identically on both paths.
        assert_eq!(
            array.search(&read, 6, MatchMode::EdStar, None, &mut plain_rng, None),
            array.search(&read, 6, MatchMode::EdStar, None, &mut fault_path_rng, None),
        );
    }

    #[test]
    fn installed_faults_are_deterministic_across_installs() {
        let plan = FaultPlan::paper_corner(11);
        let mut a = faulty_test_array();
        let mut b = faulty_test_array();
        a.install_faults(&plan, 5, 6);
        b.install_faults(&plan, 5, 6);
        assert_eq!(a.faults(), b.faults());
        let read = a
            .stored_row(9)
            .map(|bases| PackedSeq::from_bases(&bases))
            .unwrap();
        let mut tally_a = FaultTally::default();
        let mut tally_b = FaultTally::default();
        let out_a = a.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut rng(77),
            Some((&mut plan.read_fault_rng(77), &mut tally_a)),
        );
        let out_b = b.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut rng(77),
            Some((&mut plan.read_fault_rng(77), &mut tally_b)),
        );
        assert_eq!(out_a, out_b);
        assert_eq!(tally_a, tally_b);
    }

    #[test]
    fn dead_rows_are_quarantined_and_answered_exactly() {
        // A plan that kills every row: the self-test scan must quarantine
        // all of them, and searches then answer with the exact digital
        // fallback without touching the sensing stream.
        let plan = FaultPlan {
            seed: 3,
            dead_row_rate: 1.0,
            selftest_trials: 3,
            ..FaultPlan::none()
        };
        // dead_row_rate makes it active.
        assert!(plan.is_active());
        let mut array = faulty_test_array();
        array.install_faults(&plan, 0, 6);
        assert_eq!(array.quarantined_rows(), array.rows());
        let read = array
            .stored_row(7)
            .map(|bases| PackedSeq::from_bases(&bases))
            .unwrap();
        let mut tally = FaultTally::default();
        let mut main = rng(5);
        let before: u64 = {
            let mut probe = main.clone();
            use rand::Rng as _;
            probe.gen()
        };
        let out = array.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut main,
            Some((&mut plan.read_fault_rng(5), &mut tally)),
        );
        // Exact digital answers: row 7 matches itself, all else by count.
        assert!(out.rows[7].matched);
        for row in &out.rows {
            assert_eq!(row.matched, row.n_mis <= 6, "row {}", row.row);
        }
        assert_eq!(tally.requarried, array.rows() as u64);
        // No draws were consumed from the main sensing stream.
        use rand::Rng as _;
        assert_eq!(main.gen::<u64>(), before);
    }

    #[test]
    fn quarantine_catches_heavily_stuck_rows() {
        // Weld enough stuck-at-mismatch cells that a row can never sense
        // below a small threshold: the self-test must quarantine it.
        let plan = FaultPlan {
            seed: 8,
            stuck_mismatch_rate: 0.5,
            selftest_trials: 5,
            ..FaultPlan::none()
        };
        let mut array = faulty_test_array();
        array.install_faults(&plan, 2, 3);
        let faults = array.faults().unwrap();
        for (row, rf) in faults.rows.iter().enumerate() {
            if rf.self_mismatches() > 10 {
                assert!(rf.quarantined, "row {row} with heavy welds must quarantine");
            }
        }
        assert!(array.quarantined_rows() > 0);
    }

    #[test]
    fn masked_fault_search_agrees_with_full_on_listed_rows_draw_order() {
        let plan = FaultPlan::paper_corner(21);
        let mut array = faulty_test_array();
        array.install_faults(&plan, 1, 6);
        let read = array
            .stored_row(0)
            .map(|bases| PackedSeq::from_bases(&bases))
            .unwrap();
        let all_rows: Vec<usize> = (0..array.rows()).collect();
        let mut tally_full = FaultTally::default();
        let mut tally_masked = FaultTally::default();
        let full = array.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut rng(9),
            Some((&mut plan.read_fault_rng(9), &mut tally_full)),
        );
        let masked = array.search(
            &read,
            6,
            MatchMode::EdStar,
            Some(&all_rows),
            &mut rng(9),
            Some((&mut plan.read_fault_rng(9), &mut tally_masked)),
        );
        assert_eq!(full, masked, "full row list must be byte-identical");
        assert_eq!(tally_full, tally_masked);
    }

    /// An array whose rows sit at every distance from one read: row `i`
    /// is the read (or, every fourth row, unrelated sequence) with
    /// `i % 12` substitutions, so a search has rows on, near and far from
    /// `V_ref`.
    fn graded_test_array() -> (CamArray, PackedSeq) {
        let genome = GenomeModel::uniform().generate(8_000, 41);
        let read = &genome.as_slice()[..64];
        let mut array = CamArray::asmcap(48, 64);
        for i in 0..48usize {
            let mut row = if i % 4 == 3 {
                genome.as_slice()[1_000 + i * 100..][..64].to_vec()
            } else {
                read.to_vec()
            };
            for k in 0..i % 12 {
                let col = (i * 7 + k * 13) % 64;
                row[col] = row[col].substituted(k as u8);
            }
            array.store_row(&row).unwrap();
        }
        (array, PackedSeq::from_bases(read))
    }

    /// `search` over every row with faults as installed, but drawing every
    /// measurement through `MlCam::measure`: the always-drawing oracle.
    fn drawing_oracle(
        array: &CamArray,
        read: &PackedSeq,
        t: usize,
        rng: &mut Rng,
        fault_rng: &mut Rng,
    ) -> Vec<RowSearchOutcome> {
        let boundary = array.sense().policy().boundary_states(t);
        let drawn = |n: usize, offset: f64, rng: &mut Rng| {
            array.sense().cam().measure(n, array.width(), rng) + offset <= boundary
        };
        let faults = array.faults();
        (0..array.rows())
            .map(|row| {
                let n_true = array.row_mismatches_packed(row, read, MatchMode::EdStar);
                let (n_mis, matched) = match faults.and_then(|f| f.rows.get(row)) {
                    None => (n_true, drawn(n_true, 0.0, rng)),
                    Some(rf) if rf.quarantined => (n_true, n_true <= t),
                    Some(rf) => {
                        let faults = faults.unwrap();
                        let n_eff = ArrayFaults::effective_n_mis(
                            rf,
                            &array.rows[row],
                            read,
                            n_true,
                            MatchMode::EdStar,
                        );
                        let flip = |fault_rng: &mut Rng| {
                            faults.transient_flip_rate > 0.0
                                && asmcap_circuit::noise::uniform(fault_rng)
                                    < faults.transient_flip_rate
                        };
                        let mut decision = false;
                        if !rf.dead {
                            decision = drawn(n_eff, faults.drift_states, rng) ^ flip(fault_rng);
                            if faults.resense_votes > 1 && decision != (n_eff <= t) {
                                let mut yes = u32::from(decision);
                                for _ in 1..faults.resense_votes {
                                    let vote = drawn(n_eff, faults.drift_states, fault_rng)
                                        ^ flip(fault_rng);
                                    yes += u32::from(vote);
                                }
                                decision = yes * 2 > faults.resense_votes;
                            }
                        }
                        (n_eff, decision)
                    }
                };
                RowSearchOutcome {
                    row,
                    n_mis,
                    matched,
                }
            })
            .collect()
    }

    #[test]
    fn search_equals_an_always_drawing_row_by_row_oracle() {
        use rand::RngCore as _;
        let stress = FaultPlan {
            seed: 4,
            stuck_match_rate: 0.01,
            stuck_mismatch_rate: 0.01,
            dead_row_rate: 0.05,
            drift_sigma_states: 0.5,
            transient_flip_rate: 0.05,
            resense_votes: 3,
            selftest_trials: 5,
        };
        let plans = [FaultPlan::none(), FaultPlan::paper_corner(13), stress];
        let (mut settled, mut drawn) = (0, 0);
        for plan in &plans {
            for t in [3usize, 6, 9] {
                let (mut array, read) = graded_test_array();
                array.install_faults(plan, 0, t);
                if let Some(faults) = array.faults() {
                    // The self-test scan's quarantine, redrawn by the oracle.
                    let mut selftest = plan.selftest_rng(0);
                    let boundary = array.sense().policy().boundary_states(t);
                    for (row, rf) in faults.rows.iter().enumerate() {
                        let fails = (0..plan.selftest_trials)
                            .filter(|_| {
                                let measured = array.sense().cam().measure(
                                    rf.self_mismatches(),
                                    64,
                                    &mut selftest,
                                );
                                rf.dead || measured + faults.drift_states > boundary
                            })
                            .count() as u32;
                        assert_eq!(rf.quarantined, fails * 2 > plan.selftest_trials, "{row}");
                    }
                }
                for seed in 0..8 {
                    let (mut rng_a, mut rng_b) = (rng(seed), rng(seed));
                    let mut fault_a = plan.read_fault_rng(seed);
                    let mut fault_b = fault_a.clone();
                    let mut tally = FaultTally::default();
                    let fault = plan.is_active().then_some((&mut fault_a, &mut tally));
                    let outcome =
                        array.search(&read, t, MatchMode::EdStar, None, &mut rng_a, fault);
                    let oracle = drawing_oracle(&array, &read, t, &mut rng_b, &mut fault_b);
                    let context = format!("plan {plan:?} T {t} seed {seed}");
                    assert_eq!(outcome.rows, oracle, "{context}");
                    assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{context}");
                    assert_eq!(fault_a.next_u64(), fault_b.next_u64(), "{context}");
                    for row in &oracle {
                        match array.sense().certain(row.n_mis, 64, t, 0.0) {
                            Some(_) => settled += 1,
                            None => drawn += 1,
                        }
                    }
                }
            }
        }
        // Both far rows (sought past) and near rows (drawn) occur.
        assert!(settled > 3 * drawn, "{settled} settled, {drawn} drawn");
        assert!(drawn > 20, "{settled} settled, {drawn} drawn");
    }
}
