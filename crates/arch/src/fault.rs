//! Seeded, deterministic device fault injection.
//!
//! An analog CAM's accuracy story is only as good as its worst cells: HD-CAM
//! style approximate-match arrays must tolerate manufacturing defects, and a
//! serving deployment must *measure* the degradation they cause instead of
//! silently returning wrong positions. This module defines the fault
//! taxonomy as data — a [`FaultPlan`] — and the per-array instantiation
//! ([`ArrayFaults`]) the [`crate::CamArray`] search path consults:
//!
//! * **stuck-at-match / stuck-at-mismatch cells** — a cell whose comparison
//!   output is welded high or low, perturbing the matchline count (`n_mis`)
//!   the digital pre-pass and the analog sense both see;
//! * **dead rows** — a matchline that never discharges: the row can never
//!   match, silently dropping its origin from every search;
//! * **per-array capacitance drift** — a Gaussian offset (in state units)
//!   added to every measurement in the array, eroding the sense margin
//!   exactly where `V_ref` placement assumed it;
//! * **transient sense flips** — a per-sense Bernoulli event inverting the
//!   sense amplifier's decision, drawn from a **dedicated** seeded fault
//!   stream so the existing sensing-noise draw order is untouched.
//!
//! Two mitigations ride in the same plan:
//!
//! * **N-way re-sense majority voting** ([`FaultPlan::resense_votes`]) —
//!   when the analog decision disagrees with the matchline's digital
//!   expectation, the row is re-sensed and the majority wins; every voting
//!   event is counted (`resensed`) so mitigation is observable.
//! * **row quarantine via self-test** ([`FaultPlan::selftest_trials`]) — at
//!   install time each row is sensed against its own stored word (expected
//!   mismatch count ≈ 0); rows failing a majority of trials (dead rows
//!   always do) are quarantined, and searches answer them with an exact
//!   digital fallback over the controller's pristine stored copy, counted
//!   as `requarried`.
//!
//! Everything is a pure function of `(plan, array index)` or of the
//! per-read fault RNG stream the caller supplies, so a seeded plan
//! reproduces bit-identical faults across runs, batch shapes, and worker
//! counts. [`FaultPlan::none`] is inert by construction: no fault state is
//! installed and every golden fingerprint stays byte-identical.

use asmcap_circuit::{noise, Rng};
use asmcap_genome::PackedSeq;
use std::fmt;

use crate::array::MatchMode;

/// The fault taxonomy and mitigation knobs, as data. All rates are
/// probabilities in `[0, 1]`; the plan's `seed` drives every static draw.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault streams (static instantiation and self-test).
    /// Independent of the pipeline's sensing seed.
    pub seed: u64,
    /// Per-cell probability of a stuck-at-match cell (comparison output
    /// welded to "match").
    pub stuck_match_rate: f64,
    /// Per-cell probability of a stuck-at-mismatch cell (welded to
    /// "mismatch").
    pub stuck_mismatch_rate: f64,
    /// Per-row probability of a dead matchline (the row never matches).
    pub dead_row_rate: f64,
    /// Standard deviation (state units) of the per-array capacitance-drift
    /// offset added to every measurement in that array.
    pub drift_sigma_states: f64,
    /// Per-sense probability of a transient decision flip, drawn from the
    /// dedicated per-read fault stream.
    pub transient_flip_rate: f64,
    /// Re-sense majority votes on analog/digital disagreement. `0` or `1`
    /// disables voting; even values round up to the next odd count.
    pub resense_votes: u32,
    /// Self-test senses per row at install time; `0` disables the
    /// self-test scan (and therefore quarantine).
    pub selftest_trials: u32,
}

impl FaultPlan {
    /// The inert plan: every rate zero, no drift, no voting, no self-test.
    /// Installing it is a no-op and perturbs nothing.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            stuck_match_rate: 0.0,
            stuck_mismatch_rate: 0.0,
            dead_row_rate: 0.0,
            drift_sigma_states: 0.0,
            transient_flip_rate: 0.0,
            resense_votes: 1,
            selftest_trials: 0,
        }
    }

    /// The paper-corner preset: defect rates at the pessimistic end of the
    /// corners the circuit models quantify, with both mitigations armed.
    /// The soak test pins recall ≥ 0.95 under this plan.
    #[must_use]
    pub fn paper_corner(seed: u64) -> Self {
        Self {
            seed,
            stuck_match_rate: 5e-4,
            stuck_mismatch_rate: 1e-3,
            dead_row_rate: 2e-3,
            drift_sigma_states: 0.2,
            transient_flip_rate: 5e-3,
            resense_votes: 3,
            selftest_trials: 5,
        }
    }

    /// Whether the plan can perturb any search at all. Inactive plans
    /// (e.g. [`FaultPlan::none`]) are never installed, so the fault-free
    /// path stays byte-identical.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.stuck_match_rate > 0.0
            || self.stuck_mismatch_rate > 0.0
            || self.dead_row_rate > 0.0
            || self.drift_sigma_states > 0.0
            || self.transient_flip_rate > 0.0
    }

    /// The majority-voting count actually used: odd, at least 1.
    #[must_use]
    pub fn effective_votes(&self) -> u32 {
        let v = self.resense_votes.max(1);
        if v.is_multiple_of(2) {
            v + 1
        } else {
            v
        }
    }

    /// The dedicated install-time RNG for one array's static faults. A
    /// distinct SplitMix-style mix keeps it disjoint from the sensing and
    /// host streams for every `(seed, array)` pair.
    #[must_use]
    pub fn install_rng(&self, array_index: usize) -> Rng {
        asmcap_circuit::rng(mix(self.seed, 0x5AFE_FA17, array_index as u64))
    }

    /// The dedicated self-test RNG for one array (separate from the
    /// install stream so adding rows does not reshuffle the trials).
    #[must_use]
    pub fn selftest_rng(&self, array_index: usize) -> Rng {
        asmcap_circuit::rng(mix(self.seed, 0x7E57_0BAD, array_index as u64))
    }

    /// The per-read transient/voting fault stream. Derived from the
    /// read's sensing seed and the plan seed with its own multiplier, so
    /// it never collides with the sensing stream (`rng(seed)`) or the
    /// host stream — the existing draw order is left untouched.
    #[must_use]
    pub fn read_fault_rng(&self, read_seed: u64) -> Rng {
        asmcap_circuit::rng(mix(self.seed, 0xFA_u64, read_seed))
    }

    /// Instantiates this plan's static faults for one array: per-cell
    /// stuck faults, per-row dead matchlines, and the array's drift
    /// offset. Pure in `(self, array_index, rows, width)`.
    #[must_use]
    pub fn instantiate(&self, array_index: usize, rows: usize, width: usize) -> ArrayFaults {
        let mut rng = self.install_rng(array_index);
        let drift_states = if self.drift_sigma_states > 0.0 {
            noise::normal(0.0, self.drift_sigma_states, &mut rng)
        } else {
            0.0
        };
        let stuck_any = self.stuck_match_rate > 0.0 || self.stuck_mismatch_rate > 0.0;
        let rows = (0..rows)
            .map(|_| {
                let dead =
                    self.dead_row_rate > 0.0 && noise::uniform(&mut rng) < self.dead_row_rate;
                let mut stuck = Vec::new();
                if stuck_any {
                    for col in 0..width {
                        let u = noise::uniform(&mut rng);
                        if u < self.stuck_match_rate {
                            stuck.push(StuckCell {
                                col: col as u32,
                                forced_match: true,
                            });
                        } else if u < self.stuck_match_rate + self.stuck_mismatch_rate {
                            stuck.push(StuckCell {
                                col: col as u32,
                                forced_match: false,
                            });
                        }
                    }
                }
                RowFaults {
                    dead,
                    quarantined: false,
                    stuck,
                }
            })
            .collect();
        ArrayFaults {
            drift_states,
            transient_flip_rate: self.transient_flip_rate,
            resense_votes: self.effective_votes(),
            rows,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaultPlan(seed={}, stuck={}/{}, dead={}, drift={}, flip={}, votes={}, selftest={})",
            self.seed,
            self.stuck_match_rate,
            self.stuck_mismatch_rate,
            self.dead_row_rate,
            self.drift_sigma_states,
            self.transient_flip_rate,
            self.effective_votes(),
            self.selftest_trials,
        )
    }
}

/// One welded comparison cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckCell {
    /// Column (cell index) within the row.
    pub col: u32,
    /// `true` = stuck-at-match, `false` = stuck-at-mismatch.
    pub forced_match: bool,
}

/// Static fault state of one row.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowFaults {
    /// The matchline never discharges; the row can never match.
    pub dead: bool,
    /// Set by the self-test scan: searches answer this row with the exact
    /// digital fallback instead of the analog sense.
    pub quarantined: bool,
    /// Welded cells, ascending by column (usually empty).
    pub stuck: Vec<StuckCell>,
}

impl RowFaults {
    /// The row's mismatch count against its **own** stored word — what the
    /// self-test scan senses. Only stuck-at-mismatch cells contribute.
    #[must_use]
    pub fn self_mismatches(&self) -> usize {
        self.stuck.iter().filter(|c| !c.forced_match).count()
    }
}

/// One array's instantiated faults, consulted by the search path.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayFaults {
    /// The array's capacitance-drift offset in state units.
    pub drift_states: f64,
    /// Copied from the plan: per-sense transient flip probability.
    pub transient_flip_rate: f64,
    /// Copied from the plan: odd majority-vote count (1 = off).
    pub resense_votes: u32,
    /// Per-row fault state, indexed by row.
    pub rows: Vec<RowFaults>,
}

impl ArrayFaults {
    /// Number of quarantined rows.
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.quarantined).count()
    }

    /// The effective matchline count of a row whose welded cells perturb
    /// the true count `n_true`: a stuck-at-match cell erases a genuine
    /// mismatch, a stuck-at-mismatch cell forges one.
    #[must_use]
    pub fn effective_n_mis(
        row: &RowFaults,
        stored: &PackedSeq,
        read: &PackedSeq,
        n_true: usize,
        mode: MatchMode,
    ) -> usize {
        let mut n_eff = n_true;
        for cell in &row.stuck {
            let genuine = cell_matches(stored, read, cell.col as usize, mode);
            if cell.forced_match && !genuine {
                n_eff = n_eff.saturating_sub(1);
            } else if !cell.forced_match && genuine {
                n_eff += 1;
            }
        }
        n_eff
    }
}

/// Per-search mitigation accounting, bubbled up through
/// [`crate::SearchStats`] into the pipeline's degradation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTally {
    /// Rows where re-sense majority voting fired.
    pub resensed: u64,
    /// Quarantined rows answered by the exact digital fallback.
    pub requarried: u64,
}

impl FaultTally {
    /// Accumulates another tally.
    pub fn absorb(&mut self, other: FaultTally) {
        self.resensed += other.resensed;
        self.requarried += other.requarried;
    }
}

/// Whether one ED\*/HD cell genuinely matches: the per-cell three-way
/// window semantics of [`crate::cell::AsmcapCell`] / [`crate::SlDriver`],
/// evaluated for a single column.
#[must_use]
pub fn cell_matches(stored: &PackedSeq, read: &PackedSeq, col: usize, mode: MatchMode) -> bool {
    let Some(s) = stored.get(col) else {
        return true; // out-of-range cells hold nothing and cannot mismatch
    };
    match mode {
        MatchMode::Hamming => read.get(col) == Some(s),
        MatchMode::EdStar => {
            (col > 0 && read.get(col - 1) == Some(s))
                || read.get(col) == Some(s)
                || read.get(col + 1) == Some(s)
        }
    }
}

/// SplitMix64-style mix of a plan seed, a stream tag, and an index —
/// the same avalanche construction as the pipeline's `read_seed`, with
/// distinct stream tags keeping fault streams disjoint from each other
/// and from the sensing/host streams.
fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::DnaSeq;

    fn packed(s: &str) -> PackedSeq {
        PackedSeq::from_seq(&s.parse::<DnaSeq>().expect("valid test sequence"))
    }

    #[test]
    fn none_plan_is_inactive_and_instantiates_clean() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let faults = plan.instantiate(3, 16, 64);
        assert_eq!(faults.drift_states, 0.0);
        assert!(faults
            .rows
            .iter()
            .all(|r| !r.dead && !r.quarantined && r.stuck.is_empty()));
    }

    #[test]
    fn paper_corner_is_active_and_deterministic() {
        let plan = FaultPlan::paper_corner(99);
        assert!(plan.is_active());
        let a = plan.instantiate(7, 256, 128);
        let b = plan.instantiate(7, 256, 128);
        assert_eq!(a, b, "same (plan, array) must instantiate identically");
        let c = plan.instantiate(8, 256, 128);
        assert_ne!(a.drift_states, c.drift_states, "arrays drift independently");
    }

    #[test]
    fn effective_votes_rounds_to_odd() {
        let mut plan = FaultPlan::none();
        for (raw, expect) in [(0u32, 1u32), (1, 1), (2, 3), (3, 3), (4, 5), (5, 5)] {
            plan.resense_votes = raw;
            assert_eq!(plan.effective_votes(), expect);
        }
    }

    #[test]
    fn corner_rates_instantiate_plausible_fault_density() {
        let plan = FaultPlan::paper_corner(5);
        let rows = 512usize;
        let width = 128usize;
        let faults = plan.instantiate(0, rows, width);
        let stuck: usize = faults.rows.iter().map(|r| r.stuck.len()).sum();
        let dead = faults.rows.iter().filter(|r| r.dead).count();
        let cells = (rows * width) as f64;
        let expect_stuck = cells * (plan.stuck_match_rate + plan.stuck_mismatch_rate);
        assert!(
            (stuck as f64) > expect_stuck * 0.4 && (stuck as f64) < expect_stuck * 2.5,
            "stuck cells {stuck} vs expectation {expect_stuck}"
        );
        assert!(dead <= rows / 50, "dead rows {dead} out of {rows}");
    }

    #[test]
    fn stuck_cells_shift_the_effective_count_both_ways() {
        let stored = packed("ACGTACGT");
        let read = packed("ACGTACGT"); // n_true = 0 in both modes
        let mut row = RowFaults::default();
        row.stuck.push(StuckCell {
            col: 2,
            forced_match: false,
        });
        assert_eq!(
            ArrayFaults::effective_n_mis(&row, &stored, &read, 0, MatchMode::Hamming),
            1,
            "a forced mismatch on a matching cell forges a count"
        );
        row.stuck[0].forced_match = true;
        assert_eq!(
            ArrayFaults::effective_n_mis(&row, &stored, &read, 0, MatchMode::Hamming),
            0,
            "a forced match on a matching cell changes nothing"
        );
        // A genuinely mismatching cell: stored T vs read G at column 3.
        let far = packed("ACGGACGT");
        row.stuck[0] = StuckCell {
            col: 3,
            forced_match: true,
        };
        assert_eq!(
            ArrayFaults::effective_n_mis(&row, &stored, &far, 1, MatchMode::Hamming),
            0,
            "a forced match erases the genuine mismatch"
        );
    }

    #[test]
    fn cell_matches_uses_the_ed_star_window() {
        // stored[2] = G; read has G only at position 1 — ED* sees the
        // neighbour, Hamming does not.
        let stored = packed("AAGA");
        let read = packed("AGAA");
        assert!(cell_matches(&stored, &read, 2, MatchMode::EdStar));
        assert!(!cell_matches(&stored, &read, 2, MatchMode::Hamming));
        // Out-of-range columns never mismatch.
        assert!(cell_matches(&stored, &read, 64, MatchMode::EdStar));
    }

    #[test]
    fn fault_streams_are_disjoint_from_sensing_streams() {
        use rand::Rng as _;
        let plan = FaultPlan::paper_corner(0);
        // The per-read fault stream for seed s must differ from rng(s)
        // (sensing) and from the host stream derivation.
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut fault = plan.read_fault_rng(seed);
            let mut sense = asmcap_circuit::rng(seed);
            let mut host = asmcap_circuit::rng(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            let f: u64 = fault.gen();
            assert_ne!(f, sense.gen::<u64>(), "fault stream collides with sensing");
            assert_ne!(f, host.gen::<u64>(), "fault stream collides with host");
        }
    }

    #[test]
    fn self_mismatches_counts_only_forced_mismatch_cells() {
        let mut row = RowFaults::default();
        row.stuck.push(StuckCell {
            col: 0,
            forced_match: true,
        });
        row.stuck.push(StuckCell {
            col: 5,
            forced_match: false,
        });
        row.stuck.push(StuckCell {
            col: 9,
            forced_match: false,
        });
        assert_eq!(row.self_mismatches(), 2);
    }

    #[test]
    fn tally_absorbs() {
        let mut a = FaultTally {
            resensed: 1,
            requarried: 2,
        };
        a.absorb(FaultTally {
            resensed: 3,
            requarried: 4,
        });
        assert_eq!(
            a,
            FaultTally {
                resensed: 4,
                requarried: 6,
            }
        );
    }
}
