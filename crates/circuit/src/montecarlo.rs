//! Seeded Monte-Carlo variation analysis (paper §V-D).
//!
//! The paper runs Monte-Carlo circuit simulations to compare sensing
//! reliability between ASMCap and EDAM. This module reproduces that study
//! behaviourally: it estimates per-state misjudgment probabilities, sweeps
//! thresholds, and counts empirically distinguishable states.

use crate::sense::SenseAmp;
use crate::{rng, MlCam};

/// Configuration of a Monte-Carlo sensing experiment.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    /// Number of trials per configuration.
    pub trials: usize,
    /// RNG seed; the experiment is fully deterministic given the seed.
    pub seed: u64,
}

impl Default for MonteCarlo {
    fn default() -> Self {
        Self {
            trials: 10_000,
            seed: 0xA5AC,
        }
    }
}

/// Result of one misjudgment estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Misjudgment {
    /// Probability that a row with `n_mis ≤ T` is declared a mismatch.
    pub false_negative: f64,
    /// Probability that a row with `n_mis > T` is declared a match.
    pub false_positive: f64,
}

impl MonteCarlo {
    /// Creates an experiment with the given trial count and seed.
    #[must_use]
    pub fn new(trials: usize, seed: u64) -> Self {
        Self { trials, seed }
    }

    /// Estimates the probability that a row with exactly `n_mis` mismatches
    /// is declared a match at `threshold`.
    #[must_use]
    pub fn match_rate<M: MlCam>(
        &self,
        cam: &SenseAmp<M>,
        n_mis: usize,
        n: usize,
        threshold: usize,
    ) -> f64 {
        let mut rng = rng(self.seed ^ (n_mis as u64) << 20 ^ threshold as u64);
        let hits = (0..self.trials)
            .filter(|_| cam.decide(n_mis, n, threshold, &mut rng))
            .count();
        hits as f64 / self.trials as f64
    }

    /// Estimates sensing misjudgment rates at `threshold` for a row
    /// population described by `n_mis_values` (one entry per row).
    #[must_use]
    pub fn misjudgment<M: MlCam>(
        &self,
        cam: &SenseAmp<M>,
        n_mis_values: &[usize],
        n: usize,
        threshold: usize,
    ) -> Misjudgment {
        let mut rng = rng(self.seed ^ 0xBEEF ^ threshold as u64);
        let mut fn_count = 0usize;
        let mut fn_total = 0usize;
        let mut fp_count = 0usize;
        let mut fp_total = 0usize;
        for _ in 0..self.trials {
            for &n_mis in n_mis_values {
                let decided = cam.decide(n_mis, n, threshold, &mut rng);
                if n_mis <= threshold {
                    fn_total += 1;
                    if !decided {
                        fn_count += 1;
                    }
                } else {
                    fp_total += 1;
                    if decided {
                        fp_count += 1;
                    }
                }
            }
        }
        Misjudgment {
            false_negative: if fn_total == 0 {
                0.0
            } else {
                fn_count as f64 / fn_total as f64
            },
            false_positive: if fp_total == 0 {
                0.0
            } else {
                fp_count as f64 / fp_total as f64
            },
        }
    }

    /// Empirically counts distinguishable states: the largest `k ≤ n` such
    /// that for every state `j < k`, a decision boundary between `j` and
    /// `j+1` separates the two populations with error below `error_budget`
    /// per side.
    #[must_use]
    pub fn distinguishable_states<M: MlCam>(&self, cam: &M, n: usize, error_budget: f64) -> usize {
        let mut rng = rng(self.seed ^ 0x57A7E5);
        for state in 0..n {
            let boundary = state as f64 + 0.5;
            let mut errors_low = 0usize;
            let mut errors_high = 0usize;
            for _ in 0..self.trials {
                if cam.measure(state, n, &mut rng) > boundary {
                    errors_low += 1;
                }
                if cam.measure(state + 1, n, &mut rng) <= boundary {
                    errors_high += 1;
                }
            }
            let rate_low = errors_low as f64 / self.trials as f64;
            let rate_high = errors_high as f64 / self.trials as f64;
            if rate_low > error_budget || rate_high > error_budget {
                return state;
            }
        }
        n
    }
}

/// The two sensing models with every noise source beyond the published
/// device variation zeroed out (no SA offset, no timing jitter) — the
/// configuration under which the paper's §V-D state counts are derived.
#[must_use]
pub fn device_variation_only_models() -> (crate::ChargeDomainCam, crate::CurrentDomainCam) {
    use crate::params::{AsmcapParams, EdamParams};
    let mut asmcap = AsmcapParams::paper();
    asmcap.sa_offset_states = 0.0;
    let mut edam = EdamParams::paper();
    edam.timing_sigma_rel = 0.0;
    edam.sa_offset_states = 0.0;
    (
        crate::ChargeDomainCam::new(asmcap),
        crate::CurrentDomainCam::new(edam),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::ChargeDomainCam;
    use crate::current::CurrentDomainCam;
    use crate::sense::VrefPolicy;

    #[test]
    fn match_rate_far_from_boundary_is_saturated() {
        let mc = MonteCarlo::new(2_000, 1);
        let sa = SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Centered);
        assert_eq!(mc.match_rate(&sa, 2, 256, 8), 1.0);
        assert_eq!(mc.match_rate(&sa, 30, 256, 8), 0.0);
    }

    #[test]
    fn edam_misjudges_more_than_asmcap_near_boundary() {
        let mc = MonteCarlo::new(2_000, 2);
        let asmcap = SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Centered);
        let edam = SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered);
        let rows: Vec<usize> = (0..=16).collect();
        let a = mc.misjudgment(&asmcap, &rows, 256, 8);
        let e = mc.misjudgment(&edam, &rows, 256, 8);
        assert!(e.false_negative > a.false_negative);
        assert!(e.false_positive > a.false_positive);
    }

    #[test]
    fn empirical_states_track_analytic_claims() {
        // Under device variation only (the §V-D configuration), ASMCap
        // distinguishes every state of a 256-wide row (analytic bound: 566)
        // while EDAM collapses near its analytic bound of 44 states. The
        // empirical count is Monte-Carlo noisy, so accept a band around 44.
        let mc = MonteCarlo::new(3_000, 3);
        let (charge_cam, current_cam) = super::device_variation_only_models();
        let charge = mc.distinguishable_states(&charge_cam, 256, 0.00135);
        let current = mc.distinguishable_states(&current_cam, 256, 0.00135);
        assert_eq!(charge, 256);
        assert!(
            (25..70).contains(&current),
            "current-domain states {current} not near analytic 44"
        );
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let mc = MonteCarlo::new(500, 7);
        let sa = SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered);
        assert_eq!(mc.match_rate(&sa, 9, 256, 8), mc.match_rate(&sa, 9, 256, 8));
    }
}
