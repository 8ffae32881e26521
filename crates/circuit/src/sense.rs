//! Sense amplifiers and the threshold decision.
//!
//! Each matchline ends in a sense amplifier comparing `V_ML` against a
//! reference `V_ref`. The paper sets `V_ref = T/N · V_DD` so that the SA
//! outputs `match` exactly when `ED* ≤ T` (§III-B/C). With sensing noise,
//! where the reference sits *between* states matters, so the placement is a
//! configurable [`VrefPolicy`].
//!
//! **Far rows skip their draw, exactly.** The §V-D misjudgment analysis
//! says a row many σ from `V_ref` senses its noiseless decision. For a
//! model whose measurement is one normal ([`MlCam::is_single_normal`]),
//! every draw has `|z| ≤` [`noise::STANDARD_NORMAL_BOUND`] (8.5; the true
//! extreme is ≈ 8.4904) and consumes exactly
//! [`noise::STANDARD_NORMAL_WORDS`] (4) stream words. Floating-point
//! `*` and `+` round monotonically, so `mean + σ·z + offset` lies between
//! its values at `z = ±8.5`; when both sides of that range fall on the
//! same side of the boundary, the decision is known before drawing.
//! [`SenseAmp::certain`] reports it, and [`SenseAmp::decide`] then moves
//! the stream four words forward instead of drawing: decisions and every
//! later draw are identical to always drawing.

use crate::noise;
use crate::{MlCam, Rng};

/// Where to place `V_ref` relative to the threshold state `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VrefPolicy {
    /// `V_ref = (T + ½)/N · V_DD`: centred between states `T` and `T + 1`,
    /// the engineering-correct placement that maximises noise margin on both
    /// sides. This is the default.
    #[default]
    Centered,
    /// `V_ref = T/N · V_DD`, exactly as printed in the paper: a noiseless
    /// row at `n_mis = T` sits *on* the reference.
    Exact,
}

impl VrefPolicy {
    /// The decision boundary in state units for threshold `T`.
    #[must_use]
    pub fn boundary_states(self, threshold: usize) -> f64 {
        match self {
            VrefPolicy::Centered => threshold as f64 + 0.5,
            VrefPolicy::Exact => threshold as f64,
        }
    }

    /// The reference voltage in volts for threshold `T` on an `n`-cell row.
    #[must_use]
    pub fn vref(self, threshold: usize, n: usize, vdd: f64) -> f64 {
        self.boundary_states(threshold) / n as f64 * vdd
    }
}

/// A sense amplifier bound to a sensing model and a `V_ref` policy.
///
/// # Examples
///
/// ```
/// use asmcap_circuit::{ChargeDomainCam, SenseAmp, VrefPolicy};
/// let sa = SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Centered);
/// let mut rng = asmcap_circuit::rng(1);
/// // A clean row with 2 mismatches matches at T = 4 ...
/// assert!(sa.decide(2, 256, 4, &mut rng));
/// // ... and does not at T = 1.
/// assert!(!sa.decide(2, 256, 1, &mut rng));
/// ```
#[derive(Debug, Clone)]
pub struct SenseAmp<M> {
    cam: M,
    policy: VrefPolicy,
}

impl<M: MlCam> SenseAmp<M> {
    /// Creates a sense amplifier over the given sensing model.
    #[must_use]
    pub fn new(cam: M, policy: VrefPolicy) -> Self {
        Self { cam, policy }
    }

    /// The sensing model.
    #[must_use]
    pub fn cam(&self) -> &M {
        &self.cam
    }

    /// The reference placement policy.
    #[must_use]
    pub fn policy(&self) -> VrefPolicy {
        self.policy
    }

    /// One noisy match decision: `true` iff the measured matchline value
    /// falls at or below the `V_ref` boundary for `threshold`.
    pub fn decide(&self, n_mis: usize, n: usize, threshold: usize, rng: &mut Rng) -> bool {
        self.decide_with_offset(n_mis, n, threshold, 0.0, rng)
    }

    /// [`SenseAmp::decide`] with a systematic matchline offset in state
    /// units — the fault-injection hook for per-array capacitance drift.
    /// A positive offset pushes every measurement away from "match",
    /// eroding the sense margin. `decide_with_offset(.., 0.0, ..)` draws
    /// and decides exactly as [`SenseAmp::decide`].
    ///
    /// A decision [`SenseAmp::certain`] settles costs no draw: the stream
    /// moves past the measurement's words instead, so the result and the
    /// stream afterwards are those of drawing `measure(..) + offset ≤
    /// boundary`.
    pub fn decide_with_offset(
        &self,
        n_mis: usize,
        n: usize,
        threshold: usize,
        offset_states: f64,
        rng: &mut Rng,
    ) -> bool {
        if let Some(decision) = self.certain(n_mis, n, threshold, offset_states) {
            noise::skip_standard_normals(rng, 1);
            return decision;
        }
        self.cam.measure(n_mis, n, rng) + offset_states <= self.policy.boundary_states(threshold)
    }

    /// The decision every possible draw gives a row with `n_mis` of `n`
    /// cells mismatched at `threshold` and matchline offset
    /// `offset_states`, or `None` when the draw matters or the model's
    /// measurement is not a single normal ([`MlCam::is_single_normal`]).
    ///
    /// Evaluates the drawn expression `(mean + σ·z) + offset ≤ boundary`
    /// at `z = ±`[`noise::STANDARD_NORMAL_BOUND`]; rounding is monotone,
    /// so the two ends bound every draw. At σ = 0 both ends are the
    /// drawn expression itself, `mean + offset ≤ boundary`.
    #[must_use]
    pub fn certain(
        &self,
        n_mis: usize,
        n: usize,
        threshold: usize,
        offset_states: f64,
    ) -> Option<bool> {
        if !self.cam.is_single_normal() {
            return None;
        }
        let boundary = self.policy.boundary_states(threshold);
        let mean = self.cam.mean_states(n_mis, n);
        let spread = self.cam.sigma_states(n_mis, n) * noise::STANDARD_NORMAL_BOUND;
        if (mean + spread) + offset_states <= boundary {
            Some(true)
        } else if (mean - spread) + offset_states > boundary {
            Some(false)
        } else {
            None
        }
    }

    /// Analytic probability that a row with `n_mis` mismatches is declared
    /// a match at `threshold`, assuming Gaussian sensing noise (and
    /// accounting for any systematic gain error of the model).
    #[must_use]
    pub fn match_probability(&self, n_mis: usize, n: usize, threshold: usize) -> f64 {
        let boundary = self.policy.boundary_states(threshold);
        let mean = self.cam.mean_states(n_mis, n);
        let sigma = self.cam.sigma_states(n_mis, n);
        if sigma == 0.0 {
            return if mean <= boundary { 1.0 } else { 0.0 };
        }
        normal_cdf((boundary - mean) / sigma)
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (|error| < 1.5e-7, plenty for misjudgment-probability analysis).
#[must_use]
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::ChargeDomainCam;
    use crate::current::CurrentDomainCam;
    use crate::rng;

    #[test]
    fn vref_matches_paper_formula() {
        // Paper: V_ref = T/N * V_DD (Exact policy).
        let v = VrefPolicy::Exact.vref(8, 256, 1.2);
        assert!((v - 8.0 / 256.0 * 1.2).abs() < 1e-15);
        let centered = VrefPolicy::Centered.vref(8, 256, 1.2);
        assert!(centered > v);
    }

    #[test]
    fn noiseless_decision_is_exact_threshold_comparison() {
        let mut cam = ChargeDomainCam::paper();
        // Remove the SA offset to make the model fully deterministic at the
        // extremes.
        let mut params = cam.params().clone();
        params.sa_offset_states = 0.0;
        params.cap_sigma_rel = 0.0;
        cam = ChargeDomainCam::new(params);
        let sa = SenseAmp::new(cam, VrefPolicy::Centered);
        let mut rng = rng(1);
        for t in 0..10 {
            for n_mis in 0..20 {
                assert_eq!(sa.decide(n_mis, 256, t, &mut rng), n_mis <= t);
            }
        }
    }

    #[test]
    fn match_probability_is_monotone_in_threshold() {
        let sa = SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered);
        let probs: Vec<f64> = (0..20).map(|t| sa.match_probability(10, 256, t)).collect();
        for pair in probs.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-12);
        }
    }

    #[test]
    fn match_probability_agrees_with_monte_carlo() {
        let sa = SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered);
        let mut rng = rng(31);
        let trials = 20_000usize;
        for (n_mis, t) in [(6usize, 8usize), (10, 8), (9, 8)] {
            let hits = (0..trials)
                .filter(|_| sa.decide(n_mis, 256, t, &mut rng))
                .count();
            let empirical = hits as f64 / trials as f64;
            let analytic = sa.match_probability(n_mis, 256, t);
            assert!(
                (empirical - analytic).abs() < 0.015,
                "n_mis={n_mis} T={t}: mc={empirical} analytic={analytic}"
            );
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.959_964) - 0.025).abs() < 1e-4);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn charge_domain_is_sharper_than_current_domain() {
        let asmcap = SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Centered);
        let edam = SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered);
        // A row 3 states above threshold: ASMCap rejects it almost surely,
        // EDAM has a visible false-positive probability.
        let t = 8usize;
        let n_mis = 11usize;
        assert!(asmcap.match_probability(n_mis, 256, t) < 1e-6);
        assert!(edam.match_probability(n_mis, 256, t) > 0.01);
    }
}
