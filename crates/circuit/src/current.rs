//! EDAM's current-domain ML-CAM (paper §II-C, Fig. 3a).
//!
//! The matchline is pre-charged to `V_DD`; every mismatched cell turns on a
//! discharge transistor, so the line falls with slope proportional to the
//! mismatch count. A sample-and-hold captures `V_ML` at time `t_s`, chosen
//! so the full range `0..N` maps onto the voltage swing.
//!
//! Three noise mechanisms make this sensing scheme fragile (the paper calls
//! it "inherently vulnerable to device and timing-control variations"):
//!
//! 1. **Device variation** — each cell current is `I_i ~ N(µ_I, σ_I²)` with
//!    `σ_I/µ_I = 2.5 %`, so the summed current of `n_mis` cells has relative
//!    sigma `σ_I,rel/√n_mis` and the sampled drop an absolute sigma of
//!    `√n_mis · σ_I,rel` states;
//! 2. **Timing jitter** — the sampled drop scales with the actual sampling
//!    instant: multiplicative noise `n_mis · σ_t,rel` states;
//! 3. **Sample-and-hold / SA offset** — additive, `σ_SA` states.
//!
//! The measured mismatch count is therefore
//! `n_mis·(1 + ε_I)·(1 + ε_t) + ε_SA`.

use crate::noise;
use crate::params::EdamParams;
use crate::{MlCam, Rng};

/// The current-domain (EDAM) sensing model.
///
/// Measurements are expressed in state units, like
/// [`crate::ChargeDomainCam`].
///
/// # Examples
///
/// ```
/// use asmcap_circuit::{CurrentDomainCam, MlCam};
/// let cam = CurrentDomainCam::paper();
/// // Noise grows with the mismatch count (unlike the charge domain).
/// assert!(cam.sigma_states(200, 256) > cam.sigma_states(10, 256));
/// // 2.5 % current variation supports only 44 distinguishable states (§V-D).
/// assert_eq!(cam.distinguishable_states(), 44);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CurrentDomainCam {
    params: EdamParams,
}

impl CurrentDomainCam {
    /// Model with the paper's published parameters.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            params: EdamParams::paper(),
        }
    }

    /// Model with custom parameters.
    #[must_use]
    pub fn new(params: EdamParams) -> Self {
        Self { params }
    }

    /// The underlying parameters.
    #[must_use]
    pub fn params(&self) -> &EdamParams {
        &self.params
    }

    /// Matchline discharge trace `V_ML(t)` for Fig. 3a: voltage at uniform
    /// time points in `[0, t_s]`, clamped at ground.
    ///
    /// # Panics
    ///
    /// Panics if `points` is zero.
    #[must_use]
    pub fn discharge_trace(&self, n_mis: usize, n: usize, points: usize) -> Vec<(f64, f64)> {
        assert!(points > 0, "a trace needs at least one point");
        let ts = self.params.search_time_ns * 1e-9;
        (0..points)
            .map(|k| {
                let t = ts * k as f64 / (points - 1).max(1) as f64;
                let v = self.params.vdd * (1.0 - (n_mis as f64 / n as f64) * (t / ts));
                (t, v.max(0.0))
            })
            .collect()
    }

    /// Maximum number of distinguishable states under the 3σ constraint
    /// (adjacent levels separated by ≥ 6σ): device noise at level `k` is
    /// `√k·σ_I,rel` states, so `k_max = (1/(6·σ_I,rel))²`.
    ///
    /// With the published 2.5 % variation this is 44 (paper §V-D) — far
    /// below the 256 states a full-width row needs, which is what limits
    /// EDAM's read length.
    #[must_use]
    pub fn distinguishable_states(&self) -> usize {
        (1.0 / (6.0 * self.params.current_sigma_rel))
            .powi(2)
            .floor() as usize
    }
}

impl MlCam for CurrentDomainCam {
    fn measure(&self, n_mis: usize, n: usize, rng: &mut Rng) -> f64 {
        let _ = n; // full-swing mapping is independent of N in state units
        let m = n_mis as f64 * self.params.gain_error;
        let device = if n_mis > 0 {
            noise::normal(
                0.0,
                self.params.current_sigma_rel / (n_mis as f64).sqrt(),
                rng,
            )
        } else {
            0.0
        };
        let timing = noise::normal(0.0, self.params.timing_sigma_rel, rng);
        let offset = noise::normal(0.0, self.params.sa_offset_states, rng);
        m * (1.0 + device) * (1.0 + timing) + offset
    }

    fn mean_states(&self, n_mis: usize, n: usize) -> f64 {
        let _ = n;
        n_mis as f64 * self.params.gain_error
    }

    fn sigma_states(&self, n_mis: usize, n: usize) -> f64 {
        let _ = n;
        let m = n_mis as f64 * self.params.gain_error;
        let device = m * self.params.current_sigma_rel.powi(2); // (√m·σ_I)²
        let timing = (m * self.params.timing_sigma_rel).powi(2);
        (device + timing + self.params.sa_offset_states.powi(2)).sqrt()
    }

    fn search_time_s(&self) -> f64 {
        self.params.search_time_s()
    }

    fn name(&self) -> &'static str {
        "EDAM (current-domain)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn paper_reports_44_states() {
        assert_eq!(CurrentDomainCam::paper().distinguishable_states(), 44);
    }

    #[test]
    fn noise_grows_with_mismatch_count() {
        let cam = CurrentDomainCam::paper();
        let sigmas: Vec<f64> = [0usize, 4, 16, 64, 256]
            .iter()
            .map(|&k| cam.sigma_states(k, 256))
            .collect();
        for pair in sigmas.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    fn charge_domain_beats_current_domain_at_scale() {
        use crate::charge::ChargeDomainCam;
        let edam = CurrentDomainCam::paper();
        let asmcap = ChargeDomainCam::paper();
        // At every occupancy of a 256-wide row, ASMCap senses with less
        // noise than EDAM — the core claim of Fig. 3.
        for n_mis in 0..=256usize {
            assert!(
                asmcap.sigma_states(n_mis, 256) <= edam.sigma_states(n_mis, 256) + 1e-12,
                "charge sigma exceeds current sigma at n_mis={n_mis}"
            );
        }
        assert!(asmcap.distinguishable_states() > 2 * 256);
        assert!(edam.distinguishable_states() < 256);
    }

    #[test]
    fn measurement_mean_and_sigma_match_analytic() {
        let cam = CurrentDomainCam::paper();
        let mut rng = rng(23);
        let n_mis = 108usize;
        let n = 10_000usize;
        let samples: Vec<f64> = (0..n).map(|_| cam.measure(n_mis, 256, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let sd = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt();
        assert!((mean - n_mis as f64).abs() < 0.2, "mean {mean}");
        let predicted = cam.sigma_states(n_mis, 256);
        assert!((sd / predicted - 1.0).abs() < 0.1, "sd {sd} vs {predicted}");
    }

    #[test]
    fn discharge_trace_is_monotone_and_bounded() {
        let cam = CurrentDomainCam::paper();
        let trace = cam.discharge_trace(128, 256, 32);
        assert_eq!(trace.len(), 32);
        assert!((trace[0].1 - 1.2).abs() < 1e-12);
        for pair in trace.windows(2) {
            assert!(pair[1].1 <= pair[0].1);
            assert!(pair[1].0 > pair[0].0);
        }
        // Half the cells mismatched -> half the swing at t_s.
        assert!((trace.last().unwrap().1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn zero_mismatch_measurement_is_offset_only() {
        let cam = CurrentDomainCam::paper();
        let mut rng = rng(29);
        for _ in 0..100 {
            let m = cam.measure(0, 256, &mut rng);
            assert!(m.abs() < 6.0 * cam.params().sa_offset_states);
        }
    }
}
