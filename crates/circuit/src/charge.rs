//! ASMCap's charge-domain capacitive ML-CAM (paper §II-C, §III-C).
//!
//! Every cell output drives the bottom plate of a capacitor (`V_DD` for a
//! mismatched cell, GND for a matched one — the polarity that makes
//! `V_ML` *rise* with the mismatch count); the top plates share the
//! matchline. By charge sharing,
//!
//! ```text
//! V_ML = Σ_{i ∈ mismatched} C_i / Σ_j C_j · V_DD
//! ```
//!
//! which is time-independent and, with i.i.d. capacitors
//! `C_i ~ N(µ_C, σ_C²)`, has the variance of the paper's Eq. 2:
//!
//! ```text
//! Var(V_ML) ≈ n_mis (N − n_mis) / N³ · (σ_C/µ_C)² · V_DD²
//! ```
//!
//! Two model levels are provided: [`CapacitorBank`] samples actual device
//! values and computes the exact charge-sharing ratio (used to validate
//! Eq. 2 empirically), while [`ChargeDomainCam`] is the fast analytic model
//! used by the engines.

use crate::noise;
use crate::params::AsmcapParams;
use crate::{MlCam, Rng};

/// A sampled bank of `N` capacitors for one matchline — the device-accurate
/// model of one array row.
#[derive(Debug, Clone)]
pub struct CapacitorBank {
    values_f: Vec<f64>,
    total_f: f64,
}

impl CapacitorBank {
    /// Samples `n` capacitor values from `N(µ_C, (µ_C·σ_rel)²)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the parameters are non-finite/negative.
    #[must_use]
    pub fn sample(n: usize, mean_f: f64, sigma_rel: f64, rng: &mut Rng) -> Self {
        assert!(n > 0, "a capacitor bank needs at least one device");
        assert!(
            mean_f > 0.0 && sigma_rel >= 0.0,
            "invalid capacitor parameters"
        );
        let values_f: Vec<f64> = (0..n)
            .map(|_| {
                // Physical capacitance cannot be negative; at 1.4 % relative
                // sigma a negative draw is a >70σ event, but clamp anyway.
                noise::normal(mean_f, mean_f * sigma_rel, rng).max(mean_f * 0.01)
            })
            .collect();
        let total_f = values_f.iter().sum();
        Self { values_f, total_f }
    }

    /// Number of capacitors on the matchline.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values_f.len()
    }

    /// Whether the bank is empty (never true for a constructed bank).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values_f.is_empty()
    }

    /// Exact matchline voltage for a given per-cell mismatch pattern:
    /// `V_ML = Σ_{mismatched} C_i / Σ C_j · V_DD`.
    ///
    /// # Panics
    ///
    /// Panics if `mismatched.len() != self.len()`.
    #[must_use]
    pub fn matchline_voltage(&self, mismatched: &[bool], vdd: f64) -> f64 {
        assert_eq!(
            mismatched.len(),
            self.values_f.len(),
            "one mismatch flag per capacitor"
        );
        let charged: f64 = self
            .values_f
            .iter()
            .zip(mismatched)
            .filter(|(_, &m)| m)
            .map(|(c, _)| c)
            .sum();
        charged / self.total_f * vdd
    }
}

/// The fast analytic charge-domain sensing model (Eq. 2).
///
/// Measurements are expressed in *state units* (multiples of `V_DD/N`): a
/// noiseless row with `n_mis` mismatches measures exactly `n_mis`.
///
/// # Examples
///
/// ```
/// use asmcap_circuit::{ChargeDomainCam, MlCam};
/// let cam = ChargeDomainCam::paper();
/// // Worst-case sigma is at n_mis = N/2 and stays well below one state.
/// assert!(cam.sigma_states(128, 256) < 0.5);
/// assert_eq!(cam.sigma_states(0, 256), cam.params().sa_offset_states);
/// // 1.4 % capacitor variation supports 566 distinguishable states (§V-D).
/// assert_eq!(cam.distinguishable_states(), 566);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChargeDomainCam {
    params: AsmcapParams,
}

impl ChargeDomainCam {
    /// Model with the paper's published parameters.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            params: AsmcapParams::paper(),
        }
    }

    /// Model with custom parameters.
    #[must_use]
    pub fn new(params: AsmcapParams) -> Self {
        Self { params }
    }

    /// The underlying parameters.
    #[must_use]
    pub fn params(&self) -> &AsmcapParams {
        &self.params
    }

    /// Mean matchline voltage in volts for `n_mis` of `n` cells mismatched.
    #[must_use]
    pub fn vml_mean(&self, n_mis: usize, n: usize) -> f64 {
        n_mis as f64 / n as f64 * self.params.vdd
    }

    /// Eq. 2: standard deviation of `V_ML` in volts.
    #[must_use]
    pub fn vml_sigma(&self, n_mis: usize, n: usize) -> f64 {
        let n_f = n as f64;
        let m = n_mis as f64;
        (m * (n_f - m) / n_f.powi(3)).sqrt() * self.params.cap_sigma_rel * self.params.vdd
    }

    /// Maximum number of distinguishable `V_ML` states under the paper's 3σ
    /// constraint (adjacent levels separated by ≥ 6σ at the worst-case
    /// level `n_mis = N/2`): `N_max = (1/(3·σ_C/µ_C))²`.
    ///
    /// With the published 1.4 % variation this is 566 (paper §V-D).
    #[must_use]
    pub fn distinguishable_states(&self) -> usize {
        (1.0 / (3.0 * self.params.cap_sigma_rel)).powi(2).floor() as usize
    }
}

impl MlCam for ChargeDomainCam {
    fn measure(&self, n_mis: usize, n: usize, rng: &mut Rng) -> f64 {
        noise::normal(self.mean_states(n_mis, n), self.sigma_states(n_mis, n), rng)
    }

    fn sigma_states(&self, n_mis: usize, n: usize) -> f64 {
        // Eq. 2 rescaled to state units (multiply by N/V_DD), plus the SA
        // offset in quadrature.
        let n_f = n as f64;
        let m = n_mis as f64;
        let eq2 = m * (n_f - m) / n_f * self.params.cap_sigma_rel.powi(2);
        (eq2 + self.params.sa_offset_states.powi(2)).sqrt()
    }

    fn is_single_normal(&self) -> bool {
        true
    }

    fn search_time_s(&self) -> f64 {
        self.params.search_time_s()
    }

    fn name(&self) -> &'static str {
        "ASMCap (charge-domain)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn vml_scales_linearly_with_mismatches() {
        let cam = ChargeDomainCam::paper();
        let v0 = cam.vml_mean(0, 256);
        let v128 = cam.vml_mean(128, 256);
        let v256 = cam.vml_mean(256, 256);
        assert_eq!(v0, 0.0);
        assert!((v128 - 0.6).abs() < 1e-12);
        assert!((v256 - 1.2).abs() < 1e-12);
    }

    #[test]
    fn eq2_vanishes_at_extremes() {
        let cam = ChargeDomainCam::paper();
        assert_eq!(cam.vml_sigma(0, 256), 0.0);
        assert_eq!(cam.vml_sigma(256, 256), 0.0);
        // And is maximal at N/2.
        let mid = cam.vml_sigma(128, 256);
        assert!(mid > cam.vml_sigma(64, 256));
        assert!(mid > cam.vml_sigma(192, 256));
    }

    #[test]
    fn eq2_is_symmetric_in_nmis() {
        let cam = ChargeDomainCam::paper();
        for k in [1usize, 17, 100] {
            assert!((cam.vml_sigma(k, 256) - cam.vml_sigma(256 - k, 256)).abs() < 1e-15);
        }
    }

    #[test]
    fn paper_reports_566_states() {
        assert_eq!(ChargeDomainCam::paper().distinguishable_states(), 566);
    }

    #[test]
    fn capacitor_bank_matches_eq2_empirically() {
        let params = AsmcapParams::paper();
        let n = 256usize;
        let n_mis = 90usize;
        let mut rng = rng(42);
        let mut observed = Vec::with_capacity(3000);
        for _ in 0..3000 {
            let bank =
                CapacitorBank::sample(n, params.cap_mean_f(), params.cap_sigma_rel, &mut rng);
            let mut mismatched = vec![false; n];
            for flag in mismatched.iter_mut().take(n_mis) {
                *flag = true;
            }
            observed.push(bank.matchline_voltage(&mismatched, params.vdd));
        }
        let mean = observed.iter().sum::<f64>() / observed.len() as f64;
        let var =
            observed.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (observed.len() - 1) as f64;
        let cam = ChargeDomainCam::paper();
        let predicted_mean = cam.vml_mean(n_mis, n);
        let predicted_sigma = cam.vml_sigma(n_mis, n);
        assert!(
            (mean - predicted_mean).abs()
                < 3.0 * predicted_sigma / (observed.len() as f64).sqrt() + 1e-6,
            "empirical mean {mean} vs Eq. 2 mean {predicted_mean}"
        );
        let ratio = var.sqrt() / predicted_sigma;
        assert!(
            (0.9..1.1).contains(&ratio),
            "empirical sigma off Eq. 2 by factor {ratio}"
        );
    }

    #[test]
    fn measure_is_deterministic_per_seed() {
        let cam = ChargeDomainCam::paper();
        let a = cam.measure(40, 256, &mut rng(7));
        let b = cam.measure(40, 256, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn measure_stays_near_truth() {
        let cam = ChargeDomainCam::paper();
        let mut rng = rng(3);
        for n_mis in [0usize, 5, 108, 250] {
            for _ in 0..100 {
                let m = cam.measure(n_mis, 256, &mut rng);
                assert!((m - n_mis as f64).abs() < 6.0 * cam.sigma_states(n_mis, 256) + 1e-9);
            }
        }
    }

    #[test]
    fn bank_voltage_bounds() {
        let mut rng = rng(5);
        let bank = CapacitorBank::sample(64, 2e-15, 0.014, &mut rng);
        let all = vec![true; 64];
        let none = vec![false; 64];
        assert!((bank.matchline_voltage(&all, 1.2) - 1.2).abs() < 1e-12);
        assert_eq!(bank.matchline_voltage(&none, 1.2), 0.0);
    }
}
