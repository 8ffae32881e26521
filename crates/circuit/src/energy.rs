//! Energy models (paper Eq. 1, Table I, and the §V-B power breakdown).
//!
//! The charge-domain search energy follows the paper's Eq. 1,
//!
//! ```text
//! E_S ≈ M · n_mis (N − n_mis) / N · µ_C · V_DD²
//! ```
//!
//! which is the charge-sharing upper bound. Table I's Virtuoso-measured
//! average of 0.12 µW/cell corresponds to a fraction of that bound; the two
//! are reconciled by the single calibration factor
//! [`crate::params::AsmcapParams::energy_eta`] (see `DESIGN.md` §2). Both
//! the raw Eq. 1 value and the calibrated value are exposed so experiments
//! can report either.

use crate::params::{AsmcapParams, EdamParams};

/// §V-B power breakdown of an ASMCap array: cells 75 %, shift registers
/// 19 %, sense amplifiers 6 %.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Power drawn by the ASMCap cells, in watts.
    pub cells_w: f64,
    /// Power drawn by the TASR shift registers, in watts.
    pub shift_registers_w: f64,
    /// Power drawn by the sense amplifiers, in watts.
    pub sense_amps_w: f64,
}

impl PowerBreakdown {
    /// Fractions from §V-B: cells / shift registers / SAs.
    pub const FRACTIONS: (f64, f64, f64) = (0.75, 0.19, 0.06);

    /// Splits a total array power according to the paper's fractions.
    #[must_use]
    pub fn from_total(total_w: f64) -> Self {
        let (c, s, a) = Self::FRACTIONS;
        Self {
            cells_w: total_w * c,
            shift_registers_w: total_w * s,
            sense_amps_w: total_w * a,
        }
    }

    /// Total power in watts.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.cells_w + self.shift_registers_w + self.sense_amps_w
    }
}

/// Eq. 1 verbatim: charge-domain search energy in joules for an `M×N` array
/// with `n_mis` mismatched cells per row (upper bound, uncalibrated).
///
/// # Examples
///
/// ```
/// use asmcap_circuit::params::AsmcapParams;
/// let p = AsmcapParams::paper();
/// let n = 256;
/// // Symmetric in n_mis and zero at the extremes.
/// let e = |k| asmcap_circuit::energy::eq1_search_energy(&p, 256, n, k);
/// assert_eq!(e(0), 0.0);
/// assert_eq!(e(n), 0.0);
/// assert!((e(100) - e(n - 100)).abs() < 1e-18);
/// assert!(e(n / 2) >= e(10));
/// ```
#[must_use]
pub fn eq1_search_energy(params: &AsmcapParams, rows: usize, n: usize, n_mis: usize) -> f64 {
    let m = n_mis as f64;
    let n_f = n as f64;
    rows as f64 * m * (n_f - m) / n_f * params.cap_mean_f() * params.vdd * params.vdd
}

/// Calibrated per-search energy of one ASMCap array (joules): Eq. 1 scaled
/// by `energy_eta` for the cells, then inflated to the full array using the
/// §V-B breakdown (cells are 75 % of power).
#[must_use]
pub fn asmcap_array_search_energy(
    params: &AsmcapParams,
    rows: usize,
    n: usize,
    mean_n_mis: f64,
) -> f64 {
    let n_f = n as f64;
    let eq1 = rows as f64 * mean_n_mis * (n_f - mean_n_mis) / n_f
        * params.cap_mean_f()
        * params.vdd
        * params.vdd;
    let cells = eq1 * params.energy_eta;
    cells / PowerBreakdown::FRACTIONS.0
}

/// Per-search energy of one EDAM array (joules): discharge power (Table I's
/// 1.0 µW/cell over the evaluate window) plus matchline pre-charge
/// `M · C_ML · V_DD²`.
#[must_use]
pub fn edam_array_search_energy(params: &EdamParams, rows: usize, n: usize) -> f64 {
    let discharge =
        params.avg_power_per_cell_uw * 1e-6 * (rows * n) as f64 * params.search_time_ns * 1e-9;
    let ml_cap = params.ml_cap_per_cell_ff * 1e-15 * n as f64;
    let precharge = rows as f64 * ml_cap * params.vdd * params.vdd;
    discharge + precharge
}

/// Average ASMCap array power in watts implied by Table I's per-cell figure,
/// for a continuously searching `rows × n` array.
#[must_use]
pub fn asmcap_array_power_w(params: &AsmcapParams, rows: usize, n: usize) -> f64 {
    params.avg_power_per_cell_uw * 1e-6 * (rows * n) as f64 / PowerBreakdown::FRACTIONS.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_maximum_at_half_occupancy() {
        let p = AsmcapParams::paper();
        let at = |k: usize| eq1_search_energy(&p, 256, 256, k);
        let mid = at(128);
        for k in [0usize, 32, 64, 100, 200, 256] {
            assert!(at(k) <= mid + 1e-18);
        }
    }

    #[test]
    fn eq1_magnitude_sanity() {
        // 256 rows, n_mis = 128: E = 256 * 64 * 2fF * 1.44V^2 ≈ 47 pJ.
        let p = AsmcapParams::paper();
        let e = eq1_search_energy(&p, 256, 256, 128);
        assert!((e - 47.2e-12).abs() < 1e-12, "got {e}");
    }

    #[test]
    fn calibrated_energy_matches_table1_power() {
        // At the genome-typical mean mismatch rate (~42 % of cells), the
        // calibrated per-search energy divided by the 0.9 ns search time
        // should land near the Table-I-implied array power.
        let p = AsmcapParams::paper();
        let mean_n_mis = 0.42 * 256.0;
        let e = asmcap_array_search_energy(&p, 256, 256, mean_n_mis);
        let implied_power = e / p.search_time_s();
        let table1_power = asmcap_array_power_w(&p, 256, 256);
        let ratio = implied_power / table1_power;
        assert!(
            (0.8..1.25).contains(&ratio),
            "calibration off: implied {implied_power} W vs Table I {table1_power} W"
        );
    }

    #[test]
    fn edam_energy_exceeds_asmcap_by_published_factor() {
        let asmcap = asmcap_array_search_energy(&AsmcapParams::paper(), 256, 256, 0.42 * 256.0);
        let edam = edam_array_search_energy(&EdamParams::paper(), 256, 256);
        let ratio = edam / asmcap;
        // Fig. 8 reports ASMCap w/o strategies at 28x EDAM's energy
        // efficiency per search... the per-search energy ratio should land
        // in that neighbourhood (20-35x).
        assert!((20.0..35.0).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let (c, s, a) = PowerBreakdown::FRACTIONS;
        assert!((c + s + a - 1.0).abs() < 1e-12);
        let split = PowerBreakdown::from_total(7.67e-3);
        assert!((split.total_w() - 7.67e-3).abs() < 1e-12);
        assert!((split.cells_w / split.total_w() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn array_power_near_paper_value() {
        // §V-B: a 256x256 array draws 7.67 mW. Table I's 0.12 µW/cell gives
        // 65536 * 0.12 µW / 0.75 ≈ 10.5 mW — same order; the paper's own
        // numbers differ by ~25 % because 0.12 µW is a two-condition
        // average. Accept the band between them.
        let p = asmcap_array_power_w(&AsmcapParams::paper(), 256, 256);
        assert!(p > 5e-3 && p < 12e-3, "array power {p} W");
    }
}
