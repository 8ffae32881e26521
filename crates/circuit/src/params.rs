//! Technology constants for ASMCap and EDAM.
//!
//! Everything published in the paper (Table I, §V-A, §V-D) is reproduced
//! verbatim; quantities the paper leaves implicit are marked `ASSUMPTION`
//! with the reasoning recorded in `DESIGN.md` §2. All parameters live here
//! so that every downstream number is traceable to one file.

/// Parameters of the ASMCap charge-domain design (65 nm, Table I column 2).
#[derive(Debug, Clone, PartialEq)]
pub struct AsmcapParams {
    /// Supply voltage in volts (Table I: 1.2 V).
    pub vdd: f64,
    /// Cell area in µm² (Table I: 24.0 µm²).
    pub cell_area_um2: f64,
    /// Search time in nanoseconds (Table I: 0.9 ns).
    pub search_time_ns: f64,
    /// Average power per cell in µW (Table I: 0.12 µW, Virtuoso-measured
    /// average under the paper's two workload conditions).
    pub avg_power_per_cell_uw: f64,
    /// MIM capacitor mean value in femtofarads (§V-A: 2 fF).
    pub cap_mean_ff: f64,
    /// Relative capacitor variation `σ_C/µ_C` (§V-D: 1.4 %).
    pub cap_sigma_rel: f64,
    /// Sense-amplifier input-referred offset in state units.
    /// ASSUMPTION: the paper gives no SA offset; 0.15 states keeps ASMCap's
    /// total sensing noise dominated by Eq. 2 as the paper implies.
    pub sa_offset_states: f64,
    /// Calibration factor reconciling the paper's Eq. 1 upper-bound energy
    /// with Table I's measured 0.12 µW/cell (see [`crate::energy`]).
    /// ASSUMPTION: a single activity/swing factor.
    pub energy_eta: f64,
    /// MIM capacitor area in µm² (§V-C: ~1.4 µm², placed *above* the cell so
    /// it costs no array area).
    pub cap_area_um2: f64,
}

impl AsmcapParams {
    /// The paper's published configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            vdd: 1.2,
            cell_area_um2: 24.0,
            search_time_ns: 0.9,
            avg_power_per_cell_uw: 0.12,
            cap_mean_ff: 2.0,
            cap_sigma_rel: 0.014,
            sa_offset_states: 0.15,
            energy_eta: 0.154,
            cap_area_um2: 1.4,
        }
    }

    /// Search time in seconds.
    #[must_use]
    pub fn search_time_s(&self) -> f64 {
        self.search_time_ns * 1e-9
    }

    /// Mean capacitance in farads.
    #[must_use]
    pub fn cap_mean_f(&self) -> f64 {
        self.cap_mean_ff * 1e-15
    }
}

impl Default for AsmcapParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Parameters of the EDAM current-domain baseline (65 nm, Table I column 1).
#[derive(Debug, Clone, PartialEq)]
pub struct EdamParams {
    /// Supply voltage in volts (Table I: 1.2 V).
    pub vdd: f64,
    /// Cell area in µm² (Table I: 33.4 µm²).
    pub cell_area_um2: f64,
    /// Search time in nanoseconds (Table I: 2.4 ns).
    pub search_time_ns: f64,
    /// Matchline pre-charge time in nanoseconds.
    /// ASSUMPTION: not published; 0.12 ns makes the end-to-end search-time
    /// ratio match Fig. 8's 2.8× (2.4 + 0.12 ≈ 2.8 × 0.9).
    pub precharge_time_ns: f64,
    /// Average power per cell in µW (Table I: 1.0 µW).
    pub avg_power_per_cell_uw: f64,
    /// Relative per-cell discharge-current variation `σ_I/µ_I`
    /// (§V-D: 2.5 %).
    pub current_sigma_rel: f64,
    /// Relative timing-control jitter of the sampling instant `σ_t/t_s`.
    /// ASSUMPTION: the paper states current-domain sensing is "inherently
    /// vulnerable to … timing-control variations" without a number; 8 %
    /// (together with `sa_offset_states`) lands the EDAM-vs-ASMCap-w/o
    /// accuracy gap near the reported 1.12×.
    pub timing_sigma_rel: f64,
    /// Sample-and-hold plus SA input-referred offset in state units.
    /// ASSUMPTION: 2.2 states (kT/C droop of a 2.4 ns dynamic sample path
    /// plus SA offset), same calibration as `timing_sigma_rel`.
    pub sa_offset_states: f64,
    /// Matchline capacitance per cell in fF, for pre-charge energy.
    /// ASSUMPTION: 0.5 fF/cell of wire+junction load.
    pub ml_cap_per_cell_ff: f64,
    /// Systematic discharge gain error: the measured drop is
    /// `gain_error · n_mis` states. 1.0 at the nominal corner; supply
    /// droop moves it quadratically with the transistor overdrive (see
    /// [`crate::corners`]). The fixed sampling instant is what makes the
    /// current domain sensitive to this — the charge domain is ratiometric
    /// and has no such term.
    pub gain_error: f64,
}

impl EdamParams {
    /// The paper's published configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            vdd: 1.2,
            cell_area_um2: 33.4,
            search_time_ns: 2.4,
            precharge_time_ns: 0.12,
            avg_power_per_cell_uw: 1.0,
            current_sigma_rel: 0.025,
            timing_sigma_rel: 0.08,
            sa_offset_states: 2.2,
            ml_cap_per_cell_ff: 0.5,
            gain_error: 1.0,
        }
    }

    /// Total search latency (pre-charge + evaluate + sample) in seconds.
    #[must_use]
    pub fn search_time_s(&self) -> f64 {
        (self.search_time_ns + self.precharge_time_ns) * 1e-9
    }
}

impl Default for EdamParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Paper-standard array geometry: 256 × 256 cells per array (§V-A).
pub const ARRAY_ROWS: usize = 256;
/// Paper-standard row width in cells.
pub const ARRAY_COLS: usize = 256;
/// Paper-standard array count: 512 arrays = 64 Mb of reference (§V-E).
pub const ARRAY_COUNT: usize = 512;

/// HDAC hardware overhead: two extra NMOS MUXes per cell ≈ 0.1 % cell area
/// (§IV-A overhead analysis).
pub const HDAC_AREA_OVERHEAD: f64 = 0.001;
/// TASR hardware overhead: shift registers with enable ≈ 0.2 % average area
/// per cell (§IV-B overhead analysis).
pub const TASR_AREA_OVERHEAD: f64 = 0.002;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_published_values() {
        let asmcap = AsmcapParams::paper();
        assert_eq!(asmcap.vdd, 1.2);
        assert_eq!(asmcap.cell_area_um2, 24.0);
        assert_eq!(asmcap.search_time_ns, 0.9);
        assert_eq!(asmcap.avg_power_per_cell_uw, 0.12);

        let edam = EdamParams::paper();
        assert_eq!(edam.vdd, 1.2);
        assert_eq!(edam.cell_area_um2, 33.4);
        assert_eq!(edam.search_time_ns, 2.4);
        assert_eq!(edam.avg_power_per_cell_uw, 1.0);
    }

    #[test]
    fn table1_ratios() {
        let asmcap = AsmcapParams::paper();
        let edam = EdamParams::paper();
        // Cell area: 1.4x; search time: 2.6x; power: 8.5x (paper Table I).
        assert!((edam.cell_area_um2 / asmcap.cell_area_um2 - 1.4).abs() < 0.01);
        assert!((edam.search_time_ns / asmcap.search_time_ns - 2.67).abs() < 0.1);
        assert!((edam.avg_power_per_cell_uw / asmcap.avg_power_per_cell_uw - 8.33).abs() < 0.2);
    }

    #[test]
    fn variation_constants_match_section_v_d() {
        assert_eq!(AsmcapParams::paper().cap_sigma_rel, 0.014);
        assert_eq!(EdamParams::paper().current_sigma_rel, 0.025);
    }

    #[test]
    fn unit_conversions() {
        let p = AsmcapParams::paper();
        assert!((p.search_time_s() - 0.9e-9).abs() < 1e-15);
        assert!((p.cap_mean_f() - 2e-15).abs() < 1e-20);
        let e = EdamParams::paper();
        assert!((e.search_time_s() - 2.52e-9).abs() < 1e-12);
    }
}
