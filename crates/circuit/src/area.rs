//! Area models (Table I and the §V-B area breakdown).

use crate::params::{AsmcapParams, HDAC_AREA_OVERHEAD, TASR_AREA_OVERHEAD};

/// Area breakdown of one ASMCap array.
///
/// §V-B: for a 256×256 array "the area and power are 1.58 mm² and 7.67 mW
/// … more than 99 % of the area is occupied by the ASMCap cells".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// Cell matrix area in mm².
    pub cells_mm2: f64,
    /// Peripheral area (decoder, WL/SL drivers, SAs, shift registers) in mm².
    pub periphery_mm2: f64,
}

impl AreaBreakdown {
    /// Peripheral area fraction.
    /// ASSUMPTION: cells occupy >99 % (§V-B); we allocate 0.7 % to the
    /// periphery.
    pub const PERIPHERY_FRACTION: f64 = 0.007;

    /// Computes the breakdown for a `rows × cols` array of `cell_area_um2`
    /// cells.
    #[must_use]
    pub fn for_array(cell_area_um2: f64, rows: usize, cols: usize) -> Self {
        let cells_mm2 = cell_area_um2 * (rows * cols) as f64 * 1e-6;
        let periphery_mm2 = cells_mm2 * Self::PERIPHERY_FRACTION / (1.0 - Self::PERIPHERY_FRACTION);
        Self {
            cells_mm2,
            periphery_mm2,
        }
    }

    /// Total array area in mm².
    #[must_use]
    pub fn total_mm2(&self) -> f64 {
        self.cells_mm2 + self.periphery_mm2
    }

    /// Fraction of the array occupied by cells.
    #[must_use]
    pub fn cell_fraction(&self) -> f64 {
        self.cells_mm2 / self.total_mm2()
    }
}

/// ASMCap array area including the HDAC and TASR overheads (both fractions
/// of cell area, per the paper's §IV overhead analyses).
#[must_use]
pub fn asmcap_array_area_mm2(params: &AsmcapParams, rows: usize, cols: usize) -> f64 {
    let base = AreaBreakdown::for_array(params.cell_area_um2, rows, cols);
    base.total_mm2() * (1.0 + HDAC_AREA_OVERHEAD + TASR_AREA_OVERHEAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_array_area() {
        // 65536 cells x 24 µm² = 1.573 mm²; §V-B reports 1.58 mm² total.
        let area = asmcap_array_area_mm2(&AsmcapParams::paper(), 256, 256);
        assert!((area - 1.58).abs() < 0.02, "area {area} mm²");
    }

    #[test]
    fn cells_dominate_area() {
        let breakdown = AreaBreakdown::for_array(24.0, 256, 256);
        assert!(breakdown.cell_fraction() > 0.99);
    }

    #[test]
    fn edam_cells_are_bigger() {
        let asmcap = asmcap_array_area_mm2(&AsmcapParams::paper(), 256, 256);
        let edam_cell = crate::params::EdamParams::paper().cell_area_um2;
        let edam = AreaBreakdown::for_array(edam_cell, 256, 256).total_mm2();
        // Table I: 1.4x cell area ratio.
        assert!((edam / asmcap - 33.4 / 24.0).abs() < 0.02);
    }

    #[test]
    fn strategy_overheads_are_negligible() {
        let with = asmcap_array_area_mm2(&AsmcapParams::paper(), 256, 256);
        let without = AreaBreakdown::for_array(24.0, 256, 256).total_mm2();
        let overhead = with / without - 1.0;
        assert!((overhead - 0.003).abs() < 1e-9, "overhead {overhead}");
    }
}
