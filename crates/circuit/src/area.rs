//! Area model: transistor counts divided by the paper's published
//! transistor densities (Table 5), with an absolute scale calibrated to
//! Table 6's 0.0029 mm² additional-select-logic area at 14 nm.

use crate::geometry::IqGeometry;
use crate::transistors::{counts, TransistorCounts};

/// Transistor densities in the paper's Table 5, in units of
/// 10⁻³ transistors per λ².
pub mod density {
    /// Tag RAM (author's layout).
    pub const TAG_RAM: f64 = 1.399;
    /// Wakeup logic (author's layout).
    pub const WAKEUP: f64 = 1.586;
    /// Select logic (author's layout).
    pub const SELECT: f64 = 0.740;
    /// Age matrix (author's layout).
    pub const AGE_MATRIX: f64 = 1.708;
    /// Payload RAM is not listed in Table 5; SRAM-like density is assumed.
    pub const PAYLOAD: f64 = 1.399;
    /// DTM (mux + latches): select-logic-like random logic.
    pub const DTM: f64 = 0.740;
    /// Reference: Sun 512 KB L2 cache (one of the densest structures).
    pub const REF_L2_CACHE: f64 = 3.957;
    /// Reference: Fujitsu 54-bit FP multiplier (dense logic array).
    pub const REF_MULTIPLIER: f64 = 0.726;
    /// Reference: the entire Intel Skylake processor chip.
    pub const REF_SKYLAKE: f64 = 0.701;
}

/// λ² in µm² at the paper's 14 nm comparison node. Calibrated so that one
/// additional select logic (plus the DTM) occupies Table 6's 0.0029 mm².
const LAMBDA2_UM2_14NM: f64 = 1.41e-4;

/// Intel Skylake core area implied by Table 6 (0.0029 mm² = 0.034%).
pub const SKYLAKE_CORE_MM2: f64 = 0.0029 / 0.000_34;
/// Intel Skylake chip-compute area implied by Table 6 (0.0029 mm² = 0.010%).
pub const SKYLAKE_CHIP_MM2: f64 = 0.0029 / 0.000_10;

/// Per-structure areas in λ².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IqAreas {
    /// Wakeup CAM.
    pub wakeup: f64,
    /// One select logic.
    pub select: f64,
    /// Tag RAM.
    pub tag_ram: f64,
    /// Payload RAM.
    pub payload: f64,
    /// One age matrix.
    pub age_matrix: f64,
    /// DTM.
    pub dtm: f64,
}

impl IqAreas {
    /// Baseline IQ area (single select logic, one age matrix).
    pub fn baseline_total(&self) -> f64 {
        self.wakeup + self.select + self.tag_ram + self.payload + self.age_matrix
    }

    /// Area added by SWQUE (second select logic + DTM).
    pub fn swque_addition(&self) -> f64 {
        self.select + self.dtm
    }

    /// SWQUE area overhead relative to the baseline IQ — the paper's 17%.
    pub fn overhead_fraction(&self) -> f64 {
        self.swque_addition() / self.baseline_total()
    }

    /// `(label, area)` pairs for Figure 13's relative-size chart, largest
    /// first.
    pub fn figure13_rows(&self) -> Vec<(&'static str, f64)> {
        let mut rows = vec![
            ("age matrix", self.age_matrix),
            ("payload RAM", self.payload),
            ("select logic (S_NR)", self.select),
            ("select logic (S_RV)", self.select),
            ("wakeup logic", self.wakeup),
            ("tag RAM", self.tag_ram),
            ("DTM", self.dtm),
        ];
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

fn area_of(count: u64, density_e3: f64) -> f64 {
    count as f64 / (density_e3 * 1e-3)
}

/// Computes per-structure areas (λ²) for `g`.
///
/// # Example
///
/// ```
/// use swque_circuit::{area::areas, IqGeometry};
///
/// let a = areas(&IqGeometry::medium());
/// assert!((a.overhead_fraction() - 0.17).abs() < 0.02, "paper: 17% overhead");
/// ```
pub fn areas(g: &IqGeometry) -> IqAreas {
    let c: TransistorCounts = counts(g);
    IqAreas {
        wakeup: area_of(c.wakeup, density::WAKEUP),
        select: area_of(c.select, density::SELECT),
        tag_ram: area_of(c.tag_ram, density::TAG_RAM),
        payload: area_of(c.payload, density::PAYLOAD),
        age_matrix: area_of(c.age_matrix, density::AGE_MATRIX),
        dtm: area_of(c.dtm, density::DTM),
    }
}

/// Converts a λ² area to mm² at the 14 nm comparison node.
pub fn lambda2_to_mm2(area_lambda2: f64) -> f64 {
    area_lambda2 * LAMBDA2_UM2_14NM / 1e6
}

/// Table 6's cost rows: the SWQUE addition in mm² and relative to the
/// Skylake core and chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Additional area in mm² (14 nm).
    pub additional_mm2: f64,
    /// Ratio to the Skylake core area.
    pub vs_core: f64,
    /// Ratio to the Skylake chip area.
    pub vs_chip: f64,
}

/// Computes Table 6's first three rows for `g`.
pub fn cost_summary(g: &IqGeometry) -> CostSummary {
    let add = lambda2_to_mm2(areas(g).swque_addition());
    CostSummary { additional_mm2: add, vs_core: add / SKYLAKE_CORE_MM2, vs_chip: add / SKYLAKE_CHIP_MM2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_about_17_percent() {
        let f = areas(&IqGeometry::medium()).overhead_fraction();
        assert!((0.155..=0.185).contains(&f), "paper: 17% IQ area overhead, got {f:.3}");
    }

    #[test]
    fn additional_area_matches_table6() {
        let c = cost_summary(&IqGeometry::medium());
        assert!((c.additional_mm2 - 0.0029).abs() < 0.0003, "got {} mm2", c.additional_mm2);
        assert!((c.vs_core - 0.000_34).abs() < 0.000_05, "0.034% of a Skylake core");
        assert!((c.vs_chip - 0.000_10).abs() < 0.000_02, "0.010% of the Skylake chip");
    }

    #[test]
    fn age_matrix_largest_of_the_table5_structures() {
        let a = areas(&IqGeometry::medium());
        assert!(a.age_matrix > a.wakeup);
        assert!(a.age_matrix > a.select);
        assert!(a.age_matrix > a.tag_ram);
    }

    #[test]
    fn densities_sit_between_cache_and_logic() {
        // Table 5's sanity argument: every IQ circuit is sparser than the
        // L2 cache but the storage arrays are denser than the multiplier.
        for d in [density::TAG_RAM, density::WAKEUP, density::AGE_MATRIX] {
            assert!(d < density::REF_L2_CACHE);
            assert!(d > density::REF_MULTIPLIER);
            assert!(d > density::REF_SKYLAKE);
        }
        const { assert!(density::SELECT < density::REF_L2_CACHE) };
    }

    #[test]
    fn figure13_rows_are_sorted_and_complete() {
        let rows = areas(&IqGeometry::medium()).figure13_rows();
        assert_eq!(rows.len(), 7);
        assert!(rows.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(rows[0].0, "age matrix");
        assert_eq!(rows.last().unwrap().0, "DTM");
    }

    #[test]
    fn larger_queue_costs_more() {
        let m = cost_summary(&IqGeometry::medium());
        let l = cost_summary(&IqGeometry::large());
        assert!(l.additional_mm2 > m.additional_mm2);
    }
}
