//! Energy model of the IQ, fed by simulator event counts — the McPAT
//! substitute behind Figure 12.
//!
//! The paper compares SWQUE against an idealized shifting queue (I-SHIFT,
//! no compaction energy — which is exactly what this repository's SHIFT
//! model is) and finds SWQUE costs only ~0.5% more energy, because the
//! SWQUE-specific operations (the second select logic and the time-sliced
//! second tag-RAM read) are tiny next to the CAM wakeup broadcasts and
//! payload accesses. As in the paper (§4.5), age-matrix energy is excluded:
//! it would add the same constant to both sides.

use swque_cpu::SimResult;

use crate::geometry::{IqGeometry, WakeupStyle};
use crate::transistors::counts;

/// Energy per wakeup broadcast, per entry searched (CAM match), in
/// arbitrary energy units (EU).
const E_CAM_PER_ENTRY: f64 = 0.010;
/// Energy per select arbitration per tree level.
const E_SELECT_PER_LEVEL: f64 = 0.080;
/// Energy per tag-RAM read (small 8T array).
const E_TAG_READ: f64 = 0.050;
/// Energy per payload-RAM access (read at issue, write at dispatch).
const E_PAYLOAD: f64 = 0.400;
/// Leakage per cycle per million transistors.
const LEAK_PER_MTRANSISTOR: f64 = 2.0;

/// An energy breakdown in the shape of Figure 12's stacked bars.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Leakage of the baseline IQ structures over the run.
    pub static_basic: f64,
    /// Dynamic energy of the baseline operations (wakeup, select, tag read,
    /// payload access).
    pub dynamic_basic: f64,
    /// Leakage of the SWQUE-specific structures (second select logic, DTM).
    pub static_swque: f64,
    /// Dynamic energy of the SWQUE-specific operations (S_RV arbitration
    /// and the second, time-sliced tag-RAM reads).
    pub dynamic_swque: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.static_basic + self.dynamic_basic + self.static_swque + self.dynamic_swque
    }

    /// This breakdown's total relative to another's (Figure 12's y-axis).
    pub fn relative_to(&self, other: &EnergyBreakdown) -> f64 {
        self.total() / other.total()
    }
}

/// Computes the IQ energy of a simulation run.
///
/// `swque_hardware` selects whether the SWQUE additions (second select
/// logic + DTM) exist — they leak even when idle. Their dynamic activity is
/// inferred from the run's statistics (extra tag reads beyond one per
/// issue are CIRC-PC's time-sliced RV reads).
pub fn iq_energy(r: &SimResult, g: &IqGeometry, swque_hardware: bool) -> EnergyBreakdown {
    let c = counts(g);
    let levels = (g.entries as f64).log2() / 2.0;
    let entries = g.entries as f64;

    // A CAM broadcast searches every entry; a RAM-type wakeup reads one
    // dependency-matrix row, at roughly a third of the energy per event
    // (the structure trades area for cheaper broadcasts).
    let e_broadcast = match g.wakeup {
        WakeupStyle::Cam => E_CAM_PER_ENTRY * entries,
        WakeupStyle::Ram => E_CAM_PER_ENTRY * entries / 3.0,
    };
    let dynamic_basic = r.iq.wakeups as f64 * e_broadcast
        + r.iq.selects as f64 * E_SELECT_PER_LEVEL * levels
        + r.iq.issued as f64 * (E_TAG_READ + E_PAYLOAD)
        + r.iq.dispatched as f64 * E_PAYLOAD;
    let static_basic = r.cycles as f64 * c.baseline_total() as f64 / 1e6 * LEAK_PER_MTRANSISTOR;

    let (static_swque, dynamic_swque) = if swque_hardware {
        let extra_tag_reads = r.iq.tag_reads.saturating_sub(r.iq.issued);
        // Each extra tag read came from an S_RV selection, which also paid
        // an arbitration in the second select logic — a quarter of a full
        // arbitration's energy, since only the (small) RV subset toggles.
        let dynamic = extra_tag_reads as f64 * (E_TAG_READ + 0.25 * E_SELECT_PER_LEVEL * levels);
        let stat = r.cycles as f64 * c.swque_additions() as f64 / 1e6 * LEAK_PER_MTRANSISTOR;
        (stat, dynamic)
    } else {
        (0.0, 0.0)
    };

    EnergyBreakdown { static_basic, dynamic_basic, static_swque, dynamic_swque }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_cpu::{CoreStats, SimResult};

    fn result(cycles: u64, issued: u64, tag_reads: u64) -> SimResult {
        let mut iq = swque_core_stats();
        iq.wakeups = issued; // one broadcast per completed instruction
        iq.selects = cycles;
        iq.issued = issued;
        iq.dispatched = issued;
        iq.tag_reads = tag_reads;
        SimResult {
            cycles,
            retired: issued,
            iq,
            swque: None,
            mem: Default::default(),
            branch: Default::default(),
            core: CoreStats::default(),
            invariant: None,
        }
    }

    fn swque_core_stats() -> swque_core::IqStats {
        swque_core::IqStats::default()
    }

    #[test]
    fn swque_specific_energy_is_marginal() {
        // A run shaped like the paper's: ~2 IPC, RV path used by ~15% of
        // issues. SWQUE-specific energy must be a sliver (Figure 12: total
        // is only ~0.5% above I-SHIFT).
        let g = IqGeometry::medium();
        let ishift = iq_energy(&result(500_000, 1_000_000, 1_000_000), &g, false);
        let swque = iq_energy(&result(500_000, 1_000_000, 1_150_000), &g, true);
        let ratio = swque.relative_to(&ishift);
        assert!(
            (1.001..1.03).contains(&ratio),
            "SWQUE should cost only slightly more than I-SHIFT: {ratio:.4}"
        );
        assert!(swque.dynamic_swque < 0.02 * swque.total());
        assert!(swque.static_swque < 0.02 * swque.total());
        assert!(
            swque.static_basic > 0.03 * swque.total(),
            "leakage should be a visible slice of the bar"
        );
    }

    #[test]
    fn dynamic_energy_dominated_by_wakeup_and_payload() {
        let g = IqGeometry::medium();
        let e = iq_energy(&result(500_000, 1_000_000, 1_000_000), &g, false);
        assert!(e.dynamic_basic > e.static_basic, "an active queue is dynamic-dominated");
    }

    #[test]
    fn longer_runs_leak_more() {
        // Same work over more cycles: leakage grows (the paper's point that
        // slower queues pay in static energy through execution time).
        let g = IqGeometry::medium();
        let fast = iq_energy(&result(400_000, 1_000_000, 1_000_000), &g, false);
        let slow = iq_energy(&result(800_000, 1_000_000, 1_000_000), &g, false);
        assert!(slow.static_basic > fast.static_basic);
        assert!(slow.total() > fast.total());
    }

    #[test]
    fn ram_wakeup_trades_dynamic_for_static() {
        let cam = IqGeometry::medium();
        let ram = IqGeometry { wakeup: crate::WakeupStyle::Ram, ..IqGeometry::medium() };
        let r = result(500_000, 1_000_000, 1_000_000);
        let e_cam = iq_energy(&r, &cam, false);
        let e_ram = iq_energy(&r, &ram, false);
        assert!(e_ram.dynamic_basic < e_cam.dynamic_basic, "cheaper broadcasts");
        assert!(e_ram.static_basic > e_cam.static_basic, "bigger structure leaks more");
    }

    #[test]
    fn zero_activity_zero_dynamic() {
        let g = IqGeometry::medium();
        let e = iq_energy(&result(0, 0, 0), &g, true);
        assert_eq!(e.dynamic_basic, 0.0);
        assert_eq!(e.total(), 0.0);
    }
}
