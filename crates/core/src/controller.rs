//! The SWQUE mode-switching controller (paper §3.2).
//!
//! Every interval (10k retired instructions), two capacity-demand metrics
//! are evaluated:
//!
//! * **MPKI** — last-level-cache misses per kilo-instruction. High MPKI
//!   means memory-level parallelism is available, which wants a large
//!   effective IQ (AGE mode).
//! * **FLPI** — frequency of issues from the predetermined lowest-priority
//!   region of the IQ. High FLPI means ready instructions reside throughout
//!   the queue, i.e. instruction-level parallelism wants capacity (AGE
//!   mode).
//!
//! Decision policy (§3.2.2): both high → AGE; both low → CIRC-PC; they
//! disagree → AGE (the AGE-favoring policy).
//!
//! Stability (§3.2.3): an *instability counter* increments whenever the
//! FLPI decision made in CIRC-PC mode says AGE would be beneficial, and
//! resets to zero otherwise. When it reaches its threshold, the AGE-mode
//! FLPI threshold is lowered, making AGE mode stickier; both the counter and
//! the AGE threshold reset periodically to re-adapt.

use crate::cycle::{CycleDelta, InstCount};
use crate::digest::ArchKey;
use crate::types::IqMode;

/// SWQUE parameters — the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwqueParams {
    /// Switch-decision interval in retired instructions (10k).
    pub interval_insts: InstCount,
    /// Pipeline-flush penalty per mode switch in cycles (10).
    pub switch_penalty: CycleDelta,
    /// MPKI above this means capacity-demanding (1.0).
    pub mpki_threshold: f64,
    /// Base FLPI threshold (0.04).
    pub flpi_threshold: f64,
    /// Instability-counter trip point (2).
    pub instability_threshold: u32,
    /// How much the AGE-mode FLPI threshold drops per trip (0.01).
    pub flpi_reduction: f64,
    /// Period for resetting the counter and AGE threshold (1M insts).
    pub reset_interval_insts: InstCount,
    /// Disagreement policy: `true` (the paper's choice, §3.2.2) resolves
    /// metric disagreement toward AGE; `false` toward CIRC-PC. The paper
    /// reports the AGE-favoring policy performs better; the `ablations`
    /// experiment binary reproduces that comparison.
    pub age_favoring: bool,
    /// Enables the §3.2.3 instability counter / threshold-reduction
    /// machinery. Disabling it exposes the mode-oscillation problem the
    /// mechanism exists to solve.
    pub stabilize: bool,
}

impl Default for SwqueParams {
    /// Table 3 values.
    fn default() -> SwqueParams {
        SwqueParams {
            interval_insts: InstCount::new(10_000),
            switch_penalty: CycleDelta::new(10),
            mpki_threshold: 1.0,
            flpi_threshold: 0.04,
            instability_threshold: 2,
            flpi_reduction: 0.01,
            reset_interval_insts: InstCount::new(1_000_000),
            age_favoring: true,
            stabilize: true,
        }
    }
}

/// The metrics of one completed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalMetrics {
    /// LLC misses per kilo-instruction during the interval.
    pub mpki: f64,
    /// Low-priority issues per issued instruction during the interval.
    pub flpi: f64,
}

/// The controller's verdict for the next interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeDecision {
    /// Keep the current configuration.
    Stay,
    /// Reconfigure (requires a pipeline flush).
    SwitchTo(IqMode),
}

/// The mode-switching state machine. Pure decision logic: feed it one
/// [`IntervalMetrics`] per interval via [`evaluate`](Self::evaluate).
#[derive(Debug, Clone)]
pub struct SwqueController {
    params: SwqueParams,
    mode: IqMode,
    /// Dynamically adjusted FLPI threshold used while in AGE mode.
    flpi_threshold_age: f64,
    instability: u32,
    /// Retired-instruction count at the last periodic reset.
    last_reset_insts: InstCount,
    threshold_reductions: u64,
}

impl SwqueController {
    /// Creates a controller starting in CIRC-PC mode.
    pub fn new(params: SwqueParams) -> SwqueController {
        SwqueController {
            params,
            mode: IqMode::CircPc,
            flpi_threshold_age: params.flpi_threshold,
            instability: 0,
            last_reset_insts: InstCount::ZERO,
            threshold_reductions: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> IqMode {
        self.mode
    }

    /// The FLPI threshold currently in force (mode-dependent).
    pub fn active_flpi_threshold(&self) -> f64 {
        match self.mode {
            IqMode::Age => self.flpi_threshold_age,
            _ => self.params.flpi_threshold,
        }
    }

    /// Current instability-counter value.
    pub fn instability(&self) -> u32 {
        self.instability
    }

    /// Times the AGE-mode threshold has been lowered.
    pub fn threshold_reductions(&self) -> u64 {
        self.threshold_reductions
    }

    /// Writes the controller's architectural state into `key`: the mode,
    /// the adapted AGE-mode FLPI threshold (as f64 bits) and the
    /// instability counter. The parameters are constants; the last-reset
    /// total and the reduction count are monotone totals and stay out.
    pub fn arch_key(&self, key: &mut ArchKey) {
        key.push(self.mode as u64);
        key.push_f64(self.flpi_threshold_age);
        key.push(u64::from(self.instability));
    }

    /// Applies the periodic reset if `retired_insts` has advanced past the
    /// reset interval (re-starts learning, paper §3.2.3).
    pub fn maybe_periodic_reset(&mut self, retired_insts: InstCount) {
        if retired_insts >= self.last_reset_insts + self.params.reset_interval_insts {
            self.instability = 0;
            self.flpi_threshold_age = self.params.flpi_threshold;
            self.last_reset_insts = retired_insts;
        }
    }

    /// Consumes one interval's metrics and decides the next mode.
    pub fn evaluate(&mut self, metrics: IntervalMetrics) -> ModeDecision {
        let flpi_threshold = self.active_flpi_threshold();
        let mpki_high = metrics.mpki > self.params.mpki_threshold;
        let flpi_high = metrics.flpi > flpi_threshold;

        // Disagreement policy (§3.2.2): the paper resolves disagreement
        // toward AGE; the CIRC-favoring alternative is kept for ablation.
        let target = if self.params.age_favoring {
            if mpki_high || flpi_high {
                IqMode::Age
            } else {
                IqMode::CircPc
            }
        } else if mpki_high && flpi_high {
            IqMode::Age
        } else {
            IqMode::CircPc
        };

        // Instability tracking happens only on decisions made in CIRC-PC
        // mode (Figure 7): each FLPI-driven departure to AGE increments the
        // counter; a calm interval resets it.
        if self.params.stabilize && self.mode == IqMode::CircPc {
            if flpi_high {
                self.instability += 1;
            } else {
                self.instability = 0;
            }
            if self.instability >= self.params.instability_threshold {
                self.flpi_threshold_age =
                    (self.flpi_threshold_age - self.params.flpi_reduction).max(0.0);
                self.instability = 0;
                self.threshold_reductions += 1;
            }
        }

        if target == self.mode {
            ModeDecision::Stay
        } else {
            self.mode = target;
            ModeDecision::SwitchTo(target)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(mpki: f64, flpi: f64) -> IntervalMetrics {
        IntervalMetrics { mpki, flpi }
    }

    #[test]
    fn decision_table() {
        // both low -> CIRC-PC; both high -> AGE; disagree -> AGE.
        let mut c = SwqueController::new(SwqueParams::default());
        assert_eq!(c.evaluate(metrics(0.1, 0.01)), ModeDecision::Stay); // starts CIRC-PC
        assert_eq!(c.evaluate(metrics(5.0, 0.5)), ModeDecision::SwitchTo(IqMode::Age));
        assert_eq!(c.evaluate(metrics(5.0, 0.0)), ModeDecision::Stay, "disagree favors AGE");
        assert_eq!(c.evaluate(metrics(0.0, 0.0)), ModeDecision::SwitchTo(IqMode::CircPc));
        assert_eq!(c.evaluate(metrics(0.0, 0.5)), ModeDecision::SwitchTo(IqMode::Age));
    }

    /// Replays the paper's Figure 7 walkthrough: low MPKI throughout; FLPI
    /// oscillates; after the instability counter trips, the lowered AGE
    /// threshold keeps the mode stable in AGE.
    #[test]
    fn figure7_instability_walkthrough() {
        let mut c = SwqueController::new(SwqueParams::default());
        assert_eq!(c.mode(), IqMode::CircPc);

        // Phase 1 (CIRC-PC): FLPI high -> switch to AGE, counter = 1.
        assert_eq!(c.evaluate(metrics(0.0, 0.05)), ModeDecision::SwitchTo(IqMode::Age));
        assert_eq!(c.instability(), 1);

        // Phase 2 (AGE): FLPI low (0.035 < 0.04) -> back to CIRC-PC.
        assert_eq!(c.evaluate(metrics(0.0, 0.035)), ModeDecision::SwitchTo(IqMode::CircPc));
        assert_eq!(c.instability(), 1, "decisions made in AGE mode do not touch the counter");

        // Phase 3 (CIRC-PC): FLPI high again -> counter trips, AGE threshold
        // drops to 0.03, switch to AGE.
        assert_eq!(c.evaluate(metrics(0.0, 0.05)), ModeDecision::SwitchTo(IqMode::Age));
        assert_eq!(c.threshold_reductions(), 1);
        assert!((c.active_flpi_threshold() - 0.03).abs() < 1e-12);

        // Phase 4 (AGE): the same 0.035 FLPI that bounced us before is now
        // above the lowered threshold -> stay in AGE. Stable.
        assert_eq!(c.evaluate(metrics(0.0, 0.035)), ModeDecision::Stay);
        assert_eq!(c.mode(), IqMode::Age);
    }

    #[test]
    fn calm_interval_resets_instability() {
        let mut c = SwqueController::new(SwqueParams::default());
        c.evaluate(metrics(0.0, 0.05)); // counter = 1, now AGE
        c.evaluate(metrics(0.0, 0.0)); // back to CIRC-PC (counter untouched: AGE decision)
        c.evaluate(metrics(0.0, 0.0)); // calm CIRC-PC interval: counter resets
        assert_eq!(c.instability(), 0);
        assert_eq!(c.threshold_reductions(), 0);
    }

    #[test]
    fn periodic_reset_restores_threshold() {
        let mut c = SwqueController::new(SwqueParams::default());
        // Trip the counter to lower the AGE threshold.
        c.evaluate(metrics(0.0, 0.05));
        c.evaluate(metrics(0.0, 0.035));
        c.evaluate(metrics(0.0, 0.05));
        assert!(c.active_flpi_threshold() < 0.04);
        c.maybe_periodic_reset(InstCount::new(999_999));
        assert!(c.active_flpi_threshold() < 0.04, "not yet due");
        c.maybe_periodic_reset(InstCount::new(1_000_000));
        assert_eq!(c.mode(), IqMode::Age);
        // Threshold restored (visible because we are in AGE mode).
        assert!((c.active_flpi_threshold() - 0.04).abs() < 1e-12);
        assert_eq!(c.instability(), 0);
    }

    #[test]
    fn circ_favoring_policy_differs_on_disagreement() {
        let params = SwqueParams { age_favoring: false, ..SwqueParams::default() };
        let mut c = SwqueController::new(params);
        // MPKI high but FLPI low: AGE-favoring would pick AGE; the
        // CIRC-favoring ablation stays in CIRC-PC.
        assert_eq!(c.evaluate(metrics(5.0, 0.0)), ModeDecision::Stay);
        assert_eq!(c.mode(), IqMode::CircPc);
        // Both high still goes to AGE.
        assert_eq!(c.evaluate(metrics(5.0, 0.9)), ModeDecision::SwitchTo(IqMode::Age));
    }

    #[test]
    fn disabling_stabilization_freezes_the_age_threshold() {
        let params = SwqueParams { stabilize: false, ..SwqueParams::default() };
        let mut c = SwqueController::new(params);
        for _ in 0..5 {
            c.evaluate(metrics(0.0, 0.05)); // CIRC-PC -> AGE
            c.evaluate(metrics(0.0, 0.035)); // AGE -> CIRC-PC
        }
        assert_eq!(c.threshold_reductions(), 0);
        c.evaluate(metrics(0.0, 0.05));
        assert!((c.active_flpi_threshold() - 0.04).abs() < 1e-12, "threshold never adapts");
    }

    #[test]
    fn threshold_never_goes_negative() {
        let params = SwqueParams { flpi_reduction: 0.03, ..SwqueParams::default() };
        let mut c = SwqueController::new(params);
        for _ in 0..5 {
            // CIRC-PC -> AGE (trip), then force back to CIRC-PC.
            c.evaluate(metrics(0.0, 0.9));
            c.evaluate(metrics(0.0, 0.9));
            c.evaluate(metrics(0.0, 0.0));
        }
        c.evaluate(metrics(0.0, 0.9)); // land in AGE to read its threshold
        assert!(c.active_flpi_threshold() >= 0.0);
    }
}
