//! The SWQUE mode controller as a standalone transition system.
//!
//! [`QueueHarness`](crate::QueueHarness) proves the *switch protocol*
//! (poll → flush → adopt, exactly once); this harness proves the
//! *decision logic* of `SwqueController` (paper §3.2.2–§3.2.3), with
//! interval metrics as direct alphabet inputs so every MPKI × FLPI
//! combination around the thresholds is explored:
//!
//! * `ctrl-switch-is-change` / `ctrl-stay-is-stable` — the returned
//!   [`ModeDecision`] and the controller's `mode()` always agree;
//! * `ctrl-instability-reduction` — a shadow mirror of the Figure-7
//!   instability counter: whenever the shadow trips, the controller must
//!   have lowered the AGE-mode FLPI threshold (this is what the
//!   `controller-no-stabilize` injection breaks);
//! * `ctrl-threshold-floor` — the adapted threshold never goes negative.
//!
//! The FLPI alphabet straddles both thresholds the controller can be
//! using: 0.035 sits between a once-reduced threshold (0.03) and the base
//! (0.04), so threshold adaptation is behaviorally observable, not just
//! counter-observable.

use swque_core::cycle::InstCount;
use swque_core::replay::Event;
use swque_core::{ArchKey, IntervalMetrics, IqMode, ModeDecision, SwqueController, SwqueParams};

use crate::explore::Harness;
use crate::harness::{Injection, Violation};

/// The controller under check plus the shadow instability mirror.
#[derive(Debug, Clone)]
pub struct CtrlHarness {
    controller: SwqueController,
    params: SwqueParams,
    /// Shadow of the instability counter, advanced by the *specified*
    /// Figure-7 rules; the real counter may diverge under injection.
    shadow_instability: u32,
    /// Shadow of `threshold_reductions()` at the last check.
    shadow_reductions: u64,
    /// Periodic resets performed (drives the next reset total).
    resets: u64,
}

impl CtrlHarness {
    /// Builds a controller harness, optionally with the
    /// `controller-no-stabilize` injection.
    pub fn new(inject: Option<Injection>) -> Result<CtrlHarness, String> {
        let mut params = SwqueParams::default();
        match inject {
            None => {}
            Some(Injection::ControllerNoStabilize) => params.stabilize = false,
            Some(queue_bug) => {
                return Err(format!(
                    "injection {} applies to a queue, not the controller",
                    queue_bug.label()
                ));
            }
        }
        Ok(CtrlHarness {
            controller: SwqueController::new(params),
            params,
            shadow_instability: 0,
            shadow_reductions: 0,
            resets: 0,
        })
    }

    fn do_interval(&mut self, mpki_milli: u32, flpi_milli: u32) -> Result<(), Violation> {
        let mode_before = self.controller.mode();
        let metrics = IntervalMetrics {
            mpki: f64::from(mpki_milli) / 1000.0,
            flpi: f64::from(flpi_milli) / 1000.0,
        };
        let decision = self.controller.evaluate(metrics);
        let mode_after = self.controller.mode();
        match decision {
            ModeDecision::Stay => {
                if mode_after != mode_before {
                    return Err(Violation {
                        property: "ctrl-stay-is-stable",
                        detail: format!(
                            "Stay decision but mode changed {mode_before:?} -> {mode_after:?}"
                        ),
                    });
                }
            }
            ModeDecision::SwitchTo(target) => {
                if target == mode_before || mode_after != target {
                    return Err(Violation {
                        property: "ctrl-switch-is-change",
                        detail: format!(
                            "SwitchTo({target:?}) from {mode_before:?} left mode {mode_after:?}"
                        ),
                    });
                }
            }
        }

        // Figure-7 shadow mirror: instability accounting happens only on
        // decisions made while in CIRC-PC mode, against the base
        // threshold (the adapted one is in force only in AGE mode).
        let reductions = self.controller.threshold_reductions();
        let mut expected = self.shadow_reductions;
        if mode_before == IqMode::CircPc {
            if metrics.flpi > self.params.flpi_threshold {
                self.shadow_instability += 1;
            } else {
                self.shadow_instability = 0;
            }
            if self.shadow_instability >= self.params.instability_threshold {
                expected += 1;
                self.shadow_instability = 0;
            }
        }
        if reductions != expected {
            return Err(Violation {
                property: "ctrl-instability-reduction",
                detail: format!(
                    "after {} FLPI-unstable intervals the threshold-reduction count is {} \
                     (expected {})",
                    self.params.instability_threshold, reductions, expected
                ),
            });
        }
        self.shadow_reductions = expected;

        if self.controller.active_flpi_threshold() < 0.0 {
            return Err(Violation {
                property: "ctrl-threshold-floor",
                detail: format!(
                    "active FLPI threshold went negative: {}",
                    self.controller.active_flpi_threshold()
                ),
            });
        }
        Ok(())
    }

    fn do_reset(&mut self, insts: u64) -> Result<(), Violation> {
        self.controller.maybe_periodic_reset(InstCount::new(insts));
        self.resets += 1;
        self.shadow_instability = 0;
        // The reset restores the base threshold; reductions-so-far remain
        // counted, so re-sync the shadow rather than re-deriving it.
        self.shadow_reductions = self.controller.threshold_reductions();
        if self.controller.instability() != 0 {
            return Err(Violation {
                property: "ctrl-instability-reduction",
                detail: format!(
                    "periodic reset left instability counter at {}",
                    self.controller.instability()
                ),
            });
        }
        Ok(())
    }
}

impl Harness for CtrlHarness {
    fn enabled_events(&self) -> Vec<Event> {
        let mut events = Vec::new();
        // MPKI 0 / 2 straddles the 1.0 threshold; FLPI 0 / 0.035 / 0.05
        // straddles both the base (0.04) and once-reduced (0.03)
        // thresholds.
        for mpki_milli in [0, 2000] {
            for flpi_milli in [0, 35, 50] {
                events.push(Event::Interval { mpki_milli, flpi_milli });
            }
        }
        events.push(Event::Reset((self.resets + 1) * self.params.reset_interval_insts.get()));
        events
    }

    fn apply(&mut self, event: Event) -> Result<(), Violation> {
        match event {
            Event::Interval { mpki_milli, flpi_milli } => self.do_interval(mpki_milli, flpi_milli),
            Event::Reset(insts) => self.do_reset(insts),
            other => Err(Violation {
                property: "replay-target",
                detail: format!("queue event {other} sent to the controller harness"),
            }),
        }
    }

    fn state_key(&self, words: &mut Vec<u64>) {
        let no_seqs = |seq| seq;
        let mut key = ArchKey::new(words, &no_seqs);
        self.controller.arch_key(&mut key);
        key.push(u64::from(self.shadow_instability));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(mpki_milli: u32, flpi_milli: u32) -> Event {
        Event::Interval { mpki_milli, flpi_milli }
    }

    #[test]
    fn clean_controller_survives_the_instability_dance() {
        let mut h = CtrlHarness::new(None).unwrap();
        // flpi-high in CIRC-PC (switch to AGE), calm (back), flpi-high
        // again: instability reaches 2 and the reduction must land.
        for ev in [interval(0, 50), interval(0, 0), interval(0, 50)] {
            h.apply(ev).expect("clean controller must satisfy the mirror");
        }
        assert_eq!(h.controller.threshold_reductions(), 1);
    }

    #[test]
    fn no_stabilize_injection_violates_instability_reduction() {
        let mut h = CtrlHarness::new(Some(Injection::ControllerNoStabilize)).unwrap();
        let mut found = None;
        for ev in [interval(0, 50), interval(0, 0), interval(0, 50)] {
            if let Err(v) = h.apply(ev) {
                found = Some(v);
                break;
            }
        }
        let v = found.expect("injection must be detected");
        assert_eq!(v.property, "ctrl-instability-reduction");
    }

    #[test]
    fn reset_clears_instability_and_keeps_the_mirror_synced() {
        let mut h = CtrlHarness::new(None).unwrap();
        h.apply(interval(0, 50)).unwrap();
        h.apply(Event::Reset(1_000_000)).unwrap();
        h.apply(interval(0, 50)).unwrap();
        // One high interval after the reset: counter at 1, no reduction.
        assert_eq!(h.controller.threshold_reductions(), 0);
    }

    #[test]
    fn queue_events_are_rejected() {
        let mut h = CtrlHarness::new(None).unwrap();
        let v = h.apply(Event::Flush).unwrap_err();
        assert_eq!(v.property, "replay-target");
    }
}
