//! Reduction of an event stream to the per-interval time series and
//! residency figures the experiment binaries serialize.
//!
//! [`TraceSummary::from_events`] walks a recorded stream once and collects
//! the controller interval series, the core IPC series, switch counts, and
//! aggregate stall/memory activity. The result is plain data (`Send`, no
//! interior mutability) so suite sweeps can move it across worker threads,
//! and [`TraceSummary::to_json`] gives it the stable shape documented in
//! `DESIGN.md` (schema `swque-trace-v1`).

use crate::json::Json;
use crate::{Mode, TraceEvent};

/// One controller interval as recorded by a [`TraceEvent::Interval`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSample {
    /// Cycle at which the interval boundary was crossed.
    pub cycle: u64,
    /// Retired-instruction total at the boundary.
    pub retired: u64,
    /// LLC misses per kilo-instruction over the interval.
    pub mpki: f64,
    /// Low-priority issues per issued instruction over the interval.
    pub flpi: f64,
    /// Mode the interval executed under.
    pub mode: Mode,
    /// Instability counter after the interval's decision.
    pub instability: u32,
    /// True when the decision requested a mode switch.
    pub switched: bool,
}

/// One per-interval IPC sample from the core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpcSample {
    /// Cycle at which the interval boundary was crossed.
    pub cycle: u64,
    /// Retired-instruction total at the boundary.
    pub retired: u64,
    /// Instructions per cycle over the interval.
    pub ipc: f64,
}

/// The digest of one run's trace: time series plus aggregate counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Events the summary was built from (post any ring-buffer loss).
    pub events: usize,
    /// Events the recorder dropped before the summary saw them; when
    /// non-zero, the series below cover a suffix window of the run, not
    /// its entirety.
    pub dropped: u64,
    /// Controller interval series, in emission order.
    pub intervals: Vec<IntervalSample>,
    /// Core IPC series, in emission order.
    pub ipc: Vec<IpcSample>,
    /// Completed mode switches observed.
    pub switches: u64,
    /// Intervals that executed under CIRC-PC.
    pub circ_pc_intervals: u64,
    /// Intervals that executed under AGE.
    pub age_intervals: u64,
    /// Dispatch-stall episodes observed (emitters may suppress short ones).
    pub stall_episodes: u64,
    /// Total blocked cycles across observed episodes.
    pub stall_cycles: u64,
    /// Memory epochs observed.
    pub mem_epochs: u64,
    /// LLC demand misses summed over observed epochs.
    pub llc_misses: u64,
}

impl TraceSummary {
    /// Builds a summary from a recorded stream. `dropped` is the
    /// recorder's loss counter ([`crate::TraceHandle::dropped`]); pass 0
    /// for a lossless stream.
    pub fn from_events(events: &[TraceEvent], dropped: u64) -> TraceSummary {
        let mut s = TraceSummary { events: events.len(), dropped, ..TraceSummary::default() };
        for ev in events {
            match *ev {
                TraceEvent::Interval {
                    cycle,
                    retired,
                    mpki,
                    flpi,
                    mode,
                    instability,
                    switched,
                } => {
                    match mode {
                        Mode::CircPc => s.circ_pc_intervals += 1,
                        Mode::Age => s.age_intervals += 1,
                    }
                    s.intervals.push(IntervalSample {
                        cycle,
                        retired,
                        mpki,
                        flpi,
                        mode,
                        instability,
                        switched,
                    });
                }
                TraceEvent::ModeSwitch { .. } => s.switches += 1,
                TraceEvent::IntervalIpc { cycle, retired, ipc } => {
                    s.ipc.push(IpcSample { cycle, retired, ipc });
                }
                TraceEvent::DispatchStall { cycles, .. } => {
                    s.stall_episodes += 1;
                    s.stall_cycles += cycles;
                }
                TraceEvent::MemEpoch { llc_misses, .. } => {
                    s.mem_epochs += 1;
                    s.llc_misses += llc_misses;
                }
            }
        }
        s
    }

    /// Fraction of observed intervals that executed under CIRC-PC
    /// (`0.0` when no interval was observed). Interval-weighted, which
    /// approximates the cycle-weighted residency of
    /// `SwqueStats::circ_pc_fraction` to within one interval.
    pub fn circ_pc_fraction(&self) -> f64 {
        let total = self.circ_pc_intervals + self.age_intervals;
        if total == 0 {
            0.0
        } else {
            self.circ_pc_intervals as f64 / total as f64
        }
    }

    /// A one-character-per-interval mode strip (`C` = CIRC-PC, `A` = AGE),
    /// the Figure 10 timeline in its most compact form.
    pub fn mode_strip(&self) -> String {
        self.intervals
            .iter()
            .map(|i| match i.mode {
                Mode::CircPc => 'C',
                Mode::Age => 'A',
            })
            .collect()
    }

    /// Serializes the summary (schema `swque-trace-v1`, documented
    /// field-by-field in `DESIGN.md`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("swque-trace-v1")),
            ("events", Json::from(self.events)),
            ("dropped", Json::from(self.dropped)),
            ("switches", Json::from(self.switches)),
            ("circ_pc_intervals", Json::from(self.circ_pc_intervals)),
            ("age_intervals", Json::from(self.age_intervals)),
            ("circ_pc_fraction", Json::from(self.circ_pc_fraction())),
            ("mode_strip", Json::from(self.mode_strip())),
            ("stall_episodes", Json::from(self.stall_episodes)),
            ("stall_cycles", Json::from(self.stall_cycles)),
            ("mem_epochs", Json::from(self.mem_epochs)),
            ("llc_misses", Json::from(self.llc_misses)),
            (
                "intervals",
                Json::Arr(
                    self.intervals
                        .iter()
                        .map(|i| {
                            Json::obj([
                                ("cycle", Json::from(i.cycle)),
                                ("retired", Json::from(i.retired)),
                                ("mpki", Json::from(i.mpki)),
                                ("flpi", Json::from(i.flpi)),
                                ("mode", Json::from(i.mode.label())),
                                ("instability", Json::from(i.instability)),
                                ("switched", Json::from(i.switched)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ipc",
                Json::Arr(
                    self.ipc
                        .iter()
                        .map(|i| {
                            Json::obj([
                                ("cycle", Json::from(i.cycle)),
                                ("retired", Json::from(i.retired)),
                                ("ipc", Json::from(i.ipc)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(retired: u64, mode: Mode, switched: bool) -> TraceEvent {
        TraceEvent::Interval {
            cycle: retired / 2,
            retired,
            mpki: 0.5,
            flpi: 0.02,
            mode,
            instability: 0,
            switched,
        }
    }

    #[test]
    fn summarizes_a_mixed_stream() {
        let events = vec![
            interval(10_000, Mode::CircPc, false),
            interval(20_000, Mode::CircPc, true),
            TraceEvent::ModeSwitch {
                cycle: 10_001,
                retired: 20_000,
                from: Mode::CircPc,
                to: Mode::Age,
            },
            interval(30_000, Mode::Age, false),
            TraceEvent::IntervalIpc { cycle: 5_000, retired: 10_000, ipc: 2.0 },
            TraceEvent::DispatchStall { cycle: 400, cycles: 12 },
            TraceEvent::DispatchStall { cycle: 900, cycles: 8 },
            TraceEvent::MemEpoch { cycle: 0, requester: 0, llc_misses: 17, dram_transfers: 20 },
        ];
        let s = TraceSummary::from_events(&events, 3);
        assert_eq!(s.events, 8);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.intervals.len(), 3);
        assert_eq!(s.ipc.len(), 1);
        assert_eq!(s.switches, 1);
        assert_eq!(s.circ_pc_intervals, 2);
        assert_eq!(s.age_intervals, 1);
        assert!((s.circ_pc_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.mode_strip(), "CCA");
        assert_eq!(s.stall_episodes, 2);
        assert_eq!(s.stall_cycles, 20);
        assert_eq!(s.mem_epochs, 1);
        assert_eq!(s.llc_misses, 17);
    }

    #[test]
    fn empty_stream_is_well_defined() {
        let s = TraceSummary::from_events(&[], 0);
        assert_eq!(s.circ_pc_fraction(), 0.0);
        assert_eq!(s.mode_strip(), "");
        assert_eq!(s, TraceSummary::default());
    }

    #[test]
    fn json_round_trips_and_keeps_schema_keys() {
        let s = TraceSummary::from_events(&[interval(10_000, Mode::Age, false)], 0);
        let doc = s.to_json();
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("schema").and_then(Json::as_str), Some("swque-trace-v1"));
        let iv = &back.get("intervals").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            iv.keys(),
            vec!["cycle", "retired", "mpki", "flpi", "mode", "instability", "switched"],
        );
        assert_eq!(iv.get("mode").and_then(Json::as_str), Some("AGE"));
    }
}
