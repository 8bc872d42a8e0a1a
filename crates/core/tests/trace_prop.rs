//! Property test reconciling the observability layer with the aggregate
//! statistics: every controller interval SWQUE counts must appear as
//! exactly one `TraceEvent::Interval` in an attached recorder, and the
//! events flagged `switched` must equal the completed switches in
//! `SwqueStats` — the trace is the statistics, itemized.

use swque_core::cycle::{CycleStamp, InstCount};
use swque_core::{IqConfig, IqKind};
use swque_rng::prop::{check, Gen};
use swque_trace::{TraceEvent, TraceHandle};

#[test]
fn interval_events_reconcile_with_swque_stats() {
    check(64, |g: &mut Gen| {
        let config = IqConfig { capacity: 16, issue_width: 2, ..IqConfig::default() };
        let interval = config.swque.interval_insts.get();
        let mut q = IqKind::Swque.build(&config);
        let trace = TraceHandle::ring(8192);
        q.attach_trace(&trace);

        // Drive the per-cycle poll contract with a random retirement/miss
        // history: steps sometimes cross an interval boundary, sometimes
        // not, and the miss stream swings MPKI across the controller's
        // threshold so both mode directions are exercised. A returned
        // `true` is honoured with the flush the core would perform.
        let steps = g.gen_range(1usize..80);
        let mut retired = 0u64;
        let mut misses = 0u64;
        let mut cycle = 0u64;
        for _ in 0..steps {
            retired += g.gen_range(0u64..2 * interval);
            if g.bool() {
                // Memory-bound stretch: well past 1 MPKI per interval.
                misses += g.gen_range(0u64..200);
            }
            cycle += g.gen_range(1u64..5 * interval);
            if q.poll_mode_switch(CycleStamp::new(cycle), InstCount::new(retired), misses) {
                q.flush();
            }
        }

        let stats = q.swque_stats().expect("SWQUE reports mode stats");
        let events = trace.events();
        assert_eq!(trace.dropped(), 0, "ring sized for the whole run");

        let intervals: Vec<&TraceEvent> =
            events.iter().filter(|e| matches!(e, TraceEvent::Interval { .. })).collect();
        assert_eq!(
            intervals.len() as u64,
            stats.intervals,
            "one Interval event per counted interval",
        );
        assert_eq!(intervals.len(), events.len(), "the queue emits nothing else");

        let switched = intervals
            .iter()
            .filter(|e| matches!(e, TraceEvent::Interval { switched: true, .. }))
            .count() as u64;
        assert_eq!(
            switched, stats.switches,
            "every switching decision completed (flush followed poll)",
        );

        // Events arrive in measurement order: cycle and retired stamps are
        // non-decreasing.
        for pair in events.windows(2) {
            assert!(pair[0].cycle() <= pair[1].cycle());
            let r = |e: &TraceEvent| match *e {
                TraceEvent::Interval { retired, .. } => retired,
                _ => unreachable!("only Interval events here"),
            };
            assert!(r(&pair[0]) <= r(&pair[1]));
        }
    });
}
