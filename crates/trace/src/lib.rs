//! Observability layer for the SWQUE reproduction.
//!
//! The paper's argument is made at *interval* granularity — MPKI and FLPI
//! per 10k-instruction interval, mode residency over a run, instability
//! trips (§3.2) — but simulator statistics ([`IqStats`]-style aggregate
//! counters) only describe a run's end state. This crate provides the
//! substrate that makes interval-level dynamics inspectable:
//!
//! * [`TraceEvent`] — the typed event vocabulary: controller interval
//!   samples, cycle-stamped mode switches, per-interval IPC, dispatch-stall
//!   episodes, and memory-epoch samples.
//! * [`TraceSink`] — the event-sink trait the simulator emits into, with
//!   [`RingRecorder`] (a bounded ring buffer that drops the *oldest* events
//!   on overflow) as the standard implementation and [`NullSink`] as the
//!   explicit no-op.
//! * [`TraceHandle`] — a cheaply cloneable handle the pipeline components
//!   share. A disabled handle ([`TraceHandle::disabled`]) makes every
//!   [`record`](TraceHandle::record) call a single branch on an `Option`
//!   that is `None` — no allocation, no locking, no event construction in
//!   the callers that guard on [`enabled`](TraceHandle::enabled).
//! * [`summary::TraceSummary`] — the reduction of an event stream to the
//!   per-interval time series and mode-residency figures the experiment
//!   binaries serialize.
//! * [`json`] — a minimal JSON value type (writer **and** parser) so the
//!   bench harness can emit machine-readable results without any external
//!   dependency (the workspace is hermetic).
//!
//! # Example
//!
//! ```
//! use swque_trace::{Mode, TraceEvent, TraceHandle};
//!
//! let trace = TraceHandle::ring(1024);
//! trace.record(TraceEvent::Interval {
//!     cycle: 9_000,
//!     retired: 10_000,
//!     mpki: 0.4,
//!     flpi: 0.06,
//!     mode: Mode::CircPc,
//!     instability: 1,
//!     switched: true,
//! });
//! let events = trace.events();
//! assert_eq!(events.len(), 1);
//!
//! // A disabled handle records nothing and costs nothing.
//! let off = TraceHandle::disabled();
//! off.record(TraceEvent::ModeSwitch {
//!     cycle: 1, retired: 2, from: Mode::CircPc, to: Mode::Age,
//! });
//! assert!(off.events().is_empty());
//! ```
//!
//! [`IqStats`]: https://docs.rs/swque-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod summary;

pub use json::Json;
pub use summary::{IntervalSample, IpcSample, TraceSummary};

#[expect(
    clippy::disallowed_types,
    reason = "single-threaded trace fan-in, documented on TraceHandle"
)]
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// The SWQUE operating configuration an event was observed under.
///
/// Deliberately narrower than the simulator's queue-mode vocabulary: only
/// the two configurations SWQUE switches between appear in traces (a
/// non-switching queue never emits mode events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Priority-correcting circular queue (priority-sensitive phases).
    CircPc,
    /// Random queue + age matrix (capacity-demanding phases).
    Age,
}

impl Mode {
    /// The paper's name for the configuration (also the JSON encoding).
    pub fn label(self) -> &'static str {
        match self {
            Mode::CircPc => "CIRC-PC",
            Mode::Age => "AGE",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One timestamped observation from the simulated pipeline.
///
/// All variants carry the cycle they were observed at; instruction-indexed
/// variants also carry the retired-instruction count, so a time series can
/// be plotted against either axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// One completed controller interval (SWQUE §3.2): the metrics the
    /// mode decision was made from and the controller state after it.
    Interval {
        /// Cycle at which the interval boundary was crossed.
        cycle: u64,
        /// Retired-instruction total at the boundary.
        retired: u64,
        /// LLC misses per kilo-instruction over the interval.
        mpki: f64,
        /// Low-priority issues per issued instruction over the interval.
        flpi: f64,
        /// Mode the interval executed under (before any switch it caused).
        mode: Mode,
        /// Instability-counter value after the decision (§3.2.3).
        instability: u32,
        /// True when the decision requested a mode switch.
        switched: bool,
    },
    /// A completed mode reconfiguration (the pipeline flush happened).
    ModeSwitch {
        /// Cycle of the flush.
        cycle: u64,
        /// Retired-instruction total at the flush.
        retired: u64,
        /// Configuration before the switch.
        from: Mode,
        /// Configuration after the switch.
        to: Mode,
    },
    /// Per-interval IPC sample from the core (same interval length as the
    /// controller's, so the series align row-for-row).
    IntervalIpc {
        /// Cycle at which the interval boundary was crossed.
        cycle: u64,
        /// Retired-instruction total at the boundary.
        retired: u64,
        /// Instructions per cycle over the interval.
        ipc: f64,
    },
    /// A contiguous episode of cycles in which dispatch was blocked by a
    /// full issue queue (capacity pressure made visible). Emitters may
    /// suppress episodes below a minimum length; aggregate stall cycles
    /// remain in the run statistics regardless.
    DispatchStall {
        /// First blocked cycle of the episode.
        cycle: u64,
        /// Consecutive blocked cycles.
        cycles: u64,
    },
    /// Memory-hierarchy activity over one fixed-length cycle epoch, emitted
    /// when the epoch rolls over (quiet epochs emit nothing).
    MemEpoch {
        /// First cycle of the epoch.
        cycle: u64,
        /// Requester (core id) whose demand miss crossed the epoch
        /// boundary and triggered the sample. Always 0 on a single-core
        /// hierarchy; the *counters* below still aggregate all requesters.
        requester: u32,
        /// LLC demand misses observed during the epoch.
        llc_misses: u64,
        /// DRAM line transfers (demand + prefetch) during the epoch.
        dram_transfers: u64,
    },
}

impl TraceEvent {
    /// The cycle stamp carried by every variant.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Interval { cycle, .. }
            | TraceEvent::ModeSwitch { cycle, .. }
            | TraceEvent::IntervalIpc { cycle, .. }
            | TraceEvent::DispatchStall { cycle, .. }
            | TraceEvent::MemEpoch { cycle, .. } => cycle,
        }
    }

    /// Short kind label (JSON `kind` field, summary grouping).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Interval { .. } => "interval",
            TraceEvent::ModeSwitch { .. } => "mode_switch",
            TraceEvent::IntervalIpc { .. } => "interval_ipc",
            TraceEvent::DispatchStall { .. } => "dispatch_stall",
            TraceEvent::MemEpoch { .. } => "mem_epoch",
        }
    }
}

/// An event consumer. The simulator is written against this trait so
/// recording policy (ring buffer, counting, discarding) is swappable.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);

    /// A snapshot of the retained events, oldest first. Sinks that do not
    /// retain events return an empty vector.
    fn events(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Events discarded so far (ring overflow). Lossless sinks return 0.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The explicit no-op sink: every event is discarded on arrival.
///
/// Exists mostly for tests and for documenting the disabled path; the
/// simulator's disabled path is [`TraceHandle::disabled`], which does not
/// even construct events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}
}

/// A bounded FIFO recorder: keeps the most recent `capacity` events,
/// dropping the **oldest** on overflow (the tail of a run is where mode
/// residency settles, so recency is the right bias) and counting what it
/// dropped so consumers can tell a complete trace from a windowed one.
#[derive(Debug, Clone, Default)]
pub struct RingRecorder {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingRecorder {
    /// Creates a recorder retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`NullSink`] to discard).
    pub fn new(capacity: usize) -> RingRecorder {
        assert!(capacity > 0, "a zero-capacity ring records nothing; use NullSink"); // swque-lint: allow(panic-in-lib) — documented `# Panics` precondition
        RingRecorder { capacity, buf: VecDeque::with_capacity(capacity.min(4096)), dropped: 0 }
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Removes and returns all retained events, oldest first, resetting the
    /// recorder (the drop counter is also cleared).
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.dropped = 0;
        self.buf.drain(..).collect()
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    fn events(&self) -> Vec<TraceEvent> {
        self.buf.iter().copied().collect()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A shared, cheaply cloneable reference to a sink — or to nothing.
///
/// Every traced component (core, issue queue, memory hierarchy) holds a
/// clone; they all feed the same recorder. The handle is single-threaded by
/// design (`Rc<RefCell<…>>`): the simulator itself is single-threaded per
/// core, and suite sweeps create one handle per worker thread.
///
/// The disabled handle is the default and is free: `record` is one branch,
/// and callers that would do work just to *build* an event should guard on
/// [`enabled`](TraceHandle::enabled) first.
#[derive(Clone, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "single-threaded by design (see type docs); events append in simulation order"
)]
pub struct TraceHandle(Option<Rc<RefCell<dyn TraceSink>>>);

impl TraceHandle {
    /// The disabled handle: records nothing, costs one branch per call.
    pub fn disabled() -> TraceHandle {
        TraceHandle(None)
    }

    /// A handle feeding a fresh [`RingRecorder`] of `capacity` events.
    pub fn ring(capacity: usize) -> TraceHandle {
        TraceHandle::with_sink(RingRecorder::new(capacity))
    }

    /// A handle feeding an arbitrary sink implementation.
    #[expect(clippy::disallowed_types, reason = "single-threaded by design (see type docs)")]
    pub fn with_sink<S: TraceSink + 'static>(sink: S) -> TraceHandle {
        TraceHandle(Some(Rc::new(RefCell::new(sink))))
    }

    /// True when events are being consumed. Emitters with non-trivial event
    /// construction should guard on this.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one event (no-op when disabled).
    pub fn record(&self, event: TraceEvent) {
        if let Some(sink) = &self.0 {
            sink.borrow_mut().record(event);
        }
    }

    /// Snapshot of the retained events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.0 {
            Some(sink) => sink.borrow().events(),
            None => Vec::new(),
        }
    }

    /// Events the sink has discarded (0 when disabled).
    pub fn dropped(&self) -> u64 {
        match &self.0 {
            Some(sink) => sink.borrow().dropped(),
            None => 0,
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(sink) => f
                .debug_struct("TraceHandle")
                .field("events", &sink.borrow().events().len())
                .field("dropped", &sink.borrow().dropped())
                .finish(),
            None => f.write_str("TraceHandle(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::IntervalIpc { cycle, retired: cycle * 2, ipc: 1.5 }
    }

    #[test]
    fn ring_retains_up_to_capacity() {
        let mut r = RingRecorder::new(4);
        assert!(r.is_empty());
        for c in 0..4 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.events().first(), Some(&ev(0)));
        assert_eq!(r.events().last(), Some(&ev(3)));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut r = RingRecorder::new(3);
        for c in 0..10 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        let kept: Vec<u64> = r.events().iter().map(TraceEvent::cycle).collect();
        assert_eq!(kept, vec![7, 8, 9], "the newest events survive");
    }

    #[test]
    fn ring_drain_empties_and_resets() {
        let mut r = RingRecorder::new(2);
        for c in 0..5 {
            r.record(ev(c));
        }
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        r.record(ev(9));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_ring_is_rejected() {
        let _ = RingRecorder::new(0);
    }

    #[test]
    fn null_sink_discards_everything() {
        let mut s = NullSink;
        s.record(ev(1));
        assert!(s.events().is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        h.record(ev(1));
        assert!(h.events().is_empty());
        assert_eq!(h.dropped(), 0);
        assert_eq!(format!("{h:?}"), "TraceHandle(disabled)");
    }

    #[test]
    fn clones_share_one_recorder() {
        let a = TraceHandle::ring(8);
        let b = a.clone();
        a.record(ev(1));
        b.record(ev(2));
        assert_eq!(a.events().len(), 2);
        assert_eq!(b.events(), a.events());
    }

    #[test]
    fn event_accessors() {
        let e = TraceEvent::ModeSwitch { cycle: 7, retired: 70, from: Mode::CircPc, to: Mode::Age };
        assert_eq!(e.cycle(), 7);
        assert_eq!(e.kind(), "mode_switch");
        assert_eq!(Mode::Age.to_string(), "AGE");
        assert_eq!(Mode::CircPc.label(), "CIRC-PC");
    }
}
