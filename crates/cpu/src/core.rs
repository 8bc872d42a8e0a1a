//! The out-of-order superscalar core: a cycle-level timing model in the
//! style of SimpleScalar's `sim-outorder`, with the issue queue fully
//! pluggable via [`IqKind`].
//!
//! # Structure
//!
//! Each simulated cycle runs the pipeline stages in reverse order so that
//! same-cycle producer→consumer flow behaves like hardware:
//!
//! `commit → writeback → execute → issue → dispatch → fetch`
//!
//! * **Fetch** uses the functional [`Emulator`] as an execute-at-fetch
//!   oracle: each fetched instruction carries its architectural outcome
//!   (next pc, memory address). Branches are predicted with gshare+BTB; on a
//!   misprediction fetch follows the predicted (wrong) path through a
//!   [`ShadowEmulator`] until the branch resolves, when the wrong-path
//!   instructions are squashed from every structure and fetch pays the
//!   front-end refill implied by `frontend_depth` on the correct path.
//! * **Dispatch** renames registers, allocates ROB/LSQ/IQ entries in program
//!   order, and stalls on any structural hazard — including the circular
//!   queues' hole-induced capacity loss, which is how CIRC's inefficiency
//!   becomes visible in IPC.
//! * **Issue** builds an [`IssueBudget`] from the free function units and
//!   asks the issue queue to select; the queue's priority policy is the
//!   paper's entire subject.
//! * **Writeback** broadcasts destination tags into the IQ one cycle before
//!   dependents can issue, giving back-to-back scheduling for single-cycle
//!   producers.
//! * **Mode switches** (SWQUE) perform a *full* pipeline flush: in-flight
//!   instructions are replayed through the front end (they are correct-path
//!   by construction), and fetch stalls for the switch penalty.
//!
//! # Memory ownership
//!
//! The pipeline state (`Pipeline`) never owns a memory hierarchy: every
//! stage borrows one and tags its accesses with the pipeline's requester
//! id. [`Core`] is the thin owner of one pipeline and one private
//! hierarchy; [`crate::MultiCoreSim`] drives N pipelines over one shared
//! hierarchy. Both run through the same drive loop, so a standalone core
//! is exactly the N=1 case of a multi-core run.
//!
//! # Quiescence skipping
//!
//! Between [`Core::step_cycle`] calls, [`Core::run`] asks
//! [`Core::quiescent_horizon`] whether the next cycle could change any
//! architectural or queue state. When it provably cannot — no ROB head
//! ready to commit, no completion event due, no ready IQ entry, every
//! pending load blocked, dispatch gated, fetch stalled or starved — the
//! clock jumps straight to the earliest [`WakeHorizon`] reported by the
//! FU pool, the memory hierarchy, and the issue queue, and the per-cycle
//! bookkeeping (`iq_stall_cycles`, queue occupancy averages, SWQUE mode
//! residency) is bulk-advanced. Results are byte-identical with skipping
//! on or off (DESIGN.md §10); [`Core::set_skip`] forces the per-cycle
//! path.

use std::collections::VecDeque;

use swque_branch::{BranchKind, BranchOutcome, BranchPredictor};
use swque_core::cycle::{CycleDelta, CycleStamp, InstCount};
use swque_core::{
    min_horizon, DispatchReq, Grant, IqKind, IqMode, IssueBudget, IssueQueue, WakeHorizon,
};
use swque_isa::{Emulator, Opcode, Program, Retired, ShadowEmulator};
use swque_mem::{AccessKind, MemoryHierarchy};
use swque_trace::{TraceEvent, TraceHandle};

use crate::config::CoreConfig;
use crate::events::EventRing;
use crate::fu::FuPool;
use crate::lsq::{LoadAction, Lsq};
use crate::multi::drive;
use crate::rename::RenameState;
use crate::result::{CoreStats, InvariantViolation, SimResult};
use crate::rob::{Rob, RobEntry, RobState};
use crate::switching;

/// An instruction travelling through the front end (fetched or awaiting
/// replay after a flush).
#[derive(Debug, Clone, Copy)]
struct FrontInst {
    uid: u64,
    oracle: Retired,
}

/// A fetched instruction waiting out the front-end pipeline depth.
#[derive(Debug, Clone, Copy)]
struct DecodedInst {
    front: FrontInst,
    ready_at: CycleStamp,
    mispredicted: bool,
    /// Fetched down a mispredicted branch's wrong path.
    wp: bool,
}

/// Active wrong-path fetch state: created when the front end detects a
/// misprediction (oracle outcome vs prediction) and destroyed when the
/// branch resolves and its wrong path is squashed.
#[derive(Debug)]
struct WrongPath {
    /// uid of the mispredicted (correct-path) branch.
    branch_uid: u64,
    /// Shadow execution context running down the predicted (wrong) path.
    shadow: ShadowEmulator,
    /// The wrong path ran out (halt/invalid pc/unknown target); fetch idles
    /// until the branch resolves.
    dead: bool,
}

/// Cycles with no retirement before the simulator declares itself wedged.
const DEADLOCK_LIMIT: CycleDelta = CycleDelta::new(2_000_000);

/// Shortest dispatch-stall run (consecutive IQ-blocked cycles) that emits a
/// [`TraceEvent::DispatchStall`] episode. Shorter runs stay visible in the
/// aggregate `iq_stall_cycles` counter; emitting each of them would flood a
/// bounded trace ring with one-cycle episodes in capacity-bound phases.
const STALL_EPISODE_MIN: CycleDelta = CycleDelta::new(8);

/// A point-in-time view of pipeline occupancy (see [`Core::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSnapshot {
    /// Current cycle.
    pub cycle: u64,
    /// Instructions retired so far.
    pub retired: u64,
    /// Live reorder-buffer entries.
    pub rob_occupancy: usize,
    /// Live issue-queue entries.
    pub iq_occupancy: usize,
    /// Live load/store-queue entries.
    pub lsq_occupancy: usize,
    /// Instructions buffered in the front end.
    pub decode_occupancy: usize,
    /// Correct-path instructions awaiting replay after a flush.
    pub replay_pending: usize,
    /// A misprediction is unresolved (wrong-path fetch active or dead).
    pub wrong_path_active: bool,
    /// The issue queue's current operating mode.
    pub mode: IqMode,
}

/// The simulated core: one pipeline that owns a private single-requester
/// memory hierarchy.
#[derive(Debug)]
pub struct Core {
    pipe: Pipeline,
    mem: MemoryHierarchy,
}

impl Core {
    /// Creates a core running `program` with the issue queue `kind`,
    /// owning a private single-requester memory hierarchy.
    pub fn new(config: CoreConfig, kind: IqKind, program: &Program) -> Core {
        let mem = MemoryHierarchy::new(config.mem);
        Core { pipe: Pipeline::new(config, kind, program, 0), mem }
    }

    /// Connects an observability sink: the core emits [`TraceEvent`]s into
    /// it ([`TraceEvent::IntervalIpc`], [`TraceEvent::ModeSwitch`],
    /// [`TraceEvent::DispatchStall`]) and propagates the handle to the
    /// issue queue (controller interval samples) and the memory hierarchy
    /// (epoch samples). With the default disabled handle every emission
    /// site is a single predictable branch.
    pub fn attach_trace(&mut self, trace: &TraceHandle) {
        self.pipe.attach_trace(trace);
        self.mem.set_trace(trace);
    }

    /// Current cycle.
    pub fn cycle(&self) -> CycleStamp {
        self.pipe.cycle
    }

    /// Retired instructions so far.
    pub fn retired(&self) -> u64 {
        self.pipe.retired
    }

    /// The functional emulator (architectural state oracle). After the run
    /// completes, this holds the program's final architectural state, which
    /// is identical across all issue-queue organizations — a key invariant.
    pub fn emulator(&self) -> &Emulator {
        &self.pipe.emu
    }

    /// True when the program has halted and the pipeline has drained.
    pub fn finished(&self) -> bool {
        self.pipe.finished()
    }

    /// The first pipeline-invariant violation, if the simulator wedged
    /// itself (also carried on every [`SimResult`] this core produces).
    /// Once set, the pipeline is frozen: every later
    /// [`step_cycle`](Self::step_cycle) is a no-op.
    pub fn violation(&self) -> Option<&InvariantViolation> {
        self.pipe.violation.as_ref()
    }

    /// Runs until `max_insts` instructions retire, the program finishes, or
    /// a pipeline invariant is violated (see [`SimResult::invariant`]).
    /// Returns the accumulated results (callable again to continue).
    pub fn run(&mut self, max_insts: u64) -> SimResult {
        drive(std::slice::from_mut(&mut self.pipe), &mut self.mem, max_insts);
        self.result()
    }

    /// True while [`run`](Self::run) with this bound would keep stepping:
    /// the retirement target is unmet, the program has not finished, and no
    /// invariant violation has frozen the pipeline.
    pub fn active(&self, max_insts: u64) -> bool {
        self.pipe.active(max_insts)
    }

    /// Enables or disables quiescence skipping for this core (on by
    /// default). The skip differential switches it off to compare against
    /// the per-cycle path.
    pub fn set_skip(&mut self, on: bool) {
        self.pipe.set_skip(on);
    }

    /// Whether quiescence skipping is currently armed.
    pub fn skip_enabled(&self) -> bool {
        self.pipe.skip_enabled()
    }

    /// `(jumps_taken, cycles_skipped)` so far — host-side observability for
    /// the skip machinery. Deliberately *not* part of [`SimResult`]: results
    /// must be byte-identical with skipping on or off.
    pub fn skip_stats(&self) -> (u64, u64) {
        self.pipe.skip_stats()
    }

    /// Snapshot of the statistics so far.
    pub fn result(&self) -> SimResult {
        self.pipe.result(&self.mem)
    }

    /// Current IQ mode (meaningful for SWQUE).
    pub fn iq_mode(&self) -> IqMode {
        self.pipe.iq.mode()
    }

    /// A point-in-time view of pipeline occupancy, for instrumentation and
    /// debugging (the `mode_switching` example uses it to narrate runs).
    pub fn snapshot(&self) -> PipelineSnapshot {
        let p = &self.pipe;
        PipelineSnapshot {
            cycle: p.cycle.get(),
            retired: p.retired,
            rob_occupancy: p.rob.len(),
            iq_occupancy: p.iq.len(),
            lsq_occupancy: p.lsq.len(),
            decode_occupancy: p.decode_q.len(),
            replay_pending: p.replay.len(),
            wrong_path_active: p.wrong_path.is_some(),
            mode: p.iq.mode(),
        }
    }

    /// Advances one cycle. A no-op once a pipeline invariant has been
    /// violated (the frozen state is exactly what the violation report
    /// describes).
    pub fn step_cycle(&mut self) {
        self.pipe.step_cycle(&mut self.mem);
    }

    /// The quiescence predicate: decides whether the *next*
    /// [`step_cycle`](Self::step_cycle) could change any architectural or
    /// queue state, and if not, how far the clock may jump.
    ///
    /// Returns `None` when some stage could act this cycle (the core must
    /// tick normally), or `Some(h)` with `h > self.cycle()` when every
    /// stage is provably idle until at least `h`: `h` is the minimum of the
    /// timed wake-ups (completion events, fetch stall expiry, front-end
    /// `ready_at`, and every subsystem's
    /// [`WakeHorizon`]) capped at the deadlock limit, so a fully wedged
    /// pipeline jumps straight to the cycle at which the progress invariant
    /// fires — with the identical cycle stamp the per-cycle path produces.
    ///
    /// Pure: a query over `&self`, usable by tests to cross-check any
    /// claimed horizon against a per-cycle reference run.
    pub fn quiescent_horizon(&self) -> Option<CycleStamp> {
        self.pipe.quiescent_horizon(&self.mem)
    }
}

/// One core's pipeline state: everything but the memory hierarchy, which
/// every stage borrows. [`Core`] owns one pipeline over a private
/// hierarchy; [`crate::MultiCoreSim`] drives N of them over a shared one.
#[derive(Debug)]
pub(crate) struct Pipeline {
    config: CoreConfig,
    iq: Box<dyn IssueQueue>,
    emu: Emulator,
    /// Requester id tagging every access this pipeline makes on the
    /// hierarchy it is driven over (0 for a standalone [`Core`]).
    requester: usize,
    bp: BranchPredictor,
    rename: RenameState,
    rob: Rob,
    lsq: Lsq,
    fus: FuPool,

    cycle: CycleStamp,
    retired: u64,
    last_retire_cycle: CycleStamp,
    next_uid: u64,
    next_seq: u64,

    /// Correct-path instructions squashed by a flush, awaiting refetch.
    replay: VecDeque<FrontInst>,
    /// Fetched instructions in the front-end pipeline.
    decode_q: VecDeque<DecodedInst>,
    fetch_stalled_until: CycleStamp,
    /// Wrong-path fetch state while a misprediction is unresolved.
    wrong_path: Option<WrongPath>,
    emu_halted: bool,
    last_fetch_line: Option<u64>,

    /// Completion events by cycle, drained in `(cycle, seq)` order (see
    /// [`crate::events`]). `(slot, seq)` is the instruction's ROB handle
    /// (see [`crate::rob`]).
    events: EventRing,
    /// This cycle's due events, `(seq, slot)`, filled by
    /// [`EventRing::take_due`]; reused every cycle.
    due: Vec<(u64, u64)>,
    /// This cycle's grants, copied out of the queue's buffer so that the
    /// issue loop can borrow the pipeline mutably; reused every cycle.
    grants: Vec<Grant>,
    /// ROB handles `(slot, seq)` of issued loads awaiting their memory
    /// access. `issue` runs after `execute` within a cycle and the clock
    /// advances after both, so a load issued (AGU busy) this cycle is first
    /// seen by `execute`, and by the horizon, on the next cycle, when its
    /// address is ready.
    pending_loads: Vec<(u64, u64)>,

    /// Observability sink (disabled by default; see [`Core::attach_trace`]).
    trace: TraceHandle,
    /// Retired count at which the next [`TraceEvent::IntervalIpc`] fires.
    next_ipc_mark: u64,
    /// `(cycle, retired)` at the previous IPC interval boundary.
    ipc_window_start: (CycleStamp, u64),
    /// Cycle the current dispatch-stall run began (`None` = not stalled).
    stall_run_start: Option<CycleStamp>,

    /// First pipeline-invariant violation (see [`Pipeline::invariant`]); once
    /// set, the pipeline is frozen and the run loop stops.
    violation: Option<InvariantViolation>,

    /// Quiescence skipping armed (see [`Core::set_skip`]).
    skip_enabled: bool,
    /// Number of clock jumps taken (host-side observability only — never
    /// part of [`SimResult`], which must be skip-invariant).
    skips_taken: u64,
    /// Total cycles covered by those jumps.
    cycles_skipped: u64,

    stats: CoreStats,
}

impl Pipeline {
    /// A fresh pipeline running `program` with the issue queue `kind`,
    /// tagging its memory accesses as requester `requester`. Quiescence
    /// skipping starts armed.
    pub(crate) fn new(
        config: CoreConfig,
        kind: IqKind,
        program: &Program,
        requester: usize,
    ) -> Pipeline {
        let iq = kind.build(&config.iq);
        let interval = config.iq.swque.interval_insts.get().max(1);
        Pipeline {
            emu: Emulator::new(program),
            requester,
            bp: BranchPredictor::new(config.predictor),
            rename: RenameState::new(config.phys_int, config.phys_fp),
            rob: Rob::new(config.rob_entries),
            lsq: Lsq::new(config.lsq_entries),
            fus: FuPool::new(config.fu_counts),
            iq,
            cycle: CycleStamp::ZERO,
            retired: 0,
            last_retire_cycle: CycleStamp::ZERO,
            next_uid: 0,
            next_seq: 0,
            replay: VecDeque::new(),
            decode_q: VecDeque::new(),
            fetch_stalled_until: CycleStamp::ZERO,
            wrong_path: None,
            emu_halted: false,
            last_fetch_line: None,
            events: EventRing::new(),
            due: Vec::new(),
            grants: Vec::new(),
            pending_loads: Vec::new(),
            trace: TraceHandle::disabled(),
            next_ipc_mark: interval,
            ipc_window_start: (CycleStamp::ZERO, 0),
            stall_run_start: None,
            violation: None,
            skip_enabled: true,
            skips_taken: 0,
            cycles_skipped: 0,
            stats: CoreStats::default(),
            config,
        }
    }

    /// Connects an observability sink to the pipeline and its issue queue
    /// (the hierarchy's owner connects the hierarchy).
    pub(crate) fn attach_trace(&mut self, trace: &TraceHandle) {
        self.trace = trace.clone();
        self.iq.attach_trace(trace);
    }

    pub(crate) fn cycle(&self) -> CycleStamp {
        self.cycle
    }

    fn finished(&self) -> bool {
        self.emu_halted
            && self.rob.is_empty()
            && self.decode_q.is_empty()
            && self.replay.is_empty()
    }

    /// Records a broken pipeline invariant — a simulator bug, not a program
    /// property. The first report wins; the pipeline freezes (every
    /// subsequent [`step_cycle`](Self::step_cycle) is a no-op) so the
    /// violation is surfaced through [`SimResult::invariant`] instead of a
    /// library panic or ever-worsening garbage counters.
    fn invariant(&mut self, stage: &'static str, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(InvariantViolation { stage, detail, cycle: self.cycle.get() });
        }
    }

    /// See [`Core::active`].
    pub(crate) fn active(&self, max_insts: u64) -> bool {
        self.retired < max_insts && !self.finished() && self.violation.is_none()
    }

    /// The deadlock invariant: fires (with the same cycle stamp whether the
    /// clock ticked or jumped there) when nothing has retired for
    /// [`DEADLOCK_LIMIT`] cycles.
    pub(crate) fn check_progress(&mut self) {
        if self.cycle >= self.last_retire_cycle + DEADLOCK_LIMIT {
            self.invariant(
                "progress",
                format!(
                    "no retirement for {DEADLOCK_LIMIT} cycles (retired {}); pipeline wedged",
                    self.retired
                ),
            );
        }
    }

    pub(crate) fn set_skip(&mut self, on: bool) {
        self.skip_enabled = on;
    }

    pub(crate) fn skip_enabled(&self) -> bool {
        self.skip_enabled
    }

    pub(crate) fn skip_stats(&self) -> (u64, u64) {
        (self.skips_taken, self.cycles_skipped)
    }

    /// Snapshot of the statistics so far, reading the memory counters
    /// attributed to this pipeline's requester id from `mem`.
    pub(crate) fn result(&self, mem: &MemoryHierarchy) -> SimResult {
        SimResult {
            cycles: self.cycle.get(),
            retired: self.retired,
            iq: self.iq.stats(),
            swque: self.iq.swque_stats(),
            mem: mem.stats_of(self.requester),
            branch: self.bp.stats(),
            core: self.stats,
            invariant: self.violation.clone(),
        }
    }

    /// Advances one cycle over `mem`. A no-op once a pipeline invariant has
    /// been violated.
    pub(crate) fn step_cycle(&mut self, mem: &mut MemoryHierarchy) {
        if self.violation.is_some() {
            return;
        }
        self.commit(mem);
        if self.trace.enabled() {
            self.trace_interval_ipc();
        }
        self.writeback();
        self.execute(mem);
        self.issue();
        self.dispatch();
        self.fetch(mem);
        self.poll_mode_switch(mem);
        self.cycle += CycleDelta::ONE;
    }

    // ---- quiescence skipping (DESIGN.md §10) ----

    /// [`Core::quiescent_horizon`] over `mem`, which may be shared: its
    /// wake horizon covers every requester's in-flight traffic, so on a
    /// shared hierarchy a pipeline is only quiescent when no *neighbor*
    /// fill could change shared state it might observe either.
    pub(crate) fn quiescent_horizon(&self, mem: &MemoryHierarchy) -> Option<CycleStamp> {
        if self.finished() {
            return None; // run loop exits; jumping would inflate `cycles`
        }
        let mut horizon: Option<CycleStamp> = None;

        // Commit: a Done ROB head retires this cycle.
        if matches!(self.rob.head(), Some(h) if h.state == RobState::Done) {
            return None;
        }
        // IPC interval trace: would emit if retired crossed the mark.
        // (Unreachable while retired is frozen — the mark is re-armed past
        // `retired` by the first traced step — but stated defensively.)
        if self.trace.enabled() && self.retired >= self.next_ipc_mark {
            return None;
        }
        // Writeback: the earliest completion event is either due or a
        // horizon.
        if let Some(t) = self.events.next_at(self.cycle) {
            if t <= self.cycle {
                return None;
            }
            horizon = min_horizon(horizon, Some(t));
        }
        // Issue: a ready IQ entry could be granted (or, for CIRC-PC, at
        // least advance the S_RV/PTL machinery) — tick normally.
        if self.iq.has_ready() {
            return None;
        }
        // Execute: every pending load's address is ready (see
        // `pending_loads`), so each is blocked in the LSQ (quiet until a
        // store executes, which needs an issue), would start this cycle, or
        // does not resolve, which the next step reports.
        for &(slot, seq) in &self.pending_loads {
            if !matches!(self.load_action(slot, seq), Some((LoadAction::Wait, _))) {
                return None;
            }
        }
        // Dispatch: the front instruction is timed, gated, or would go.
        if let Some(front) = self.decode_q.front() {
            if front.ready_at > self.cycle {
                horizon = min_horizon(horizon, Some(front.ready_at));
            } else {
                let inst = front.front.oracle.inst;
                let op = inst.op;
                let needs_iq = op != Opcode::Nop;
                let blocked = !self.rob.has_space()
                    || (needs_iq && !self.iq.has_space())
                    || (op.is_mem() && !self.lsq.has_space())
                    || inst
                        .dest()
                        .is_some_and(|r| self.rename.free_count(r.class) == 0);
                if !blocked {
                    return None;
                }
            }
        }
        // Fetch: stalled (horizon — capped here even when the wrong path is
        // dead, so a skip window never straddles the stall expiry and the
        // per-cycle mispredict-stall accounting stays exact), idle on a
        // dead wrong path, or it would fetch.
        if self.cycle < self.fetch_stalled_until {
            horizon = min_horizon(horizon, Some(self.fetch_stalled_until));
        } else if !matches!(&self.wrong_path, Some(wp) if wp.dead) {
            let has_source = self.wrong_path.is_some()
                || !self.replay.is_empty()
                || !self.emu_halted;
            if has_source && self.decode_q.len() < self.decode_capacity() {
                return None;
            }
        }
        // Subsystem wake horizons (the WakeHorizon contract).
        horizon = min_horizon(horizon, self.fus.wake_horizon(self.cycle));
        horizon = min_horizon(horizon, mem.wake_horizon(self.cycle));
        horizon = min_horizon(horizon, self.iq.wake_horizon(self.cycle));

        // Nothing will ever wake a fully quiet pipeline: jump to the cycle
        // at which the progress invariant declares it wedged.
        let cap = self.last_retire_cycle + DEADLOCK_LIMIT;
        Some(horizon.unwrap_or(cap).min(cap))
    }

    /// Mirrors the gating of the *first* instruction in
    /// [`dispatch`](Self::dispatch): true iff dispatch would charge an
    /// `iq_stall_cycles` tick this cycle. Only meaningful under the
    /// quiescence predicate (which guarantees the instruction cannot
    /// actually dispatch).
    fn dispatch_iq_blocked(&self) -> bool {
        let Some(front) = self.decode_q.front() else { return false };
        if front.ready_at > self.cycle {
            return false;
        }
        let op = front.front.oracle.inst.op;
        if !self.rob.has_space() {
            return false;
        }
        op != Opcode::Nop && !self.iq.has_space()
    }

    /// Takes a clock jump of `n` cycles whose quiescence the drive loop has
    /// established (the minimum across every driven pipeline's horizon):
    /// replays `n` provably idle cycles in bulk, exactly the bookkeeping
    /// `n` calls to [`step_cycle`](Self::step_cycle) would have done under
    /// the quiescence predicate, with every stage's state unchanged.
    pub(crate) fn apply_skip(&mut self, n: CycleDelta) {
        self.skips_taken += 1;
        self.cycles_skipped += n.get();
        // Dispatch accounting: the gate outcome is stable for the whole
        // window (nothing dispatches, wakes, or frees during it).
        let iq_blocked = self.dispatch_iq_blocked();
        if iq_blocked {
            self.stats.iq_stall_cycles += n.get();
        }
        if self.trace.enabled() {
            // The stall-run tracker transitions only on a change of
            // `blocked`, so one call with the window's stable value is
            // equivalent to n per-cycle calls (episode start/end cycles
            // land identically).
            self.trace_dispatch_stall(iq_blocked);
        }
        // Fetch accounting: past the stall window (the predicate caps
        // skips at `fetch_stalled_until`, so `cycle >= fetch_stalled_until`
        // here means every skipped cycle is too), a dead wrong path charges
        // one mispredict-stall cycle per cycle.
        if self.cycle >= self.fetch_stalled_until
            && matches!(&self.wrong_path, Some(wp) if wp.dead)
        {
            self.stats.mispredict_stall_cycles += n.get();
        }
        // Queue per-cycle bookkeeping (occupancy averages, SWQUE mode
        // residency, REARRANGE promotions).
        self.iq.idle_tick(n);
        self.cycle += n;
    }

    // ---- commit ----

    fn commit(&mut self, mem: &mut MemoryHierarchy) {
        for _ in 0..self.config.width {
            match self.rob.head() {
                Some(h) if h.state == RobState::Done => {}
                _ => break,
            }
            let e = self.rob.pop_head();
            debug_assert!(!e.wp, "wrong-path instruction reached commit");
            if let Some((reg, new, old)) = e.dst {
                self.rename.commit_dst(reg, new, old);
            }
            if let Some(m) = e.oracle.mem {
                if m.is_store {
                    // Stores drain from the store buffer at commit; the
                    // access warms the cache and consumes bandwidth but
                    // never blocks retirement.
                    let _ = mem.access_from(self.requester, m.addr, AccessKind::Store, self.cycle);
                }
                if !self.lsq.pop_head(e.uid) {
                    self.invariant("commit", format!("committed uid {} is not the LSQ head", e.uid));
                    return;
                }
            }
            self.retired += 1;
            self.last_retire_cycle = self.cycle;
        }
    }

    // ---- writeback ----

    fn writeback(&mut self) {
        let mut due = std::mem::take(&mut self.due);
        self.events.take_due(self.cycle, &mut due);
        for &(seq, slot) in &due {
            // A squashed instruction leaves a stale completion event, and
            // its slot may already hold a younger dispatch: the seq tells.
            let Some(entry) = self.rob.resolve_mut(slot, seq) else { continue };
            entry.state = RobState::Done;
            let dst = entry.dst;
            let uid = entry.uid;
            let mispredicted = entry.mispredicted;
            if let Some((_, new, _)) = dst {
                self.rename.set_ready(new);
                self.iq.wakeup(new);
            }
            if mispredicted {
                // The branch resolved: squash its wrong path and redirect
                // fetch to the correct path (the refetched instructions pay
                // the front-end depth before dispatching).
                debug_assert!(
                    self.wrong_path.as_ref().is_none_or(|wp| wp.branch_uid == uid),
                    "resolving a branch that is not the active misprediction"
                );
                self.squash_younger(seq);
                self.wrong_path = None;
                self.fetch_stalled_until = self.fetch_stalled_until.max(self.cycle + CycleDelta::ONE);
                self.last_fetch_line = None;
            }
        }
        self.due = due;
    }

    /// Misprediction recovery: removes every instruction younger than
    /// `seq` from the whole pipeline, unwinding renames in reverse order.
    fn squash_younger(&mut self, seq: u64) {
        // Youngest-first: the rename map unwinds correctly.
        while let Some(e) = self.rob.pop_younger(seq) {
            if let Some((reg, new, old)) = e.dst {
                self.rename.undo_dst(reg, new, old);
            }
            if e.oracle.mem.is_some() && !self.lsq.pop_tail(e.uid) {
                self.invariant("squash", format!("squashed uid {} is not the LSQ tail", e.uid));
            }
            self.stats.wrong_path_squashed += 1;
        }
        // Anything younger still in the front end is wrong-path too.
        self.decode_q.retain(|d| !d.wp);
        self.iq.squash_younger(seq);
        // The squashed slots are reused by the next dispatches.
        self.pending_loads.retain(|&(slot, seq)| self.rob.resolve(slot, seq).is_some());
    }

    // ---- execute (memory scheduling) ----

    fn execute(&mut self, mem: &mut MemoryHierarchy) {
        // Filtered in place: the loads still waiting are compacted to the
        // front of the list, which keeps its buffer.
        let mut pending = std::mem::take(&mut self.pending_loads);
        let mut kept = 0;
        for i in 0..pending.len() {
            let (slot, seq) = pending[i];
            let Some((action, addr)) = self.load_action(slot, seq) else {
                self.invariant(
                    "execute",
                    format!(
                        "pending load (slot {slot}, seq {seq}) is not a live load in the ROB and LSQ"
                    ),
                );
                return;
            };
            match action {
                LoadAction::Wait => {
                    pending[kept] = (slot, seq);
                    kept += 1;
                }
                LoadAction::Forward => {
                    self.stats.loads_forwarded += 1;
                    let done = self.cycle + CycleDelta::new(self.config.mem.l1d.hit_latency);
                    self.schedule(slot, seq, done.max(self.cycle + CycleDelta::ONE));
                }
                LoadAction::Access => {
                    self.stats.loads_accessed += 1;
                    let r = mem.access_from(self.requester, addr, AccessKind::Load, self.cycle);
                    let done = CycleStamp::new(r.done_at);
                    self.schedule(slot, seq, done.max(self.cycle + CycleDelta::ONE));
                }
            }
        }
        pending.truncate(kept);
        self.pending_loads = pending;
    }

    /// What the pending load `(slot, seq)` may do this cycle, with its
    /// address; `None` if the handle is stale or the load has no entry in
    /// the LSQ.
    fn load_action(&self, slot: u64, seq: u64) -> Option<(LoadAction, u64)> {
        let e = self.rob.resolve(slot, seq)?;
        let addr = e.oracle.mem?.addr;
        Some((self.lsq.load_action(e.lsq?, e.uid)?, addr))
    }

    /// Queues the completion of the instruction at ROB handle `(slot, seq)`.
    fn schedule(&mut self, slot: u64, seq: u64, at: CycleStamp) {
        self.events.push(self.cycle, at, seq, slot);
    }

    // ---- issue ----

    fn issue(&mut self) {
        let mut budget =
            IssueBudget::new(self.config.width, self.fus.free_counts(self.cycle));
        let mut grants = std::mem::take(&mut self.grants);
        grants.clear();
        grants.extend_from_slice(self.iq.select(&mut budget));
        for g in &grants {
            let (slot, seq) = (g.payload, g.seq);
            let Some(entry) = self.rob.resolve_mut(slot, seq) else {
                self.invariant("issue", format!("granted slot {slot} does not hold seq {seq}"));
                break;
            };
            entry.state = RobState::Executing;
            let (op, uid, lsq) = (entry.oracle.inst.op, entry.uid, entry.lsq);
            self.fus.acquire(op, self.cycle);
            if op.is_load() {
                // Address generation completes next cycle, the first cycle
                // `execute` sees this load; the memory access is scheduled
                // there once the LSQ permits it.
                self.pending_loads.push((slot, seq));
            } else if op.is_store() {
                // AGU computes the address; the LSQ learns it and younger
                // loads may now disambiguate. The store is then complete
                // from the ROB's point of view (data waits in the store
                // buffer until commit).
                if !lsq.is_some_and(|l| self.lsq.mark_store_executed(l, uid)) {
                    self.invariant("issue", format!("issued store uid {uid} has no LSQ entry"));
                    break;
                }
                self.schedule(slot, seq, self.cycle + CycleDelta::ONE);
            } else {
                self.schedule(slot, seq, self.cycle + CycleDelta::new(op.latency() as u64));
            }
        }
        self.grants = grants;
    }

    // ---- dispatch (rename + allocate) ----

    fn dispatch(&mut self) {
        let mut iq_blocked = false;
        for _ in 0..self.config.width {
            let Some(front) = self.decode_q.front() else { break };
            if front.ready_at > self.cycle {
                break;
            }
            let d = *front;
            let inst = d.front.oracle.inst;
            let op = inst.op;
            let needs_iq = op != Opcode::Nop;
            if !self.rob.has_space() {
                break;
            }
            if needs_iq && !self.iq.has_space() {
                iq_blocked = true;
                break;
            }
            if op.is_mem() && !self.lsq.has_space() {
                break;
            }
            if let Some(dst) = inst.dest() {
                if self.rename.free_count(dst.class) == 0 {
                    break;
                }
            }

            // All resources available: consume the instruction.
            self.decode_q.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;

            let srcs = [
                inst.src1.and_then(|r| self.rename.rename_src(r)),
                inst.src2.and_then(|r| self.rename.rename_src(r)),
            ];
            let dst = match inst.dest() {
                Some(r) => match self.rename.rename_dst(r) {
                    Some((new, old)) => Some((r, new, old)),
                    None => {
                        self.invariant(
                            "dispatch",
                            format!("no free physical register for seq {seq} after free_count check"),
                        );
                        return;
                    }
                },
                None => None,
            };
            let lsq =
                d.front.oracle.mem.map(|m| self.lsq.push(d.front.uid, m.is_store, m.addr, m.size));
            let slot = self.rob.push(RobEntry {
                uid: d.front.uid,
                seq,
                oracle: d.front.oracle,
                state: if needs_iq { RobState::Waiting } else { RobState::Done },
                dst,
                lsq,
                mispredicted: d.mispredicted,
                wp: d.wp,
            });
            if needs_iq
                && self
                    .iq
                    .dispatch(DispatchReq {
                        seq,
                        payload: slot,
                        dst: dst.map(|(_, new, _)| new),
                        srcs,
                        fu: op.fu_class(),
                    })
                    .is_err()
            {
                self.invariant(
                    "dispatch",
                    format!("IQ rejected seq {seq} after has_space reported room"),
                );
                return;
            }
            self.stats.dispatched += 1;
        }
        if iq_blocked {
            self.stats.iq_stall_cycles += 1;
        }
        if self.trace.enabled() {
            self.trace_dispatch_stall(iq_blocked);
        }
    }

    // ---- fetch ----

    /// Maximum instructions buffered in the front end.
    #[expect(clippy::cast_possible_truncation, reason = "the front-end depth is a few cycles")]
    fn decode_capacity(&self) -> usize {
        self.config.width * self.config.frontend_depth as usize
    }

    fn fetch(&mut self, mem: &mut MemoryHierarchy) {
        if self.cycle < self.fetch_stalled_until {
            return;
        }
        if matches!(&self.wrong_path, Some(wp) if wp.dead) {
            // The wrong path ran out; nothing to fetch until resolution.
            self.stats.mispredict_stall_cycles += 1;
            return;
        }
        let mut fetched = 0;
        while fetched < self.config.width && self.decode_q.len() < self.decode_capacity() {
            // Where is the next instruction coming from?
            enum Source {
                WrongPath,
                Replay,
                Oracle,
            }
            let (pc, source) = if let Some(wp) = &self.wrong_path {
                if wp.dead {
                    break;
                }
                (wp.shadow.pc(), Source::WrongPath)
            } else if let Some(f) = self.replay.front() {
                (f.oracle.pc, Source::Replay)
            } else if !self.emu_halted {
                (self.emu.pc(), Source::Oracle)
            } else {
                break;
            };

            // Instruction-cache access, once per line.
            let byte_addr = Program::byte_addr(pc);
            let line = byte_addr / self.config.mem.l1i.line_bytes as u64;
            if Some(line) != self.last_fetch_line {
                let r = mem.access_from(self.requester, byte_addr, AccessKind::IFetch, self.cycle);
                self.last_fetch_line = Some(line);
                if !r.l1_hit {
                    let done = CycleStamp::new(r.done_at);
                    self.fetch_stalled_until = done;
                    self.stats.icache_stall_cycles += (done - self.cycle).get();
                    break;
                }
            }

            // Obtain the instruction.
            let is_wp = matches!(source, Source::WrongPath);
            let front = match source {
                Source::WrongPath => {
                    let Some(wp) = self.wrong_path.as_mut() else {
                        self.invariant(
                            "fetch",
                            "wrong-path fetch source without active wrong-path state".to_string(),
                        );
                        return;
                    };
                    match wp.shadow.step(&self.emu) {
                        Ok(r) if r.inst.op == Opcode::Halt => {
                            wp.dead = true;
                            break;
                        }
                        Ok(r) => {
                            let uid = self.next_uid;
                            self.next_uid += 1;
                            self.stats.wrong_path_fetched += 1;
                            FrontInst { uid, oracle: r }
                        }
                        Err(_) => {
                            // Wrong path ran off the instruction text.
                            wp.dead = true;
                            break;
                        }
                    }
                }
                Source::Replay => {
                    let Some(f) = self.replay.pop_front() else {
                        self.invariant(
                            "fetch",
                            "replay fetch source with an empty replay queue".to_string(),
                        );
                        return;
                    };
                    self.stats.replayed += 1;
                    f
                }
                Source::Oracle => {
                    let retired = match self.emu.step() {
                        Ok(r) => r,
                        Err(e) => {
                            self.invariant("fetch", format!("oracle emulator fault: {e}"));
                            return;
                        }
                    };
                    if retired.inst.op == Opcode::Halt {
                        self.emu_halted = true;
                        break;
                    }
                    let uid = self.next_uid;
                    self.next_uid += 1;
                    FrontInst { uid, oracle: retired }
                }
            };

            // Branch prediction (correct path only; wrong-path control flow
            // follows the shadow emulator's outcomes).
            let mut mispredicted = false;
            let mut end_group = false;
            let op = front.oracle.inst.op;
            let mut prediction = None;
            if op.is_control() {
                if is_wp {
                    if front.oracle.taken() {
                        end_group = true;
                        self.last_fetch_line = None;
                    }
                } else {
                    let kind = match op {
                        Opcode::Jr => BranchKind::IndirectJump,
                        Opcode::J | Opcode::Jal => BranchKind::DirectJump,
                        _ => BranchKind::Conditional,
                    };
                    let pred = self.bp.predict(byte_addr, kind);
                    let outcome = BranchOutcome {
                        taken: front.oracle.taken(),
                        target: Program::byte_addr(front.oracle.next_pc),
                    };
                    mispredicted = self.bp.update(byte_addr, kind, pred, outcome);
                    prediction = Some(pred);
                    if front.oracle.taken() {
                        end_group = true;
                        self.last_fetch_line = None;
                    }
                }
            }

            self.decode_q.push_back(DecodedInst {
                front,
                ready_at: self.cycle + CycleDelta::new(self.config.frontend_depth),
                mispredicted,
                wp: is_wp,
            });
            fetched += 1;

            if mispredicted {
                // Start fetching the predicted (wrong) path; it is squashed
                // when this branch resolves.
                let wrong_pc = match op {
                    // Conditional: the not-taken/taken alternative.
                    Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge => {
                        if front.oracle.taken() {
                            Some(pc + 1)
                        } else {
                            Some(front.oracle.inst.imm as u64)
                        }
                    }
                    // Indirect: whatever stale target the BTB supplied, if
                    // any; a cold BTB gives the front end nowhere to go.
                    Opcode::Jr => prediction
                        .and_then(|p| p.target)
                        .map(|t| t >> 2)
                        .filter(|&t| t != front.oracle.next_pc),
                    _ => None,
                };
                self.wrong_path = Some(match wrong_pc {
                    Some(wpc) => WrongPath {
                        branch_uid: front.uid,
                        shadow: self.emu.shadow(wpc),
                        dead: false,
                    },
                    None => WrongPath {
                        branch_uid: front.uid,
                        shadow: self.emu.shadow(0),
                        dead: true,
                    },
                });
                self.last_fetch_line = None;
                break;
            }
            if end_group {
                break;
            }
        }
    }

    // ---- SWQUE mode switching ----

    fn poll_mode_switch(&mut self, mem: &MemoryHierarchy) {
        let before = self.iq.mode();
        let misses = mem.llc_demand_misses_of(self.requester);
        let switched = self.iq.poll_mode_switch(self.cycle, InstCount::new(self.retired), misses);
        let penalty = self.config.iq.swque.switch_penalty;
        if let Some(response) = switching::mode_switch_response(self.cycle, penalty, switched) {
            self.full_flush();
            self.fetch_stalled_until = response.fetch_stalled_until;
            self.stats.mode_switch_flushes += 1;
            if self.trace.enabled() {
                if let (Some(from), Some(to)) = (before.trace(), self.iq.mode().trace()) {
                    self.trace.record(TraceEvent::ModeSwitch {
                        cycle: self.cycle.get(),
                        retired: self.retired,
                        from,
                        to,
                    });
                }
            }
        }
    }

    /// Emits an [`TraceEvent::IntervalIpc`] sample each time `retired`
    /// crosses an interval boundary (the controller's `interval_insts`, so
    /// the IPC series lines up with the controller's interval series).
    fn trace_interval_ipc(&mut self) {
        if self.retired < self.next_ipc_mark {
            return;
        }
        let (since, start_retired) = self.ipc_window_start;
        let cycles = (self.cycle - since).get().max(1);
        let insts = self.retired.saturating_sub(start_retired);
        self.trace.record(TraceEvent::IntervalIpc {
            cycle: self.cycle.get(),
            retired: self.retired,
            ipc: insts as f64 / cycles as f64,
        });
        self.ipc_window_start = (self.cycle, self.retired);
        let interval = self.config.iq.swque.interval_insts.get().max(1);
        self.next_ipc_mark = self.retired + interval;
    }

    /// Tracks runs of IQ-blocked dispatch cycles, emitting a
    /// [`TraceEvent::DispatchStall`] episode when a run of at least
    /// [`STALL_EPISODE_MIN`] cycles ends.
    fn trace_dispatch_stall(&mut self, blocked: bool) {
        match (blocked, self.stall_run_start) {
            (true, None) => self.stall_run_start = Some(self.cycle),
            (false, Some(start)) => {
                let run = self.cycle - start;
                if run >= STALL_EPISODE_MIN {
                    self.trace.record(TraceEvent::DispatchStall {
                        cycle: start.get(),
                        cycles: run.get(),
                    });
                }
                self.stall_run_start = None;
            }
            _ => {}
        }
    }

    /// Squashes every in-flight instruction and queues them (in program
    /// order) for replay through the front end.
    fn full_flush(&mut self) {
        // Wrong-path instructions are dropped outright (they are refetched
        // never; the mispredicted branch itself is correct-path and will be
        // re-predicted on replay). Everything else replays in order.
        let in_flight = self.rob.drain_in_order();
        self.stats.flushed += in_flight.len() as u64;
        let mut replay: VecDeque<FrontInst> = in_flight
            .into_iter()
            .filter(|e| !e.wp)
            .map(|e| FrontInst { uid: e.uid, oracle: e.oracle })
            .collect();
        replay.extend(self.decode_q.drain(..).filter(|d| !d.wp).map(|d| d.front));
        replay.append(&mut self.replay);
        self.replay = replay;

        self.events.clear();
        self.pending_loads.clear();
        self.iq.flush();
        self.lsq.clear();
        self.fus.reset();
        self.rename.recover();
        self.wrong_path = None;
        self.last_fetch_line = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::{Assembler, Reg};

    /// A pending load whose handle no longer resolves — here the first
    /// instruction's, long committed — is a simulator bug. It is reported
    /// as a structured `execute` violation, and the horizon refuses to
    /// skip past it, rather than the library panicking.
    #[test]
    fn a_lost_pending_load_is_an_execute_violation_not_a_panic() {
        let mut a = Assembler::new();
        a.li(Reg(1), 50);
        a.label("loop");
        a.addi(Reg(1), Reg(1), -1);
        a.bne(Reg(1), Reg::ZERO, "loop");
        a.halt();
        let program = a.finish().unwrap();
        let mut core = Core::new(CoreConfig::tiny(), IqKind::Age, &program);
        for _ in 0..10_000 {
            if core.retired() >= 4 {
                break;
            }
            core.step_cycle();
        }
        assert!(core.retired() >= 4, "the loop retires within 10k cycles");
        assert!(core.violation().is_none() && !core.finished());
        core.pipe.pending_loads.push((0, 0));
        assert_eq!(core.quiescent_horizon(), None, "the next step must run and report");
        let cycle = core.cycle();
        core.step_cycle();
        let v = core.violation().expect("the lost load is reported");
        assert_eq!((v.stage, v.cycle), ("execute", cycle.get()));
        assert!(v.detail.contains("slot 0, seq 0"), "{}", v.detail);
    }
}
