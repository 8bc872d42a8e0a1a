//! The queue-side model: a real `Box<dyn IssueQueue>` paired with a
//! shadow model, the per-kind property checks, and the event alphabet.
//!
//! The shadow model is deliberately trivial — a vector of `(seq, srcs,
//! starve)` in program order — so that every property reduces to a
//! comparison between something the queue claims and something the shadow
//! knows by construction. See the crate docs for the property catalog.
//!
//! # Scope choices that keep the state space closed
//!
//! * Tags come from `{0, 1}` with a canonical-fresh-tag rule: a dispatch
//!   may only name tag 1 once tag 0 has a live waiter, which quotients
//!   away tag-renaming symmetry.
//! * SWQUE harnesses set `flpi_region_frac = 1.0`, making *every* grant a
//!   low-priority grant: the interval FLPI is then exactly `1.0` when any
//!   instruction issued in the interval and `0.0` otherwise, so the only
//!   interval state the dedup key must carry is one bit
//!   (`granted_since_interval`) instead of two unbounded issue counters.
//!   The full FLPI/instability decision logic is checked exhaustively by
//!   [`CtrlHarness`](crate::CtrlHarness), where metrics are direct
//!   alphabet inputs.
//! * Poll events always land exactly on the next interval boundary
//!   (`retired = (k+1) · interval_insts`), so MPKI deltas are `0` or an
//!   unambiguously-high value chosen by the event, never an accumulation.

use swque_core::cycle::{CycleDelta, CycleStamp, InstCount};
use swque_core::replay::Event;
use swque_core::{
    ArchKey, BitSet, CircQueue, DispatchReq, IqConfig, IqKind, IqMode, IssueBudget, IssueQueue,
    RandomQueue, ShiftQueue, Tag,
};
use swque_isa::FuClass;

use crate::explore::Harness;

/// First sequence number the harness assigns (payloads carry the same
/// values). Every seq at or above it is renamed in state keys: a live one
/// to `SEQ_BASE + rank` (rank 0 = oldest), any other to one stale marker;
/// values below it (the zeroed seq of a never-used slot) stay as they are.
pub const SEQ_BASE: u64 = 1000;

/// What a stale seq (left in an invalidated slot) is renamed to.
const STALE_SEQ: u64 = u64::MAX;

/// `--inject` name for [`Injection::CircPcNoCorrect`].
pub const INJECT_CIRC_PC_NO_CORRECT: &str = "circ-pc-no-correct";
/// `--inject` name for [`Injection::ControllerNoStabilize`].
pub const INJECT_CONTROLLER_NO_STABILIZE: &str = "controller-no-stabilize";
/// `--inject` name for [`Injection::AgeYoungestFirst`].
pub const INJECT_AGE_YOUNGEST_FIRST: &str = "age-youngest-first";
/// `--inject` name for [`Injection::ShiftPositionOrder`].
pub const INJECT_SHIFT_POSITION_ORDER: &str = "shift-position-order";

/// A named mutation the harness plants so `scripts/verify.sh` can prove
/// the checker actually detects bugs (red/green gating).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Check a position-ordered [`CircQueue`] (CIRC) as CIRC-PC: the
    /// wrapped range is served first, in the same cycle, instead of
    /// through `S_RV`, so wrapped-region youngsters issue ahead of older
    /// instructions — violates `pc-age-ordered`.
    CircPcNoCorrect,
    /// Run the controller with `stabilize: false`: the instability
    /// counter never trips, so the AGE-mode FLPI threshold is never
    /// lowered — violates `ctrl-instability-reduction`.
    ControllerNoStabilize,
    /// Build AGE or AGE-multiAM via [`RandomQueue::age_youngest_first`]:
    /// each matrix grants its youngest ready member — violates
    /// `age-first` (in AGE-multiAM from capacity 4, where an integer
    /// bucket first holds two entries).
    AgeYoungestFirst,
    /// Build SHIFT via [`ShiftQueue::position_order`]: grants follow slot
    /// positions, which free-list reuse scrambles — violates
    /// `oldest-first`.
    ShiftPositionOrder,
}

impl Injection {
    /// Parses an `--inject` / `inject=` name.
    pub fn parse(name: &str) -> Option<Injection> {
        match name {
            INJECT_CIRC_PC_NO_CORRECT => Some(Injection::CircPcNoCorrect),
            INJECT_CONTROLLER_NO_STABILIZE => Some(Injection::ControllerNoStabilize),
            INJECT_AGE_YOUNGEST_FIRST => Some(Injection::AgeYoungestFirst),
            INJECT_SHIFT_POSITION_ORDER => Some(Injection::ShiftPositionOrder),
            _ => None,
        }
    }

    /// The canonical name (the `inject=` field of a replay).
    pub fn label(&self) -> &'static str {
        match self {
            Injection::CircPcNoCorrect => INJECT_CIRC_PC_NO_CORRECT,
            Injection::ControllerNoStabilize => INJECT_CONTROLLER_NO_STABILIZE,
            Injection::AgeYoungestFirst => INJECT_AGE_YOUNGEST_FIRST,
            Injection::ShiftPositionOrder => INJECT_SHIFT_POSITION_ORDER,
        }
    }

    /// The queue kinds a structural injection is planted in (none for
    /// the controller injection, which applies to the SWQUE kinds and
    /// CTRL).
    pub fn queue_kinds(&self) -> &'static [IqKind] {
        match self {
            Injection::CircPcNoCorrect => &[IqKind::CircPc],
            Injection::AgeYoungestFirst => &[IqKind::Age, IqKind::AgeMulti],
            Injection::ShiftPositionOrder => &[IqKind::Shift],
            Injection::ControllerNoStabilize => &[],
        }
    }
}

/// A property violation: the property name (stable, documented in the
/// crate docs) plus a human-readable account of what went wrong.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable property name (e.g. `pc-age-ordered`).
    pub property: &'static str,
    /// What the queue claimed vs. what the shadow knew.
    pub detail: String,
}

impl Violation {
    fn new(property: &'static str, detail: String) -> Violation {
        Violation { property, detail }
    }
}

/// One shadow instruction: everything the checker needs to predict queue
/// behavior.
#[derive(Debug, Clone, Copy)]
struct ShadowEntry {
    seq: u64,
    srcs: [Option<Tag>; 2],
    /// The age-matrix bucket the queue's steering must have chosen (0
    /// unless the structure holding the entry has several matrices).
    bucket: u8,
    /// Ready-but-not-granted streak across non-exhausted selects, for
    /// `pc-ready-within-bound`. Capped at the bound + 1 so the state
    /// space stays finite.
    starve: u64,
}

impl ShadowEntry {
    fn ready(&self) -> bool {
        self.srcs[0].is_none() && self.srcs[1].is_none()
    }
}

/// A queue under check: the real structure plus the shadow model.
#[derive(Debug)]
pub struct QueueHarness {
    kind: IqKind,
    queue: Box<dyn IssueQueue>,
    capacity: usize,
    width: usize,
    /// Integer age-matrix buckets of the multi-matrix kinds.
    multi_buckets: u8,
    /// Shadow entries in program (= seq) order.
    entries: Vec<ShadowEntry>,
    next_seq: u64,
    /// SWQUE only: interval length of the embedded controller.
    interval: u64,
    /// SWQUE only: mode the queue must adopt at the next flush.
    pending_switch: Option<IqMode>,
    /// SWQUE only: shadow of `SwqueStats::switches`.
    switches: u64,
    /// SWQUE only: completed controller intervals (drives poll totals).
    intervals_done: u64,
    /// SWQUE only: running LLC-miss total fed to polls.
    misses_total: u64,
    /// SWQUE only: did anything issue since the last completed interval?
    /// With `flpi_region_frac = 1.0` this single bit determines the next
    /// interval's FLPI exactly (see module docs).
    granted_since_interval: bool,
    /// The idle probe's forks and key buffers (scratch, not state),
    /// created by the first probe; boxed, so a stored state pays one
    /// word for them.
    probe: Option<Box<ProbeForks>>,
}

/// The idle probe's two queue forks and two key buffers. They live in the
/// harness the explorer applies events to, its scratch copy, so that each
/// probe copies the queue into them in place. They are scratch, not
/// state: a clone starts without them and an in-place copy keeps the
/// destination's, so the stored states never carry them and
/// `QueueHarness::new` (the benchmark's set-up cost) never builds them.
#[derive(Debug)]
struct ProbeForks {
    ticked: Box<dyn IssueQueue>,
    selected: Box<dyn IssueQueue>,
    words_ticked: Vec<u64>,
    words_selected: Vec<u64>,
}

impl Clone for QueueHarness {
    fn clone(&self) -> QueueHarness {
        QueueHarness {
            queue: self.queue.clone(),
            entries: self.entries.clone(),
            probe: None,
            ..*self
        }
    }

    /// Copies the queue in place (`Box<dyn IssueQueue>::clone_from` goes
    /// through `QueueFork::clone_into`) and the shadow through
    /// `Vec::clone_from`, so both keep their buffers; the probe forks
    /// stay as they are.
    fn clone_from(&mut self, src: &QueueHarness) {
        let QueueHarness {
            kind,
            queue,
            capacity,
            width,
            multi_buckets,
            entries,
            next_seq,
            interval,
            pending_switch,
            switches,
            intervals_done,
            misses_total,
            granted_since_interval,
            probe: _,
        } = src;
        self.kind = *kind;
        self.queue.clone_from(queue);
        self.capacity = *capacity;
        self.width = *width;
        self.multi_buckets = *multi_buckets;
        self.entries.clone_from(entries);
        self.next_seq = *next_seq;
        self.interval = *interval;
        self.pending_switch = *pending_switch;
        self.switches = *switches;
        self.intervals_done = *intervals_done;
        self.misses_total = *misses_total;
        self.granted_since_interval = *granted_since_interval;
    }
}

fn is_swque(kind: IqKind) -> bool {
    matches!(kind, IqKind::Swque | IqKind::SwqueMulti)
}

/// Single-cycle-select kinds: every ready entry is issuable the cycle it
/// becomes ready, so `ready-within-1` applies. CIRC-PC (and SWQUE, which
/// embeds it) instead gets the weaker `pc-ready-within-bound` because of
/// the two-cycle RV path.
fn single_cycle(kind: IqKind) -> bool {
    !matches!(kind, IqKind::CircPc | IqKind::Swque | IqKind::SwqueMulti)
}

/// Kinds whose `has_space` is free-list-based and therefore truthful the
/// moment the queue is empty. Circular-allocation kinds legitimately
/// report "no space" on an empty queue until the head pointer catches up,
/// so they are excluded from the `is_empty ⇒ has_space` direction.
fn free_list(kind: IqKind) -> bool {
    matches!(kind, IqKind::Shift | IqKind::Rand | IqKind::Age | IqKind::AgeMulti)
}

impl QueueHarness {
    /// Builds a harness for `kind` at the given small scope.
    ///
    /// Fails on nonsensical combinations (capacity < 2 or past
    /// [`BitSet::MAX_CAPACITY`], zero width, or an injection that does not
    /// apply to `kind`).
    pub fn new(
        kind: IqKind,
        capacity: usize,
        width: usize,
        inject: Option<Injection>,
    ) -> Result<QueueHarness, String> {
        if !(2..=BitSet::MAX_CAPACITY).contains(&capacity) {
            return Err(format!("capacity must be 2 to {}, got {capacity}", BitSet::MAX_CAPACITY));
        }
        if width == 0 {
            return Err("issue width must be at least 1".to_string());
        }
        let mut config = IqConfig {
            capacity,
            issue_width: width,
            // Make every grant low-priority so SWQUE interval FLPI is a
            // pure function of the granted_since_interval bit.
            flpi_region_frac: 1.0,
            ..IqConfig::default()
        };
        if let Some(inject) = inject {
            let targets = inject.queue_kinds();
            if !targets.is_empty() && !targets.contains(&kind) {
                let labels: Vec<&str> = targets.iter().map(IqKind::label).collect();
                return Err(format!(
                    "injection {} applies to {} only, not {}",
                    inject.label(),
                    labels.join(" and "),
                    kind.label()
                ));
            }
        }
        let queue: Box<dyn IssueQueue> = match inject {
            None => kind.build(&config),
            Some(Injection::CircPcNoCorrect) => Box::new(CircQueue::new(&config)),
            Some(Injection::AgeYoungestFirst) => {
                Box::new(RandomQueue::age_youngest_first(&config, kind == IqKind::AgeMulti))
            }
            Some(Injection::ShiftPositionOrder) => Box::new(ShiftQueue::position_order(&config)),
            Some(Injection::ControllerNoStabilize) => {
                if !is_swque(kind) {
                    return Err(format!(
                        "injection {INJECT_CONTROLLER_NO_STABILIZE} applies to SWQUE kinds or \
                         CTRL, not {}",
                        kind.label()
                    ));
                }
                config.swque.stabilize = false;
                kind.build(&config)
            }
        };
        let interval = config.swque.interval_insts.get();
        Ok(QueueHarness {
            kind,
            queue,
            capacity,
            width,
            multi_buckets: config.buckets.int,
            entries: Vec::new(),
            next_seq: SEQ_BASE,
            interval,
            pending_switch: None,
            switches: 0,
            intervals_done: 0,
            misses_total: 0,
            granted_since_interval: false,
            probe: None,
        })
    }

    /// The kind under check.
    pub fn kind(&self) -> IqKind {
        self.kind
    }

    /// The age-matrix buckets an integer op (every harness op is
    /// `IntAlu`) can be steered to in the structure now holding the
    /// entries: 0 without an age matrix, 1 for AGE and SWQUE's AGE mode,
    /// the integer buckets for AGE-multiAM and SWQUE-multiAM's AGE mode.
    fn age_buckets(&self) -> u8 {
        let age = self.queue.mode() == IqMode::Age;
        match self.kind {
            IqKind::Age => 1,
            IqKind::Swque if age => 1,
            IqKind::AgeMulti => self.multi_buckets,
            IqKind::SwqueMulti if age => self.multi_buckets,
            _ => 0,
        }
    }

    fn tag_live(&self, tag: Tag) -> bool {
        self.entries.iter().any(|e| e.srcs.contains(&Some(tag)))
    }

    /// Invariants that must hold after *every* event.
    fn check_shape(&self) -> Result<(), Violation> {
        let len = self.queue.len();
        if len != self.entries.len() {
            return Err(Violation::new(
                "len-conserved",
                format!("queue len {len} but shadow holds {}", self.entries.len()),
            ));
        }
        if len > self.capacity {
            return Err(Violation::new(
                "len-conserved",
                format!("queue len {len} exceeds capacity {}", self.capacity),
            ));
        }
        if len == self.capacity && self.queue.has_space() {
            return Err(Violation::new(
                "space-consistent",
                format!("has_space() at full occupancy {len}/{}", self.capacity),
            ));
        }
        if free_list(self.kind) && self.queue.is_empty() && !self.queue.has_space() {
            return Err(Violation::new(
                "space-consistent",
                "empty free-list queue reports no space".to_string(),
            ));
        }
        let shadow_ready = self.entries.iter().any(ShadowEntry::ready);
        if shadow_ready && !self.queue.has_ready() {
            return Err(Violation::new(
                "ready-agrees",
                "shadow has a ready entry but has_ready() is false".to_string(),
            ));
        }
        if !shadow_ready && self.queue.has_ready() {
            return Err(Violation::new(
                "ready-agrees",
                "has_ready() is true but no shadow entry is ready".to_string(),
            ));
        }
        Ok(())
    }

    /// The renaming of [`SEQ_BASE`] over the shadow `entries`: live seqs
    /// become `SEQ_BASE + rank` by their position in the (seq-ordered)
    /// shadow, others ≥ `SEQ_BASE` become [`STALE_SEQ`], smaller values
    /// stay.
    fn rename(entries: &[ShadowEntry], seq: u64) -> u64 {
        if seq < SEQ_BASE {
            return seq;
        }
        match entries.binary_search_by_key(&seq, |e| e.seq) {
            Ok(rank) => SEQ_BASE + rank as u64,
            Err(_) => STALE_SEQ,
        }
    }

    /// `idle_tick(n)` must be observably identical to `n` empty selects
    /// — architectural state (the exact key words, which leave out reused
    /// scratch allocations) *and* statistics — and those empty selects
    /// must grant nothing. A pure probe on two forks of the queue: one
    /// selects once and is compared with `idle_tick(1)` on the other,
    /// then selects twice more and is compared with `idle_tick(3)` on a
    /// fresh copy.
    fn idle_probe(&mut self) -> Result<(), Violation> {
        if self.queue.has_ready() {
            return Ok(());
        }
        let forks = self.probe.get_or_insert_with(|| {
            let (ticked, selected) = (self.queue.clone(), self.queue.clone());
            Box::new(ProbeForks { ticked, selected, words_ticked: vec![], words_selected: vec![] })
        });
        forks.selected.clone_from(&self.queue);
        let entries = &self.entries;
        let rename = |seq| Self::rename(entries, seq);
        for (n, selects) in [(1u64, 1), (3, 2)] {
            forks.ticked.clone_from(&self.queue);
            forks.ticked.idle_tick(CycleDelta::new(n));
            for _ in 0..selects {
                let mut budget = IssueBudget::new(self.width, [self.width; 4]);
                let grants = forks.selected.select(&mut budget);
                if !grants.is_empty() {
                    return Err(Violation::new(
                        "no-ready-no-grant",
                        format!("select granted {} with has_ready() false", grants.len()),
                    ));
                }
            }
            forks.ticked.arch_key(&mut ArchKey::new(&mut forks.words_ticked, &rename));
            forks.selected.arch_key(&mut ArchKey::new(&mut forks.words_selected, &rename));
            if forks.words_ticked != forks.words_selected {
                return Err(Violation::new(
                    "idle-equivalence",
                    format!("idle_tick({n}) architecturally diverges from {n} empty selects"),
                ));
            }
            let stats = (forks.ticked.stats(), forks.ticked.swque_stats());
            let expected = (forks.selected.stats(), forks.selected.swque_stats());
            if stats != expected {
                return Err(Violation::new(
                    "idle-equivalence",
                    format!(
                        "idle_tick({n}) statistics {stats:?} diverge from {n} empty selects \
                         {expected:?}"
                    ),
                ));
            }
        }
        Ok(())
    }

    fn do_dispatch(&mut self, srcs: [Option<Tag>; 2]) -> Result<(), Violation> {
        if !self.queue.has_space() {
            return Ok(()); // precondition unmet: no-op, not a violation
        }
        let seq = self.next_seq;
        let req = DispatchReq::new(seq, seq, None, srcs, FuClass::IntAlu);
        if self.queue.dispatch(req).is_err() {
            return Err(Violation::new(
                "space-consistent",
                format!("has_space() true but dispatch of seq {seq} failed"),
            ));
        }
        self.next_seq += 1;
        // The steering rule: the least-loaded bucket, the lowest on ties.
        let load = |b: &u8| self.entries.iter().filter(|e| e.bucket == *b).count();
        let bucket = (0..self.age_buckets()).min_by_key(load).unwrap_or(0);
        self.entries.push(ShadowEntry { seq, srcs, bucket, starve: 0 });
        Ok(())
    }

    fn do_wakeup(&mut self, tag: Tag) {
        self.queue.wakeup(tag);
        for entry in &mut self.entries {
            for src in &mut entry.srcs {
                if *src == Some(tag) {
                    *src = None;
                }
            }
        }
    }

    fn do_select(&mut self, width: usize) -> Result<(), Violation> {
        let had_ready = self.queue.has_ready();
        let mode = self.queue.mode();
        let pre_ready: Vec<u64> =
            self.entries.iter().filter(|e| e.ready()).map(|e| e.seq).collect();
        // What the age matrices nominate, bucket by bucket: each bucket's
        // oldest ready member, as many as the width admits.
        let nominees: Vec<u64> = (0..self.age_buckets())
            .filter_map(|b| {
                self.entries.iter().filter(|e| e.bucket == b && e.ready()).map(|e| e.seq).min()
            })
            .take(width)
            .collect();
        let mut budget = IssueBudget::new(width, [width; 4]);
        let grants = self.queue.select(&mut budget);

        if grants.len() > width {
            return Err(Violation::new(
                "budget-bound",
                format!("granted {} with width {width}", grants.len()),
            ));
        }
        if !had_ready && !grants.is_empty() {
            return Err(Violation::new(
                "no-ready-no-grant",
                format!("granted {} with has_ready() false", grants.len()),
            ));
        }
        let mut granted: Vec<u64> = Vec::with_capacity(grants.len());
        for g in grants {
            if granted.contains(&g.seq) {
                return Err(Violation::new(
                    "grant-ready",
                    format!("seq {} granted twice in one select", g.seq),
                ));
            }
            if !pre_ready.contains(&g.seq) {
                return Err(Violation::new(
                    "grant-ready",
                    format!("granted seq {} which was not a ready entry", g.seq),
                ));
            }
            granted.push(g.seq);
        }

        // Age-ordering family, per kind.
        let ordered_kinds = matches!(self.kind, IqKind::Shift | IqKind::CircPpri);
        if ordered_kinds
            || self.kind == IqKind::CircPc
            || (is_swque(self.kind) && mode == IqMode::CircPc)
        {
            // CIRC-PC: the priority-corrected single-cycle stream must be
            // age-ordered; RV-path grants (two_cycle) ride on top.
            let mut last: Option<u64> = None;
            for g in grants.iter().filter(|g| !g.two_cycle) {
                if let Some(prev) = last {
                    if g.seq <= prev {
                        return Err(Violation::new(
                            if ordered_kinds { "oldest-first" } else { "pc-age-ordered" },
                            format!("granted seq {} after younger seq {prev}", g.seq),
                        ));
                    }
                }
                last = Some(g.seq);
            }
        }
        if ordered_kinds {
            // Stronger: the grants are exactly the oldest ready entries.
            let max_granted = granted.iter().max().copied();
            let min_left = pre_ready.iter().filter(|s| !granted.contains(s)).min().copied();
            if let (Some(hi), Some(lo)) = (max_granted, min_left) {
                if hi > lo {
                    return Err(Violation::new(
                        "oldest-first",
                        format!("granted seq {hi} while older ready seq {lo} was passed over"),
                    ));
                }
            }
        }
        // Every harness op uses the same FU class, so the matrices'
        // grants lead the stream.
        if !granted.starts_with(&nominees) {
            return Err(Violation::new(
                "age-first",
                format!(
                    "grants {granted:?} do not lead with each bucket's oldest ready seq \
                     {nominees:?}"
                ),
            ));
        }

        // Liveness.
        let exhausted = budget.exhausted();
        if single_cycle(self.kind) && !exhausted {
            if let Some(seq) = pre_ready.iter().find(|s| !granted.contains(s)) {
                return Err(Violation::new(
                    "ready-within-1",
                    format!("budget left but ready seq {seq} was not granted"),
                ));
            }
        }
        let starve_bound = (self.capacity as u64) + 2;
        self.entries.retain(|e| !granted.contains(&e.seq));
        if !single_cycle(self.kind) && !exhausted {
            for entry in &mut self.entries {
                if entry.ready() && pre_ready.contains(&entry.seq) {
                    entry.starve = (entry.starve + 1).min(starve_bound + 1);
                }
            }
            if let Some(entry) = self.entries.iter().find(|e| e.starve > starve_bound) {
                return Err(Violation::new(
                    "pc-ready-within-bound",
                    format!(
                        "seq {} stayed ready through {} non-exhausted selects (bound {})",
                        entry.seq, entry.starve, starve_bound
                    ),
                ));
            }
        }
        if !granted.is_empty() {
            self.granted_since_interval = true;
        }
        Ok(())
    }

    fn do_squash(&mut self, seq: u64) {
        self.queue.squash_younger(seq);
        self.entries.retain(|e| e.seq <= seq);
    }

    fn do_flush(&mut self) -> Result<(), Violation> {
        let pending = self.pending_switch.take();
        self.queue.flush();
        self.entries.clear();
        if let Some(stats) = self.queue.swque_stats() {
            let expected = self.switches + u64::from(pending.is_some());
            if stats.switches != expected {
                return Err(Violation::new(
                    "swque-switch-once",
                    format!(
                        "flush with pending switch {pending:?}: switches counter {} (expected \
                         {expected})",
                        stats.switches
                    ),
                ));
            }
            self.switches = expected;
            if let Some(target) = pending {
                if self.queue.mode() != target {
                    return Err(Violation::new(
                        "swque-switch-once",
                        format!(
                            "flush was to adopt {target:?} but queue is in {:?}",
                            self.queue.mode()
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn do_poll(&mut self, retired: u64, misses: u64) -> Result<(), Violation> {
        let mode_before = self.queue.mode();
        // The harness has no clock: the interval ordinal stamps the trace.
        let at = CycleStamp::new(self.intervals_done);
        let wants = self.queue.poll_mode_switch(at, InstCount::new(retired), misses);
        if !is_swque(self.kind) {
            if wants {
                return Err(Violation::new(
                    "swque-switch-once",
                    "fixed-mode queue requested a mode switch".to_string(),
                ));
            }
            return Ok(());
        }
        if self.queue.mode() != mode_before {
            return Err(Violation::new(
                "swque-switch-once",
                format!(
                    "poll changed the effective mode {mode_before:?} -> {:?} without a flush",
                    self.queue.mode()
                ),
            ));
        }
        match self.pending_switch {
            Some(_) => {
                if !wants {
                    return Err(Violation::new(
                        "swque-switch-once",
                        "pending switch stopped being requested before the flush".to_string(),
                    ));
                }
                // Waiting poll: the queue ignored the totals, so the
                // interval bookkeeping stays put.
            }
            None => {
                // This poll landed on an interval boundary by construction.
                self.intervals_done += 1;
                self.misses_total = misses;
                self.granted_since_interval = false;
                if wants {
                    if mode_before == IqMode::Fixed {
                        return Err(Violation::new(
                            "swque-switch-once",
                            "switch requested from Fixed mode".to_string(),
                        ));
                    }
                    let target = match mode_before {
                        IqMode::Age => IqMode::CircPc,
                        _ => IqMode::Age,
                    };
                    self.pending_switch = Some(target);
                }
            }
        }
        Ok(())
    }

    /// The next interval-boundary retired total for poll events.
    fn next_poll_retired(&self) -> u64 {
        (self.intervals_done + 1) * self.interval
    }
}

impl Harness for QueueHarness {
    fn enabled_events(&self) -> Vec<Event> {
        let mut events = Vec::new();
        if self.queue.has_space() {
            events.push(Event::Dispatch { srcs: [None, None] });
            events.push(Event::Dispatch { srcs: [Some(0), None] });
            if self.tag_live(0) {
                // Canonical fresh-tag rule: tag 1 may appear only once
                // tag 0 is in use (symmetry reduction over tag renaming).
                events.push(Event::Dispatch { srcs: [Some(1), None] });
                events.push(Event::Dispatch { srcs: [Some(0), Some(1)] });
            }
        }
        for tag in [0, 1] {
            if self.tag_live(tag) {
                events.push(Event::Wakeup(tag));
            }
        }
        events.push(Event::Select { width: 1 });
        if self.width > 1 {
            events.push(Event::Select { width: self.width });
        }
        if self.entries.len() >= 2 {
            let oldest = self.entries[0].seq;
            let mid = self.entries[self.entries.len() / 2].seq;
            events.push(Event::SquashYounger(oldest));
            if mid != oldest {
                events.push(Event::SquashYounger(mid));
            }
        }
        if !self.entries.is_empty() || self.pending_switch.is_some() {
            events.push(Event::Flush);
        }
        if is_swque(self.kind) {
            let retired = self.next_poll_retired();
            events.push(Event::Poll { retired, misses: self.misses_total });
            if self.pending_switch.is_none() {
                // A high-MPKI interval: +100 misses over 10k insts = MPKI 10.
                events.push(Event::Poll { retired, misses: self.misses_total + 100 });
            }
        }
        events
    }

    fn apply(&mut self, event: Event) -> Result<(), Violation> {
        match event {
            Event::Dispatch { srcs } => self.do_dispatch(srcs)?,
            Event::Wakeup(tag) => self.do_wakeup(tag),
            Event::Select { width } => self.do_select(width)?,
            Event::SquashYounger(seq) => self.do_squash(seq),
            Event::Flush => self.do_flush()?,
            Event::Poll { retired, misses } => self.do_poll(retired, misses)?,
            Event::IdleTick(cycles) => {
                if !self.queue.has_ready() {
                    self.queue.idle_tick(CycleDelta::new(cycles));
                }
            }
            Event::Interval { .. } | Event::Reset(_) => {
                return Err(Violation::new(
                    "replay-target",
                    format!("controller event {event} sent to a queue harness"),
                ));
            }
        }
        self.check_shape()?;
        self.idle_probe()
    }

    fn state_key(&self, words: &mut Vec<u64>) {
        let rename = |seq| Self::rename(&self.entries, seq);
        let mut key = ArchKey::new(words, &rename);
        self.queue.arch_key(&mut key);
        // The shadow, by rank: its seqs are implied by the renaming.
        key.push_usize(self.entries.len());
        for entry in &self.entries {
            key.push_opt(entry.srcs[0]);
            key.push_opt(entry.srcs[1]);
            key.push(u64::from(entry.bucket));
            key.push(entry.starve);
        }
        key.push_opt(self.pending_switch.map(|mode| mode as u16));
        key.push_bool(self.granted_since_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::queue_depth;

    #[test]
    fn injections_parse_and_label_round_trip() {
        for inj in [
            Injection::CircPcNoCorrect,
            Injection::ControllerNoStabilize,
            Injection::AgeYoungestFirst,
            Injection::ShiftPositionOrder,
        ] {
            assert_eq!(Injection::parse(inj.label()), Some(inj));
        }
        assert_eq!(Injection::parse("no-such-bug"), None);
    }

    #[test]
    fn injection_kind_mismatch_is_rejected() {
        assert!(QueueHarness::new(IqKind::Age, 4, 2, Some(Injection::CircPcNoCorrect)).is_err());
        assert!(
            QueueHarness::new(IqKind::Circ, 4, 2, Some(Injection::ControllerNoStabilize)).is_err()
        );
        assert!(QueueHarness::new(IqKind::CircPc, 4, 2, Some(Injection::CircPcNoCorrect)).is_ok());
        assert!(QueueHarness::new(IqKind::Swque, 3, 2, Some(Injection::AgeYoungestFirst)).is_err());
        assert!(
            QueueHarness::new(IqKind::AgeMulti, 4, 2, Some(Injection::AgeYoungestFirst)).is_ok()
        );
        assert!(QueueHarness::new(IqKind::Rand, 3, 2, Some(Injection::ShiftPositionOrder)).is_err());
    }

    #[test]
    fn capacities_outside_the_bit_planes_are_rejected() {
        for capacity in [1, BitSet::MAX_CAPACITY + 1] {
            let err = QueueHarness::new(IqKind::Age, capacity, 2, None).unwrap_err();
            assert_eq!(err, format!("capacity must be 2 to 256, got {capacity}"));
        }
        assert!(QueueHarness::new(IqKind::Age, BitSet::MAX_CAPACITY, 2, None).is_ok());
    }

    #[test]
    fn dispatch_select_wakeup_cycle_stays_clean_on_every_kind() {
        for kind in IqKind::ALL {
            let mut h = QueueHarness::new(kind, 3, 2, None).unwrap();
            let script = [
                Event::Dispatch { srcs: [None, None] },
                Event::Dispatch { srcs: [Some(0), None] },
                Event::Select { width: 2 },
                Event::Wakeup(0),
                Event::Select { width: 2 },
                Event::Select { width: 1 },
                Event::Flush,
            ];
            for event in script {
                if let Err(v) = h.apply(event) {
                    panic!("{}: {} — {}", kind.label(), v.property, v.detail);
                }
            }
        }
    }

    #[test]
    fn squash_keeps_only_older_entries() {
        let mut h = QueueHarness::new(IqKind::Shift, 4, 2, None).unwrap();
        h.apply(Event::Dispatch { srcs: [Some(0), None] }).unwrap();
        h.apply(Event::Dispatch { srcs: [Some(0), None] }).unwrap();
        h.apply(Event::Dispatch { srcs: [Some(0), None] }).unwrap();
        h.apply(Event::SquashYounger(SEQ_BASE)).unwrap();
        assert_eq!(h.entries.len(), 1);
        assert_eq!(h.entries[0].seq, SEQ_BASE);
    }

    #[test]
    fn state_key_ignores_statistics_noise() {
        let mut a = QueueHarness::new(IqKind::Circ, 3, 2, None).unwrap();
        let mut b = QueueHarness::new(IqKind::Circ, 3, 2, None).unwrap();
        // Same architectural state, different stats history (extra empty
        // selects on b).
        a.apply(Event::Dispatch { srcs: [Some(0), None] }).unwrap();
        b.apply(Event::Select { width: 1 }).unwrap();
        b.apply(Event::Select { width: 1 }).unwrap();
        b.apply(Event::Dispatch { srcs: [Some(0), None] }).unwrap();
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        a.state_key(&mut ka);
        b.state_key(&mut kb);
        assert_eq!(ka, kb);
    }

    #[test]
    fn no_correction_injection_violates_pc_age_ordering() {
        // The uncorrected CIRC-PC leaves the wrapped region unmasked, so
        // once the region wraps, a young wrapped entry can issue ahead of
        // an older unwrapped one. Let the explorer find the interleaving.
        let root =
            QueueHarness::new(IqKind::CircPc, 3, 2, Some(Injection::CircPcNoCorrect)).unwrap();
        let outcome = crate::explore::explore(&root, 10);
        let v = outcome.violation.expect("injected queue should violate a property");
        assert_eq!(v.property, "pc-age-ordered", "detail: {}", v.detail);
    }

    #[test]
    fn youngest_first_injection_violates_age_first() {
        // Two ready entries and a one-wide select suffice: the planted
        // matrix grants the younger one.
        let root = QueueHarness::new(IqKind::Age, 3, 2, Some(Injection::AgeYoungestFirst)).unwrap();
        let outcome = crate::explore::explore(&root, queue_depth(IqKind::Age));
        let v = outcome.violation.expect("injected queue should violate a property");
        assert_eq!(v.property, "age-first", "detail: {}", v.detail);
    }

    #[test]
    fn youngest_first_injection_violates_age_first_in_age_multi_am() {
        // Three integer buckets: a bucket first holds two entries, and so
        // can prefer the younger, once four are queued.
        let inject = Some(Injection::AgeYoungestFirst);
        let root = QueueHarness::new(IqKind::AgeMulti, 3, 2, inject).unwrap();
        let outcome = crate::explore::explore(&root, queue_depth(IqKind::AgeMulti));
        assert!(outcome.violation.is_none() && outcome.closed(), "not observable at capacity 3");
        let root = QueueHarness::new(IqKind::AgeMulti, 4, 2, inject).unwrap();
        let outcome = crate::explore::explore(&root, queue_depth(IqKind::AgeMulti));
        let v = outcome.violation.expect("injected queue should violate a property");
        assert_eq!(v.property, "age-first", "detail: {}", v.detail);
    }

    #[test]
    fn position_order_injection_violates_oldest_first() {
        // Slot order departs from age order only after an issue frees a
        // low slot for a younger dispatch.
        let root =
            QueueHarness::new(IqKind::Shift, 3, 2, Some(Injection::ShiftPositionOrder)).unwrap();
        let outcome = crate::explore::explore(&root, queue_depth(IqKind::Shift));
        let v = outcome.violation.expect("injected queue should violate a property");
        assert_eq!(v.property, "oldest-first", "detail: {}", v.detail);
    }
}
