//! Queue-level differential oracle for the bitset wakeup/select rewrite.
//!
//! `swque-core`'s hot paths (wakeup broadcast, select scans, oldest-ready
//! resolution) run on packed `u64` bit planes and dispatch-order seqs. This
//! test proves the rewrite is *cycle-exact* against the scalar semantics it
//! replaced: for every rewired organization, a from-scratch scalar
//! reference model — per-slot CAM-scan wakeup, per-position select loops,
//! explicit boolean age matrices, SHIFT's compacting entry vector, exactly
//! the shape of the pre-rewrite code — is driven through
//! the same random dispatch/wakeup/select/squash/flush sequence as the real
//! queue, and the two must produce identical grant streams (payload, seq,
//! fu, rank, two-cycle flag, *order*) and identical occupancy/space
//! observables after every single operation.
//!
//! The module-level oracle (`ScalarSlotArray` in the crate) already pins
//! the slot array; this test pins the *composition* — the plane-combining
//! select scans in SHIFT/CIRC/CIRC-PPRI/CIRC-PC/RAND/AGE/AGE-multiAM/
//! REARRANGE. End-to-end cycle counts are additionally pinned by
//! `swque-cpu`'s `golden_cycles` test.

use std::collections::BTreeMap;

use swque_core::{
    BucketSpec, DispatchReq, Grant, IqConfig, IqKind, IssueBudget, IssueQueue, RearrangingQueue,
    Tag,
};
use swque_isa::FuClass;
use swque_rng::prop::{check, Gen};

// ---------------------------------------------------------------------------
// Scalar reference substrate: per-slot storage with CAM-scan wakeup.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct RefSlot {
    valid: bool,
    seq: u64,
    payload: u64,
    dst: Option<Tag>,
    srcs: [Option<Tag>; 2],
    fu: FuClass,
    reverse: bool,
    pending_rv: bool,
    bucket: u8,
}

const EMPTY: RefSlot = RefSlot {
    valid: false,
    seq: 0,
    payload: 0,
    dst: None,
    srcs: [None, None],
    fu: FuClass::IntAlu,
    reverse: false,
    pending_rv: false,
    bucket: 0,
};

impl RefSlot {
    fn ready(&self) -> bool {
        self.valid && self.srcs[0].is_none() && self.srcs[1].is_none()
    }
}

struct RefSlots {
    slots: Vec<RefSlot>,
    len: usize,
}

impl RefSlots {
    fn new(capacity: usize) -> RefSlots {
        RefSlots { slots: vec![EMPTY; capacity], len: 0 }
    }

    fn insert(&mut self, pos: usize, req: DispatchReq, reverse: bool, bucket: u8) {
        assert!(!self.slots[pos].valid);
        self.slots[pos] = RefSlot {
            valid: true,
            seq: req.seq,
            payload: req.payload,
            dst: req.dst,
            srcs: req.srcs,
            fu: req.fu,
            reverse,
            pending_rv: false,
            bucket,
        };
        self.len += 1;
    }

    fn remove(&mut self, pos: usize) {
        assert!(self.slots[pos].valid);
        self.slots[pos].valid = false;
        self.slots[pos].pending_rv = false;
        self.slots[pos].reverse = false;
        self.len -= 1;
    }

    /// The scalar CAM broadcast: every slot compares both sources.
    fn wakeup(&mut self, tag: Tag) {
        for slot in &mut self.slots {
            if !slot.valid {
                continue;
            }
            for src in &mut slot.srcs {
                if *src == Some(tag) {
                    *src = None;
                }
            }
        }
    }

    fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    fn first_free(&self) -> Option<usize> {
        self.slots.iter().position(|s| !s.valid)
    }

    fn grant(&mut self, pos: usize, rank: usize, two_cycle: bool) -> Grant {
        let s = self.slots[pos];
        self.remove(pos);
        Grant { payload: s.payload, seq: s.seq, dst: s.dst, fu: s.fu, rank, two_cycle }
    }
}

/// Explicit boolean age matrix (the paper's figure, literally).
struct RefAgeMatrix {
    older: Vec<Vec<bool>>,
    valid: Vec<bool>,
}

impl RefAgeMatrix {
    fn new(capacity: usize) -> RefAgeMatrix {
        RefAgeMatrix { older: vec![vec![false; capacity]; capacity], valid: vec![false; capacity] }
    }

    fn allocate(&mut self, i: usize) {
        for j in 0..self.valid.len() {
            self.older[i][j] = self.valid[j];
        }
        for r in 0..self.valid.len() {
            if r != i {
                self.older[r][i] = false;
            }
        }
        self.valid[i] = true;
    }

    fn deallocate(&mut self, i: usize) {
        for row in &mut self.older {
            row[i] = false;
        }
        self.valid[i] = false;
    }

    fn clear(&mut self) {
        for row in &mut self.older {
            row.fill(false);
        }
        self.valid.fill(false);
    }

    fn oldest_ready(&self, req: &[bool]) -> Option<usize> {
        (0..self.valid.len()).find(|&i| {
            req[i]
                && self.valid[i]
                && (0..self.valid.len()).all(|j| !(self.older[i][j] && req[j] && self.valid[j]))
        })
    }
}

// ---------------------------------------------------------------------------
// Scalar reference queues: the pre-rewrite select loops, verbatim shape.
// ---------------------------------------------------------------------------

/// The operations a reference model mirrors; grants are the ground truth.
trait RefQueue {
    fn has_space(&self) -> bool;
    fn len(&self) -> usize;
    fn dispatch(&mut self, req: DispatchReq) -> bool;
    fn wakeup(&mut self, tag: Tag);
    fn select(&mut self, budget: &mut IssueBudget) -> Vec<Grant>;
    fn flush(&mut self);
    fn squash_younger(&mut self, seq: u64);
}

/// SHIFT as a compacting vector of entries, oldest first, each with its
/// own source-ready flags: a broadcast compares every entry's tags, and a
/// select visits entries until the budget runs out, closing the holes.
struct RefShift {
    entries: Vec<(DispatchReq, [bool; 2])>,
    capacity: usize,
}

impl RefQueue for RefShift {
    fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn dispatch(&mut self, req: DispatchReq) -> bool {
        if !self.has_space() {
            return false;
        }
        self.entries.push((req, [req.srcs[0].is_none(), req.srcs[1].is_none()]));
        true
    }

    fn wakeup(&mut self, tag: Tag) {
        for (req, ready) in &mut self.entries {
            for (i, src) in req.srcs.iter().enumerate() {
                ready[i] |= *src == Some(tag);
            }
        }
    }

    fn select(&mut self, budget: &mut IssueBudget) -> Vec<Grant> {
        let mut grants = Vec::new();
        let mut kept = Vec::new();
        for (rank, (req, ready)) in self.entries.drain(..).enumerate() {
            if !budget.exhausted() && ready == [true; 2] && budget.try_take(req.fu) {
                grants.push(Grant {
                    payload: req.payload,
                    seq: req.seq,
                    dst: req.dst,
                    fu: req.fu,
                    rank,
                    two_cycle: false,
                });
            } else {
                kept.push((req, ready));
            }
        }
        self.entries = kept;
        grants
    }

    fn flush(&mut self) {
        self.entries.clear();
    }

    fn squash_younger(&mut self, seq: u64) {
        self.entries.retain(|(req, _)| req.seq <= seq);
    }
}

struct RefCirc {
    slots: RefSlots,
    head: usize,
    region: usize,
    perfect: bool,
}

impl RefCirc {
    fn new(capacity: usize, perfect: bool) -> RefCirc {
        RefCirc { slots: RefSlots::new(capacity), head: 0, region: 0, perfect }
    }

    fn cap(&self) -> usize {
        self.slots.slots.len()
    }

    fn tail(&self) -> usize {
        (self.head + self.region) % self.cap()
    }

    fn depth(&self, pos: usize) -> usize {
        (pos + self.cap() - self.head) % self.cap()
    }

    fn advance_head(&mut self) {
        while self.region > 0 && !self.slots.slots[self.head].valid {
            self.head = (self.head + 1) % self.cap();
            self.region -= 1;
        }
        if self.region == 0 {
            self.head = self.tail();
        }
    }
}

impl RefQueue for RefCirc {
    fn has_space(&self) -> bool {
        self.region < self.cap()
    }

    fn len(&self) -> usize {
        self.slots.len
    }

    fn dispatch(&mut self, req: DispatchReq) -> bool {
        if !self.has_space() {
            return false;
        }
        let pos = self.tail();
        self.slots.insert(pos, req, false, 0);
        self.region += 1;
        true
    }

    fn wakeup(&mut self, tag: Tag) {
        self.slots.wakeup(tag);
    }

    fn select(&mut self, budget: &mut IssueBudget) -> Vec<Grant> {
        let cap = self.cap();
        let mut grants = Vec::new();
        for i in 0..cap {
            if budget.exhausted() {
                break;
            }
            let pos = if self.perfect { (self.head + i) % cap } else { i };
            let slot = self.slots.slots[pos];
            if slot.ready() && budget.try_take(slot.fu) {
                let rank = self.depth(pos);
                grants.push(self.slots.grant(pos, rank, false));
            }
        }
        self.advance_head();
        grants
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.region = 0;
    }

    fn squash_younger(&mut self, seq: u64) {
        let cap = self.cap();
        while self.region > 0 {
            let pos = (self.head + self.region - 1) % cap;
            let slot = self.slots.slots[pos];
            if slot.seq <= seq {
                break;
            }
            if slot.valid {
                self.slots.remove(pos);
            }
            self.region -= 1;
        }
        self.advance_head();
    }
}

/// CIRC-PC in the paper's hardware terms (§3.1.5, Figure 5): each entry
/// slice holds an `R` bit, set at dispatch when the tail has wrapped below
/// the head and cleared in every slice when the head wraps past the end
/// of the buffer. Ready `R` entries request through `S_RV`, the others
/// through `S_NR`.
struct RefCircPc {
    slots: RefSlots,
    head: usize,
    region: usize,
    pending: Vec<usize>,
    issue_width: usize,
}

impl RefCircPc {
    fn new(capacity: usize, issue_width: usize) -> RefCircPc {
        RefCircPc {
            slots: RefSlots::new(capacity),
            head: 0,
            region: 0,
            pending: Vec::new(),
            issue_width,
        }
    }

    fn cap(&self) -> usize {
        self.slots.slots.len()
    }

    fn tail(&self) -> usize {
        (self.head + self.region) % self.cap()
    }

    fn depth(&self, pos: usize) -> usize {
        (pos + self.cap() - self.head) % self.cap()
    }

    fn advance_head(&mut self) {
        while self.region > 0 && !self.slots.slots[self.head].valid {
            self.head = (self.head + 1) % self.cap();
            self.region -= 1;
            if self.head == 0 {
                // The head wrapped: no entry is below it any more.
                for slot in &mut self.slots.slots {
                    slot.reverse = false;
                }
            }
        }
    }

    fn is_rv(&self, pos: usize) -> bool {
        self.slots.slots[pos].reverse
    }
}

impl RefQueue for RefCircPc {
    fn has_space(&self) -> bool {
        self.region < self.cap()
    }

    fn len(&self) -> usize {
        self.slots.len
    }

    fn dispatch(&mut self, req: DispatchReq) -> bool {
        if !self.has_space() {
            return false;
        }
        let pos = self.tail();
        let reverse = self.head + self.region >= self.cap();
        self.slots.insert(pos, req, reverse, 0);
        self.region += 1;
        true
    }

    fn wakeup(&mut self, tag: Tag) {
        self.slots.wakeup(tag);
    }

    fn select(&mut self, budget: &mut IssueBudget) -> Vec<Grant> {
        let cap = self.cap();
        let mut grants = Vec::new();
        // S_NR.
        for pos in 0..cap {
            if budget.exhausted() {
                break;
            }
            let slot = self.slots.slots[pos];
            if slot.ready() && !slot.pending_rv && !self.is_rv(pos) && budget.try_take(slot.fu) {
                let rank = self.depth(pos);
                grants.push(self.slots.grant(pos, rank, false));
            }
        }
        // DTM merge of last cycle's PTL tags.
        let pending = std::mem::take(&mut self.pending);
        for pos in pending {
            let slot = self.slots.slots[pos];
            if !slot.valid || !slot.pending_rv {
                continue;
            }
            if budget.try_take(slot.fu) {
                let rank = self.depth(pos);
                grants.push(self.slots.grant(pos, rank, true));
            } else {
                self.slots.slots[pos].pending_rv = false;
            }
        }
        // S_RV.
        let mut picked = 0;
        for pos in 0..cap {
            if picked == self.issue_width {
                break;
            }
            let slot = self.slots.slots[pos];
            if slot.valid && slot.ready() && !slot.pending_rv && self.is_rv(pos) {
                self.slots.slots[pos].pending_rv = true;
                self.pending.push(pos);
                picked += 1;
            }
        }
        self.advance_head();
        grants
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.pending.clear();
        self.head = 0;
        self.region = 0;
    }

    fn squash_younger(&mut self, seq: u64) {
        let cap = self.cap();
        while self.region > 0 {
            let pos = (self.head + self.region - 1) % cap;
            let slot = self.slots.slots[pos];
            if slot.seq <= seq {
                break;
            }
            if slot.valid {
                self.slots.remove(pos);
            }
            self.region -= 1;
        }
        self.pending.retain(|&pos| {
            let s = self.slots.slots[pos];
            s.valid && s.pending_rv
        });
        self.advance_head();
    }
}

struct RefRand {
    slots: RefSlots,
    matrices: Vec<RefAgeMatrix>,
    groups: [(u8, u8); 3],
    bucket_load: Vec<usize>,
}

fn group_of(fu: FuClass) -> usize {
    match fu {
        FuClass::IntAlu | FuClass::IntMulDiv => 0,
        FuClass::LdSt => 1,
        FuClass::Fpu => 2,
    }
}

impl RefRand {
    fn new(capacity: usize, spec: BucketSpec, matrices: usize) -> RefRand {
        RefRand {
            slots: RefSlots::new(capacity),
            matrices: (0..matrices).map(|_| RefAgeMatrix::new(capacity)).collect(),
            groups: [(0, spec.int), (spec.int, spec.mem), (spec.int + spec.mem, spec.fp)],
            bucket_load: vec![0; matrices.max(1)],
        }
    }

    fn steer(&self, fu: FuClass) -> u8 {
        if self.matrices.len() <= 1 {
            return 0;
        }
        let (first, count) = self.groups[group_of(fu)];
        (first..first + count).min_by_key(|&b| self.bucket_load[b as usize]).unwrap()
    }

    fn remove_entry(&mut self, pos: usize) {
        let bucket = self.slots.slots[pos].bucket as usize;
        self.slots.remove(pos);
        if let Some(m) = self.matrices.get_mut(bucket) {
            m.deallocate(pos);
        }
        if !self.matrices.is_empty() {
            self.bucket_load[bucket] -= 1;
        }
    }

    fn grant_at(&mut self, pos: usize, rank: usize) -> Grant {
        let s = self.slots.slots[pos];
        self.remove_entry(pos);
        Grant { payload: s.payload, seq: s.seq, dst: s.dst, fu: s.fu, rank, two_cycle: false }
    }
}

impl RefQueue for RefRand {
    fn has_space(&self) -> bool {
        self.slots.len < self.slots.slots.len()
    }

    fn len(&self) -> usize {
        self.slots.len
    }

    fn dispatch(&mut self, req: DispatchReq) -> bool {
        let Some(pos) = self.slots.first_free() else { return false };
        let bucket = self.steer(req.fu);
        self.slots.insert(pos, req, false, bucket);
        if let Some(m) = self.matrices.get_mut(bucket as usize) {
            m.allocate(pos);
        }
        if !self.matrices.is_empty() {
            self.bucket_load[bucket as usize] += 1;
        }
        true
    }

    fn wakeup(&mut self, tag: Tag) {
        self.slots.wakeup(tag);
    }

    fn select(&mut self, budget: &mut IssueBudget) -> Vec<Grant> {
        let mut grants = Vec::new();
        for m in 0..self.matrices.len() {
            if budget.exhausted() {
                break;
            }
            let req: Vec<bool> = self.slots.slots.iter().map(|s| s.ready()).collect();
            let Some(pos) = self.matrices[m].oldest_ready(&req) else { continue };
            let fu = self.slots.slots[pos].fu;
            if budget.try_take(fu) {
                grants.push(self.grant_at(pos, 0));
            }
        }
        for pos in 0..self.slots.slots.len() {
            if budget.exhausted() {
                break;
            }
            let slot = self.slots.slots[pos];
            if slot.ready() && budget.try_take(slot.fu) {
                grants.push(self.grant_at(pos, pos));
            }
        }
        grants
    }

    fn flush(&mut self) {
        self.slots.clear();
        for m in &mut self.matrices {
            m.clear();
        }
        self.bucket_load.fill(0);
    }

    fn squash_younger(&mut self, seq: u64) {
        let doomed: Vec<usize> = (0..self.slots.slots.len())
            .filter(|&p| self.slots.slots[p].valid && self.slots.slots[p].seq > seq)
            .collect();
        for pos in doomed {
            self.remove_entry(pos);
        }
    }
}

struct RefRearrange {
    slots: RefSlots,
    old: BTreeMap<u64, usize>,
    old_capacity: usize,
    move_width: usize,
}

impl RefRearrange {
    fn new(capacity: usize) -> RefRearrange {
        RefRearrange {
            slots: RefSlots::new(capacity),
            old: BTreeMap::new(),
            old_capacity: 16,
            move_width: 4,
        }
    }

    fn rearrange(&mut self) {
        let mut candidates: Vec<(u64, usize)> = (0..self.slots.slots.len())
            .filter(|&p| self.slots.slots[p].valid)
            .map(|p| (self.slots.slots[p].seq, p))
            .filter(|(seq, _)| !self.old.contains_key(seq))
            .collect();
        candidates.sort_unstable();
        for (seq, pos) in candidates.into_iter().take(self.move_width) {
            if self.old.len() >= self.old_capacity {
                break;
            }
            self.old.insert(seq, pos);
        }
    }

    fn grant_at(&mut self, pos: usize, rank: usize) -> Grant {
        let s = self.slots.slots[pos];
        self.old.remove(&s.seq);
        self.slots.remove(pos);
        Grant { payload: s.payload, seq: s.seq, dst: s.dst, fu: s.fu, rank, two_cycle: false }
    }
}

impl RefQueue for RefRearrange {
    fn has_space(&self) -> bool {
        self.slots.len < self.slots.slots.len()
    }

    fn len(&self) -> usize {
        self.slots.len
    }

    fn dispatch(&mut self, req: DispatchReq) -> bool {
        let Some(pos) = self.slots.first_free() else { return false };
        self.slots.insert(pos, req, false, 0);
        true
    }

    fn wakeup(&mut self, tag: Tag) {
        self.slots.wakeup(tag);
    }

    fn select(&mut self, budget: &mut IssueBudget) -> Vec<Grant> {
        self.rearrange();
        let mut grants = Vec::new();
        let old_positions: Vec<usize> = self.old.values().copied().collect();
        for pos in old_positions {
            if budget.exhausted() {
                break;
            }
            let slot = self.slots.slots[pos];
            if slot.ready() && budget.try_take(slot.fu) {
                grants.push(self.grant_at(pos, 0));
            }
        }
        for pos in 0..self.slots.slots.len() {
            if budget.exhausted() {
                break;
            }
            let slot = self.slots.slots[pos];
            if slot.valid
                && slot.ready()
                && !self.old.contains_key(&slot.seq)
                && budget.try_take(slot.fu)
            {
                grants.push(self.grant_at(pos, pos));
            }
        }
        grants
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.old.clear();
    }

    fn squash_younger(&mut self, seq: u64) {
        let doomed: Vec<usize> = (0..self.slots.slots.len())
            .filter(|&p| self.slots.slots[p].valid && self.slots.slots[p].seq > seq)
            .collect();
        for pos in doomed {
            let s = self.slots.slots[pos].seq;
            self.old.remove(&s);
            self.slots.remove(pos);
        }
    }
}

// ---------------------------------------------------------------------------
// The lockstep driver.
// ---------------------------------------------------------------------------

const FUS: [FuClass; 4] = [FuClass::IntAlu, FuClass::IntMulDiv, FuClass::LdSt, FuClass::Fpu];

fn random_req(g: &mut Gen, seq: u64) -> DispatchReq {
    let mk = |g: &mut Gen| -> Option<Tag> { g.bool().then(|| g.gen_range(0u64..16) as Tag) };
    let srcs = [mk(g), mk(g)];
    let fu = FUS[g.gen_range(0u64..4) as usize];
    DispatchReq::new(seq, seq * 3 + 1, Some((seq % 16) as Tag), srcs, fu)
}

/// Drives `real` and `reference` through an identical random op sequence,
/// asserting identical grants and observables at every step.
fn drive(g: &mut Gen, mut real: Box<dyn IssueQueue>, reference: &mut dyn RefQueue) {
    let mut seq = 0u64;
    let mut dispatched: Vec<u64> = Vec::new();
    let ops = g.gen_range(20usize..250);
    for step in 0..ops {
        match g.gen_range(0u32..100) {
            // Dispatch a random instruction.
            0..=39 => {
                assert_eq!(real.has_space(), reference.has_space(), "step {step}: has_space");
                let req = random_req(g, seq);
                seq += 1;
                let real_ok = real.dispatch(req).is_ok();
                let ref_ok = reference.dispatch(req);
                assert_eq!(real_ok, ref_ok, "step {step}: dispatch outcome");
                if real_ok {
                    dispatched.push(req.seq);
                }
            }
            // Broadcast a tag.
            40..=59 => {
                let tag = g.gen_range(0u64..16) as Tag;
                real.wakeup(tag);
                reference.wakeup(tag);
            }
            // Select with a random budget.
            60..=89 => {
                let width = g.gen_range(0u64..5) as usize;
                let fu_free = [
                    g.gen_range(0u64..3) as usize,
                    g.gen_range(0u64..3) as usize,
                    g.gen_range(0u64..3) as usize,
                    g.gen_range(0u64..3) as usize,
                ];
                let mut b_real = IssueBudget::new(width, fu_free);
                let mut b_ref = IssueBudget::new(width, fu_free);
                let g_ref = reference.select(&mut b_ref);
                let name = real.name();
                let g_real = real.select(&mut b_real);
                assert_eq!(g_real, g_ref, "step {step}: grant stream ({name})");
                assert_eq!(b_real, b_ref, "step {step}: leftover budget");
            }
            // Branch-misprediction squash to a random dispatched seq.
            90..=95 => {
                let bound = if dispatched.is_empty() {
                    0
                } else {
                    dispatched[g.gen_range(0u64..dispatched.len() as u64) as usize]
                };
                real.squash_younger(bound);
                reference.squash_younger(bound);
            }
            // Full flush.
            _ => {
                real.flush();
                reference.flush();
            }
        }
        assert_eq!(real.len(), reference.len(), "step {step}: len");
        assert_eq!(real.has_space(), reference.has_space(), "step {step}: has_space");
    }
}

fn config(capacity: usize, issue_width: usize) -> IqConfig {
    IqConfig { capacity, issue_width, buckets: BucketSpec::medium(), ..IqConfig::default() }
}

fn run_kind(kind: IqKind, cases: usize) {
    check(cases, move |g| {
        let capacity = g.gen_range(2usize..70);
        let issue_width = g.gen_range(1usize..5);
        let cfg = config(capacity, issue_width);
        let real = kind.build(&cfg);
        let mut reference: Box<dyn RefQueue> = match kind {
            IqKind::Shift => Box::new(RefShift { entries: Vec::new(), capacity }),
            IqKind::Circ => Box::new(RefCirc::new(capacity, false)),
            IqKind::CircPpri => Box::new(RefCirc::new(capacity, true)),
            IqKind::CircPc => Box::new(RefCircPc::new(capacity, issue_width)),
            IqKind::Rand => Box::new(RefRand::new(capacity, cfg.buckets, 0)),
            IqKind::Age => {
                Box::new(RefRand::new(capacity, BucketSpec { int: 1, mem: 0, fp: 0 }, 1))
            }
            IqKind::AgeMulti => Box::new(RefRand::new(capacity, cfg.buckets, cfg.buckets.total())),
            IqKind::Rearrange => Box::new(RefRearrange::new(capacity)),
            other => panic!("no scalar reference for {other}"),
        };
        drive(g, real, reference.as_mut());
    });
}

#[test]
fn shift_matches_scalar_reference() {
    run_kind(IqKind::Shift, 48);
}

#[test]
fn circ_matches_scalar_reference() {
    run_kind(IqKind::Circ, 48);
}

#[test]
fn circ_ppri_matches_scalar_reference() {
    run_kind(IqKind::CircPpri, 48);
}

#[test]
fn circ_pc_matches_scalar_reference() {
    run_kind(IqKind::CircPc, 48);
}

#[test]
fn rand_matches_scalar_reference() {
    run_kind(IqKind::Rand, 48);
}

#[test]
fn age_matches_scalar_reference() {
    run_kind(IqKind::Age, 48);
}

#[test]
fn age_multi_matches_scalar_reference() {
    run_kind(IqKind::AgeMulti, 48);
}

#[test]
fn rearrange_matches_scalar_reference() {
    run_kind(IqKind::Rearrange, 48);
}

/// Selects with one random budget on both sides and compares the grants.
fn lockstep_select(g: &mut Gen, real: &mut dyn IssueQueue, reference: &mut dyn RefQueue) {
    let width = g.gen_range(1usize..5);
    let (mut b_real, mut b_ref) =
        (IssueBudget::new(width, [width; 4]), IssueBudget::new(width, [width; 4]));
    let (g_ref, name) = (reference.select(&mut b_ref), real.name());
    assert_eq!(real.select(&mut b_real), g_ref.as_slice(), "grant stream ({name})");
    assert_eq!(b_real, b_ref, "leftover budget");
}

/// REARRANGE's promotion candidates wait in dispatch order, and a grant
/// from the main queue leaves its candidate stale until the deque
/// compacts at twice the capacity. The random drive above seldom gets
/// there, because its old queue keeps draining. Here an instruction
/// waiting on a tag that fires only at the end holds a one-entry old
/// queue, so every other grant comes from the main queue and the deque
/// compacts again and again; the grant streams must still match, through
/// the holder's release and the promotions after it.
#[test]
fn rearrange_compaction_matches_scalar_reference() {
    const HOLD: Tag = 99; // outside random_req's tags
    check(48, |g| {
        let capacity = g.gen_range(2usize..24);
        let mut real = RearrangingQueue::with_old_queue(&config(capacity, 4), 1, 1);
        let mut reference =
            RefRearrange { old_capacity: 1, move_width: 1, ..RefRearrange::new(capacity) };
        let holder = DispatchReq::new(0, 1, None, [Some(HOLD), None], FuClass::IntAlu);
        assert!(real.dispatch(holder).is_ok() && reference.dispatch(holder));
        for seq in 1..g.gen_range(50u64..400) {
            let req = random_req(g, seq);
            assert_eq!(real.dispatch(req).is_ok(), reference.dispatch(req), "dispatch {seq}");
            if g.bool() {
                let tag = g.gen_range(0u64..16) as Tag;
                real.wakeup(tag);
                reference.wakeup(tag);
            }
            lockstep_select(g, &mut real, &mut reference);
        }
        for tag in std::iter::once(HOLD).chain(0..16) {
            real.wakeup(tag);
            reference.wakeup(tag);
            lockstep_select(g, &mut real, &mut reference);
        }
        assert_eq!(real.len(), reference.len());
    });
}

/// CIRC-PC's `R` bits must follow the current wrap: an entry dispatched
/// into the wrapped region stops being RV when the head wraps past the
/// end of the buffer, and stays NR when the tail wraps again while it is
/// queued. The random drive above seldom gets there, because its flushes
/// and squashes keep the ring short. Here a small ring is offered a
/// dispatch every cycle and granted narrowly, so it stays full and the
/// head and tail lap it again and again; the grant streams must match
/// through every wrap and the final drain.
#[test]
fn circ_pc_repeated_wraps_match_scalar_reference() {
    check(48, |g| {
        let (capacity, issue_width) = (g.gen_range(2usize..12), g.gen_range(1usize..4));
        let mut real = IqKind::CircPc.build(&config(capacity, issue_width));
        let mut reference = RefCircPc::new(capacity, issue_width);
        for seq in 0..g.gen_range(50u64..400) {
            let req = random_req(g, seq);
            assert_eq!(real.dispatch(req).is_ok(), reference.dispatch(req), "dispatch {seq}");
            if g.bool() {
                let tag = g.gen_range(0u64..16) as Tag;
                real.wakeup(tag);
                reference.wakeup(tag);
            }
            lockstep_select(g, real.as_mut(), &mut reference);
        }
        for tag in 0..16 {
            real.wakeup(tag);
            reference.wakeup(tag);
        }
        while !real.is_empty() {
            lockstep_select(g, real.as_mut(), &mut reference);
        }
        assert_eq!(real.len(), reference.len());
    });
}
