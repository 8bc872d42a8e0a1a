//! RAND and AGE: free-list ("random") queues, optionally with one or more
//! age matrices (paper §2.3 and §4.9).
//!
//! Dispatch fills any free entry, so capacity efficiency is perfect, but the
//! physical order — and therefore the position-based select priority — is
//! random with respect to age. RAND uses position priority alone. AGE adds
//! an age matrix that hands the single oldest ready instruction the highest
//! priority; all other grants remain position-ordered. AGE-multiAM
//! partitions instructions into per-function-unit buckets at dispatch (load
//! balanced) and gives each bucket's oldest ready instruction top priority.
//!
//! # Age from dispatch order
//!
//! An age matrix answers one question: which requesting member was
//! dispatched first. Dispatch hands out increasing sequence numbers (a
//! squash or flush only removes the youngest entries, so later dispatches
//! still carry larger seqs than every survivor), so the member with the
//! smallest `seq` is exactly the one the matrix would grant. Each bucket
//! therefore keeps only a member bit set, and a nomination visits the
//! bucket's ready members — O(ready entries), where a bit-matrix model
//! pays O(occupancy) per grant to clear a column. The hardware cost of the
//! matrix is charged by `swque-circuit`, not here.

use swque_isa::FuClass;

use crate::bitset::{self, BitSet};
use crate::cycle::CycleDelta;
use crate::digest::ArchKey;
use crate::queue::{BucketSpec, IqConfig, IssueQueue};
use crate::slots::SlotArray;
use crate::stats::{IqStats, Ledger};
use crate::types::{DispatchReq, Grant, GrantBuf, IqFullError, IssueBudget, Tag};

/// A free-list queue: RAND (no matrices), AGE (one matrix), or AGE-multiAM
/// (one matrix per bucket).
#[derive(Debug)]
pub struct RandomQueue {
    slots: SlotArray,
    buckets: Buckets,
    /// XORed into every seq before the oldest-ready comparison: 0, or all
    /// ones for the model checker's planted youngest-first bug.
    age_flip: u64,
    name: &'static str,
    grants: GrantBuf,
    ledger: Ledger,
}

clone_in_place!(RandomQueue { slots, buckets, age_flip, name, ledger } scratch { grants });

/// The age-matrix buckets. A bucket's load is its member count, and a
/// live entry's bucket is the one set holding its position.
#[derive(Debug)]
struct Buckets {
    /// The members of each bucket; empty for RAND.
    members: Vec<BitSet>,
    /// Bucket id range for each FU group: `[int, mem, fp]` as
    /// `(first, count)`.
    groups: [(u8, u8); 3],
}

clone_in_place!(Buckets { members, groups });

fn group_of(fu: FuClass) -> usize {
    match fu {
        FuClass::IntAlu | FuClass::IntMulDiv => 0,
        FuClass::LdSt => 1,
        FuClass::Fpu => 2,
    }
}

impl Buckets {
    /// Steers the entry dispatched to `pos` into the least-loaded bucket
    /// serving `fu`. With a single matrix everything maps to bucket 0;
    /// with none the bucket is unused.
    ///
    /// # Panics
    ///
    /// Panics if no bucket serves `fu`'s group: the group table is built
    /// to cover every FU class, so a gap is a construction bug.
    fn join(&mut self, pos: usize, fu: FuClass) {
        let b = if self.members.len() <= 1 {
            0
        } else {
            let (first, count) = self.groups[group_of(fu)];
            assert!(count > 0, "no bucket serves {fu}");
            let load = |b: &u8| self.members[usize::from(*b)].count();
            (first..first + count).min_by_key(load).unwrap_or(first)
        };
        if let Some(members) = self.members.get_mut(usize::from(b)) {
            members.set(pos);
        }
    }

    /// The bucket of the live entry at `pos` (0 without matrices).
    fn of(&self, pos: usize) -> usize {
        self.members.iter().position(|members| members.test(pos)).unwrap_or(0)
    }

    /// Drops the freed position `pos` from its bucket.
    fn leave(&mut self, pos: usize) {
        for members in &mut self.members {
            members.clear(pos);
        }
    }
}

impl RandomQueue {
    fn with_buckets(config: &IqConfig, spec: BucketSpec, name: &'static str) -> RandomQueue {
        let total = spec.total();
        RandomQueue {
            slots: SlotArray::new(config.capacity),
            buckets: Buckets {
                members: vec![BitSet::new(config.capacity); total],
                groups: [(0, spec.int), (spec.int, spec.mem), (spec.int + spec.mem, spec.fp)],
            },
            age_flip: 0,
            name,
            grants: GrantBuf::default(),
            ledger: Ledger::new(config),
        }
    }

    /// RAND: free-list allocation, position priority, no age matrix.
    pub fn rand(config: &IqConfig) -> RandomQueue {
        RandomQueue::with_buckets(config, BucketSpec { int: 0, mem: 0, fp: 0 }, "RAND")
    }

    /// AGE: RAND plus a single age matrix over the whole queue — the
    /// baseline organization of current processors.
    pub fn age(config: &IqConfig) -> RandomQueue {
        RandomQueue::with_buckets(config, BucketSpec { int: 1, mem: 0, fp: 0 }, "AGE")
    }

    /// AGE-multiAM: one age matrix per function-unit bucket
    /// (`config.buckets`), with load-balanced steering at dispatch.
    pub fn age_multi(config: &IqConfig) -> RandomQueue {
        RandomQueue::with_buckets(config, config.buckets, "AGE-multiAM")
    }

    /// AGE (or, with `multi_am`, AGE-multiAM) whose matrices grant the
    /// *youngest* ready member instead of the oldest: a planted bug for
    /// the model checker's negative runs, which must catch it as an
    /// `age-first` violation. Not a modelled design.
    pub fn age_youngest_first(config: &IqConfig, multi_am: bool) -> RandomQueue {
        let q = if multi_am { RandomQueue::age_multi(config) } else { RandomQueue::age(config) };
        RandomQueue { age_flip: u64::MAX, ..q }
    }

    /// Number of age matrices in use (0 = RAND, 1 = AGE, k = multiAM).
    pub fn num_matrices(&self) -> usize {
        self.buckets.members.len()
    }

    /// The age matrix of bucket `b`: the position of its ready member with
    /// the smallest seq (the first dispatched), if any member is ready.
    fn oldest_ready(&self, b: usize) -> Option<usize> {
        let (ready, members) = (self.slots.ready_words(), self.buckets.members[b].words());
        let mut oldest = (u64::MAX, usize::MAX);
        let word = |_: &(u64, usize), w: usize| ready[w] & members[w];
        bitset::for_each_set_in(&mut oldest, 0, self.slots.capacity(), word, |oldest, pos| {
            *oldest = (*oldest).min((self.slots.get(pos).seq ^ self.age_flip, pos));
            true
        });
        (oldest.1 != usize::MAX).then_some(oldest.1)
    }
}

impl IssueQueue for RandomQueue {
    fn name(&self) -> &'static str {
        self.name
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn has_space(&self) -> bool {
        self.slots.len() < self.slots.capacity()
    }

    fn dispatch(&mut self, req: DispatchReq) -> Result<(), IqFullError> {
        let Some(pos) = self.slots.first_free() else {
            self.ledger.stats.dispatch_stalls += 1;
            return Err(IqFullError);
        };
        self.slots.insert(pos, req);
        self.buckets.join(pos, req.fu);
        self.ledger.stats.dispatched += 1;
        Ok(())
    }

    fn wakeup(&mut self, tag: Tag) {
        self.ledger.stats.wakeups += 1;
        self.slots.wakeup(tag);
    }

    fn has_ready(&self) -> bool {
        self.slots.any_ready()
    }

    fn idle_tick(&mut self, cycles: CycleDelta) {
        // With an empty ready plane both select phases are pure reads (a
        // bucket nominates only ready members) — only the per-cycle
        // averages advance.
        self.ledger.selects(cycles.get(), self.slots.len(), self.slots.len());
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        self.ledger.selects(1, self.slots.len(), self.slots.len());
        let mut grants = self.grants.take();

        // Phase 1: each age matrix nominates its oldest ready instruction,
        // which gets the highest priority independently of IQ position. A
        // grant updates the ready plane before the next bucket reads it.
        for b in 0..self.buckets.members.len() {
            if budget.exhausted() {
                break;
            }
            let Some(pos) = self.oldest_ready(b) else {
                continue;
            };
            if budget.try_take(self.slots.get(pos).fu) {
                self.buckets.leave(pos);
                grants.push(self.ledger.grant(self.slots.take(pos, 0, false)));
            }
        }

        // Phase 2: remaining grants in physical-position order — random
        // with respect to age, which is RAND's weakness.
        let (buckets, ledger, cap) = (&mut self.buckets, &mut self.ledger, self.slots.capacity());
        self.slots.scan_ready(
            (0, cap),
            |_| u64::MAX,
            budget,
            |slots, pos| {
                buckets.leave(pos);
                grants.push(ledger.grant(slots.take(pos, pos, false)));
            },
        );

        self.grants.put(grants)
    }

    fn flush(&mut self) {
        self.slots.clear();
        for members in &mut self.buckets.members {
            members.clear_all();
        }
    }

    fn squash_younger(&mut self, seq: u64) {
        let buckets = &mut self.buckets;
        self.slots.squash_younger(seq, |pos| buckets.leave(pos));
    }

    fn stats(&self) -> IqStats {
        self.ledger.stats
    }

    /// Each live entry's bucket follows its slot record; a freed
    /// position is in no bucket. The member sets and loads follow from
    /// the live buckets, and seqs carry the age order the matrices stand
    /// for.
    fn arch_key(&self, key: &mut ArchKey) {
        self.slots.arch_key(key);
        for pos in bitset::iter_set(self.slots.valid_words()) {
            key.push_usize(self.buckets.of(pos));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cap: usize) -> IqConfig {
        IqConfig { capacity: cap, issue_width: 4, ..IqConfig::default() }
    }

    fn req(seq: u64, fu: FuClass) -> DispatchReq {
        DispatchReq::new(seq, seq, Some(seq as Tag), [None, None], fu)
    }

    fn waiting(seq: u64, tag: Tag) -> DispatchReq {
        DispatchReq::new(seq, seq, Some(seq as Tag), [Some(tag), None], FuClass::IntAlu)
    }

    fn budget(n: usize) -> IssueBudget {
        IssueBudget::new(n, [n, n, n, n])
    }

    /// Creates an age-scrambled queue: the OLDEST live instruction sits at a
    /// HIGH position. Returns the queue with seq 10 (old, pos 3) and seqs
    /// 11, 12 (young, pos 0, 1).
    fn scrambled(mk: fn(&IqConfig) -> RandomQueue) -> RandomQueue {
        let mut q = mk(&cfg(4));
        q.dispatch(waiting(0, 7)).unwrap(); // pos 0, will issue
        q.dispatch(waiting(1, 7)).unwrap(); // pos 1, will issue
        q.dispatch(waiting(2, 7)).unwrap(); // pos 2, will issue
        q.dispatch(waiting(10, 999)).unwrap(); // pos 3, OLD, stays
        q.wakeup(7);
        assert_eq!(q.select(&mut budget(3)).len(), 3);
        q.dispatch(waiting(11, 999)).unwrap(); // pos 0, young
        q.dispatch(waiting(12, 999)).unwrap(); // pos 1, younger
        q.wakeup(999);
        q
    }

    #[test]
    fn rand_priority_is_positional_not_age() {
        let mut q = scrambled(RandomQueue::rand);
        let g = q.select(&mut budget(1));
        assert_eq!(g[0].seq, 11, "RAND picks position 0 even though seq 10 is older");
    }

    #[test]
    fn age_matrix_gives_oldest_top_priority() {
        let mut q = scrambled(RandomQueue::age);
        let g = q.select(&mut budget(1));
        assert_eq!(g[0].seq, 10, "AGE picks the oldest ready instruction first");
        assert_eq!(g[0].rank, 0, "AM grant counts as highest priority");
        // Remaining grants are positional.
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![11, 12]);
    }

    #[test]
    fn age_selects_only_the_single_oldest_per_cycle() {
        let mut q = scrambled(RandomQueue::age);
        // Width 2: oldest (10) then positional (11) — NOT the two oldest.
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![10, 11]);
    }

    #[test]
    fn age_falls_back_to_positional_when_oldest_fu_busy() {
        let mut q = RandomQueue::age(&cfg(4));
        q.dispatch(req(0, FuClass::Fpu)).unwrap();
        q.dispatch(req(1, FuClass::IntAlu)).unwrap();
        let mut b = IssueBudget::new(2, [1, 0, 0, 0]); // no FPU free
        let g = q.select(&mut b);
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![1]);
        // The FP instruction issues once an FPU frees up.
        let g = q.select(&mut budget(1));
        assert_eq!(g[0].seq, 0);
    }

    #[test]
    fn multi_am_steering_balances_buckets() {
        let config = IqConfig {
            capacity: 16,
            buckets: BucketSpec { int: 2, mem: 1, fp: 1 },
            ..IqConfig::default()
        };
        let mut q = RandomQueue::age_multi(&config);
        assert_eq!(q.num_matrices(), 4);
        for seq in 0..6 {
            q.dispatch(req(seq, FuClass::IntAlu)).unwrap();
        }
        assert_eq!(q.buckets.members[0].count(), 3);
        assert_eq!(
            q.buckets.members[1].count(),
            3,
            "INT instructions split across both INT buckets"
        );
        q.dispatch(req(10, FuClass::LdSt)).unwrap();
        q.dispatch(req(11, FuClass::Fpu)).unwrap();
        assert_eq!(q.buckets.members[2].count(), 1);
        assert_eq!(q.buckets.members[3].count(), 1);
    }

    #[test]
    fn multi_am_grants_one_oldest_per_bucket() {
        let config = IqConfig {
            capacity: 16,
            buckets: BucketSpec { int: 2, mem: 1, fp: 1 },
            ..IqConfig::default()
        };
        let mut q = RandomQueue::age_multi(&config);
        // Alternating steering: seq 0 -> bucket 0, seq 1 -> bucket 1, ...
        for seq in 0..4 {
            q.dispatch(req(seq, FuClass::IntAlu)).unwrap();
        }
        // Two buckets nominate their oldest (seqs 0 and 1) before any
        // positional grant (which would be seq 2 at pos 2).
        let g = q.select(&mut budget(2));
        let mut seqs: Vec<u64> = g.iter().map(|g| g.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1]);
        assert!(g.iter().all(|g| g.rank == 0));
    }

    #[test]
    fn free_list_reuses_holes_immediately() {
        let mut q = RandomQueue::rand(&cfg(2));
        q.dispatch(req(0, FuClass::IntAlu)).unwrap();
        q.dispatch(req(1, FuClass::IntAlu)).unwrap();
        assert!(!q.has_space());
        let g = q.select(&mut budget(1));
        assert_eq!(g[0].seq, 0);
        assert!(q.has_space(), "freed entry is reusable at once — full capacity efficiency");
        q.dispatch(req(2, FuClass::IntAlu)).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn flush_resets_matrices_and_loads() {
        let mut q = RandomQueue::age_multi(&IqConfig { capacity: 8, ..IqConfig::default() });
        for seq in 0..4 {
            q.dispatch(req(seq, FuClass::IntAlu)).unwrap();
        }
        q.flush();
        assert!(q.is_empty());
        assert!(q.buckets.members.iter().all(BitSet::is_empty));
        q.dispatch(req(9, FuClass::IntAlu)).unwrap();
        let g = q.select(&mut budget(1));
        assert_eq!(g[0].seq, 9);
    }
}
