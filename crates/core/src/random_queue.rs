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

use swque_isa::FuClass;

use crate::age_matrix::AgeMatrix;
use crate::cycle::{CycleDelta, CycleStamp};
use crate::digest::ArchKey;
use crate::horizon::WakeHorizon;
use crate::queue::{BucketSpec, IqConfig, IssueQueue};
use crate::slots::SlotArray;
use crate::stats::IqStats;
use crate::types::{DispatchReq, Grant, GrantBuf, IqFullError, IssueBudget, Tag};

/// A free-list queue: RAND (no matrices), AGE (one matrix), or AGE-multiAM
/// (one matrix per bucket).
#[derive(Debug, Clone)]
pub struct RandomQueue {
    slots: SlotArray,
    /// One age matrix per bucket; empty for RAND.
    matrices: Vec<AgeMatrix>,
    /// Bucket id range for each FU group: `[int, mem, fp]` as
    /// `(first, count)`.
    groups: [(u8, u8); 3],
    /// Live entries per bucket, for load-balanced steering.
    bucket_load: Vec<usize>,
    flpi_floor: usize,
    name: &'static str,
    grants: GrantBuf,
    stats: IqStats,
}

fn group_of(fu: FuClass) -> usize {
    match fu {
        FuClass::IntAlu | FuClass::IntMulDiv => 0,
        FuClass::LdSt => 1,
        FuClass::Fpu => 2,
    }
}

impl RandomQueue {
    fn with_buckets(config: &IqConfig, spec: BucketSpec, name: &'static str) -> RandomQueue {
        let total = spec.total();
        let groups = [
            (0, spec.int),
            (spec.int, spec.mem),
            (spec.int + spec.mem, spec.fp),
        ];
        RandomQueue {
            slots: SlotArray::new(config.capacity),
            matrices: (0..total).map(|_| AgeMatrix::new(config.capacity)).collect(),
            groups,
            bucket_load: vec![0; total.max(1)],
            flpi_floor: config.flpi_rank_floor(),
            name,
            grants: GrantBuf::default(),
            stats: IqStats::default(),
        }
    }

    /// RAND: free-list allocation, position priority, no age matrix.
    pub fn rand(config: &IqConfig) -> RandomQueue {
        let mut q =
            RandomQueue::with_buckets(config, BucketSpec { int: 0, mem: 0, fp: 0 }, "RAND");
        q.matrices.clear();
        q
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

    /// Number of age matrices in use (0 = RAND, 1 = AGE, k = multiAM).
    pub fn num_matrices(&self) -> usize {
        self.matrices.len()
    }

    /// Chooses the least-loaded bucket serving `fu`. With a single matrix
    /// everything maps to bucket 0; with none the value is unused.
    ///
    /// # Panics
    ///
    /// Panics if no bucket serves `fu`'s group: the group table is built
    /// to cover every FU class, so a gap is a construction bug.
    fn steer(&self, fu: FuClass) -> u8 {
        if self.matrices.len() <= 1 {
            return 0;
        }
        let (first, count) = self.groups[group_of(fu)];
        assert!(count > 0, "no bucket serves {fu}");
        (first..first + count)
            .min_by_key(|&b| self.bucket_load[b as usize])
            .unwrap_or(first)
    }

    fn remove_entry(&mut self, pos: usize) {
        let bucket = self.slots.get(pos).bucket as usize;
        self.slots.remove(pos);
        if let Some(m) = self.matrices.get_mut(bucket) {
            m.deallocate(pos);
        }
        if !self.matrices.is_empty() {
            self.bucket_load[bucket] -= 1;
        }
    }

    fn grant_at(&mut self, pos: usize, rank: usize) -> Grant {
        let slot = self.slots.get(pos);
        let g = Grant {
            payload: slot.payload,
            seq: slot.seq,
            dst: slot.dst,
            fu: slot.fu,
            rank,
            two_cycle: false,
        };
        self.remove_entry(pos);
        self.stats.issued += 1;
        self.stats.tag_reads += 1;
        if rank >= self.flpi_floor {
            self.stats.issued_low_priority += 1;
        }
        g
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

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn has_space(&self) -> bool {
        self.slots.len() < self.slots.capacity()
    }

    fn dispatch(&mut self, req: DispatchReq) -> Result<(), IqFullError> {
        let Some(pos) = self.slots.first_free() else {
            self.stats.dispatch_stalls += 1;
            return Err(IqFullError);
        };
        let bucket = self.steer(req.fu);
        self.slots.insert(pos, req, false, bucket);
        if let Some(m) = self.matrices.get_mut(bucket as usize) {
            m.allocate(pos);
        }
        if !self.matrices.is_empty() {
            self.bucket_load[bucket as usize] += 1;
        }
        self.stats.dispatched += 1;
        Ok(())
    }

    fn wakeup(&mut self, tag: Tag) {
        self.stats.wakeups += 1;
        self.slots.wakeup(tag);
    }

    fn has_ready(&self) -> bool {
        self.slots.any_ready()
    }

    fn idle_tick(&mut self, cycles: CycleDelta) {
        let cycles = cycles.get();
        // With an empty ready plane both select phases are pure reads (the
        // age matrices only nominate; nomination with no ready bits returns
        // nothing) — only the per-cycle averages advance.
        self.stats.selects += cycles;
        self.stats.occupancy_sum += cycles * self.slots.len() as u64;
        self.stats.region_sum += cycles * self.slots.len() as u64;
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        self.stats.selects += 1;
        self.stats.occupancy_sum += self.slots.len() as u64;
        self.stats.region_sum += self.slots.len() as u64;

        let mut grants = self.grants.take();

        // Phase 1: each age matrix nominates its oldest ready instruction,
        // which gets the highest priority independently of IQ position. The
        // packed ready plane is handed to the matrix directly; each matrix
        // masks it with its own (per-bucket) valid set, and a grant updates
        // the plane before the next matrix reads it.
        for m in 0..self.matrices.len() {
            if budget.exhausted() {
                break;
            }
            let Some(pos) = self.matrices[m].oldest_ready_words(self.slots.ready_words())
            else {
                continue;
            };
            let fu = self.slots.get(pos).fu;
            if budget.try_take(fu) {
                grants.push(self.grant_at(pos, 0));
            }
        }

        // Phase 2: remaining grants in physical-position order — random
        // with respect to age, which is RAND's weakness. Word scan over the
        // ready plane; each word is copied to a register before its bits
        // are visited, so granting (which clears the bit) is safe.
        'pos: for wi in 0..self.slots.ready_words().len() {
            let mut word = self.slots.ready_words()[wi];
            while word != 0 {
                if budget.exhausted() {
                    break 'pos;
                }
                let pos = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let fu = self.slots.get(pos).fu;
                if budget.try_take(fu) {
                    grants.push(self.grant_at(pos, pos));
                }
            }
        }

        self.grants.put(grants)
    }

    fn flush(&mut self) {
        self.slots.clear();
        for m in &mut self.matrices {
            m.clear();
        }
        self.bucket_load.fill(0);
    }

    fn squash_younger(&mut self, seq: u64) {
        // Word scan over the valid plane; each word is copied to a register
        // before its bits are visited, so removing (which clears the bit)
        // cannot disturb the scan.
        for wi in 0..self.slots.valid_words().len() {
            let mut word = self.slots.valid_words()[wi];
            while word != 0 {
                let pos = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.slots.get(pos).seq > seq {
                    self.remove_entry(pos);
                }
            }
        }
    }

    fn stats(&self) -> IqStats {
        self.stats
    }

    fn arch_key(&self, key: &mut ArchKey) {
        self.slots.arch_key(key);
        for matrix in &self.matrices {
            matrix.arch_key(key);
        }
        for (first, count) in self.groups {
            key.push(u64::from(first));
            key.push(u64::from(count));
        }
        for &load in &self.bucket_load {
            key.push_usize(load);
        }
    }

    fn clone_box(&self) -> Box<dyn IssueQueue> {
        Box::new(self.clone())
    }
}

impl WakeHorizon for RandomQueue {
    fn wake_horizon(&self, _now: CycleStamp) -> Option<CycleStamp> {
        None // purely reactive: state changes only via wakeup/select/dispatch
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
        assert_eq!(q.bucket_load[0], 3);
        assert_eq!(q.bucket_load[1], 3, "INT instructions split across both INT buckets");
        q.dispatch(req(10, FuClass::LdSt)).unwrap();
        q.dispatch(req(11, FuClass::Fpu)).unwrap();
        assert_eq!(q.bucket_load[2], 1);
        assert_eq!(q.bucket_load[3], 1);
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
        assert!(q.bucket_load.iter().all(|&l| l == 0));
        q.dispatch(req(9, FuClass::IntAlu)).unwrap();
        let g = q.select(&mut budget(1));
        assert_eq!(g[0].seq, 9);
    }
}
