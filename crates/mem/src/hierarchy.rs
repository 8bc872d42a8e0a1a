//! The full memory hierarchy: per-requester L1s backed by a shared unified
//! L2 backed by a shared DRAM channel, with per-requester MSHR-limited miss
//! overlap and a shared L2 stream prefetcher.
//!
//! A hierarchy is built for N *requesters* (cores). Each requester owns its
//! L1 I/D caches and an MSHR quota ([`MemConfig::mshrs`] registers each);
//! the L2, the stream prefetcher, and the DRAM channel are shared, with
//! round-robin arbitration on the channel (see [`crate::Dram`]) and
//! contention accounted in [`SharedMemStats`]. A single-requester
//! hierarchy ([`MemoryHierarchy::new`]) is bit-identical to the historical
//! single-core model: the arbiter degenerates to first-come packing and
//! every contention counter stays zero.

use std::collections::BTreeMap;

use swque_core::cycle::{CycleDelta, CycleStamp};
use swque_core::WakeHorizon;
use swque_trace::{TraceEvent, TraceHandle};

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::dram::{Completion, Dram};
use crate::prefetch::StreamPrefetcher;
use crate::stats::{MemStats, RequesterMemStats, SharedMemStats};

/// The type of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data load.
    Load,
    /// Data store (write-allocate: timed like a load for line fill).
    Store,
    /// Instruction fetch.
    IFetch,
}

/// Timing outcome of an access, as a report: raw cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is available.
    pub done_at: u64,
    /// Hit in the first-level cache.
    pub l1_hit: bool,
    /// Hit in the L2 (meaningful only when `l1_hit` is false).
    pub l2_hit: bool,
}

impl AccessResult {
    fn new(done: Completion, l1_hit: bool, l2_hit: bool) -> AccessResult {
        AccessResult { done_at: done.stamp().get(), l1_hit, l2_hit }
    }
}

/// One requester's private slice of the hierarchy: its L1 caches, its MSHR
/// quota, and the counters attributed to it.
#[derive(Debug)]
struct RequesterMem {
    l1i: Cache,
    l1d: Cache,
    /// Outstanding L1D misses: L1-line address → completion. Ordered map
    /// on purpose: `purge` and the MSHR occupancy scan iterate it, and the
    /// determinism contract (DESIGN.md §8) bans hash-order iteration on
    /// the simulated path.
    mshr: BTreeMap<u64, Completion>,
    /// Demand LLC misses this requester caused.
    llc_demand_misses: u64,
    /// Misses merged into an existing MSHR.
    mshr_merges: u64,
    /// Cycles an access waited because the quota's MSHRs were all busy.
    mshr_stall_cycles: u64,
}

/// The memory hierarchy timing model.
///
/// Because the functional emulator owns the data, the hierarchy only tracks
/// tags and timing. The core simulator stamps every access with the cycle at
/// which it starts; accesses may arrive out of cycle order (loads issue out
/// of order), which the model tolerates.
#[derive(Debug)]
pub struct MemoryHierarchy {
    config: MemConfig,
    cores: Vec<RequesterMem>,
    l2: Cache,
    dram: Dram,
    prefetcher: Option<StreamPrefetcher>,
    /// In-flight L2 fills (demand or prefetch): L2-line → completion.
    /// Ordered for the same reason as the MSHR maps.
    inflight_l2: BTreeMap<u64, Completion>,
    /// L2 evictions whose displaced line was last touched by a different
    /// requester than the filler.
    neighbor_evictions: u64,
    /// Observability sink (disabled by default; see
    /// [`MemoryHierarchy::set_trace`]).
    trace: TraceHandle,
    /// Epoch index of the last [`TraceEvent::MemEpoch`] sample.
    trace_epoch: u64,
    /// `(llc_demand_misses, dram_transfers)` at the last epoch boundary.
    trace_epoch_base: (u64, u64),
}

/// Cycles per [`TraceEvent::MemEpoch`] sample. Coarse on purpose: a sample
/// per miss would flood a bounded trace ring and evict the controller's
/// interval series, which is the series the experiments care about.
const MEM_EPOCH_CYCLES: u64 = 8192;

impl MemoryHierarchy {
    /// Creates a single-requester hierarchy from `config` (the historical
    /// single-core model).
    pub fn new(config: MemConfig) -> MemoryHierarchy {
        MemoryHierarchy::shared(config, 1)
    }

    /// Creates a hierarchy shared by `requesters` cores: per-core L1s and
    /// MSHR quotas over one L2, one stream prefetcher, and one round-robin
    /// arbitrated DRAM channel.
    ///
    /// # Panics
    ///
    /// Panics if `requesters` is zero.
    pub fn shared(config: MemConfig, requesters: usize) -> MemoryHierarchy {
        assert!(requesters > 0, "a hierarchy needs at least one requester");
        MemoryHierarchy {
            cores: (0..requesters)
                .map(|_| RequesterMem {
                    l1i: Cache::new(config.l1i),
                    l1d: Cache::new(config.l1d),
                    mshr: BTreeMap::new(),
                    llc_demand_misses: 0,
                    mshr_merges: 0,
                    mshr_stall_cycles: 0,
                })
                .collect(),
            l2: Cache::new(config.l2),
            dram: Dram::shared(
                config.dram_latency,
                config.dram_bytes_per_cycle,
                config.l2.line_bytes as u64,
                requesters,
            ),
            prefetcher: config.prefetch.map(StreamPrefetcher::new),
            inflight_l2: BTreeMap::new(),
            neighbor_evictions: 0,
            trace: TraceHandle::disabled(),
            trace_epoch: 0,
            trace_epoch_base: (0, 0),
            config,
        }
    }

    /// Number of requesters (cores) sharing the hierarchy.
    pub fn requesters(&self) -> usize {
        self.cores.len()
    }

    /// Connects an observability sink: the hierarchy emits one
    /// [`TraceEvent::MemEpoch`] per fixed-length (8192-cycle) epoch with
    /// the LLC-miss and DRAM-transfer deltas since the previous sample,
    /// tagged with the requester whose miss crossed the boundary.
    pub fn set_trace(&mut self, trace: &TraceHandle) {
        self.trace = trace.clone();
    }

    /// Samples miss/transfer activity when `now` has crossed into a new
    /// epoch. Called from the demand-miss path, so epochs with no misses
    /// fold into the next sample rather than emitting empty events.
    #[expect(clippy::cast_possible_truncation, reason = "requester ids are below the core count")]
    fn sample_epoch(&mut self, requester: usize, now: CycleStamp) {
        let epoch = now.get() / MEM_EPOCH_CYCLES;
        if epoch <= self.trace_epoch {
            return;
        }
        let (miss_base, xfer_base) = self.trace_epoch_base;
        let misses = self.llc_demand_misses();
        let transfers = self.dram.transfers();
        self.trace.record(TraceEvent::MemEpoch {
            cycle: epoch * MEM_EPOCH_CYCLES,
            requester: requester as u32,
            llc_misses: misses.saturating_sub(miss_base),
            dram_transfers: transfers.saturating_sub(xfer_base),
        });
        self.trace_epoch = epoch;
        self.trace_epoch_base = (misses, transfers);
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Accumulated statistics for requester 0 (cache counters are merged in
    /// on read). On a single-requester hierarchy this is *the* statistics
    /// view; on a shared hierarchy prefer [`stats_of`](Self::stats_of) and
    /// [`shared_stats`](Self::shared_stats).
    pub fn stats(&self) -> MemStats {
        self.stats_of(0)
    }

    /// Accumulated statistics attributed to `requester`: its private L1s,
    /// MSHR counters, and LLC misses, plus the shared L2/DRAM totals
    /// (which all requesters observe identically).
    ///
    /// # Panics
    ///
    /// Panics if `requester` is out of range for the hierarchy.
    pub fn stats_of(&self, requester: usize) -> MemStats {
        let pc = &self.cores[requester];
        MemStats {
            l1i: pc.l1i.stats(),
            l1d: pc.l1d.stats(),
            l2: self.l2.stats(),
            llc_demand_misses: pc.llc_demand_misses,
            dram_transfers: self.dram.transfers(),
            mshr_merges: pc.mshr_merges,
            mshr_stall_cycles: pc.mshr_stall_cycles,
        }
    }

    /// Shared-level contention counters (see [`SharedMemStats`]): channel
    /// arbitration waits, MSHR quota stalls, and neighbor-caused LLC
    /// evictions, with a per-requester breakdown.
    pub fn shared_stats(&self) -> SharedMemStats {
        let dram_per = self.dram.requester_stats();
        SharedMemStats {
            l2: self.l2.stats(),
            dram_transfers: self.dram.transfers(),
            arb_wait_cycles: self.dram.arb_wait_cycles(),
            quota_stall_cycles: self.cores.iter().map(|c| c.mshr_stall_cycles).sum(),
            neighbor_evictions: self.neighbor_evictions,
            per_requester: self
                .cores
                .iter()
                .zip(dram_per)
                .map(|(c, d)| RequesterMemStats {
                    llc_demand_misses: c.llc_demand_misses,
                    dram_transfers: d.transfers,
                    arb_wait_cycles: d.arb_wait_cycles,
                    quota_stall_cycles: c.mshr_stall_cycles,
                })
                .collect(),
        }
    }

    /// Demand LLC misses so far across all requesters (the paper's MPKI
    /// numerator on a single-core hierarchy).
    pub fn llc_demand_misses(&self) -> u64 {
        self.cores.iter().map(|c| c.llc_demand_misses).sum()
    }

    /// Demand LLC misses attributed to `requester` — the per-core MPKI
    /// numerator a multi-core SWQUE controller switches on.
    ///
    /// # Panics
    ///
    /// Panics if `requester` is out of range for the hierarchy.
    pub fn llc_demand_misses_of(&self, requester: usize) -> u64 {
        self.cores[requester].llc_demand_misses
    }

    fn purge(&mut self, requester: usize, now: CycleStamp) {
        // Keep the in-flight maps small; entries strictly in the past can go.
        if self.cores[requester].mshr.len() > 64 {
            self.cores[requester].mshr.retain(|_, done| done.stamp() > now);
        }
        if self.inflight_l2.len() > 256 {
            self.inflight_l2.retain(|_, done| done.stamp() > now);
        }
    }

    /// Performs an access starting at cycle `now` on behalf of requester 0;
    /// returns its timing. The single-core entry point over raw cycles —
    /// the pipeline uses [`access_from`](Self::access_from).
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> AccessResult {
        self.access_from(0, addr, kind, CycleStamp::new(now))
    }

    /// Performs an access starting at cycle `now` on behalf of `requester`;
    /// returns its timing.
    ///
    /// # Panics
    ///
    /// Panics if `requester` is out of range for the hierarchy.
    pub fn access_from(
        &mut self,
        requester: usize,
        addr: u64,
        kind: AccessKind,
        now: CycleStamp,
    ) -> AccessResult {
        assert!(requester < self.cores.len(), "requester id out of range");
        self.purge(requester, now);
        let is_data = kind != AccessKind::IFetch;
        let pc = &mut self.cores[requester];
        let l1 = if is_data { &mut pc.l1d } else { &mut pc.l1i };
        let l1_lat = CycleDelta::new(l1.config().hit_latency);
        let l1_line = l1.line_addr(addr);

        if l1.access(addr) {
            // A hit may still be to a line whose fill is in flight.
            if let Some(&done) = pc.mshr.get(&l1_line) {
                if done.stamp() > now && is_data {
                    return AccessResult::new(done, true, false);
                }
            }
            return AccessResult::new(Completion::at(now + l1_lat), true, false);
        }

        // L1 miss. Merge into an outstanding MSHR for the same line if any.
        if is_data {
            if let Some(&done) = pc.mshr.get(&l1_line) {
                if done.stamp() > now {
                    pc.mshr_merges += 1;
                    return AccessResult::new(done, false, false);
                }
            }
        }

        // The per-requester MSHR quota limits when a new data miss may
        // start; waiting on the quota is a *private* stall (quota stalls),
        // not channel contention.
        let mut start = now;
        if is_data {
            loop {
                let busy = pc.mshr.values().filter(|d| d.stamp() > start).count();
                if busy < self.config.mshrs {
                    break;
                }
                let Some(earliest) =
                    pc.mshr.values().map(|d| d.stamp()).filter(|&d| d > start).min()
                else {
                    break; // busy == 0 next iteration anyway
                };
                pc.mshr_stall_cycles += (earliest - start).get();
                start = earliest;
            }
        }

        // Shared L2 lookup.
        let l2_line = self.l2.line_addr(addr);
        let l2_lookup_at = start + l1_lat;
        let l2_lat = CycleDelta::new(self.config.l2.hit_latency);
        let l2_hit = self.l2.access_by(addr, requester);
        let done_at;
        if l2_hit {
            let mut done = Completion::at(l2_lookup_at + l2_lat);
            // Hit to a line still being filled (e.g. by a prefetch in
            // flight): wait for the fill.
            if let Some(&fill_done) = self.inflight_l2.get(&l2_line) {
                if fill_done > done {
                    done = fill_done;
                }
            }
            done_at = done;
        } else {
            self.cores[requester].llc_demand_misses += 1;
            let done = self.dram.request_from(requester, l2_lookup_at + l2_lat);
            self.note_l2_fill(requester, addr, false);
            self.inflight_l2.insert(l2_line, done);
            done_at = done;
        }

        // Prefetcher observes the shared L2 demand stream (instruction
        // fetch streams train it too — sequential code behaves like any
        // other ascending stream at the L2). Prefetches launch at the L2
        // lookup, *not* at demand completion: a prefetch that only enters
        // the channel once the demand it rides on has fully returned would
        // arrive ~`dram_latency` cycles late and lose the timeliness race
        // it exists to win.
        let pf_issue_at = l2_lookup_at + l2_lat;
        {
            if let Some(pf) = &mut self.prefetcher {
                let requests = pf.observe(l2_line, !l2_hit);
                for line in requests {
                    let byte_addr = line << self.config.l2.line_bytes.trailing_zeros();
                    if !self.l2.contains(byte_addr) {
                        let done = self.dram.request_from(requester, pf_issue_at);
                        self.note_l2_fill(requester, byte_addr, true);
                        self.inflight_l2.insert(line, done);
                    }
                }
            }
        }

        // Fill L1 and remember the outstanding miss.
        let pc = &mut self.cores[requester];
        let l1 = if is_data { &mut pc.l1d } else { &mut pc.l1i };
        l1.fill(addr, false);
        if is_data {
            pc.mshr.insert(l1_line, done_at);
        }
        if !l2_hit && self.trace.enabled() {
            self.sample_epoch(requester, now);
        }

        AccessResult::new(done_at, false, l2_hit)
    }

    /// Fills the shared L2 on behalf of `requester`, attributing any
    /// displaced neighbor footprint to the contention counters.
    fn note_l2_fill(&mut self, requester: usize, addr: u64, prefetch: bool) {
        if let Some(evicted_owner) = self.l2.fill_by(addr, prefetch, requester) {
            if evicted_owner != requester {
                self.neighbor_evictions += 1;
            }
        }
    }
}

impl WakeHorizon for MemoryHierarchy {
    /// Earliest in-flight MSHR or L2 fill completion still in the future,
    /// across every requester.
    ///
    /// `purge` is lazy (entries at or before `now` linger until the maps
    /// grow past their thresholds), so stale completions are filtered here
    /// rather than assumed absent. `dram.next_free` is deliberately *not* a
    /// horizon: bandwidth occupancy only delays requests that have not been
    /// made yet — it wakes nothing on its own.
    fn wake_horizon(&self, now: CycleStamp) -> Option<CycleStamp> {
        self.cores
            .iter()
            .flat_map(|c| c.mshr.values())
            .chain(self.inflight_l2.values())
            .map(|done| done.stamp())
            .filter(|&done| done > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, PrefetchConfig};

    fn no_prefetch() -> MemConfig {
        MemConfig { prefetch: None, ..MemConfig::default() }
    }

    #[test]
    fn cold_miss_pays_full_path_then_hits() {
        let mut m = MemoryHierarchy::new(no_prefetch());
        let r = m.access(0x10000, AccessKind::Load, 0);
        assert!(!r.l1_hit && !r.l2_hit);
        // l1(2) + l2(12) + dram(300)
        assert_eq!(r.done_at, 314);
        let r2 = m.access(0x10000, AccessKind::Load, r.done_at);
        assert!(r2.l1_hit);
        assert_eq!(r2.done_at, r.done_at + 2);
    }

    #[test]
    fn independent_misses_overlap_in_dram() {
        let mut m = MemoryHierarchy::new(no_prefetch());
        let a = m.access(0x100000, AccessKind::Load, 0);
        let b = m.access(0x200000, AccessKind::Load, 0);
        assert!(b.done_at < a.done_at + 50, "misses overlap, not serialize");
        assert_eq!(m.stats().llc_demand_misses, 2);
    }

    #[test]
    fn same_line_misses_merge_in_mshr() {
        let mut m = MemoryHierarchy::new(no_prefetch());
        let a = m.access(0x10000, AccessKind::Load, 0);
        let b = m.access(0x10008, AccessKind::Load, 1);
        assert_eq!(b.done_at, a.done_at, "second access waits on the same in-flight line");
        assert_eq!(m.stats().l1d.misses, 1, "tag fill happens at request time");
        assert_eq!(m.stats().llc_demand_misses, 1);
    }

    #[test]
    fn mshr_limit_serializes_excess_misses() {
        let mut cfg = no_prefetch();
        cfg.mshrs = 2;
        let mut m = MemoryHierarchy::new(cfg);
        let a = m.access(0x100000, AccessKind::Load, 0);
        let b = m.access(0x200000, AccessKind::Load, 0);
        let c = m.access(0x300000, AccessKind::Load, 0);
        assert!(c.done_at >= a.done_at.min(b.done_at), "third miss waits for an MSHR");
        assert!(m.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        // Tiny L1 forces eviction; L2 keeps the line.
        let mut cfg = no_prefetch();
        cfg.l1d = CacheConfig { size_bytes: 128, ways: 1, line_bytes: 64, hit_latency: 2 };
        let mut m = MemoryHierarchy::new(cfg);
        let a = m.access(0x0, AccessKind::Load, 0);
        // Conflict: same L1 set (2 sets of 64B), different L2 set.
        let _ = m.access(0x80, AccessKind::Load, a.done_at);
        let c = m.access(0x0, AccessKind::Load, 2000);
        assert!(!c.l1_hit && c.l2_hit);
        assert_eq!(c.done_at, 2000 + 2 + 12);
    }

    #[test]
    fn ifetch_uses_l1i_and_does_not_consume_mshrs() {
        let mut cfg = no_prefetch();
        cfg.mshrs = 1;
        let mut m = MemoryHierarchy::new(cfg);
        let _ = m.access(0x40, AccessKind::IFetch, 0);
        let before = m.stats();
        assert_eq!(before.l1i.accesses, 1);
        assert_eq!(before.l1d.accesses, 0);
        // A following data miss is not blocked by the ifetch miss: the
        // post-access stats must show zero MSHR stalls (snapshotting before
        // the access, as this test originally did, made the assertion
        // vacuous — it could never observe a stall the access caused).
        let d = m.access(0x100000, AccessKind::Load, 0);
        let after = m.stats();
        assert_eq!(after.mshr_stall_cycles, 0, "ifetch must not occupy a data MSHR");
        assert_eq!(after.l1d.accesses, 1);
        assert!(d.done_at <= 314 + 8, "only possible DRAM queueing, no MSHR stall");
    }

    #[test]
    fn data_miss_behind_quota_does_stall() {
        // Counterpart to the ifetch test above, proving the post-access
        // assertion is falsifiable: two *data* misses on a 1-MSHR quota
        // must record stall cycles.
        let mut cfg = no_prefetch();
        cfg.mshrs = 1;
        let mut m = MemoryHierarchy::new(cfg);
        let _ = m.access(0x100000, AccessKind::Load, 0);
        let _ = m.access(0x200000, AccessKind::Load, 0);
        assert!(m.stats().mshr_stall_cycles > 0, "second data miss waits on the quota");
    }

    #[test]
    fn streaming_load_pattern_prefetches_into_l2() {
        let mut m = MemoryHierarchy::new(MemConfig {
            prefetch: Some(PrefetchConfig::default()),
            ..MemConfig::default()
        });
        // March through memory line by line to train the prefetcher.
        let mut now = 0;
        for i in 0..64u64 {
            let r = m.access(0x40_0000 + i * 64, AccessKind::Load, now);
            now = r.done_at;
        }
        let s = m.stats();
        assert!(s.l2.prefetch_fills > 0, "prefetcher fired");
        assert!(s.l2.useful_prefetches > 0, "stream demands hit prefetched lines");
        // Prefetching means later lines are L2 hits instead of DRAM misses.
        assert!(s.llc_demand_misses < 64);
    }

    #[test]
    fn prefetches_launch_at_l2_lookup_not_demand_completion() {
        // The launch-time regression this pins: prefetch DRAM requests used
        // to be issued at the *demand's completion* cycle (which already
        // includes the full DRAM latency), so every prefetched line's fill
        // finished ~dram_latency cycles later than intended and a demand
        // arriving one round-trip later still stalled on the in-flight
        // fill. Issued at the L2 lookup, the fill is complete by then and
        // the demand pays a plain L2 hit.
        let mut m = MemoryHierarchy::new(MemConfig {
            prefetch: Some(PrefetchConfig::default()),
            ..MemConfig::default()
        });
        // Train an ascending stream far from the later probe lines.
        let base = 0x80_0000u64;
        let mut now = 0;
        for i in 0..4u64 {
            let r = m.access(base + i * 64, AccessKind::Load, now);
            now = r.done_at;
        }
        // The access at line 3 prefetched lines 4 and 5; its own DRAM time
        // was ~l1+l2+dram past `now`. One full miss round-trip later, both
        // prefetched lines must be *completed* L2 hits: done_at is exactly
        // the L1-miss + L2-hit service time, with no residual fill wait.
        let probe_at = now + 400;
        let useful_before = m.stats().l2.useful_prefetches;
        let lat = m.config().l1d.hit_latency + m.config().l2.hit_latency;
        for line in [4u64, 5] {
            let r = m.access(base + line * 64, AccessKind::Load, probe_at + line);
            assert!(!r.l1_hit && r.l2_hit, "line {line} was prefetched into L2");
            assert_eq!(
                r.done_at,
                probe_at + line + lat,
                "line {line}: prefetch fill must already be complete (launched at \
                 L2 lookup, not at demand completion)"
            );
        }
        assert_eq!(m.stats().l2.useful_prefetches, useful_before + 2);
    }

    #[test]
    fn store_allocates_like_a_load() {
        let mut m = MemoryHierarchy::new(no_prefetch());
        let w = m.access(0x50000, AccessKind::Store, 0);
        assert!(!w.l1_hit);
        let r = m.access(0x50000, AccessKind::Load, w.done_at);
        assert!(r.l1_hit, "write-allocate brought the line in");
    }

    #[test]
    fn requesters_have_private_l1s_and_quotas() {
        let mut cfg = no_prefetch();
        cfg.mshrs = 1;
        let mut m = MemoryHierarchy::shared(cfg, 2);
        // Requester 0 warms a line; requester 1 still L1-misses it (private
        // L1s) but L2-hits (shared L2).
        let a = m.access_from(0, 0x10000, AccessKind::Load, CycleStamp::new(0));
        let b = m.access_from(1, 0x10000, AccessKind::Load, CycleStamp::new(a.done_at));
        assert!(!b.l1_hit && b.l2_hit, "shared L2, private L1");
        // Requester 1's quota is private: its single MSHR being busy must
        // not stall requester 0.
        let _ = m.access_from(1, 0x200000, AccessKind::Load, CycleStamp::new(5000));
        let before = m.stats_of(0).mshr_stall_cycles;
        let _ = m.access_from(0, 0x300000, AccessKind::Load, CycleStamp::new(5000));
        assert_eq!(m.stats_of(0).mshr_stall_cycles, before, "quotas are per-core");
    }

    #[test]
    fn neighbor_eviction_counted_once_owners_differ() {
        // A tiny L2 (1 set, 1 way) makes every fill an eviction.
        let mut cfg = no_prefetch();
        cfg.l2 = CacheConfig { size_bytes: 64, ways: 1, line_bytes: 64, hit_latency: 12 };
        let mut m = MemoryHierarchy::shared(cfg, 2);
        let _ = m.access_from(0, 0x10000, AccessKind::Load, CycleStamp::new(0));
        assert_eq!(m.shared_stats().neighbor_evictions, 0, "first fill displaces nothing");
        let _ = m.access_from(1, 0x20000, AccessKind::Load, CycleStamp::new(1000));
        assert_eq!(m.shared_stats().neighbor_evictions, 1, "core 1 evicted core 0's line");
        let _ = m.access_from(1, 0x30000, AccessKind::Load, CycleStamp::new(2000));
        assert_eq!(m.shared_stats().neighbor_evictions, 1, "self-eviction is not a neighbor hit");
    }

    #[test]
    fn shared_stats_sum_per_requester_counters() {
        let mut m = MemoryHierarchy::shared(no_prefetch(), 3);
        for (r, addr) in [(0usize, 0x10000u64), (1, 0x20000), (2, 0x30000), (1, 0x40000)] {
            let _ = m.access_from(r, addr, AccessKind::Load, CycleStamp::new(0));
        }
        let shared = m.shared_stats();
        let per_misses: u64 = shared.per_requester.iter().map(|p| p.llc_demand_misses).sum();
        assert_eq!(per_misses, m.llc_demand_misses());
        let per_xfers: u64 = shared.per_requester.iter().map(|p| p.dram_transfers).sum();
        assert_eq!(per_xfers, shared.dram_transfers);
        assert_eq!(m.llc_demand_misses_of(1), 2);
    }
}
