//! Main-memory channel model: fixed minimum latency plus bandwidth
//! occupancy, shared between N requesters under round-robin arbitration.
//!
//! # Arbitration model
//!
//! The channel serves one line per `transfer_cycles`. With a single
//! requester the schedule is pure first-come packing (`start = max(now,
//! next_free)`) — bit-identical to the historical single-core model. With
//! several requesters, first-come packing would let whichever core calls
//! first monopolize the channel, so the arbiter layers a round-robin rate
//! cap on top (the burst-stabilized RR discipline of CICQ switches, arXiv
//! cs/0403029, reduced to a single shared channel as start-time fair
//! queuing):
//!
//! * While `k` requesters are active (have requested within the activity
//!   window), each requester's consecutive grants must be spaced at least
//!   `k * transfer_cycles` apart — its round-robin share of the channel.
//! * A grant pushed past the packed backlog by its own rate cap leaves the
//!   declined slots behind as reserved **holes**.
//! * Any requester whose rate cap permits claims the **earliest hole** at
//!   or after its own earliest start instead of queueing behind the full
//!   backlog — this is where interleaving actually happens, since
//!   already-granted completions cannot be rescheduled. A burst's own
//!   holes sit *behind* its next allowed start, so a flooder can never
//!   reclaim the slots it declined: they are, collectively, the share of
//!   the other active requesters.
//! * Holes whose start cycle passes unclaimed expire (the bandwidth is
//!   lost, as in hardware holding a slot for a requester that never
//!   arrives); the activity window bounds how long an idle neighbor can
//!   keep costing the busy one slots.
//!
//! The result is deterministic, call-order-independent fairness: a
//! requester that keeps at most one request outstanding waits a bounded
//! number of slots regardless of how aggressively neighbors queue (the
//! `proptest_dram` starvation-freedom property pins the bound).

use std::collections::BTreeSet;

use swque_core::cycle::{CycleDelta, CycleStamp};

/// The cycle at which a requested line arrives. [`Dram::request_from`]
/// takes the cycle a request is *launched* at as a plain [`CycleStamp`]
/// and returns this distinct type, so a completion cannot be passed where
/// a launch is expected: launching a prefetch at the completion of the
/// miss it rides on (which already includes the whole DRAM latency) is a
/// type error. Waiting on a completion goes through
/// [`stamp`](Self::stamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Completion(CycleStamp);

impl Completion {
    /// The completion at cycle `at`.
    pub(crate) fn at(at: CycleStamp) -> Completion {
        Completion(at)
    }

    /// The cycle the data is available, as a point on the clock.
    pub fn stamp(self) -> CycleStamp {
        self.0
    }
}

/// Per-requester DRAM channel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramRequesterStats {
    /// Line transfers granted to this requester.
    pub transfers: u64,
    /// Cycles this requester's requests spent waiting on the channel while
    /// at least one *other* requester was active (arbitration contention;
    /// self-queueing behind one's own backlog does not count).
    pub arb_wait_cycles: u64,
}

/// Reserved-hole retention cap. A requester with unboundedly many requests
/// in flight could otherwise grow the hole set without bound (its rate cap
/// pushes its frontier ahead of real time, minting a hole per decline);
/// real cores are MSHR-limited so the set stays tiny, but the cap makes
/// the worst case a bounded loss of *future* reserved slots, never an
/// unbounded allocation.
const MAX_HOLES: usize = 1024;

/// A DRAM channel with a minimum access latency, a line-transfer occupancy
/// derived from the configured bandwidth, and round-robin arbitration
/// between requesters (see the module docs).
#[derive(Debug, Clone)]
pub struct Dram {
    latency: CycleDelta,
    transfer_cycles: CycleDelta,
    next_free: CycleStamp,
    transfers: u64,
    /// Reserved future slots declined by rate-capped requesters: start
    /// cycles, claimable by any requester whose own rate cap reaches back
    /// that far. Expired entries (start < now) are pruned lazily.
    holes: BTreeSet<CycleStamp>,
    /// Last request cycle per requester (`None` until the first request).
    last_req: Vec<Option<CycleStamp>>,
    /// Last granted slot start per requester (rate-cap anchor).
    last_grant: Vec<Option<CycleStamp>>,
    per: Vec<DramRequesterStats>,
    /// Total contended wait cycles (sum of the per-requester counters).
    arb_wait_cycles: u64,
}

impl Dram {
    /// Creates a single-requester channel with `latency` minimum cycles per
    /// access and a per-line occupancy of `line_bytes / bytes_per_cycle`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    pub fn new(latency: u64, bytes_per_cycle: u64, line_bytes: u64) -> Dram {
        Dram::shared(latency, bytes_per_cycle, line_bytes, 1)
    }

    /// Creates a channel shared by `requesters` cores under round-robin
    /// arbitration. With `requesters == 1` the schedule is bit-identical
    /// to [`Dram::new`]'s first-come packing.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` or `requesters` is zero.
    pub fn shared(
        latency: u64,
        bytes_per_cycle: u64,
        line_bytes: u64,
        requesters: usize,
    ) -> Dram {
        assert!(bytes_per_cycle > 0, "bandwidth must be positive");
        assert!(requesters > 0, "a channel needs at least one requester");
        Dram {
            latency: CycleDelta::new(latency),
            transfer_cycles: CycleDelta::new(line_bytes.div_ceil(bytes_per_cycle)),
            next_free: CycleStamp::ZERO,
            transfers: 0,
            holes: BTreeSet::new(),
            last_req: vec![None; requesters],
            last_grant: vec![None; requesters],
            per: vec![DramRequesterStats::default(); requesters],
            arb_wait_cycles: 0,
        }
    }

    /// Number of requesters sharing the channel.
    pub fn requesters(&self) -> usize {
        self.per.len()
    }

    /// Requests one line launched at cycle `now` on behalf of `requester`;
    /// returns its completion under round-robin arbitration. A single
    /// requester gets first-come packing: completion is `start + latency`
    /// where `start = max(now, next_free)`.
    ///
    /// # Panics
    ///
    /// Panics if `requester` is out of range for the channel.
    pub fn request_from(&mut self, requester: usize, now: CycleStamp) -> Completion {
        assert!(requester < self.per.len(), "requester id out of range");
        // Expired holes: their start cycle passed unclaimed.
        while let Some(&start) = self.holes.first() {
            if start >= now {
                break;
            }
            self.holes.remove(&start);
        }
        self.last_req[requester] = Some(now);
        let window = self.activity_window();
        let active = self
            .last_req
            .iter()
            .filter(|t| t.is_some_and(|t| t + window > now))
            .count() as u64;
        let others_active = active >= 2;

        // The rate cap: while k requesters share the channel, this
        // requester's next grant may start no earlier than one full
        // round-robin rotation after its previous one.
        let earliest = if others_active {
            let spacing = self.transfer_cycles * active;
            now.max(self.last_grant[requester].map_or(now, |g| g + spacing))
        } else {
            now
        };

        let start = match others_active
            .then(|| self.holes.range(earliest..).next().copied())
            .flatten()
        {
            Some(hole) => {
                // Claim a slot a rate-capped burst declined: the grant
                // slips into the reserved hole instead of queueing behind
                // the backlog. The backlog frontier does not move.
                self.holes.remove(&hole);
                hole
            }
            None => {
                let start = earliest.max(self.next_free);
                if others_active {
                    // Slots the rate cap declined stay reserved for the
                    // other active requesters.
                    let mut hole = now.max(self.next_free);
                    while hole + self.transfer_cycles <= start && self.holes.len() < MAX_HOLES {
                        self.holes.insert(hole);
                        hole += self.transfer_cycles;
                    }
                }
                self.next_free = start + self.transfer_cycles;
                start
            }
        };
        self.last_grant[requester] = Some(start);

        if others_active {
            let wait = (start - now).get();
            self.per[requester].arb_wait_cycles += wait;
            self.arb_wait_cycles += wait;
        }
        self.transfers += 1;
        self.per[requester].transfers += 1;
        Completion(start + self.latency)
    }

    /// How long after its last request a requester still counts as an
    /// active contender for arbitration purposes. Sized to cover one full
    /// miss round-trip with slack, so a latency-bound requester (one
    /// outstanding miss at a time) stays continuously active.
    fn activity_window(&self) -> CycleDelta {
        (self.latency + self.transfer_cycles) * 2
    }

    /// Number of line transfers performed (all requesters).
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total cycles requests waited on the channel while another requester
    /// was active (all requesters).
    pub fn arb_wait_cycles(&self) -> u64 {
        self.arb_wait_cycles
    }

    /// Per-requester channel counters (empty slice never occurs; the
    /// channel always has at least one requester).
    pub fn requester_stats(&self) -> &[DramRequesterStats] {
        &self.per
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(cycle: u64) -> CycleStamp {
        CycleStamp::new(cycle)
    }

    fn done(cycle: u64) -> Completion {
        Completion(at(cycle))
    }

    #[test]
    fn single_request_pays_minimum_latency() {
        let mut d = Dram::new(300, 8, 64);
        assert_eq!(d.request_from(0, at(100)), done(400));
    }

    #[test]
    fn back_to_back_requests_overlap_latency_but_not_bandwidth() {
        let mut d = Dram::new(300, 8, 64);
        let a = d.request_from(0, at(0));
        let b = d.request_from(0, at(0));
        let c = d.request_from(0, at(0));
        assert_eq!(a, done(300));
        assert_eq!(b, done(308), "second transfer starts 8 cycles later (64B @ 8B/cyc)");
        assert_eq!(c, done(316));
        // Overlap: three misses cost 316 cycles, not 900 — this is the MLP
        // effect the paper's capacity-demanding phases exploit.
        assert!(c < done(3 * 300));
    }

    #[test]
    fn channel_idles_between_distant_requests() {
        let mut d = Dram::new(300, 8, 64);
        d.request_from(0, at(0));
        assert_eq!(d.request_from(0, at(1000)), done(1300), "no residual queueing after idle gap");
    }

    #[test]
    fn transfer_count_tracks_requests() {
        let mut d = Dram::new(10, 8, 64);
        d.request_from(0, at(0));
        d.request_from(0, at(0));
        assert_eq!(d.transfers(), 2);
    }

    #[test]
    fn single_requester_shared_channel_matches_new() {
        let mut a = Dram::new(300, 8, 64);
        let mut b = Dram::shared(300, 8, 64, 1);
        for now in [0, 0, 5, 700, 700, 701, 10_000] {
            assert_eq!(a.request_from(0, at(now)), b.request_from(0, at(now)));
        }
        assert_eq!(a.arb_wait_cycles(), 0);
        assert_eq!(b.arb_wait_cycles(), 0, "no contention possible with one requester");
    }

    #[test]
    fn rate_capped_aggressor_leaves_claimable_holes() {
        let mut d = Dram::shared(300, 8, 64, 2);
        // Both requesters announce themselves, then requester 0 floods.
        let v0 = d.request_from(1, at(0));
        assert_eq!(v0, done(300));
        let a = d.request_from(0, at(0));
        let b = d.request_from(0, at(0));
        let c = d.request_from(0, at(0));
        // First aggressor grant packs (slot at 8); with two active
        // requesters its grants must then be spaced 2 slots apart, so the
        // next two land at 24 and 40, each leaving the declined slot (16,
        // then 32) reserved.
        assert_eq!(a, done(308));
        assert_eq!(b, done(324));
        assert_eq!(c, done(340));
        // The victim's next request claims the earliest reserved hole (16)
        // instead of queueing behind the whole backlog.
        let v1 = d.request_from(1, at(1));
        assert!(v1 <= done(316), "victim claims a declined slot, got completion {v1:?}");
    }

    #[test]
    fn aggressor_cannot_reclaim_its_own_declined_slots() {
        let mut d = Dram::shared(300, 8, 64, 2);
        d.request_from(1, at(0));
        d.request_from(0, at(0)); // grant at 8
        d.request_from(0, at(0)); // grant at 24, hole at 16
        // The aggressor's own rate cap (next earliest start 40) is past the
        // hole it just declined, so its next grant cannot slip back into it.
        let again = d.request_from(0, at(0));
        assert_eq!(again, done(340), "rate cap holds the flood to every other slot");
        // The hole is still there for the victim.
        assert_eq!(d.request_from(1, at(2)), done(316));
    }

    #[test]
    fn lone_requester_is_never_throttled_by_idle_neighbors() {
        // Requester 1 exists but never requests: requester 0 must keep the
        // historical solid-packing schedule.
        let mut d = Dram::shared(300, 8, 64, 2);
        let mut solo = Dram::new(300, 8, 64);
        for now in [0, 0, 0, 4, 16, 16] {
            assert_eq!(d.request_from(0, at(now)), solo.request_from(0, at(now)));
        }
        assert_eq!(d.arb_wait_cycles(), 0);
    }

    #[test]
    fn per_requester_transfers_sum_to_total() {
        let mut d = Dram::shared(100, 8, 64, 3);
        for (r, now) in [(0, 0), (1, 0), (2, 1), (0, 2), (1, 900), (1, 901)] {
            d.request_from(r, at(now));
        }
        let per: u64 = d.requester_stats().iter().map(|s| s.transfers).sum();
        assert_eq!(per, d.transfers());
        assert_eq!(d.requester_stats()[1].transfers, 3);
        let per_wait: u64 = d.requester_stats().iter().map(|s| s.arb_wait_cycles).sum();
        assert_eq!(per_wait, d.arb_wait_cycles());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_requester_rejected() {
        let mut d = Dram::shared(100, 8, 64, 2);
        let _ = d.request_from(2, at(0));
    }

    #[test]
    fn expired_holes_do_not_serve_late_requests() {
        let mut d = Dram::shared(300, 8, 64, 2);
        d.request_from(1, at(0));
        d.request_from(0, at(0));
        d.request_from(0, at(0)); // declines slot 16
        // Requester 1 arrives long after the hole's start cycle passed (and
        // after requester 0's activity window lapsed): the hole has expired
        // and the request is served like an uncontended one.
        let late = d.request_from(1, at(1_000));
        assert_eq!(late, done(1_300), "expired hole is not claimable");
    }
}
