//! Set-associative cache tag array with true LRU.

use crate::config::CacheConfig;
use crate::stats::CacheStats;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    lru: u64,
    valid: bool,
    /// Set when the line was filled by the prefetcher and not yet demanded.
    prefetched: bool,
    /// Requester that last touched (filled or demanded) the line. Only
    /// meaningful for shared caches; private caches leave it at 0.
    owner: usize,
}

/// A cache tag array (timing model only — data lives in the functional
/// emulator's memory).
///
/// Write policy is write-back/write-allocate, but since no data moves, the
/// only observable consequence is that stores allocate lines like loads.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.num_sets();
        Cache {
            config,
            sets: vec![
                vec![
                    Line { tag: 0, lru: 0, valid: false, prefetched: false, owner: 0 };
                    config.ways
                ];
                sets
            ],
            set_mask: sets as u64 - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line-aligned address of `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[expect(clippy::cast_possible_truncation, reason = "masked below the set count, a usize")]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    fn tag_of(&self, line: u64) -> u64 {
        line >> self.set_mask.count_ones()
    }

    /// Demand access: returns `true` on hit. Updates LRU and statistics; a
    /// hit to a prefetched line is counted as a useful prefetch.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_by(addr, 0)
    }

    /// [`access`](Cache::access) on behalf of requester `owner` (shared
    /// caches track the last toucher per line so evictions can be
    /// attributed to neighbors).
    pub fn access_by(&mut self, addr: u64, owner: usize) -> bool {
        let line = self.line_addr(addr);
        let (set, tag) = (self.set_of(line), self.tag_of(line));
        self.clock += 1;
        let clock = self.clock;
        self.stats.accesses += 1;
        for way in &mut self.sets[set] {
            if way.valid && way.tag == tag {
                way.lru = clock;
                way.owner = owner;
                if way.prefetched {
                    way.prefetched = false;
                    self.stats.useful_prefetches += 1;
                }
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Probe without side effects: is the line present?
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let (set, tag) = (self.set_of(line), self.tag_of(line));
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Fills the line containing `addr`, evicting LRU if the set is full.
    /// `prefetch` marks the fill as prefetcher-initiated.
    pub fn fill(&mut self, addr: u64, prefetch: bool) {
        let _ = self.fill_by(addr, prefetch, 0);
    }

    /// [`fill`](Cache::fill) on behalf of requester `owner`. Returns the
    /// last toucher of the line this fill evicted, or `None` when no valid
    /// line was displaced (invalid way available, or the line was already
    /// present).
    pub fn fill_by(&mut self, addr: u64, prefetch: bool, owner: usize) -> Option<usize> {
        let line = self.line_addr(addr);
        let (set, tag) = (self.set_of(line), self.tag_of(line));
        self.clock += 1;
        let clock = self.clock;
        let set = &mut self.sets[set];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            // Already present (e.g. prefetch raced a demand fill).
            way.lru = clock;
            way.owner = owner;
            return None;
        }
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        // Fill an invalid way, else evict LRU (invalid sorts first).
        let victim = set.iter_mut().min_by_key(|w| (w.valid, w.lru))?;
        let evicted = victim.valid.then_some(victim.owner);
        *victim = Line { tag, lru: clock, valid: true, prefetched: prefetch, owner };
        evicted
    }

    /// Access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 bytes.
        Cache::new(CacheConfig { size_bytes: 256, ways: 2, line_bytes: 64, hit_latency: 1 })
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = tiny();
        assert!(!c.access(0x0));
        c.fill(0x0, false);
        assert!(c.access(0x0));
        assert!(c.access(0x3F), "same line");
        assert!(!c.access(0x40), "next line is a different set");
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = tiny();
        // Set stride: 2 sets of 64B lines => addresses 0, 128, 256 share set 0.
        c.fill(0, false);
        c.fill(128, false);
        assert!(c.access(0)); // 0 becomes MRU
        c.fill(256, false); // evicts 128
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn prefetched_line_counts_useful_on_demand_hit() {
        let mut c = tiny();
        c.fill(0, true);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(0));
        assert_eq!(c.stats().useful_prefetches, 1);
        // Second hit is no longer "useful": already demanded once.
        assert!(c.access(0));
        assert_eq!(c.stats().useful_prefetches, 1);
    }

    #[test]
    fn duplicate_fill_does_not_duplicate_line() {
        let mut c = tiny();
        c.fill(0, false);
        c.fill(0, false);
        c.fill(128, false);
        // If fill(0) had claimed two ways, 128 would have evicted one of
        // them and this would miss:
        assert!(c.contains(0));
        assert!(c.contains(128));
    }

    #[test]
    fn fill_by_reports_evicted_owner() {
        let mut c = tiny();
        assert_eq!(c.fill_by(0, false, 0), None, "invalid way, nothing displaced");
        assert_eq!(c.fill_by(128, false, 1), None);
        // Set 0 is now full (lines 0 and 128); owner of line 0 is 0.
        assert_eq!(c.fill_by(256, false, 1), Some(0), "evicted LRU line's last toucher");
        // Re-filling a present line reports no eviction but retags owner.
        assert_eq!(c.fill_by(256, false, 0), None);
        c.fill_by(128, false, 1); // LRU-refresh 128 so 256 is the victim
        assert_eq!(c.fill_by(0, false, 1), Some(0), "owner updated by the re-fill");
    }

    #[test]
    fn access_by_retags_line_owner() {
        let mut c = tiny();
        c.fill_by(0, false, 0);
        assert!(c.access_by(0, 1), "hit retags the toucher");
        c.fill_by(128, false, 0);
        assert_eq!(c.fill_by(256, false, 0), Some(1), "eviction sees the demand toucher");
    }

    #[test]
    fn stats_count_accesses_and_misses() {
        let mut c = tiny();
        c.access(0);
        c.fill(0, false);
        c.access(0);
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }
}
