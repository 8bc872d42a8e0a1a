//! Memory system configuration.

/// Geometry and hit latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two set count or
    /// line size, or zero ways).
    pub fn num_sets(&self) -> usize {
        assert!(self.ways > 0, "cache needs at least one way");
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        assert!(sets.is_power_of_two() && sets > 0, "set count must be a power of two");
        sets
    }

    /// The paper's L1 I-cache: 32 KB, 8-way, 64 B lines, 1-cycle hit.
    pub fn l1i() -> CacheConfig {
        CacheConfig { size_bytes: 32 << 10, ways: 8, line_bytes: 64, hit_latency: 1 }
    }

    /// The paper's L1 D-cache: 32 KB, 8-way, 64 B lines, 2-cycle hit.
    pub fn l1d() -> CacheConfig {
        CacheConfig { size_bytes: 32 << 10, ways: 8, line_bytes: 64, hit_latency: 2 }
    }

    /// The paper's L2: 2 MB, 16-way, 64 B lines, 12-cycle hit.
    pub fn l2() -> CacheConfig {
        CacheConfig { size_bytes: 2 << 20, ways: 16, line_bytes: 64, hit_latency: 12 }
    }
}

/// Stream prefetcher parameters (paper Table 2: 32 streams tracked, 16-line
/// distance, 2-line degree, prefetch into L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Number of concurrently tracked streams.
    pub streams: usize,
    /// Prefetch distance ahead of the demand stream, in lines.
    pub distance: u64,
    /// Lines fetched per triggering access.
    pub degree: u64,
}

impl Default for PrefetchConfig {
    fn default() -> PrefetchConfig {
        PrefetchConfig { streams: 32, distance: 16, degree: 2 }
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 (the last-level cache).
    pub l2: CacheConfig,
    /// Minimum main-memory latency in cycles.
    pub dram_latency: u64,
    /// Main-memory bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: u64,
    /// Number of L1D miss-status-holding registers (outstanding misses).
    pub mshrs: usize,
    /// Stream prefetcher, or `None` to disable.
    pub prefetch: Option<PrefetchConfig>,
}

impl Default for MemConfig {
    /// The paper's Table 2 memory system.
    fn default() -> MemConfig {
        MemConfig {
            l1i: CacheConfig::l1i(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            dram_latency: 300,
            dram_bytes_per_cycle: 8,
            mshrs: 16,
            prefetch: Some(PrefetchConfig::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_geometries() {
        assert_eq!(CacheConfig::l1d().num_sets(), 64);
        assert_eq!(CacheConfig::l1i().num_sets(), 64);
        assert_eq!(CacheConfig::l2().num_sets(), 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let c = CacheConfig { size_bytes: 3000, ways: 2, line_bytes: 64, hit_latency: 1 };
        let _ = c.num_sets();
    }

    #[test]
    fn default_mem_config_matches_paper() {
        let m = MemConfig::default();
        assert_eq!(m.dram_latency, 300);
        assert_eq!(m.dram_bytes_per_cycle, 8);
        let p = m.prefetch.unwrap();
        assert_eq!((p.streams, p.distance, p.degree), (32, 16, 2));
    }
}
