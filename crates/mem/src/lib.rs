//! Memory hierarchy substrate for the SWQUE reproduction.
//!
//! Models the paper's Table 2 memory system as a latency/occupancy timing
//! model (data values flow through the functional emulator, so the caches
//! here are tag-state machines):
//!
//! * **L1 I-cache**: 32 KB, 8-way, 64 B lines.
//! * **L1 D-cache**: 32 KB, 8-way, 64 B lines, 2-cycle hit, non-blocking
//!   (MSHR-limited miss overlap with miss merging).
//! * **L2**: 2 MB, 16-way, 64 B lines, 12-cycle hit — the last-level cache
//!   whose demand misses feed SWQUE's MPKI metric.
//! * **Main memory**: 300-cycle minimum latency, 8 B/cycle bandwidth
//!   (modelled as channel occupancy per line transfer).
//! * **Stream prefetcher**: 32 tracked streams, 16-line distance, 2-line
//!   degree, prefetching into L2.
//!
//! The central type is [`MemoryHierarchy`]; the core simulator calls
//! [`MemoryHierarchy::access`] with a cycle timestamp and receives the cycle
//! at which the access completes.
//!
//! # Example
//!
//! ```
//! use swque_mem::{AccessKind, MemConfig, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(MemConfig::default());
//! let first = mem.access(0x1_0000, AccessKind::Load, 0);
//! assert!(first.done_at >= 300, "cold miss goes to DRAM");
//! let again = mem.access(0x1_0000, AccessKind::Load, first.done_at);
//! assert_eq!(again.done_at, first.done_at + 2, "L1 hit costs 2 cycles");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod dram;
mod hierarchy;
mod prefetch;
mod stats;

pub use cache::Cache;
pub use config::{CacheConfig, MemConfig, PrefetchConfig};
pub use dram::{Completion, Dram, DramRequesterStats};
pub use hierarchy::{AccessKind, AccessResult, MemoryHierarchy};
pub use prefetch::StreamPrefetcher;
pub use stats::{CacheStats, MemStats, RequesterMemStats, SharedMemStats};
