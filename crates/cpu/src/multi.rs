//! Lockstep multi-core simulation over a shared memory hierarchy, and the
//! one drive loop every simulation runs through.
//!
//! [`MultiCoreSim`] steps N pipelines round-robin, one cycle each, over one
//! [`MemoryHierarchy`] built with [`MemoryHierarchy::shared`]: private L1s
//! and MSHR quotas per core, shared L2/prefetcher/DRAM with round-robin
//! channel arbitration (DESIGN.md §11). Core `i` is requester `i`, so every
//! shared-level counter ([`MemoryHierarchy::shared_stats`]) and MemEpoch
//! trace event attributes traffic to the core that caused it.
//!
//! # A single core is the N=1 case of the same loop
//!
//! [`Core::run`](crate::Core::run) calls the same drive loop with a
//! one-element slice over its private hierarchy, and a one-requester
//! shared hierarchy is bit-identical to that private one, so
//! `MultiCoreSim` with N=1 produces a byte-identical [`SimResult`] to a
//! standalone [`Core`](crate::Core) — pinned by the `multi_differential`
//! test across all queue kinds.
//!
//! # Quiescence skipping
//!
//! A clock jump is taken only when *every* active core is quiescent (its
//! [`quiescent_horizon`](crate::Core::quiescent_horizon) over the shared
//! hierarchy, whose wake horizon covers neighbors' in-flight fills) and
//! every active core has skipping enabled. The jump length is the minimum over the cores'
//! horizons, so no core is carried past its own wake-up; cores that have
//! finished (or hit their retirement bound, or froze on a violation) no
//! longer advance and do not constrain the jump.

use swque_core::cycle::CycleDelta;
use swque_core::IqKind;
use swque_isa::Program;
use swque_mem::{MemoryHierarchy, SharedMemStats};
use swque_trace::TraceHandle;

use crate::config::CoreConfig;
use crate::core::Pipeline;
use crate::result::SimResult;

/// N cores in lockstep over one shared memory hierarchy.
#[derive(Debug)]
pub struct MultiCoreSim {
    cores: Vec<Pipeline>,
    mem: MemoryHierarchy,
}

impl MultiCoreSim {
    /// Creates `workloads.len()` cores — core `i` running `workloads[i]`'s
    /// program with its issue-queue kind — sharing one hierarchy built
    /// from `config.mem`. Every core uses the same `config` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    pub fn new(config: CoreConfig, workloads: &[(IqKind, &Program)]) -> MultiCoreSim {
        assert!(!workloads.is_empty(), "a multi-core sim needs at least one core");
        let mem = MemoryHierarchy::shared(config.mem, workloads.len());
        let cores = workloads
            .iter()
            .enumerate()
            .map(|(i, (kind, program))| Pipeline::new(config.clone(), *kind, program, i))
            .collect();
        MultiCoreSim { cores, mem }
    }

    /// The shared memory hierarchy.
    pub fn mem(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Shared-level contention counters
    /// (see [`MemoryHierarchy::shared_stats`]).
    pub fn shared_stats(&self) -> SharedMemStats {
        self.mem.shared_stats()
    }

    /// Connects an observability sink to every core and to the shared
    /// hierarchy (MemEpoch events carry the triggering requester id).
    pub fn attach_trace(&mut self, trace: &TraceHandle) {
        for core in &mut self.cores {
            core.attach_trace(trace);
        }
        self.mem.set_trace(trace);
    }

    /// Enables or disables quiescence skipping on every core (jumps are
    /// all-or-nothing across cores, so a single disabled core pins the
    /// whole sim to per-cycle stepping).
    pub fn set_skip(&mut self, on: bool) {
        for core in &mut self.cores {
            core.set_skip(on);
        }
    }

    /// `(jumps_taken, cycles_skipped)` summed over all cores — host-side
    /// observability only, never part of any [`SimResult`].
    pub fn skip_stats(&self) -> (u64, u64) {
        self.cores
            .iter()
            .map(Pipeline::skip_stats)
            .fold((0, 0), |(j, c), (dj, dc)| (j + dj, c + dc))
    }

    /// Runs every core until it retires `max_insts` instructions, finishes
    /// its program, or freezes on an invariant violation; cores that reach
    /// any of those stop stepping while the rest continue. Returns one
    /// [`SimResult`] per core, indexed by requester id.
    pub fn run(&mut self, max_insts: u64) -> Vec<SimResult> {
        drive(&mut self.cores, &mut self.mem, max_insts);
        self.cores.iter().map(|c| c.result(&self.mem)).collect()
    }
}

/// The drive loop: steps every active pipeline one cycle over `mem`,
/// checks its progress, then tries one lockstep clock jump — until no
/// pipeline is active (retired `max_insts`, finished, or frozen on a
/// violation).
pub(crate) fn drive(cores: &mut [Pipeline], mem: &mut MemoryHierarchy, max_insts: u64) {
    loop {
        let mut stepped = false;
        for core in cores.iter_mut() {
            if core.active(max_insts) {
                stepped = true;
                core.step_cycle(mem);
                core.check_progress();
            }
        }
        if !stepped {
            break;
        }
        try_skip(cores, mem, max_insts);
    }
}

/// One skip attempt: jump every active pipeline by the minimum of their
/// quiescent horizons, or nothing at all (some pipeline must tick, or has
/// skipping disabled).
fn try_skip(cores: &mut [Pipeline], mem: &MemoryHierarchy, max_insts: u64) {
    let mut jump: Option<CycleDelta> = None;
    for core in cores.iter() {
        if !core.active(max_insts) {
            continue;
        }
        if !core.skip_enabled() {
            return;
        }
        let Some(h) = core.quiescent_horizon(mem) else { return };
        let n = h - core.cycle();
        if n == CycleDelta::ZERO {
            return;
        }
        jump = Some(jump.map_or(n, |j| j.min(n)));
    }
    let Some(n) = jump else { return };
    for core in cores.iter_mut() {
        if core.active(max_insts) {
            core.apply_skip(n);
            core.check_progress();
        }
    }
}
