//! `neighbor`: multi-core memory-system interference (DESIGN.md §11).
//!
//! A measured SWQUE core runs a latency-sensitive pointer-chase kernel
//! while 0–3 aggressor cores run memory-hungry kernels next to it, all
//! sharing one L2, stream prefetcher, and DRAM channel via
//! [`swque_cpu::MultiCoreSim`]. The experiment reports the measured core's
//! slowdown relative to its solo run and the shared hierarchy's contention
//! counters — DRAM arbitration waits, MSHR-quota stalls, and
//! neighbor-caused LLC evictions — broken down per requester.
//!
//! The experiment models a shared [`MSHR_POOL`]-entry MSHR file statically
//! partitioned across cores (`pool / n`, floored at 1), so each core's
//! miss-level parallelism is quota-limited exactly as a banked MSHR file
//! would limit it: co-running costs a core half its miss parallelism
//! before the first cycle of channel contention. The solo scenario keeps
//! the whole pool and is bit-identical to a standalone single-core run of
//! the same configuration.
//!
//! Scenario count can be capped with `SWQUE_NEIGHBOR_MAX` (0–3, default
//! 3; an unparsable value is an error) — verify.sh uses 1 for its
//! determinism smoke. Budgets follow the
//! usual `SWQUE_WARMUP`/`SWQUE_INSTS` knobs; the JSON report
//! (`<SWQUE_JSON>/BENCH_neighbor.json`) carries one requester-tagged row
//! per core per scenario.
//!
//! Per-scenario contention counters are echoed to stderr as
//! `[neighbor] aggressors=<n> arb_wait_cycles=<w> quota_stall_cycles=<q>`
//! so the verify gate can assert non-vacuity without parsing tables.

use swque_bench::harness::knob;
use swque_bench::{json_dir, Budget, Report, Table};
use swque_core::IqKind;
use swque_cpu::{CoreConfig, MultiCoreSim, SimResult};
use swque_mem::SharedMemStats;
use swque_trace::Json;
use swque_workloads::suite;

/// The latency-sensitive kernel on the measured core (requester 0): a
/// pointer chase, where every DRAM arbitration wait lands on the critical
/// path.
const MEASURED: &str = "omnetpp_like";

/// Aggressor kernels, added in order: streaming (bandwidth), streaming
/// with high MLP, and a second pointer chase (LLC footprint).
const AGGRESSORS: [&str; 3] = ["lbm_like", "fotonik3d_like", "xz_like"];

/// Shared MSHR file size, statically partitioned across cores. Half the
/// medium model's single-core file: a shared L2's MSHR bank is a scarcer
/// resource than a private one, and the tighter pool makes the quota the
/// first contention point an MLP burst hits (the suite's MLP kernels keep
/// 8 misses in flight, so a 2-core split of 4 visibly binds).
const MSHR_POOL: usize = 8;

fn max_aggressors() -> usize {
    knob("SWQUE_NEIGHBOR_MAX", AGGRESSORS.len(), 0).min(AGGRESSORS.len())
}

/// Field-wise counter delta `now - earlier` of the shared-level stats
/// (measurement window exclusion, mirroring `SimResult::delta`).
fn delta_shared(now: &SharedMemStats, earlier: &SharedMemStats) -> SharedMemStats {
    let mut d = now.clone();
    d.l2 = now.l2.delta(&earlier.l2);
    d.dram_transfers -= earlier.dram_transfers;
    d.arb_wait_cycles -= earlier.arb_wait_cycles;
    d.quota_stall_cycles -= earlier.quota_stall_cycles;
    d.neighbor_evictions -= earlier.neighbor_evictions;
    for (p, e) in d.per_requester.iter_mut().zip(&earlier.per_requester) {
        p.llc_demand_misses -= e.llc_demand_misses;
        p.dram_transfers -= e.dram_transfers;
        p.arb_wait_cycles -= e.arb_wait_cycles;
        p.quota_stall_cycles -= e.quota_stall_cycles;
    }
    d
}

struct Scenario {
    aggressors: usize,
    results: Vec<SimResult>,
    shared: SharedMemStats,
    kernels: Vec<&'static str>,
}

fn run_scenario(aggressors: usize, warmup: u64, insts: u64) -> Scenario {
    let kernels: Vec<&'static str> =
        std::iter::once(MEASURED).chain(AGGRESSORS[..aggressors].iter().copied()).collect();
    let programs: Vec<_> = kernels
        .iter()
        .map(|name| suite::by_name(name).expect("pinned kernel exists").build_seeded(None, 0))
        .collect();
    // The measured core runs the paper's SWQUE queue; aggressors are plain
    // traffic generators and use the baseline SHIFT queue.
    let workloads: Vec<(IqKind, &swque_isa::Program)> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| (if i == 0 { IqKind::Swque } else { IqKind::Shift }, p))
        .collect();

    let mut config = CoreConfig::medium();
    // Static MSHR partitioning: the shared pool split across cores.
    config.mem.mshrs = (MSHR_POOL / workloads.len()).max(1);

    let mut sim = MultiCoreSim::new(config, &workloads);
    let warm = sim.run(warmup);
    let warm_shared = sim.shared_stats();
    let full = sim.run(warmup + insts);
    let results: Vec<SimResult> = full.iter().zip(&warm).map(|(f, w)| f.delta(w)).collect();
    let shared = delta_shared(&sim.shared_stats(), &warm_shared);
    Scenario { aggressors, results, shared, kernels }
}

fn main() {
    let budget = Budget::from_env();
    let json_dir = json_dir();
    let (warmup, insts) = (budget.warmup_insts, budget.max_insts);
    let mut report = Report::new("neighbor", &budget);
    report.param("measured_kernel", MEASURED);
    report.param("measured_iq", IqKind::Swque.label());

    let scenarios: Vec<Scenario> =
        (0..=max_aggressors()).map(|n| run_scenario(n, warmup, insts)).collect();
    let solo_cycles = scenarios[0].results[0].cycles;

    let mut summary = Table::new([
        "aggressors",
        "measured cycles",
        "slowdown",
        "measured IPC",
        "arb_wait_cycles",
        "quota_stall_cycles",
        "neighbor_evictions",
    ]);
    let mut per_req = Table::new([
        "aggressors",
        "requester",
        "role",
        "kernel",
        "cycles",
        "ipc",
        "llc_demand_misses",
        "dram_transfers",
        "arb_wait_cycles",
        "quota_stall_cycles",
    ]);

    for s in &scenarios {
        let measured = &s.results[0];
        summary.row([
            s.aggressors.to_string(),
            measured.cycles.to_string(),
            format!("{:.3}x", measured.cycles as f64 / solo_cycles as f64),
            format!("{:.3}", measured.ipc()),
            s.shared.arb_wait_cycles.to_string(),
            s.shared.quota_stall_cycles.to_string(),
            s.shared.neighbor_evictions.to_string(),
        ]);
        for (r, result) in s.results.iter().enumerate() {
            let role = if r == 0 { "measured" } else { "aggressor" };
            let p = &s.shared.per_requester[r];
            per_req.row([
                s.aggressors.to_string(),
                r.to_string(),
                role.to_string(),
                s.kernels[r].to_string(),
                result.cycles.to_string(),
                format!("{:.3}", result.ipc()),
                p.llc_demand_misses.to_string(),
                p.dram_transfers.to_string(),
                p.arb_wait_cycles.to_string(),
                p.quota_stall_cycles.to_string(),
            ]);
            report.push_row(Json::obj([
                ("aggressors", Json::from(s.aggressors as u64)),
                ("requester", Json::from(r as u64)),
                ("role", Json::from(role)),
                ("kernel", Json::from(s.kernels[r])),
                ("cycles", Json::from(result.cycles)),
                ("retired", Json::from(result.retired)),
                ("ipc", Json::from(result.ipc())),
                ("llc_demand_misses", Json::from(p.llc_demand_misses)),
                ("dram_transfers", Json::from(p.dram_transfers)),
                ("arb_wait_cycles", Json::from(p.arb_wait_cycles)),
                ("quota_stall_cycles", Json::from(p.quota_stall_cycles)),
            ]));
        }
        eprintln!(
            "[neighbor] aggressors={} arb_wait_cycles={} quota_stall_cycles={}",
            s.aggressors, s.shared.arb_wait_cycles, s.shared.quota_stall_cycles
        );
    }

    println!("Neighbor interference: measured SWQUE core ({MEASURED}) vs aggressors");
    println!("(shared L2/prefetcher/DRAM; MSHRs statically partitioned across cores)\n");
    println!("{summary}");
    println!("{per_req}");
    report.add_table("interference", &summary).add_table("per_requester", &per_req);
    if let Some(dir) = &json_dir {
        report.write(dir);
    }
}
