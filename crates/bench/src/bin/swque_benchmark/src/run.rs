//! The two kinds of run: timed reps for the end-to-end metrics, and one
//! traced pass for the per-layer metrics.

use swque_bench::geomean;
use swque_core::IqKind;
use swque_cpu::SimResult;
use swque_trace::Json;

use crate::clock::peak_rss_mb;
use crate::profile;
use crate::report::{Metric, Report};
use crate::spans::Spans;
use crate::stats::{median, min_over_reps, summary_json};
use crate::units::{run_unit, Budget, Outcome, Unit, UnitRun, Workload};

/// Reps every timed run makes, however short its time budget: two reps are
/// the least that can show a unit is deterministic.
const MIN_REPS: usize = 2;

/// Each unit's label and failure over `reps` (`reps[r][u]`): a unit fails
/// if any rep failed or its outcome changed between reps.
fn unit_failures(units: &[Unit], reps: &[Vec<UnitRun>]) -> Vec<(String, Option<String>)> {
    units
        .iter()
        .enumerate()
        .map(|(u, unit)| {
            let first = &reps[0][u];
            let failure = reps
                .iter()
                .find_map(|rep| rep[u].failure.clone())
                .or_else(|| {
                    let print = first.fingerprint();
                    reps.iter()
                        .position(|rep| rep[u].fingerprint() != print)
                        .map(|r| format!("rep {r} simulated a different outcome than rep 0"))
                });
            (unit.label(), failure)
        })
        .collect()
}

/// Runs whole reps of `workload` until `seconds` would be exceeded (at
/// least [`MIN_REPS`]) and reports the end-to-end metrics.
///
/// * `rep_s`: the sum over units of each unit's fastest host time
///   (warmup plus measured window, or exploration);
/// * `setup_s`: the median over reps of the rep's summed set-up time;
/// * `peak_rss_mb`: the process's peak resident set after [`MIN_REPS`]
///   reps. Later reps repeat the same work and only add allocator
///   fragmentation, which would make the reading depend on how many reps
///   the host's speed allowed.
pub fn timed(
    workload: Workload,
    seed: u64,
    seconds: f64,
    budget: Budget,
) -> Result<Report, String> {
    let units = workload.units();
    let mut spans = Spans::new();
    let root = spans.open(workload.name(), None);
    let mut reps: Vec<Vec<UnitRun>> = Vec::new();
    let mut peak_rss = None;
    loop {
        let rep = spans.open("rep", Some(root));
        reps.push(
            units
                .iter()
                .map(|u| run_unit(u, seed, budget, &mut spans, rep, false))
                .collect(),
        );
        spans.close(rep);
        if reps.len() == MIN_REPS {
            peak_rss = Some(peak_rss_mb()?);
        }
        let elapsed = spans.elapsed_s();
        if reps.len() >= MIN_REPS && elapsed + elapsed / reps.len() as f64 > seconds {
            break;
        }
    }
    spans.close(root);

    let secs = |ns: u64| ns as f64 / 1e9;
    let run_s: Vec<Vec<f64>> = reps
        .iter()
        .map(|rep| rep.iter().map(|r| secs(r.run_ns)).collect())
        .collect();
    let rep_s: f64 = min_over_reps(&run_s).iter().sum();
    let setup_s: Vec<f64> = reps
        .iter()
        .map(|rep| rep.iter().map(|r| secs(r.setup_ns)).sum())
        .collect();
    let metrics = vec![
        Metric::new("rep_s", rep_s, "s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new(
            "peak_rss_mb",
            peak_rss.expect("every run makes MIN_REPS reps"),
            "MiB",
        ),
    ];

    // The same work in each rep, so each derived rate is that work over
    // the rep time; the per-rep values show the spread that the
    // per-unit minimum removes.
    let first = &reps[0];
    let insts: u64 = first.iter().map(|r| r.insts).sum();
    let cycles: u64 = first.iter().map(|r| r.cycles).sum();
    let states: u64 = first.iter().map(|r| mc_states(&r.outcome)).sum();
    let per_rep_s: Vec<f64> = run_s.iter().map(|rep| rep.iter().sum()).collect();
    let mut info = Vec::new();
    let mut rates = Vec::new();
    for (name, work, scale, unit) in [
        ("sim_kips", insts, 1e3, "kinst/s"),
        ("sim_kcps", cycles, 1e3, "kcycle/s"),
        ("mc_states_per_s", states, 1.0, "1/s"),
    ] {
        if work > 0 {
            info.push(Metric::new(name, work as f64 / scale / rep_s, unit));
            let per_rep: Vec<f64> = per_rep_s.iter().map(|s| work as f64 / scale / s).collect();
            rates.push((name, summary_json(&per_rep)));
        }
    }
    let per_unit = units
        .iter()
        .enumerate()
        .map(|(u, unit)| {
            Json::obj([
                ("unit", Json::from(unit.label())),
                ("insts", Json::from(first[u].insts)),
                ("cycles", Json::from(first[u].cycles)),
                (
                    "run_s",
                    Json::Arr(run_s.iter().map(|rep| Json::from(rep[u])).collect()),
                ),
                (
                    "setup_s",
                    Json::Arr(
                        reps.iter()
                            .map(|rep| Json::from(secs(rep[u].setup_ns)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let details = vec![
        (
            "reps".to_string(),
            Json::obj([
                ("rep_s", summary_json(&per_rep_s)),
                ("setup_s", summary_json(&setup_s)),
                ("rates", Json::obj(rates)),
            ]),
        ),
        ("unit_times".to_string(), Json::Arr(per_unit)),
        ("spans".to_string(), spans.to_json()),
    ];
    Ok(Report {
        workload,
        seed,
        traced: false,
        metrics,
        info,
        units: unit_failures(&units, &reps),
        details,
    })
}

fn mc_states(outcome: &Outcome) -> u64 {
    match outcome {
        Outcome::Mc { states, .. } => *states,
        _ => 0,
    }
}

/// Counters summed over the measured windows of one rep.
#[derive(Debug, Default)]
struct Counters {
    cycles: u64,
    retired: u64,
    ipcs: Vec<f64>,
    switches: u64,
    iq_issued: u64,
    iq_selects: u64,
    iq_occupancy: u64,
    l1d: (u64, u64),
    l2: (u64, u64),
    llc_misses: u64,
    mshr_stall_cycles: u64,
    branches: (u64, u64),
}

impl Counters {
    fn add(&mut self, w: &SimResult) {
        self.cycles += w.cycles;
        self.retired += w.retired;
        self.ipcs.push(w.ipc());
        self.switches += w.swque.map_or(0, |s| s.switches);
        self.iq_issued += w.iq.issued;
        self.iq_selects += w.iq.selects;
        self.iq_occupancy += w.iq.occupancy_sum;
        self.l1d.0 += w.mem.l1d.misses;
        self.l1d.1 += w.mem.l1d.accesses;
        self.l2.0 += w.mem.l2.misses;
        self.l2.1 += w.mem.l2.accesses;
        self.llc_misses += w.mem.llc_demand_misses;
        self.mshr_stall_cycles += w.mem.mshr_stall_cycles;
        self.branches.0 += w.branch.mispredicted;
        self.branches.1 += w.branch.predicted;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Runs one rep of `workload` for its counters and set-up split, then the
/// host-cost profile, and reports the per-layer metrics.
pub fn traced(workload: Workload, seed: u64, budget: Budget) -> Report {
    let units = workload.units();
    let mut spans = Spans::new();
    let root = spans.open(workload.name(), None);
    let rep = spans.open("rep", Some(root));
    let runs: Vec<UnitRun> = units
        .iter()
        .map(|u| run_unit(u, seed, budget, &mut spans, rep, true))
        .collect();
    spans.close(rep);
    let secs = |name: &str| spans.total_ns(name) as f64 / 1e9;
    let (build_s, core_new_s, emu_new_s) = (secs("build"), secs("core_new"), secs("emu_new"));

    let mut c = Counters::default();
    let (mut jumps, mut single_skipped, mut single_cycles, mut multi_skipped, mut multi_cycles) =
        (0, 0, 0, 0, 0);
    let (mut contention, mut trace, mut mc) = ((0, 0, 0), (0, 0), (0, 0));
    for run in &runs {
        match &run.outcome {
            Outcome::Core {
                window,
                skip,
                trace: (events, dropped),
            } => {
                c.add(window);
                jumps += skip.0;
                single_skipped += skip.1;
                single_cycles += run.cycles;
                trace = (trace.0 + events, trace.1 + dropped);
            }
            Outcome::Multi {
                windows,
                contention: (arb, quota, evict),
                skip,
                ..
            } => {
                windows.iter().for_each(|w| c.add(w));
                jumps += skip.0;
                multi_skipped += skip.1;
                multi_cycles += run.cycles;
                contention = (
                    contention.0 + arb,
                    contention.1 + quota,
                    contention.2 + evict,
                );
            }
            Outcome::Mc {
                states, deepest, ..
            } => mc = (mc.0 + states, mc.1.max(*deepest)),
        }
    }

    let id = spans.open("profile", Some(root));
    let p = profile::run(seed, budget, &mut spans, id);
    spans.close(id);
    spans.close(root);

    let prof = |name: &str, unit| Metric::new(name, p.value(name), unit);
    let mean = |name: &str, unit| Metric::new(name, p.mean(name), unit);
    let count = |name: &str, n: u64, unit| Metric::new(name, n as f64, unit);
    let ipc_gm = if !c.ipcs.is_empty() && c.ipcs.iter().all(|&i| i > 0.0) {
        geomean(&c.ipcs)
    } else {
        0.0
    };
    let mut m = vec![
        prof("cpu.busy_cycle_ns", "ns"),
        prof("cpu.busy_cycle_ns_p99", "ns"),
        prof("cpu.busy_cycle_frac", "ratio"),
        prof("cpu.busy_host_frac", "ratio"),
        prof("cpu.horizon_ns", "ns"),
        prof("cpu.idle_cycle_ns", "ns"),
        Metric::new(
            "cpu.skip_cycle_frac",
            ratio(single_skipped, single_cycles),
            "ratio",
        ),
        count("cpu.skip_jumps", jumps, "count"),
        Metric::new("cpu.core_new_s", core_new_s, "s"),
        Metric::new(
            "cpu.multi_skip_cycle_frac",
            ratio(multi_skipped, multi_cycles),
            "ratio",
        ),
    ];
    for label in IqKind::ALL.iter().map(|k| k.label()).chain(["AGE-large"]) {
        m.push(mean(&format!("core.select_ns.{label}"), "ns"));
    }
    m.extend([
        mean("core.wakeup_ns", "ns"),
        mean("core.dispatch_ns", "ns"),
        prof("core.grants_per_select", "count"),
        Metric::new(
            "core.issued_per_select",
            ratio(c.iq_issued, c.iq_selects),
            "count",
        ),
        Metric::new(
            "core.occupancy_avg",
            ratio(c.iq_occupancy, c.iq_selects),
            "entries",
        ),
        prof("core.host_frac_est", "ratio"),
        prof("mem.access_ns", "ns"),
        Metric::new("mem.l1d_miss_rate", ratio(c.l1d.0, c.l1d.1), "ratio"),
        Metric::new("mem.l2_miss_rate", ratio(c.l2.0, c.l2.1), "ratio"),
        Metric::new(
            "mem.llc_mpki",
            ratio(c.llc_misses * 1000, c.retired),
            "1/kinst",
        ),
        count("mem.mshr_stall_cycles", c.mshr_stall_cycles, "cycles"),
        count("mem.arb_wait_cycles", contention.0, "cycles"),
        count("mem.quota_stall_cycles", contention.1, "cycles"),
        count("mem.neighbor_evictions", contention.2, "count"),
        Metric::new("isa.emu_new_s", emu_new_s, "s"),
        prof("isa.emu_step_ns", "ns"),
        Metric::new("workloads.build_s", build_s, "s"),
        prof("branch.predict_update_ns", "ns"),
        Metric::new(
            "branch.mispredict_rate",
            ratio(c.branches.0, c.branches.1),
            "ratio",
        ),
        count("trace.events", trace.0, "count"),
        count("trace.dropped", trace.1, "count"),
        prof("trace.overhead_frac", "ratio"),
        count("mc.states", mc.0, "count"),
        count("mc.deepest", mc.1, "count"),
        prof("mc.states_per_s.queue", "1/s"),
        prof("mc.states_per_s.swque", "1/s"),
        prof("mc.states_per_s.ctrl", "1/s"),
        count("model.cycles", c.cycles, "cycles"),
        count("model.retired", c.retired, "inst"),
        Metric::new("model.ipc_gm", ipc_gm, "inst/cycle"),
        count("model.swque_switches", c.switches, "count"),
        prof("spans.overhead_frac", "ratio"),
    ]);

    // The profile counts as one more attempted unit.
    let mut failures: Vec<(String, Option<String>)> = units
        .iter()
        .zip(&runs)
        .map(|(u, r)| (u.label(), r.failure.clone()))
        .collect();
    let probe_failures: Vec<String> = p
        .failures
        .iter()
        .map(|(probe, why)| format!("{probe}: {why}"))
        .collect();
    failures.push((
        "profile".to_string(),
        (!probe_failures.is_empty()).then(|| probe_failures.join("; ")),
    ));
    let values = Json::obj(p.values.iter().map(|(k, v)| (k.clone(), Json::from(*v))));
    Report {
        workload,
        seed,
        traced: true,
        metrics: m,
        info: Vec::new(),
        units: failures,
        details: vec![
            ("profile".to_string(), values),
            ("histograms".to_string(), p.histograms_json()),
            ("spans".to_string(), spans.to_json()),
        ],
    }
}
