//! Run-path determinism: the worker pool and the experiment registry's
//! unit sharing are pure throughput optimizations. Every simulation is
//! single-threaded and seeded, and outcomes are written back by index, so
//! results must be identical — not just statistically close — for any
//! worker count, any scheduling interleave, the `SWQUE_THREADS` override,
//! and whether an entry renders alone or from a run shared with others.
//!
//! `Outcome`/`SimResult`/`TraceSummary` are plain data without
//! `PartialEq`; the comparison goes through their `Debug` rendering, which
//! covers every field and makes a mismatch diff readable.

use swque_bench::experiments::{self, Experiment, EVALUATION, EXTENSIONS};
use swque_bench::{default_workers_with, run_units, Budget, Outcome, RunSpec, Short, Unit};
use swque_core::IqKind;
use swque_workloads::{suite, Kernel};

const BUDGET: Budget = Budget { warmup_insts: 2_000, max_insts: 8_000, scale: Some(1_500) };

/// A cheap job list: two organizations, tiny scaled programs.
fn jobs(kernels: &[Kernel], traced: bool) -> Vec<(Kernel, Vec<Unit>)> {
    let units: Vec<Unit> = [IqKind::Circ, IqKind::Age]
        .into_iter()
        .map(|iq| Unit { spec: RunSpec::medium(iq, BUDGET), traced })
        .collect();
    kernels.iter().map(|k| (k.clone(), units.clone())).collect()
}

fn fingerprint(jobs: &[(Kernel, Vec<Unit>)], outcomes: &[Vec<Outcome>]) -> String {
    jobs.iter()
        .zip(outcomes)
        .map(|((kernel, _), outs)| format!("{}: {outs:?}\n", kernel.name))
        .collect()
}

#[test]
fn parallel_run_matches_single_worker() {
    let kernels = suite::all();
    let jobs = jobs(&kernels[..3], false);
    let serial = fingerprint(&jobs, &run_units(&jobs, 1, |_, _, _| {}));
    for workers in [2, 4, 16] {
        let parallel = fingerprint(&jobs, &run_units(&jobs, workers, |_, _, _| {}));
        assert_eq!(serial, parallel, "outcomes differ with {workers} workers");
    }
}

#[test]
fn traced_parallel_run_matches_single_worker() {
    let kernels = suite::all();
    let jobs = jobs(&kernels[..2], true);
    let outcomes = run_units(&jobs, 1, |_, _, _| {});
    assert!(outcomes.iter().flatten().all(|o| o.trace.is_some()), "traced units carry traces");
    let serial = fingerprint(&jobs, &outcomes);
    let parallel = fingerprint(&jobs, &run_units(&jobs, 8, |_, _, _| {}));
    assert_eq!(serial, parallel, "traced outcomes differ across worker counts");
}

#[test]
fn empty_and_single_kernel_lists() {
    assert!(run_units(&[], 4, |_, _, _| {}).is_empty(), "no jobs, no outcomes");
    let kernels = suite::all();
    let jobs = jobs(&kernels[..1], false);
    let outcomes = run_units(&jobs, 4, |_, _, _| {});
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].len(), jobs[0].1.len(), "one outcome per unit");
    assert!(outcomes[0].iter().all(|o| o.trace.is_none()), "untraced units carry no trace");
    // A run with zero requested workers still runs (clamped to 1).
    assert_eq!(
        fingerprint(&jobs, &run_units(&jobs, 0, |_, _, _| {})),
        fingerprint(&jobs, &outcomes)
    );
}

/// A unit that halts before retiring its budget is flagged short, with
/// where it stopped (inside the warmup or after it); a unit that
/// completes its window is not.
#[test]
fn units_that_halt_before_their_budget_are_short() {
    let kernel = suite::by_name("deepsjeng_like").expect("suite kernel");
    // One outer iteration halts long before ten million instructions.
    let halts = Budget { warmup_insts: 100, max_insts: 10_000_000, scale: Some(1) };
    let in_warmup = Budget { warmup_insts: 10_000_000, ..halts };
    let units: Vec<Unit> = [BUDGET, halts, in_warmup]
        .into_iter()
        .map(|b| Unit { spec: RunSpec::medium(IqKind::Age, b), traced: true })
        .collect();
    let outcomes = run_units(&[(kernel, units)], 1, |_, _, _| {});
    let short: Vec<Option<Short>> = outcomes[0].iter().map(|o| o.short).collect();
    assert_eq!(short, [None, Some(Short::InMeasurement), Some(Short::InWarmup)]);
    assert!(outcomes[0].iter().all(|o| o.trace.is_some()));
}

/// `SWQUE_THREADS` steers the default worker count and, being a pure
/// throughput knob, must not change results. The environment is read at
/// exactly one place (`default_workers`); everything after that read is
/// the pure `default_workers_with`, which this test exercises directly —
/// no `std::env::set_var`, so the test cannot race other tests in the
/// same process over shared process state.
#[test]
fn worker_override_resolution_is_pure() {
    // Respected when positive, clamped to the kernel count.
    assert_eq!(default_workers_with(3, 8), 3);
    assert_eq!(default_workers_with(3, 2), 2, "clamped to kernel count");
    // Zero (also the value when the variable is unset) falls back to host
    // parallelism — always at least one worker. An unparsable value never
    // gets here: the env read exits with status 2 naming it.
    assert!(default_workers_with(0, 64) >= 1);
    // Degenerate kernel counts never produce a zero-worker run.
    assert_eq!(default_workers_with(5, 0), 1);

    // An override-forced single worker is the same run as an explicit
    // one — and single- vs multi-worker equality is already pinned above,
    // so the override provably cannot change results.
    let jobs = jobs(&suite::all(), false);
    let forced =
        fingerprint(&jobs, &run_units(&jobs, default_workers_with(1, jobs.len()), |_, _, _| {}));
    let explicit = fingerprint(&jobs, &run_units(&jobs, 1, |_, _, _| {}));
    assert_eq!(forced, explicit);
}

/// Every registry entry renders the same text and report bytes from one
/// shared, deduplicated run as it does alone, on 1 worker and on 4: which
/// entries share a run, and on how many threads, is invisible in the
/// output. The kernel subset holds INT and FP kernels, so every
/// per-category geometric mean has members.
#[test]
fn shared_registry_run_renders_like_each_entry_alone() {
    let kernels: Vec<Kernel> = ["deepsjeng_like", "xz_like", "bwaves_like"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite kernel"))
        .collect();
    let entries: Vec<&Experiment> = EVALUATION.iter().chain(&EXTENSIONS).collect();
    let alone: Vec<(String, String)> = entries
        .iter()
        .map(|entry| {
            let out = experiments::run(&[entry], &kernels, &BUDGET, 1).remove(0);
            (out.text, out.report.to_json().to_string())
        })
        .collect();
    for workers in [1, 4] {
        let shared = experiments::run(&entries, &kernels, &BUDGET, workers);
        assert_eq!(shared.len(), entries.len());
        for ((entry, out), (text, json)) in entries.iter().zip(&shared).zip(&alone) {
            assert_eq!(&out.text, text, "{} text, {workers} workers", entry.name);
            let shared_json = out.report.to_json().to_string();
            assert_eq!(&shared_json, json, "{} report, {workers} workers", entry.name);
        }
    }
}
