//! Parallel-sweep determinism: `run_suite`'s worker pool must be a pure
//! throughput optimization. Every simulation is single-threaded and
//! seeded, and rows are written back by kernel index, so the sweep result
//! must be identical — not just statistically close — for any worker
//! count, any scheduling interleave, and the `SWQUE_THREADS` override.
//!
//! `SimResult`/`TraceSummary` are plain data without `PartialEq`; the
//! comparison goes through their `Debug` rendering, which covers every
//! field and makes a mismatch diff readable.

use swque_bench::{
    default_workers_with, run_suite_on, run_suite_traced_on, RunSpec, SuiteRow,
};
use swque_core::IqKind;
use swque_workloads::suite;

/// A cheap spec set: two organizations, tiny scaled programs.
fn specs() -> Vec<RunSpec> {
    [IqKind::Circ, IqKind::Age]
        .into_iter()
        .map(|iq| RunSpec {
            warmup_insts: 2_000,
            max_insts: 8_000,
            scale: Some(1_500),
            ..RunSpec::medium(iq)
        })
        .collect()
}

fn fingerprint(rows: &[SuiteRow]) -> String {
    rows.iter()
        .map(|row| {
            format!("{}: {:?} {:?}\n", row.kernel.name, row.results, row.traces)
        })
        .collect()
}

#[test]
fn parallel_sweep_matches_single_worker() {
    let kernels = suite::all();
    let kernels = &kernels[..kernels.len().min(3)];
    let specs = specs();
    let serial = fingerprint(&run_suite_on(kernels, &specs, 1));
    for workers in [2, 4, 16] {
        let parallel = fingerprint(&run_suite_on(kernels, &specs, workers));
        assert_eq!(serial, parallel, "rows differ with {workers} workers");
    }
}

#[test]
fn traced_parallel_sweep_matches_single_worker() {
    let kernels = suite::all();
    let kernels = &kernels[..kernels.len().min(2)];
    let specs = specs();
    let serial = fingerprint(&run_suite_traced_on(kernels, &specs, 1));
    let parallel = fingerprint(&run_suite_traced_on(kernels, &specs, 8));
    assert_eq!(serial, parallel, "traced rows differ across worker counts");
}

#[test]
fn empty_and_single_kernel_lists() {
    let specs = specs();
    assert!(run_suite_on(&[], &specs, 4).is_empty(), "no kernels, no rows");
    let kernels = suite::all();
    let rows = run_suite_on(&kernels[..1], &specs, 4);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].kernel.name, kernels[0].name);
    assert_eq!(rows[0].results.len(), specs.len(), "one result per spec");
    // A sweep with zero requested workers still runs (clamped to 1).
    let rows0 = run_suite_on(&kernels[..1], &specs, 0);
    assert_eq!(fingerprint(&rows0), fingerprint(&rows));
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
    // Degenerate kernel counts never produce a zero-worker sweep.
    assert_eq!(default_workers_with(5, 0), 1);

    // An override-forced single worker is the same sweep as an explicit
    // one — and single- vs multi-worker equality is already pinned above,
    // so the override provably cannot change results.
    let kernels = suite::all();
    let specs = specs();
    let forced = fingerprint(&run_suite_on(&kernels, &specs, default_workers_with(1, kernels.len())));
    let explicit = fingerprint(&run_suite_on(&kernels, &specs, 1));
    assert_eq!(forced, explicit);
}
