//! A trace only observes a run: attaching a `RingRecorder` to the
//! measured window must leave the `SimResult` byte-identical, for every
//! issue-queue organization. The experiment registry relies on this when
//! one traced run serves entries that asked for the result alone.

use swque_bench::{run_units, Budget, RunSpec, Unit};
use swque_core::IqKind;
use swque_workloads::{suite, Kernel};

const BUDGET: Budget = Budget { warmup_insts: 3_000, max_insts: 25_000, scale: Some(2_000) };

#[test]
fn tracing_leaves_results_byte_identical_for_every_kind() {
    // Per kernel, every kind twice: untraced, then traced.
    let jobs: Vec<(Kernel, Vec<Unit>)> = ["deepsjeng_like", "omnetpp_like"]
        .into_iter()
        .map(|name| {
            let units = IqKind::ALL
                .into_iter()
                .flat_map(|kind| {
                    [false, true].map(|traced| Unit { spec: RunSpec::medium(kind, BUDGET), traced })
                })
                .collect();
            (suite::by_name(name).expect("suite kernel"), units)
        })
        .collect();
    let outcomes = run_units(&jobs, 2, |_, _, _| {});
    for ((kernel, _), outs) in jobs.iter().zip(&outcomes) {
        assert_eq!(outs.len(), 2 * IqKind::ALL.len());
        for (kind, pair) in IqKind::ALL.into_iter().zip(outs.chunks(2)) {
            let (name, kind) = (kernel.name, kind.label());
            let (plain, traced) = (&pair[0], &pair[1]);
            assert!(plain.trace.is_none(), "{name} {kind}: untraced unit carries a trace");
            assert_eq!(
                format!("{:?}", plain.result),
                format!("{:?}", traced.result),
                "{name} {kind}: tracing changed the result"
            );
            // The trace observed the window: at least the 10k-instruction
            // IPC samples were recorded.
            let trace = traced.trace.as_ref().expect("traced unit carries a trace");
            assert!(trace.events > 0, "{name} {kind}: empty trace");
            assert_eq!(trace.dropped, 0);
        }
    }
}
