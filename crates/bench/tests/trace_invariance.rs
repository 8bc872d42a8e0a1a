//! A trace only observes a run: attaching a `RingRecorder` to the
//! measured window must leave the `SimResult` byte-identical, for every
//! issue-queue organization. The experiment registry relies on this when
//! one traced run serves entries that asked for the result alone.

use swque_bench::{run_kernel, run_kernel_traced, Budget, RunSpec};
use swque_core::IqKind;
use swque_workloads::suite;

const BUDGET: Budget = Budget { warmup_insts: 3_000, max_insts: 25_000, scale: Some(2_000) };

#[test]
fn tracing_leaves_results_byte_identical_for_every_kind() {
    for name in ["deepsjeng_like", "omnetpp_like"] {
        let kernel = suite::by_name(name).expect("suite kernel");
        for kind in IqKind::ALL {
            let spec = RunSpec::medium(kind, BUDGET);
            let plain = format!("{:?}", run_kernel(&kernel, &spec));
            let (result, trace) = run_kernel_traced(&kernel, &spec);
            let kind = kind.label();
            assert_eq!(plain, format!("{result:?}"), "{name} {kind}: tracing changed the result");
            // The trace observed the window: at least the 10k-instruction
            // IPC samples were recorded.
            assert!(trace.events > 0, "{name} {kind}: empty trace");
            assert_eq!(trace.dropped, 0);
        }
    }
}
