//! Workspace-level integration tests: the whole stack (ISA → workloads →
//! queues → core) exercised together through the `swque` facade.

use swque::cpu::{Core, CoreConfig};
use swque::iq::{IqKind, IqMode};
use swque::isa::Emulator;
use swque::workloads::{suite, IlpClass};

/// Architectural results must be identical across every issue-queue
/// organization — scheduling policy may change *when* things happen, never
/// *what* happens.
#[test]
fn all_queues_compute_identical_results_on_suite_kernels() {
    for name in ["deepsjeng_like", "cam4_like", "xz_like"] {
        let kernel = suite::by_name(name).expect("kernel");
        let program = kernel.build_scaled(40);
        let mut reference = Emulator::new(&program);
        reference.run(50_000_000).expect("functional run terminates");

        for kind in IqKind::ALL {
            let mut core = Core::new(CoreConfig::tiny(), kind, &program);
            core.run(u64::MAX);
            assert!(core.finished(), "{name}/{kind}: pipeline drains");
            for r in 1..32u8 {
                assert_eq!(
                    core.emulator().int_reg(swque::isa::Reg(r)),
                    reference.int_reg(swque::isa::Reg(r)),
                    "{name}/{kind}: r{r} diverged"
                );
            }
        }
    }
}

/// Simulation must be fully deterministic: two identical runs give
/// identical cycle counts and statistics.
#[test]
fn simulation_is_deterministic() {
    let kernel = suite::by_name("leela_like").expect("kernel");
    let run = || {
        let program = kernel.build_scaled(2_000);
        let mut core = Core::new(CoreConfig::medium(), IqKind::Swque, &program);
        core.run(80_000)
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.retired, b.retired);
    assert_eq!(a.iq, b.iq);
    assert_eq!(a.mem, b.mem);
    assert_eq!(a.branch, b.branch);
    assert_eq!(a.core, b.core);
}

/// The headline behaviour: on a priority-sensitive kernel, SWQUE sits in
/// CIRC-PC mode and beats AGE; on an MLP kernel it sits in AGE mode and
/// matches AGE.
#[test]
fn swque_picks_the_right_mode_per_class() {
    // m-ILP: CIRC-PC residency.
    let kernel = suite::by_name("deepsjeng_like").expect("kernel");
    let program = kernel.build();
    let mut core = Core::new(CoreConfig::medium(), IqKind::Swque, &program);
    let warm = core.run(150_000);
    let r = core.run(400_000).delta(&warm);
    let sw = r.swque.expect("mode stats");
    assert!(
        sw.circ_pc_fraction() > 0.6,
        "m-ILP kernel should run mostly as CIRC-PC: {:.2}",
        sw.circ_pc_fraction()
    );

    // MLP: AGE residency.
    let kernel = suite::by_name("omnetpp_like").expect("kernel");
    let program = kernel.build();
    let mut core = Core::new(CoreConfig::medium(), IqKind::Swque, &program);
    let warm = core.run(60_000);
    let r = core.run(160_000).delta(&warm);
    let sw = r.swque.expect("mode stats");
    assert!(
        sw.circ_pc_fraction() < 0.2,
        "MLP kernel should run mostly as AGE: {:.2}",
        sw.circ_pc_fraction()
    );
    assert!(r.mpki() > 1.0, "MLP kernel misses the LLC: {:.2}", r.mpki());
}

/// The suite's class annotations must match measured behaviour: MLP
/// kernels actually miss the LLC, moderate-ILP kernels do not.
#[test]
fn class_annotations_match_measured_mpki() {
    for kernel in suite::all() {
        if kernel.name == "pop2_like" {
            // pop2_like deliberately alternates compute and memory phases
            // (it exercises the mode controller), so neither class bound
            // applies to its whole-run average.
            continue;
        }
        // Small but warmed-up runs.
        let program = kernel.build();
        let mut core = Core::new(CoreConfig::medium(), IqKind::Age, &program);
        let warm = core.run(150_000);
        let r = core.run(300_000).delta(&warm);
        match kernel.class {
            IlpClass::Mlp => {
                assert!(r.mpki() > 5.0, "{}: MLP kernel has MPKI {:.2}", kernel.name, r.mpki())
            }
            // Residual wrong-path cache pollution leaves a little noise, so
            // the moderate-ILP bound is loose; MLP kernels sit far above it.
            IlpClass::ModerateIlp => {
                assert!(r.mpki() < 2.0, "{}: m-ILP kernel has MPKI {:.2}", kernel.name, r.mpki())
            }
            IlpClass::RichIlp => assert!(
                r.ipc() > 2.0,
                "{}: rich-ILP kernel should flow: IPC {:.2}",
                kernel.name,
                r.ipc()
            ),
        }
    }
}

/// A SWQUE core can be observed mid-run and reports a consistent mode.
#[test]
fn mode_observation_is_consistent_with_stats() {
    let kernel = suite::by_name("pop2_like").expect("kernel");
    let program = kernel.build();
    let mut core = Core::new(CoreConfig::medium(), IqKind::Swque, &program);
    let mut saw = (false, false);
    for _ in 0..400_000 {
        core.step_cycle();
        match core.iq_mode() {
            IqMode::CircPc => saw.0 = true,
            IqMode::Age => saw.1 = true,
            IqMode::Fixed => panic!("SWQUE never reports Fixed"),
        }
        if core.finished() {
            break;
        }
    }
    assert!(saw.0 && saw.1, "the phased kernel visits both modes: {saw:?}");
}
