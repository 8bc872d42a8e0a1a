//! Differential tests for [`MultiCoreSim`] (DESIGN.md §11).
//!
//! The multi-core drive loop and the N-requester memory hierarchy were
//! built under a strict compatibility contract: with one core they must be
//! *bit-identical* to the standalone single-core path — same cycles, same
//! stats, same mode-switch history — with quiescence skipping enabled.
//! These tests pin that contract across every issue-queue organization by
//! comparing the full `Debug` rendering of the [`SimResult`]s, and then
//! check the genuinely multi-core properties: contention counters that are
//! provably non-vacuous under a 2-core memory-bound co-run, per-requester
//! accounting that sums to the shared totals, and skip-on/skip-off
//! equivalence of the lockstep clock jumps.

use swque_core::IqKind;
use swque_cpu::{Core, CoreConfig, MultiCoreSim};
use swque_isa::{Assembler, Program, Reg};
use swque_workloads::suite;

const RUN_INSTS: u64 = 8_000;

/// N=1 `MultiCoreSim` must be byte-identical to a standalone `Core` for
/// every issue-queue kind, with skipping enabled (the default).
#[test]
fn n1_multi_core_matches_single_core_for_all_queue_kinds() {
    let kernel = suite::by_name("deepsjeng_like").expect("kernel exists");
    let program = kernel.build_scaled(2_000);
    for kind in IqKind::ALL {
        let mut single = Core::new(CoreConfig::medium(), kind, &program);
        let single_result = single.run(RUN_INSTS);

        let mut multi = MultiCoreSim::new(CoreConfig::medium(), &[(kind, &program)]);
        let multi_results = multi.run(RUN_INSTS);
        assert_eq!(multi_results.len(), 1);

        assert_eq!(
            format!("{single_result:?}"),
            format!("{:?}", multi_results[0]),
            "{kind}: N=1 MultiCoreSim diverged from the single-core path"
        );
    }
}

/// The N=1 equivalence must not depend on skipping: with jumps disabled on
/// both sides the results still match (and match the skipping run, which
/// `golden_cycles` + the core's own skip differential already pin).
#[test]
fn n1_differential_holds_with_skipping_disabled() {
    let kernel = suite::by_name("xz_like").expect("kernel exists");
    let program = kernel.build_scaled(2_000);
    let mut single = Core::new(CoreConfig::medium(), IqKind::Swque, &program);
    single.set_skip(false);
    let single_result = single.run(RUN_INSTS);

    let mut multi = MultiCoreSim::new(CoreConfig::medium(), &[(IqKind::Swque, &program)]);
    multi.set_skip(false);
    let multi_results = multi.run(RUN_INSTS);

    assert_eq!(
        format!("{single_result:?}"),
        format!("{:?}", multi_results[0]),
        "skip-off N=1 differential diverged"
    );
}

/// A memory-bound 2-core co-run must light up every contention counter the
/// shared hierarchy exists to measure: DRAM arbitration waits, MSHR quota
/// stalls (forced by a tight quota), and per-requester shares that sum to
/// the shared totals. This is the non-vacuity guarantee behind the
/// `neighbor` experiment's interference tables.
#[test]
fn two_core_corun_produces_nonzero_contention_counters() {
    let chase = suite::by_name("omnetpp_like").expect("kernel exists").build_scaled(2_000);
    let stream = suite::by_name("lbm_like").expect("kernel exists").build_scaled(2_000);
    let mut config = CoreConfig::medium();
    // Tight per-core MSHR quota: each core may keep only 2 misses in
    // flight, so an MLP burst must stall on its quota.
    config.mem.mshrs = 2;

    let mut multi = MultiCoreSim::new(config, &[(IqKind::Swque, &chase), (IqKind::Swque, &stream)]);
    let results = multi.run(RUN_INSTS);
    assert_eq!(results.len(), 2);
    for (i, r) in results.iter().enumerate() {
        assert!(r.retired > 0, "core {i} retired nothing");
    }

    let shared = multi.shared_stats();
    assert!(shared.arb_wait_cycles > 0, "no DRAM arbitration contention observed");
    assert!(shared.quota_stall_cycles > 0, "no MSHR quota stalls observed");
    assert!(shared.dram_transfers > 0, "co-run never reached DRAM");

    assert_eq!(shared.per_requester.len(), 2);
    let sum = |f: fn(&swque_mem::RequesterMemStats) -> u64| -> u64 {
        shared.per_requester.iter().map(f).sum()
    };
    assert_eq!(sum(|p| p.dram_transfers), shared.dram_transfers);
    assert_eq!(sum(|p| p.arb_wait_cycles), shared.arb_wait_cycles);
    assert_eq!(sum(|p| p.quota_stall_cycles), shared.quota_stall_cycles);
    assert_eq!(sum(|p| p.llc_demand_misses), multi.mem().llc_demand_misses());
    // Both cores actually used the channel (the counters aren't one-sided).
    assert!(shared.per_requester.iter().all(|p| p.dram_transfers > 0));
}

/// A miss-free program whose only timed events are the core's own: a loop
/// of dependent 20-cycle integer divides, so while it waits its quiescent
/// horizon is the next divide's completion, not a memory event.
fn divide_chain() -> Program {
    let mut a = Assembler::new();
    a.li(Reg(1), 2_000);
    a.li(Reg(2), 1);
    a.li(Reg(3), 12_345);
    a.label("loop");
    for _ in 0..4 {
        a.div(Reg(3), Reg(3), Reg(2));
    }
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "loop");
    a.halt();
    a.finish().expect("valid labels")
}

/// Multi-core quiescence skipping is an optimization, not a model change:
/// a co-run with lockstep clock jumps must produce byte-identical results
/// to the same co-run stepped cycle by cycle. The second and fourth inputs
/// are the `neighbor` experiment's scenarios: SHIFT aggressors beside the
/// SWQUE chase, the 8-entry MSHR pool split in two and in four. The 4-core
/// run is long enough that the in-flight maps outgrow their lazy purge
/// thresholds (64 fills per requester, 256 at the L2) many times over, so
/// horizons are read across purges as well as before the first one. In
/// the third, one core's own divide completion is the earliest horizon
/// while the other waits on DRAM, so the lockstep jump must be the
/// *minimum* of the cores' horizons.
#[test]
fn skip_on_off_co_runs_are_byte_identical() {
    let chase = suite::by_name("omnetpp_like").expect("kernel exists").build_scaled(2_000);
    let stream = suite::by_name("lbm_like").expect("kernel exists").build_scaled(2_000);
    let fotonik = suite::by_name("fotonik3d_like").expect("kernel exists").build_scaled(2_000);
    let xz = suite::by_name("xz_like").expect("kernel exists").build_scaled(2_000);
    let divides = divide_chain();
    let mut two_way = CoreConfig::medium();
    two_way.mem.mshrs = 4;
    let mut four_way = CoreConfig::medium();
    four_way.mem.mshrs = 2;
    let inputs = [
        (CoreConfig::medium(), vec![(IqKind::Swque, &chase), (IqKind::AgeMulti, &stream)]),
        (two_way, vec![(IqKind::Swque, &chase), (IqKind::Shift, &stream)]),
        (CoreConfig::medium(), vec![(IqKind::Age, &divides), (IqKind::Swque, &chase)]),
        (
            four_way,
            vec![
                (IqKind::Swque, &chase),
                (IqKind::Shift, &stream),
                (IqKind::Shift, &fotonik),
                (IqKind::Shift, &xz),
            ],
        ),
    ];
    for (config, workloads) in inputs {
        let mut skipping = MultiCoreSim::new(config.clone(), &workloads);
        let skipping_results = skipping.run(RUN_INSTS);

        let mut stepped = MultiCoreSim::new(config, &workloads);
        stepped.set_skip(false);
        let stepped_results = stepped.run(RUN_INSTS);

        let label =
            workloads.iter().map(|(kind, _)| kind.to_string()).collect::<Vec<_>>().join("+");
        assert_eq!(
            format!("{skipping_results:?}"),
            format!("{stepped_results:?}"),
            "{label}: multi-core clock jumps changed simulated behavior"
        );
        assert_eq!(
            format!("{:?}", skipping.shared_stats()),
            format!("{:?}", stepped.shared_stats()),
            "{label}: clock jumps changed the shared hierarchy's counters"
        );
        assert!(skipping_results.iter().all(|r| r.retired >= RUN_INSTS), "{label}: a core ran dry");
        let (jumps, cycles_skipped) = skipping.skip_stats();
        assert!(jumps > 0, "{label}: skip run never jumped; differential is vacuous");
        assert!(cycles_skipped > 0);
        assert_eq!(stepped.skip_stats(), (0, 0));
    }
}
