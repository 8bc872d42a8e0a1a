//! Golden cycle counts: end-to-end cycle-exactness pins for the scheduling
//! hot paths.
//!
//! The bitset rewrite of wakeup/select (swque-core) must be *cycle-exact*
//! with respect to the scalar implementations it replaced: not just the
//! same IPC trend, the same cycle count on the same instruction stream.
//! These tests pin the exact `(cycles, retired)` pair of a short
//! medium-model run for every issue-queue organization on two suite
//! kernels. The expected values were recorded from the scalar
//! implementation immediately before the rewrite; any scheduling change
//! that alters simulated timing — by one cycle — fails here.
//!
//! Last re-records: the prefetch launch-time fix (prefetch DRAM requests
//! issue at the L2 lookup instead of the demand's completion cycle), which
//! made every pin faster, and CIRC-PC's RV region read from the head
//! instead of a stored reverse flag, which moved the CIRC-PC and SWQUE
//! pins and the neighbor pins; the per-kind deltas are tabulated in
//! EXPERIMENTS.md.
//!
//! The `neighbor` pins at the end do the same for `MultiCoreSim`: each
//! core's cycles and retired count plus its share of the shared
//! hierarchy's contention counters, over a run long enough to evict
//! neighbors' lines from the L2. They were recorded before the in-flight
//! fill map was indexed by completion time.
//!
//! If a *deliberate* timing model change is made, re-record the table with
//! `cargo test -p swque-cpu --test golden_cycles -- --nocapture` (each run
//! prints its actual pair) and say so in the commit message.

use swque_core::IqKind;
use swque_cpu::Core;
use swque_cpu::CoreConfig;
use swque_cpu::MultiCoreSim;
use swque_workloads::suite;

const RUN_INSTS: u64 = 30_000;

fn run(kind: IqKind, kernel: &str) -> (u64, u64) {
    let k = suite::by_name(kernel).expect("golden kernel exists");
    let program = k.build_scaled(6_000);
    let mut core = Core::new(CoreConfig::medium(), kind, &program);
    let r = core.run(RUN_INSTS);
    (r.cycles, r.retired)
}

fn check(kernel: &str, expected: &[(IqKind, u64, u64)]) {
    for &(kind, cycles, retired) in expected {
        let (c, r) = run(kind, kernel);
        println!("{kernel} {kind}: ({c}, {r})");
        assert_eq!(
            (c, r),
            (cycles, retired),
            "{kind} on {kernel}: got ({c}, {r}), golden ({cycles}, {retired})"
        );
    }
}

#[test]
fn golden_cycles_deepsjeng_like() {
    check(
        "deepsjeng_like",
        &[
            (IqKind::Shift, 26_431, 30_000),
            (IqKind::Circ, 29_001, 30_004),
            (IqKind::CircPpri, 28_859, 30_000),
            (IqKind::CircPc, 28_966, 30_004),
            (IqKind::Rand, 30_008, 30_001),
            (IqKind::Age, 29_795, 30_002),
            (IqKind::AgeMulti, 26_456, 30_000),
            (IqKind::Swque, 31_810, 30_002),
            (IqKind::SwqueMulti, 28_981, 30_000),
            (IqKind::Rearrange, 29_454, 30_003),
        ],
    );
}

#[test]
fn golden_cycles_xz_like() {
    check(
        "xz_like",
        &[
            (IqKind::Shift, 65_487, 30_000),
            (IqKind::Circ, 65_882, 30_000),
            (IqKind::CircPpri, 65_879, 30_000),
            (IqKind::CircPc, 66_451, 30_000),
            (IqKind::Rand, 65_488, 30_000),
            (IqKind::Age, 65_487, 30_000),
            (IqKind::AgeMulti, 65_487, 30_000),
            (IqKind::Swque, 65_845, 30_000),
            (IqKind::SwqueMulti, 65_845, 30_000),
            (IqKind::Rearrange, 65_487, 30_000),
        ],
    );
}

const MULTI_RUN_INSTS: u64 = 300_000;

/// One core's pinned outcome in a shared-hierarchy co-run: `(cycles,
/// retired, arb_wait_cycles, quota_stall_cycles)`.
type CorePin = (u64, u64, u64, u64);

/// Runs the `neighbor` experiment's scenario: a SWQUE pointer chase beside
/// SHIFT aggressors, `mshrs` MSHRs per core. Returns each core's pin and
/// the shared neighbor-eviction count.
fn run_neighbor(kernels: &[(&str, IqKind)], mshrs: usize) -> (Vec<CorePin>, u64) {
    let programs: Vec<_> = kernels
        .iter()
        .map(|(name, _)| suite::by_name(name).expect("golden kernel exists").build_scaled(80_000))
        .collect();
    let workloads: Vec<_> =
        kernels.iter().zip(&programs).map(|((_, kind), p)| (*kind, p)).collect();
    let mut config = CoreConfig::medium();
    config.mem.mshrs = mshrs;
    let mut sim = MultiCoreSim::new(config, &workloads);
    let results = sim.run(MULTI_RUN_INSTS);
    let shared = sim.shared_stats();
    let pins = results
        .iter()
        .zip(&shared.per_requester)
        .map(|(r, m)| (r.cycles, r.retired, m.arb_wait_cycles, m.quota_stall_cycles))
        .collect();
    (pins, shared.neighbor_evictions)
}

fn check_neighbor(kernels: &[(&str, IqKind)], mshrs: usize, expected: (&[CorePin], u64)) {
    let (pins, evictions) = run_neighbor(kernels, mshrs);
    println!("{} cores, {mshrs} MSHRs: {pins:?}, neighbor_evictions {evictions}", kernels.len());
    assert_eq!((pins.as_slice(), evictions), expected, "{} cores, {mshrs} MSHRs", kernels.len());
}

/// The multi-core pins: every core's timing and its share of the shared
/// hierarchy's contention counters. The skip differentials compare the
/// skipping and stepped drive loops with each other, so a fault both share
/// (the MSHR quota loop, the in-flight fill bookkeeping) shows only here.
#[test]
fn golden_neighbor_two_cores() {
    check_neighbor(
        &[("omnetpp_like", IqKind::Swque), ("lbm_like", IqKind::Shift)],
        4,
        (
            &[(1_469_770, 300_002, 848_583, 5_653_809), (1_844_053, 300_004, 737_752, 7_258_259)],
            2_811,
        ),
    );
}

#[test]
fn golden_neighbor_four_cores() {
    check_neighbor(
        &[
            ("omnetpp_like", IqKind::Swque),
            ("lbm_like", IqKind::Shift),
            ("fotonik3d_like", IqKind::Shift),
            ("xz_like", IqKind::Shift),
        ],
        2,
        (
            &[
                (5_858_585, 300_001, 6_959_513, 34_885_378),
                (6_664_931, 300_000, 6_863_714, 39_844_096),
                (6_052_499, 300_000, 7_047_284, 35_997_352),
                (5_590_682, 300_000, 7_127_662, 27_651_420),
            ],
            23_743,
        ),
    );
}
