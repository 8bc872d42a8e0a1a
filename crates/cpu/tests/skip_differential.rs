//! Skip differential: quiescence skipping (DESIGN.md §10) must be
//! *invisible* — every simulated cycle count and every statistic must come
//! out byte-identical whether the core ticks through idle windows one
//! cycle at a time or jumps them in bulk.
//!
//! Three gates:
//!
//! 1. **Lockstep differential** — for every issue-queue organization, a
//!    medium-model run with skipping on and the same run with skipping
//!    off must produce `SimResult`s whose `Debug` renderings are equal
//!    byte-for-byte (this covers every statistic field, recursively). A
//!    third run steps the same core by hand with [`Core::step_cycle`] and
//!    must match too: the stepping API and the drive loop behind
//!    [`Core::run`] are separate code paths. The test also asserts
//!    non-vacuity: at least one run per kernel must actually take skips,
//!    so the equality is not trivially comparing two per-cycle runs.
//!
//! 2. **Never-overshoot property** — on random programs, tick a core
//!    per-cycle and cross-examine the pure [`Core::quiescent_horizon`]
//!    query: once it promises quiescence until `h`, the promise must hold
//!    verbatim at every intermediate cycle. If any subsystem would have
//!    changed state at a cycle `c < h`, the predicate at `c` would return
//!    `None` (or a different horizon) and the assertion fires — exactly
//!    the overshoot a bulk jump would have committed.
//!
//! 3. **Skip effectiveness** — on a latency-bound serial pointer chase,
//!    skipping must jump over nearly every simulated cycle. The first two
//!    gates hold for a horizon that never skips; this one fails when the
//!    horizon stops covering idle windows.
//!
//! Tests toggle skipping with [`Core::set_skip`], the only skip switch.

use swque_core::IqKind;
use swque_cpu::{Core, CoreConfig};
use swque_isa::{Assembler, Program, Reg};
use swque_rng::prop::check;
use swque_workloads::suite;
use swque_workloads::synthetic::{pointer_chase, PointerChaseParams};

const RUN_INSTS: u64 = 20_000;
const SCALE: u64 = 4_000;

/// Instructions simulated on the serial chase.
const SERIAL_CHASE_INSTS: u64 = 20_000;
/// Floor on the share of serial-chase cycles the clock jumps over
/// (measured 0.979: 1,230,698 of 1,256,554 cycles in 3,995 jumps).
const SERIAL_CHASE_MIN_SKIPPED: f64 = 0.95;

/// Builds a medium-model core for `kernel` under `kind` with skipping
/// forced on or off.
fn core(kind: IqKind, kernel: &str, skip: bool) -> Core {
    let k = suite::by_name(kernel).expect("kernel exists");
    let mut core = Core::new(CoreConfig::medium(), kind, &k.build_scaled(SCALE));
    core.set_skip(skip);
    core
}

/// Runs `kernel` under `kind` with skipping forced on or off; returns the
/// full `SimResult` debug rendering and the `(skips, cycles_skipped)`
/// counters.
fn run(kind: IqKind, kernel: &str, skip: bool) -> (String, (u64, u64)) {
    let mut core = core(kind, kernel, skip);
    let r = core.run(RUN_INSTS);
    (format!("{r:?}"), core.skip_stats())
}

/// Steps `kernel` under `kind` one [`Core::step_cycle`] at a time, skipping
/// off, to the same bound as [`run`]; returns the `SimResult` rendering.
fn stepped(kind: IqKind, kernel: &str) -> String {
    let mut core = core(kind, kernel, false);
    while core.active(RUN_INSTS) {
        core.step_cycle();
    }
    format!("{:?}", core.result())
}

fn differential(kernel: &str) {
    let mut any_skips = false;
    for kind in IqKind::ALL {
        let (with_skip, (skips, skipped)) = run(kind, kernel, true);
        let (without, off_stats) = run(kind, kernel, false);
        assert_eq!(off_stats, (0, 0), "{kind}: set_skip(false) must disable skipping");
        assert_eq!(
            with_skip, without,
            "{kind} on {kernel}: SimResult diverges between skip-on and skip-off"
        );
        assert_eq!(
            stepped(kind, kernel),
            without,
            "{kind} on {kernel}: stepping with step_cycle diverges from run"
        );
        println!("{kernel} {kind}: {skips} skips, {skipped} cycles skipped");
        if skips > 0 {
            assert!(skipped >= skips, "each skip advances at least one cycle");
            any_skips = true;
        }
    }
    assert!(
        any_skips,
        "{kernel}: no queue kind took a single skip — the differential is vacuous"
    );
}

/// ILP-bound kernel: short idle windows, exercises skip/no-skip
/// interleaving at fine grain.
#[test]
fn skip_differential_deepsjeng_like() {
    differential("deepsjeng_like");
}

/// MLP-bound kernel: long DRAM stalls, exercises large jumps and the
/// interval/stat bulk-advance paths.
#[test]
fn skip_differential_xz_like() {
    differential("xz_like");
}

/// The latency-bound pin: one serial dependent-miss chain over an 8 MiB
/// ring. With one load in flight and ~5 instructions per DRAM round trip,
/// nearly every cycle is quiescent — the configuration skipping exists for.
fn serial_chase() -> Program {
    pointer_chase(
        60_000,
        &PointerChaseParams {
            chains: 1,
            nodes: 1 << 20,
            spacing: 0,
            alu_work: 1,
            fp_work: 0,
            seed: 0xC0FFEE,
        },
    )
}

/// Skipping must actually remove idle cycles, not merely stay invisible:
/// on the serial chase the clock jumps over at least
/// [`SERIAL_CHASE_MIN_SKIPPED`] of all simulated cycles, with the result
/// byte-identical to the per-cycle run. Both are exact counters, so the
/// floor gates without wall-clock noise.
#[test]
fn skipping_removes_idle_cycles_on_serial_chase() {
    let program = serial_chase();
    let run = |skip: bool| {
        let mut core = Core::new(CoreConfig::medium(), IqKind::Swque, &program);
        core.set_skip(skip);
        let r = core.run(SERIAL_CHASE_INSTS);
        (r, core.skip_stats())
    };
    let (on, (skips, skipped)) = run(true);
    let (off, _) = run(false);
    assert_eq!(format!("{on:?}"), format!("{off:?}"), "skipping changed the simulated result");
    let frac = skipped as f64 / on.cycles as f64;
    println!("serial_chase: {skips} skips, {skipped}/{} cycles skipped ({frac:.4})", on.cycles);
    assert!(
        frac >= SERIAL_CHASE_MIN_SKIPPED,
        "serial_chase: only {frac:.4} of cycles skipped (floor {SERIAL_CHASE_MIN_SKIPPED}) — \
         the quiescence horizon stopped covering idle windows"
    );
}

/// A small random program: serial dependent loads (long idle windows)
/// mixed with ALU work and a bounded loop, guaranteed to terminate.
fn random_program(g: &mut swque_rng::prop::Gen) -> Program {
    let body: Vec<u8> = g.vec(3..16, |g| g.u8());
    let iters = g.gen_range(1u8..20);
    let mut a = Assembler::new();
    a.data_u64s(0x1000, &(0..64u64).map(|i| i * 0x9E37 + 1).collect::<Vec<_>>());
    a.li(Reg(1), iters as i64 + 1);
    a.li(Reg(2), 0x1000);
    a.li(Reg(3), 1);
    a.label("loop");
    for (i, b) in body.iter().enumerate() {
        let dst = Reg(4 + (i % 10) as u8);
        let src = Reg(4 + ((i + 7) % 10) as u8);
        match b % 6 {
            0 => a.add(dst, src, Reg(3)),
            1 => a.mul(dst, src, Reg(3)),
            2 | 3 => {
                // Dependent load chain: serializes the pipeline and opens
                // an idle window the length of the memory latency.
                a.andi(dst, src, 0x1F8);
                a.add(dst, dst, Reg(2));
                a.ld(dst, dst, 0);
            }
            4 => {
                a.andi(dst, src, 0x1F8);
                a.add(dst, dst, Reg(2));
                a.st(Reg(3), dst, 0);
            }
            _ => a.xori(dst, src, *b as i64),
        }
    }
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "loop");
    a.halt();
    a.finish().expect("valid labels")
}

/// The horizon never overshoots: once `quiescent_horizon()` promises
/// `Some(h)` at cycle `C`, per-cycle ticking must find the pipeline still
/// quiescent — with the *same* horizon — at every cycle in `(C, h)`.
/// During true quiescence nothing but the clock moves, so the pure
/// predicate must be stable; any instability means a subsystem changed
/// state inside a window a skip would have jumped over.
#[test]
fn horizon_never_overshoots() {
    check(24, |g| {
        let program = random_program(g);
        for kind in [IqKind::Shift, IqKind::CircPc, IqKind::Swque] {
            let mut core = Core::new(CoreConfig::tiny(), kind, &program);
            core.set_skip(false); // tick per-cycle; the horizon is only queried
            let mut promised: Option<u64> = None;
            let mut windows = 0u32;
            for _ in 0..200_000u32 {
                if core.finished() {
                    break;
                }
                let q = core.quiescent_horizon();
                if let Some(h) = promised {
                    if core.cycle() < h {
                        assert_eq!(
                            q,
                            Some(h),
                            "{kind}: promised quiescence until {h}, but at \
                             cycle {} the predicate changed — a skip would \
                             have jumped over a state change",
                            core.cycle()
                        );
                    }
                }
                if q.is_some() && promised != q {
                    windows += 1;
                }
                promised = q;
                core.step_cycle();
            }
            assert!(core.finished(), "{kind}: random program drains");
            assert!(windows > 0, "{kind}: no quiescent window seen — property is vacuous");
        }
    });
}
