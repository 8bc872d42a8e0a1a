//! The four workloads, the units each runs, and how one unit runs.
//!
//! A unit is one simulation (one core, or N cores over a shared memory
//! hierarchy) or one model-checker scope. Every simulator unit starts with
//! empty caches, runs [`Budget::warmup`] instructions that the measured
//! window excludes, then [`Budget::measured`] more.

use swque_bench::{ProcessorModel, TRACE_CAPACITY};
use swque_core::replay::ReplayTarget;
use swque_core::IqKind;
use swque_cpu::{Core, CoreConfig, MultiCoreSim, SimResult};
use swque_isa::{Emulator, Program};
use swque_mc::{explore, CtrlHarness, Harness, QueueHarness, RunOutcome};
use swque_mem::SharedMemStats;
use swque_trace::TraceHandle;
use swque_workloads::suite;
use swque_workloads::synthetic::{pointer_chase, PointerChaseParams};

use crate::clock::Stopwatch;
use crate::spans::{SpanId, Spans};
use crate::stats::median;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Busy cycles dominate: wakeup/select, dispatch/commit, the emulator
    /// and the predictor carry the host cost.
    IlpBusy,
    /// Idle cycles dominate: quiescence skipping, the memory hierarchy,
    /// trace emission and set-up carry the host cost.
    MlpStall,
    /// The detached-core path: shared L2/DRAM arbitration and MSHR quotas.
    MulticoreContention,
    /// The model checker: clone, digest, squash, flush and poll paths.
    McExplore,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::IlpBusy,
        Workload::MlpStall,
        Workload::MulticoreContention,
        Workload::McExplore,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IlpBusy => "ilp_busy",
            Workload::MlpStall => "mlp_stall",
            Workload::MulticoreContention => "multicore_contention",
            Workload::McExplore => "mc_explore",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The units one rep of this workload runs, in order.
    pub fn units(self) -> Vec<Unit> {
        use IqKind::*;
        let medium = ProcessorModel::Medium;
        let core = |kernel, kind, model, traced| Unit::Core {
            program: Prog::Suite(kernel),
            kind,
            model,
            traced,
        };
        match self {
            Workload::IlpBusy => {
                let mut units = Vec::new();
                for kernel in ["deepsjeng_like", "mcf_like", "bwaves_like"] {
                    units.extend(IqKind::ALL.map(|kind| core(kernel, kind, medium, false)));
                }
                for kind in [Age, SwqueMulti] {
                    units.push(core("deepsjeng_like", kind, ProcessorModel::Large, false));
                }
                units
            }
            Workload::MlpStall => {
                let mut units = Vec::new();
                for kernel in ["omnetpp_like", "xz_like", "lbm_like", "fotonik3d_like"] {
                    units.extend([Swque, Age, CircPc].map(|kind| core(kernel, kind, medium, true)));
                }
                units.push(Unit::Core {
                    program: Prog::SerialChase,
                    kind: Swque,
                    model: medium,
                    traced: true,
                });
                units
            }
            // The `neighbor` experiment's scenarios: a measured SWQUE pointer
            // chase beside SHIFT aggressors, MSHRs partitioned from a pool of 8.
            Workload::MulticoreContention => vec![
                Unit::Multi {
                    cores: vec![
                        (Prog::Suite("omnetpp_like"), Swque),
                        (Prog::Suite("lbm_like"), Shift),
                    ],
                    mshrs: 4,
                },
                Unit::Multi {
                    cores: vec![
                        (Prog::Suite("omnetpp_like"), Swque),
                        (Prog::Suite("lbm_like"), Shift),
                        (Prog::Suite("fotonik3d_like"), Shift),
                        (Prog::Suite("xz_like"), Shift),
                    ],
                    mshrs: 2,
                },
            ],
            // `swque-mc --smoke`'s matrix: every kind at capacity 2, the
            // non-SWQUE kinds at capacity 3, and the controller.
            Workload::McExplore => {
                let mut units: Vec<Unit> = IqKind::ALL
                    .iter()
                    .flat_map(|&kind| {
                        let caps: &[usize] = if matches!(kind, Swque | SwqueMulti) {
                            &[2]
                        } else {
                            &[2, 3]
                        };
                        caps.iter().map(move |&capacity| Unit::Mc {
                            target: ReplayTarget::Queue(kind),
                            capacity,
                        })
                    })
                    .collect();
                units.push(Unit::Mc {
                    target: ReplayTarget::Controller,
                    capacity: 0,
                });
                units
            }
        }
    }
}

/// Where a unit's program comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    /// A suite kernel at its default scale.
    Suite(&'static str),
    /// `perf_gate`'s latency-bound pin: one dependent-miss chain over an
    /// 8 MiB ring (IPC about 0.02).
    SerialChase,
}

/// The canonical ring seed of the serial chase.
const SERIAL_CHASE_SEED: u64 = 0xC0FFEE;

impl Prog {
    /// Builds the program for workload seed `seed`. Seed 0 is the canonical
    /// program: suite kernels build as `Kernel::build()` does.
    pub fn build(self, seed: u64) -> Program {
        match self {
            Prog::Suite(name) => suite::by_name(name)
                .expect("unit names a suite kernel")
                .build_seeded(None, seed),
            Prog::SerialChase => pointer_chase(
                60_000,
                &PointerChaseParams {
                    chains: 1,
                    nodes: 1 << 20,
                    spacing: 0,
                    alu_work: 1,
                    fp_work: 0,
                    // The suite's seed mix: seed 0 keeps the canonical ring.
                    seed: SERIAL_CHASE_SEED ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                },
            ),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Prog::Suite(name) => name,
            Prog::SerialChase => "serial_chase",
        }
    }
}

/// One unit of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unit {
    /// One core on its own memory hierarchy. A traced unit attaches a trace
    /// ring after warmup, as every figure run under `SWQUE_JSON` does.
    Core {
        program: Prog,
        kind: IqKind,
        model: ProcessorModel,
        traced: bool,
    },
    /// `MultiCoreSim`: core `i` runs `cores[i]` over one shared hierarchy
    /// with `mshrs` MSHRs per core.
    Multi {
        cores: Vec<(Prog, IqKind)>,
        mshrs: usize,
    },
    /// One exhaustive model-checker scope.
    Mc {
        target: ReplayTarget,
        capacity: usize,
    },
}

/// Instruction budget of a simulator unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Warmup instructions, excluded from the measured window.
    pub warmup: u64,
    /// Instructions in the measured window.
    pub measured: u64,
}

impl Budget {
    /// The benchmark's budget: 30k warmup plus 70k measured instructions,
    /// short enough that a run fits many reps of every workload.
    pub const FULL: Budget = Budget {
        warmup: 30_000,
        measured: 70_000,
    };
    /// A budget small enough for unit tests.
    #[cfg(test)]
    pub const SMOKE: Budget = Budget {
        warmup: 1_000,
        measured: 3_000,
    };

    /// Retired instructions at which a unit of `prog` ends. The serial
    /// chase measures a quarter as many instructions (it simulates about 60
    /// cycles each), as in `perf_gate`.
    pub fn total_for(self, prog: Prog) -> u64 {
        match prog {
            Prog::SerialChase => self.warmup + self.measured / 4,
            Prog::Suite(_) => self.total(),
        }
    }

    /// Retired instructions at which a suite-kernel unit ends.
    pub fn total(self) -> u64 {
        self.warmup + self.measured
    }
}

/// The depth bound `swque-mc` uses for a target: generous, since the
/// explorer stops at the reachable-set fixpoint.
fn mc_depth(target: ReplayTarget) -> u64 {
    match target {
        ReplayTarget::Queue(IqKind::Swque | IqKind::SwqueMulti) => 80,
        ReplayTarget::Queue(_) => 32,
        ReplayTarget::Controller => 24,
    }
}

/// Harness builds timed per mc scope. A build takes well under a
/// microsecond, near the clock's own noise, so set-up is their median.
const HARNESS_BUILDS: usize = 32;

/// Builds the harness of one mc scope (spans `harness_new`) and explores it
/// to its depth bound (span `measure`) under `parent`. Returns the outcome,
/// the median build time and the exploration time.
pub fn run_scope(
    target: ReplayTarget,
    capacity: usize,
    spans: &mut Spans,
    parent: SpanId,
) -> (RunOutcome, u64, u64) {
    match target {
        ReplayTarget::Queue(kind) => explore_scope(
            || QueueHarness::new(kind, capacity, 2, None),
            mc_depth(target),
            spans,
            parent,
        ),
        ReplayTarget::Controller => {
            explore_scope(|| CtrlHarness::new(None), mc_depth(target), spans, parent)
        }
    }
}

fn explore_scope<H: Harness>(
    build: impl Fn() -> Result<H, String>,
    depth: u64,
    spans: &mut Spans,
    parent: SpanId,
) -> (RunOutcome, u64, u64) {
    let id = spans.open("harness_new", Some(parent));
    let mut build_ns = Vec::with_capacity(HARNESS_BUILDS);
    let mut root = None;
    for _ in 0..HARNESS_BUILDS {
        let t = Stopwatch::start();
        let harness = build();
        build_ns.push(t.ns() as f64);
        root = Some(harness);
    }
    spans.close(id);
    let root = root
        .and_then(Result::ok)
        .expect("the benchmark's mc scopes are valid harnesses");
    let (outcome, run_ns) = spans.time("measure", parent, || explore(&root, depth));
    (outcome, median(&build_ns) as u64, run_ns)
}

/// Why an exploration failed, if it did: a property was violated, or the
/// depth bound left states unexplored.
pub fn scope_failure(outcome: &RunOutcome) -> Option<String> {
    match &outcome.violation {
        Some(v) => Some(format!("violates {}: {}", v.property, v.detail)),
        None => (!outcome.closed()).then(|| format!("frontier open: {} states", outcome.frontier)),
    }
}

impl Unit {
    /// A short human-readable label.
    pub fn label(&self) -> String {
        match self {
            Unit::Core {
                program,
                kind,
                model,
                ..
            } => format!("{}/{}/{}", program.label(), kind.label(), model.label()),
            Unit::Multi { cores, .. } => {
                let parts: Vec<String> = cores
                    .iter()
                    .map(|(p, k)| format!("{}:{}", p.label(), k.label()))
                    .collect();
                format!("{}core[{}]", cores.len(), parts.join(","))
            }
            Unit::Mc { target, capacity } => format!("mc/{}/cap{capacity}", target.label()),
        }
    }
}

/// What a unit's simulated machine (or explorer) did: deterministic, so it
/// must repeat exactly from rep to rep.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A single core: the measured window, and the whole run's clock jumps.
    Core {
        /// Measured-window result.
        window: Box<SimResult>,
        /// `(jumps, cycles skipped)` over the whole run.
        skip: (u64, u64),
        /// Trace events retained and dropped in the measured window.
        trace: (u64, u64),
    },
    /// N cores: per-core measured windows plus shared-level contention.
    Multi {
        /// Measured-window result per core.
        windows: Vec<SimResult>,
        /// Arbitration waits, quota stalls and neighbor evictions in the
        /// measured window.
        contention: (u64, u64, u64),
        /// `(jumps, cycles skipped)` summed over cores, whole run.
        skip: (u64, u64),
    },
    /// One model-checker scope.
    Mc {
        /// Canonical states explored.
        states: u64,
        /// Deepest level at which a new state appeared.
        deepest: u64,
    },
}

/// One execution of one unit.
#[derive(Debug, Clone)]
pub struct UnitRun {
    /// Host time of set-up: building the program(s) and the simulator (or
    /// the model-checker harness).
    pub setup_ns: u64,
    /// Host time of the run itself: warmup plus measured window, or the
    /// exploration.
    pub run_ns: u64,
    /// Instructions retired over the whole run (all cores).
    pub insts: u64,
    /// Cycles simulated over the whole run (summed over cores).
    pub cycles: u64,
    /// What the machine did.
    pub outcome: Outcome,
    /// Why the unit failed, if it did.
    pub failure: Option<String>,
}

impl UnitRun {
    /// The facts that must repeat exactly between reps.
    pub fn fingerprint(&self) -> String {
        format!("{:?}", self.outcome)
    }
}

/// The failure of a simulator result, if any: a pipeline invariant fired,
/// or the program finished before the retire target.
fn check(result: &SimResult, target: u64) -> Option<String> {
    if let Some(v) = &result.invariant {
        return Some(v.to_string());
    }
    (result.retired < target)
        .then(|| format!("retired {} of {target} instructions", result.retired))
}

/// Runs `unit` once for workload seed `seed`, recording spans under
/// `parent`: `build`, `core_new`, `warmup` and `measure` (an mc scope
/// records `harness_new` and `measure` for the exploration).
/// With `time_emulator`, `Emulator::new` is also timed on its own
/// (`emu_new`, outside set-up).
pub fn run_unit(
    unit: &Unit,
    seed: u64,
    budget: Budget,
    spans: &mut Spans,
    parent: SpanId,
    time_emulator: bool,
) -> UnitRun {
    let id = spans.open(&unit.label(), Some(parent));
    let run = match unit {
        Unit::Core {
            program,
            kind,
            model,
            traced,
        } => {
            let (program_code, build_ns) = spans.time("build", id, || program.build(seed));
            if time_emulator {
                spans.time("emu_new", id, || {
                    drop(std::hint::black_box(Emulator::new(&program_code)))
                });
            }
            let (mut core, new_ns) = spans.time("core_new", id, || {
                Core::new(model.config(), *kind, &program_code)
            });
            let total = budget.total_for(*program);
            let (warm, warm_ns) = spans.time("warmup", id, || core.run(budget.warmup));
            let trace = if *traced {
                TraceHandle::ring(TRACE_CAPACITY)
            } else {
                TraceHandle::disabled()
            };
            core.attach_trace(&trace);
            let (full, measure_ns) = spans.time("measure", id, || core.run(total));
            UnitRun {
                setup_ns: build_ns + new_ns,
                run_ns: warm_ns + measure_ns,
                insts: full.retired,
                cycles: full.cycles,
                failure: check(&full, total),
                outcome: Outcome::Core {
                    window: Box::new(full.delta(&warm)),
                    skip: core.skip_stats(),
                    trace: (trace.events().len() as u64, trace.dropped()),
                },
            }
        }
        Unit::Multi { cores, mshrs } => {
            let (programs, build_ns) = spans.time("build", id, || {
                cores.iter().map(|(p, _)| p.build(seed)).collect::<Vec<_>>()
            });
            if time_emulator {
                for program in &programs {
                    spans.time("emu_new", id, || {
                        drop(std::hint::black_box(Emulator::new(program)))
                    });
                }
            }
            let mut config = CoreConfig::medium();
            config.mem.mshrs = *mshrs;
            let workloads: Vec<(IqKind, &Program)> = cores
                .iter()
                .zip(&programs)
                .map(|((_, kind), p)| (*kind, p))
                .collect();
            let (mut sim, new_ns) =
                spans.time("core_new", id, || MultiCoreSim::new(config, &workloads));
            let (warm, warm_ns) = spans.time("warmup", id, || sim.run(budget.warmup));
            let warm_shared = sim.shared_stats();
            let (full, measure_ns) = spans.time("measure", id, || sim.run(budget.total()));
            let shared: SharedMemStats = sim.shared_stats();
            UnitRun {
                setup_ns: build_ns + new_ns,
                run_ns: warm_ns + measure_ns,
                insts: full.iter().map(|r| r.retired).sum(),
                cycles: full.iter().map(|r| r.cycles).sum(),
                failure: full.iter().find_map(|r| check(r, budget.total())),
                outcome: Outcome::Multi {
                    windows: full.iter().zip(&warm).map(|(f, w)| f.delta(w)).collect(),
                    contention: (
                        shared.arb_wait_cycles - warm_shared.arb_wait_cycles,
                        shared.quota_stall_cycles - warm_shared.quota_stall_cycles,
                        shared.neighbor_evictions - warm_shared.neighbor_evictions,
                    ),
                    skip: sim.skip_stats(),
                },
            }
        }
        Unit::Mc { target, capacity } => {
            let (outcome, setup_ns, run_ns) = run_scope(*target, *capacity, spans, id);
            UnitRun {
                setup_ns,
                run_ns,
                insts: 0,
                cycles: 0,
                failure: scope_failure(&outcome),
                outcome: Outcome::Mc {
                    states: outcome.states,
                    deepest: outcome.deepest,
                },
            }
        }
    };
    spans.close(id);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_program(a: &Program, b: &Program) -> bool {
        a.insts == b.insts && a.data == b.data && a.entry == b.entry
    }

    fn programs_of(workload: Workload) -> Vec<Prog> {
        let mut progs = Vec::new();
        for unit in workload.units() {
            match unit {
                Unit::Core { program, .. } => progs.push(program),
                Unit::Multi { cores, .. } => progs.extend(cores.iter().map(|(p, _)| *p)),
                Unit::Mc { .. } => {}
            }
        }
        progs.dedup();
        progs
    }

    #[test]
    fn seed_zero_is_canonical_and_seed_one_differs() {
        let mut progs: Vec<Prog> = Workload::ALL.into_iter().flat_map(programs_of).collect();
        progs.sort_by_key(|p| p.label());
        progs.dedup();
        assert_eq!(
            progs.len(),
            8,
            "seven suite kernels plus the serial chase: {progs:?}"
        );
        for prog in progs {
            let canonical = match prog {
                Prog::Suite(name) => suite::by_name(name).expect("suite kernel").build(),
                Prog::SerialChase => pointer_chase(
                    60_000,
                    &PointerChaseParams {
                        chains: 1,
                        nodes: 1 << 20,
                        spacing: 0,
                        alu_work: 1,
                        fp_work: 0,
                        seed: SERIAL_CHASE_SEED,
                    },
                ),
            };
            assert!(
                same_program(&prog.build(0), &canonical),
                "{prog:?}: seed 0 is not the canonical program"
            );
            assert!(
                !same_program(&prog.build(1), &canonical),
                "{prog:?}: seed 1 did not change the program"
            );
        }
    }

    #[test]
    fn workloads_round_trip_their_names_and_have_the_documented_units() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
        assert_eq!(Workload::IlpBusy.units().len(), 32);
        assert_eq!(Workload::MlpStall.units().len(), 13);
        assert_eq!(Workload::MulticoreContention.units().len(), 2);
        assert_eq!(Workload::McExplore.units().len(), 19);
    }
}
