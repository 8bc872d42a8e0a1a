//! The host-cost profile of a traced run: a stepped pass over
//! representative units, and one probe per layer.
//!
//! The profile is the same for every workload, so its per-layer timings
//! compare across workloads and across commits:
//!
//! * **Stepped pass.** Representative units run with quiescence skipping
//!   off, calling `quiescent_horizon()` and then `step_cycle()` and timing
//!   each call. A cycle is idle iff the horizon is `Some`. An untraced
//!   `Core::run` of the same unit (skipping off) gives the tracing
//!   overhead and must produce the identical `SimResult`.
//! * **Probes.** Each probe times one layer's public functions on traffic
//!   taken from a kernel's `Emulator::step` stream: the issue queues
//!   (dispatch, wakeup, select), the memory hierarchy, the branch
//!   predictor, and the emulator itself; plus one model-checker scope per
//!   harness and the trace ring's overhead.

use std::collections::BTreeMap;
use std::hint::black_box;

use swque_bench::{ProcessorModel, TRACE_CAPACITY};
use swque_branch::{BranchKind, BranchOutcome, BranchPredictor};
use swque_core::replay::ReplayTarget;
use swque_core::{DispatchReq, IqKind, IssueBudget, Tag};
use swque_cpu::{Core, CoreConfig, SimResult};
use swque_isa::{Emulator, Opcode, Program, Retired};
use swque_mem::{AccessKind, MemoryHierarchy};
use swque_trace::{Json, TraceHandle};

use crate::clock::Stopwatch;
use crate::spans::{SpanId, Spans};
use crate::stats::Histogram;
use crate::units::{run_scope, scope_failure, Budget, Prog};

/// The stepped pass's units: the moderate-ILP kernel on three queue
/// organizations and the large model, and one MLP unit.
const STEPPED: [(&str, IqKind, ProcessorModel); 5] = [
    ("deepsjeng_like", IqKind::CircPc, ProcessorModel::Medium),
    ("deepsjeng_like", IqKind::Age, ProcessorModel::Medium),
    ("deepsjeng_like", IqKind::Swque, ProcessorModel::Medium),
    ("deepsjeng_like", IqKind::Age, ProcessorModel::Large),
    ("omnetpp_like", IqKind::Swque, ProcessorModel::Medium),
];

/// One small model-checker scope per harness class.
const MC_PROBES: [(&str, ReplayTarget, usize); 3] = [
    ("queue", ReplayTarget::Queue(IqKind::CircPc), 3),
    ("swque", ReplayTarget::Queue(IqKind::Swque), 2),
    ("ctrl", ReplayTarget::Controller, 0),
];

/// Calls timed together in one batch by the probes whose calls are too
/// short to time one by one.
const BATCH: usize = 1024;

/// Tags the IQ probe renames onto; far more than can be in flight.
const PROBE_TAGS: usize = 4096;

/// What the profile measured.
#[derive(Debug, Default)]
pub struct Profile {
    /// Per-call histograms, by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Scalar results, by metric name.
    pub values: BTreeMap<String, f64>,
    /// Probes that found the code misbehaving: `(probe, why)`.
    pub failures: Vec<(String, String)>,
}

impl Profile {
    fn hist(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A scalar result; 0 if the probe did not produce it.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of histogram `name`; 0 if empty.
    pub fn mean(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, Histogram::mean)
    }

    /// The histograms as a JSON object.
    pub fn histograms_json(&self) -> Json {
        Json::obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json())),
        )
    }
}

/// The median cost of timing nothing: subtracted from every per-call
/// sample so a sample measures the call, not the clock.
fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..1001).map(|_| Stopwatch::start().ns()).collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `f` in batches of [`BATCH`] calls over `items`; returns the mean
/// nanoseconds per call.
fn batched_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut total = 0u64;
    for chunk in items.chunks(BATCH) {
        let t = Stopwatch::start();
        chunk.iter().for_each(&mut f);
        total += t.ns();
    }
    if items.is_empty() {
        0.0
    } else {
        total as f64 / items.len() as f64
    }
}

/// The first `n` instructions `program` executes (fewer if it halts).
fn stream(program: &Program, n: u64) -> Vec<Retired> {
    let mut emu = Emulator::new(program);
    let mut out = Vec::new();
    while (out.len() as u64) < n && !emu.halted() {
        match emu.step() {
            Ok(r) => out.push(r),
            Err(_) => break,
        }
    }
    out
}

/// Runs the whole profile for workload seed `seed`, recording spans under
/// `parent`.
pub fn run(seed: u64, budget: Budget, spans: &mut Spans, parent: SpanId) -> Profile {
    let mut p = Profile::default();
    let overhead = timer_overhead_ns();
    p.set("clock.overhead_ns", overhead as f64);
    let (ilp, _) = spans.time("build", parent, || {
        Prog::Suite("deepsjeng_like").build(seed)
    });
    let (mlp, _) = spans.time("build", parent, || Prog::Suite("omnetpp_like").build(seed));
    let probe_insts = budget.total() / 4;

    let id = spans.open("isa_probe", Some(parent));
    let steps = vec![(); probe_insts as usize];
    let mut emu = Emulator::new(&ilp);
    p.set(
        "isa.emu_step_ns",
        batched_ns(&steps, |_| drop(black_box(emu.step()))),
    );
    let ilp_stream = stream(&ilp, probe_insts);
    let mlp_stream = stream(&mlp, budget.total());
    spans.close(id);

    let id = spans.open("branch_probe", Some(parent));
    p.set("branch.predict_update_ns", branch_probe(&ilp_stream));
    spans.close(id);

    let id = spans.open("mem_probe", Some(parent));
    p.set("mem.access_ns", mem_probe(&mlp_stream));
    spans.close(id);

    let id = spans.open("iq_probe", Some(parent));
    let mut configs: Vec<(String, IqKind, CoreConfig)> = IqKind::ALL
        .iter()
        .map(|&k| (k.label().to_string(), k, CoreConfig::medium()))
        .collect();
    configs.push(("AGE-large".to_string(), IqKind::Age, CoreConfig::large()));
    let (mut selects, mut grants) = (0u64, 0u64);
    for (label, kind, config) in &configs {
        match iq_probe(&mut p, label, *kind, config, &ilp_stream, overhead) {
            Ok((s, g)) => {
                selects += s;
                grants += g;
            }
            Err(why) => p.failures.push((format!("iq_probe/{label}"), why)),
        }
    }
    p.set(
        "core.grants_per_select",
        grants as f64 / selects.max(1) as f64,
    );
    spans.close(id);

    let id = spans.open("stepped_pass", Some(parent));
    stepped_pass(&mut p, &ilp, &mlp, budget, overhead, spans, id);
    spans.close(id);

    let id = spans.open("trace_probe", Some(parent));
    trace_probe(&mut p, &mlp, budget, spans, id);
    spans.close(id);

    let id = spans.open("mc_probe", Some(parent));
    for (name, target, capacity) in MC_PROBES {
        let (outcome, _, run_ns) = run_scope(target, capacity, spans, id);
        if let Some(why) = scope_failure(&outcome) {
            p.failures.push((format!("mc_probe/{name}"), why));
        }
        p.set(
            &format!("mc.states_per_s.{name}"),
            outcome.states as f64 * 1e9 / run_ns.max(1) as f64,
        );
    }
    spans.close(id);
    p
}

/// Predict-and-update cost per control-flow instruction of `stream`.
fn branch_probe(stream: &[Retired]) -> f64 {
    let branches: Vec<(u64, BranchKind, BranchOutcome)> = stream
        .iter()
        .filter(|r| r.inst.op.is_control())
        .map(|r| {
            let kind = match r.inst.op {
                Opcode::Jr => BranchKind::IndirectJump,
                Opcode::J | Opcode::Jal => BranchKind::DirectJump,
                _ => BranchKind::Conditional,
            };
            let outcome = BranchOutcome {
                taken: r.taken(),
                target: Program::byte_addr(r.next_pc),
            };
            (Program::byte_addr(r.pc), kind, outcome)
        })
        .collect();
    let mut bp = BranchPredictor::default();
    batched_ns(&branches, |&(pc, kind, outcome)| {
        let prediction = bp.predict(pc, kind);
        black_box(bp.update(pc, kind, prediction, outcome));
    })
}

/// `MemoryHierarchy::access` cost per load or store of `stream` on the
/// medium model's hierarchy. Accesses issue one per cycle with at most one
/// per MSHR outstanding, as an out-of-order core would keep them; issuing
/// regardless of completions would grow the in-flight maps without bound.
fn mem_probe(stream: &[Retired]) -> f64 {
    let accesses: Vec<(u64, AccessKind)> = stream
        .iter()
        .filter_map(|r| r.mem)
        .map(|m| {
            (
                m.addr,
                if m.is_store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
            )
        })
        .collect();
    let config = CoreConfig::medium().mem;
    let mut outstanding = vec![0u64; config.mshrs.max(1)];
    let mut mem = MemoryHierarchy::new(config);
    let (mut now, mut issued) = (0u64, 0usize);
    batched_ns(&accesses, |&(addr, kind)| {
        let slot = issued % outstanding.len();
        now = (now + 1).max(outstanding[slot]);
        outstanding[slot] = mem.access(addr, kind, now).done_at;
        issued += 1;
    })
}

/// Replays `stream` through a fresh `kind` queue: registers are renamed
/// to tags, at most `width` instructions dispatch per cycle while the
/// queue has space, one select runs per cycle under the full issue budget,
/// and each grant's destination wakes after its opcode's latency. Records
/// per-call select, wakeup and dispatch times; returns `(selects, grants)`.
fn iq_probe(
    p: &mut Profile,
    label: &str,
    kind: IqKind,
    config: &CoreConfig,
    stream: &[Retired],
    overhead: u64,
) -> Result<(u64, u64), String> {
    let insts: Vec<_> = stream
        .iter()
        .map(|r| r.inst)
        .filter(|i| i.op != Opcode::Nop)
        .collect();
    let mut queue = kind.build(&config.iq);
    let mut producer: [Option<Tag>; 64] = [None; 64];
    let mut ready = vec![true; PROBE_TAGS];
    let mut next_tag = 0usize;
    // Wakeups due, by cycle modulo a ring longer than any latency.
    let mut due: Vec<Vec<Tag>> = vec![Vec::new(); 32];
    let (mut select_h, mut wakeup_h, mut dispatch_h) = (
        Histogram::default(),
        Histogram::default(),
        Histogram::default(),
    );
    let (mut cycle, mut next, mut grants) = (0u64, 0usize, 0u64);
    while next < insts.len() || !queue.is_empty() {
        if cycle > 64 * insts.len() as u64 + 1_000 {
            return Err(format!(
                "queue wedged at cycle {cycle} with {} entries",
                queue.len()
            ));
        }
        for tag in std::mem::take(&mut due[cycle as usize % 32]) {
            let t = Stopwatch::start();
            queue.wakeup(tag);
            wakeup_h.record(t.ns().saturating_sub(overhead));
            ready[tag as usize] = true;
        }
        let mut budget = IssueBudget::new(config.width, config.fu_counts);
        let t = Stopwatch::start();
        let granted = queue.select(&mut budget);
        select_h.record(t.ns().saturating_sub(overhead));
        grants += granted.len() as u64;
        for g in granted {
            if let Some(dst) = g.dst {
                let latency = insts[g.payload as usize].op.latency() as u64;
                due[(cycle + latency) as usize % 32].push(dst);
            }
        }
        for _ in 0..config.width {
            if next >= insts.len() || !queue.has_space() {
                break;
            }
            let inst = insts[next];
            let mut srcs = [None; 2];
            for (slot, reg) in srcs.iter_mut().zip(inst.sources()) {
                *slot = producer[reg.flat_index()].filter(|&t| !ready[t as usize]);
            }
            let dst = inst.dest().map(|reg| {
                let tag = next_tag as Tag;
                next_tag = (next_tag + 1) % PROBE_TAGS;
                ready[tag as usize] = false;
                producer[reg.flat_index()] = Some(tag);
                tag
            });
            let req = DispatchReq::new(next as u64, next as u64, dst, srcs, inst.op.fu_class());
            let t = Stopwatch::start();
            let accepted = queue.dispatch(req);
            dispatch_h.record(t.ns().saturating_sub(overhead));
            accepted.map_err(|e| format!("dispatch of seq {next} after has_space: {e}"))?;
            next += 1;
        }
        cycle += 1;
    }
    let selects = select_h.count();
    *p.hist(&format!("core.select_ns.{label}")) = select_h;
    p.hist("core.wakeup_ns").merge(&wakeup_h);
    p.hist("core.dispatch_ns").merge(&dispatch_h);
    Ok((selects, grants))
}

/// Steps each [`STEPPED`] unit cycle by cycle with skipping off, timing
/// every horizon query and step, then runs it again untraced as the
/// reference.
fn stepped_pass(
    p: &mut Profile,
    ilp: &Program,
    mlp: &Program,
    budget: Budget,
    overhead: u64,
    spans: &mut Spans,
    parent: SpanId,
) {
    let (mut stepped_ns, mut reference_ns) = (0u64, 0u64);
    let (mut busy, mut idle, mut horizon) = (
        Histogram::default(),
        Histogram::default(),
        Histogram::default(),
    );
    let mut iq_est_ns = 0.0;
    for (kernel, kind, model) in STEPPED {
        let label = format!("{kernel}/{}/{}", kind.label(), model.label());
        let program = if kernel == "omnetpp_like" { mlp } else { ilp };
        let mut core = Core::new(model.config(), kind, program);
        core.set_skip(false);
        let id = spans.open(&format!("stepped {label}"), Some(parent));
        while core.active(budget.total()) {
            let t = Stopwatch::start();
            let h = core.quiescent_horizon();
            horizon.record(t.ns().saturating_sub(overhead));
            let t = Stopwatch::start();
            core.step_cycle();
            let ns = t.ns().saturating_sub(overhead);
            if h.is_some() {
                idle.record(ns)
            } else {
                busy.record(ns)
            }
        }
        stepped_ns += spans.close(id);
        let stepped: SimResult = core.result();

        let mut reference = Core::new(model.config(), kind, program);
        reference.set_skip(false);
        let (expected, ns) = spans.time(&format!("reference {label}"), parent, || {
            reference.run(budget.total())
        });
        reference_ns += ns;
        if format!("{stepped:?}") != format!("{expected:?}") {
            p.failures.push((
                format!("stepped/{label}"),
                "stepping diverged from Core::run".to_string(),
            ));
        }

        let select_label = if model == ProcessorModel::Large {
            "AGE-large".to_string()
        } else {
            kind.label().to_string()
        };
        iq_est_ns += stepped.iq.selects as f64 * p.mean(&format!("core.select_ns.{select_label}"))
            + stepped.iq.wakeups as f64 * p.mean("core.wakeup_ns")
            + stepped.iq.dispatched as f64 * p.mean("core.dispatch_ns");
    }
    let cycles = busy.count() + idle.count();
    let host = busy.sum() + idle.sum();
    p.set("cpu.busy_cycle_ns", busy.mean());
    p.set("cpu.busy_cycle_ns_p99", busy.quantile(0.99));
    p.set("cpu.idle_cycle_ns", idle.mean());
    p.set("cpu.horizon_ns", horizon.mean());
    p.set(
        "cpu.busy_cycle_frac",
        busy.count() as f64 / cycles.max(1) as f64,
    );
    p.set("cpu.busy_host_frac", busy.sum() as f64 / host.max(1) as f64);
    p.set("core.host_frac_est", iq_est_ns / busy.sum().max(1) as f64);
    p.set(
        "spans.overhead_frac",
        stepped_ns as f64 / reference_ns.max(1) as f64 - 1.0,
    );
    *p.hist("cpu.busy_cycle_ns") = busy;
    *p.hist("cpu.idle_cycle_ns") = idle;
    *p.hist("cpu.horizon_ns") = horizon;
}

/// The trace ring's cost: the measured window of the MLP unit with and
/// without a ring attached, alternating, fastest of two each.
fn trace_probe(p: &mut Profile, mlp: &Program, budget: Budget, spans: &mut Spans, parent: SpanId) {
    let mut best = [u64::MAX; 2];
    for traced in [false, true, false, true] {
        let mut core = Core::new(CoreConfig::medium(), IqKind::Swque, mlp);
        core.run(budget.warmup);
        if traced {
            core.attach_trace(&TraceHandle::ring(TRACE_CAPACITY));
        }
        let name = if traced { "traced" } else { "untraced" };
        let (_, ns) = spans.time(name, parent, || core.run(budget.total()));
        best[usize::from(traced)] = best[usize::from(traced)].min(ns);
    }
    p.set(
        "trace.overhead_frac",
        best[1] as f64 / best[0].max(1) as f64 - 1.0,
    );
}
