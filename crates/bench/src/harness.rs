//! Shared experiment machinery: budgets, run specs, kernel runs, the
//! kernel-parallel worker pool, aggregation.

use std::fmt::Display;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use swque_core::IqKind;
use swque_cpu::{Core, CoreConfig, SimResult};
use swque_isa::Program;
use swque_trace::{TraceHandle, TraceSummary};
use swque_workloads::Kernel;

/// Ring-buffer capacity (events) for traced runs. Sized so the default
/// instruction budgets keep a complete event stream: one interval plus one
/// IPC sample per 10k retired instructions, plus switches, stall episodes,
/// and memory epochs, leaves orders of magnitude of headroom up to
/// multi-million-instruction runs. Overflow degrades gracefully — the ring
/// keeps the newest events and reports the loss in `TraceSummary::dropped`.
pub const TRACE_CAPACITY: usize = 16_384;

/// Which of the paper's processor models to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessorModel {
    /// Table 2 base model.
    Medium,
    /// Table 4 large model.
    Large,
}

impl ProcessorModel {
    /// The corresponding core configuration.
    pub fn config(self) -> CoreConfig {
        match self {
            ProcessorModel::Medium => CoreConfig::medium(),
            ProcessorModel::Large => CoreConfig::large(),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ProcessorModel::Medium => "medium",
            ProcessorModel::Large => "large",
        }
    }

    /// Parses a label as printed by [`ProcessorModel::label`].
    pub fn from_label(label: &str) -> Option<ProcessorModel> {
        match label {
            "medium" => Some(ProcessorModel::Medium),
            "large" => Some(ProcessorModel::Large),
            _ => None,
        }
    }
}

/// Instruction budget of a run: what an experiment binary reads from the
/// environment once ([`Budget::from_env`]) and a sweep manifest states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Warmup instructions excluded from measurement (the paper skips the
    /// first 16B instructions of each program before its 100M sample).
    pub warmup_insts: u64,
    /// Measured dynamic instructions after warmup.
    pub max_insts: u64,
    /// Kernel scale override (`None` = each kernel's default).
    pub scale: Option<u64>,
}

impl Budget {
    /// The experiment budget: `SWQUE_WARMUP` warmup instructions (default
    /// 300 000; the paper skips 16 B) and `SWQUE_INSTS` measured ones
    /// (default 400 000; the paper samples 100 M; at least 1, since an
    /// empty window has no IPC), each read through [`knob`], at every
    /// kernel's default scale.
    pub fn from_env() -> Budget {
        Budget {
            warmup_insts: knob("SWQUE_WARMUP", 300_000, 0),
            max_insts: knob("SWQUE_INSTS", 400_000, 1),
            scale: None,
        }
    }
}

/// One simulation request: a resolved machine configuration, an issue
/// queue, a budget, and a workload layout seed. Two equal specs on the
/// same kernel are the same simulation.
///
/// Construct via [`RunSpec::medium`]/[`RunSpec::large`] and edit the
/// configuration an experiment varies:
///
/// ```
/// use swque_bench::{Budget, RunSpec};
/// use swque_core::IqKind;
///
/// // A quick run on a shrunken kernel.
/// let budget = Budget { warmup_insts: 1_000, max_insts: 5_000, scale: Some(500) };
/// let mut spec = RunSpec::medium(IqKind::Swque, budget);
/// spec.config.iq.swque.mpki_threshold = 12.0; // controller sensitivity axis
/// // Untouched fields keep the paper's Table 2/3 values.
/// assert_eq!(spec.config.width, 6);
/// assert_ne!(spec, RunSpec::medium(IqKind::Swque, budget));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The machine configuration, overrides included.
    pub config: CoreConfig,
    /// Issue-queue organization.
    pub iq: IqKind,
    /// Warmup and measured instruction counts, and the kernel scale.
    pub budget: Budget,
    /// Workload layout-seed perturbation, mixed into the kernel generator's
    /// base seed (`0` = the kernel's canonical program, byte-identical to
    /// pre-seed-axis builds). Sweep campaigns use this as their seed axis.
    pub seed: u64,
}

impl RunSpec {
    /// A medium-model (Table 2) run of `iq` under `budget`.
    pub fn medium(iq: IqKind, budget: Budget) -> RunSpec {
        RunSpec { config: CoreConfig::medium(), iq, budget, seed: 0 }
    }

    /// A large-model (Table 4) run of `iq` under `budget`.
    pub fn large(iq: IqKind, budget: Budget) -> RunSpec {
        RunSpec { config: CoreConfig::large(), ..RunSpec::medium(iq, budget) }
    }
}

/// Reads the integer environment knob `name`, whose domain is the
/// integers from `min` up: `default` when unset, its value when it parses
/// into the domain. Any other value exits the process with status 2 and a
/// message naming the variable and the value, so a typo such as
/// `SWQUE_INSTS=20k` cannot silently run the default budget, nor
/// `SWQUE_INSTS=0` an empty one. The policy lives in the pure
/// [`parse_knob`].
pub fn knob<T: FromStr + PartialOrd + Display>(name: &str, default: T, min: T) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default, min).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Pure parse behind [`knob`]: `Ok(default)` when the variable is unset
/// (`raw` is `None`), the parsed value when `raw` parses to at least
/// `min`, and otherwise an error naming `name` and `raw`.
pub fn parse_knob<T: FromStr + PartialOrd + Display>(
    name: &str,
    raw: Option<&str>,
    default: T,
    min: T,
) -> Result<T, String> {
    let Some(v) = raw else { return Ok(default) };
    match v.parse() {
        Ok(value) if value >= min => Ok(value),
        _ => Err(format!("{name}={v:?} is not an integer >= {min}")),
    }
}

/// A unit request: one spec, and whether a trace of its measured window
/// is wanted. A trace only observes the run, so a traced unit's result
/// also serves every request for the same spec untraced.
#[derive(Debug, Clone)]
pub struct Unit {
    /// The simulation.
    pub spec: RunSpec,
    /// Attach a trace ring to the measured window.
    pub traced: bool,
}

/// What one simulated unit produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The measured-window result (warmup excluded).
    pub result: SimResult,
    /// The measured window's trace digest, when the unit was traced.
    pub trace: Option<TraceSummary>,
    /// Where the run stopped, if it stopped before retiring its whole
    /// budget (the program halted, or an invariant violation froze the
    /// pipeline).
    pub short: Option<Short>,
}

/// Where a unit that retired less than its budget stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Short {
    /// The program halted during warmup: no measured window ran, and the
    /// outcome's result is the warmup's.
    InWarmup,
    /// The measured window ended early.
    InMeasurement,
}

/// Simulates `program` under `spec`. Warmup runs untraced (cold-cache
/// transients would pollute the series exactly the way they would pollute
/// IPC); a traced unit then gets a fresh [`TRACE_CAPACITY`]-event ring for
/// the measured window, reduced to a [`TraceSummary`].
fn measure(program: &Program, spec: &RunSpec, traced: bool) -> Outcome {
    let budget = spec.budget;
    let mut core = Core::new(spec.config.clone(), spec.iq, program);
    let warm = core.run(budget.warmup_insts);
    if core.finished() {
        // Short program: no meaningful warmup split.
        let trace = traced.then(TraceSummary::default);
        return Outcome { result: warm, trace, short: Some(Short::InWarmup) };
    }
    let ring = traced.then(|| TraceHandle::ring(TRACE_CAPACITY));
    if let Some(ring) = &ring {
        core.attach_trace(ring);
    }
    let full = core.run(budget.warmup_insts + budget.max_insts);
    Outcome {
        short: (full.retired < budget.warmup_insts + budget.max_insts)
            .then_some(Short::InMeasurement),
        result: full.delta(&warm),
        trace: ring.map(|r| TraceSummary::from_events(&r.events(), r.dropped())),
    }
}

/// Runs `kernel` under `spec` and returns the measured-window result
/// (warmup excluded).
pub fn run_kernel(kernel: &Kernel, spec: &RunSpec) -> SimResult {
    measure(&kernel.build_seeded(spec.budget.scale, spec.seed), spec, false).result
}

/// Like [`run_kernel`] but with a [`TraceHandle`] attached for the measured
/// window: warmup runs untraced, then a fresh [`TRACE_CAPACITY`]-event ring
/// observes the measurement and is reduced to a [`TraceSummary`]. The
/// result is byte-identical to [`run_kernel`]'s.
///
/// ```
/// use swque_bench::{run_kernel_traced, Budget, RunSpec};
/// use swque_core::IqKind;
/// use swque_workloads::suite;
///
/// let kernel = suite::by_name("deepsjeng_like").unwrap();
/// let budget = Budget { warmup_insts: 2_000, max_insts: 10_000, scale: Some(1_000) };
/// let (result, trace) = run_kernel_traced(&kernel, &RunSpec::medium(IqKind::Swque, budget));
/// assert!(result.retired >= 9_000, "measured window excludes warmup");
/// // The summary digests the ring: IPC interval samples land every 10k
/// // retired instructions, so a short window may hold at most one.
/// assert_eq!(trace.dropped, 0);
/// ```
pub fn run_kernel_traced(kernel: &Kernel, spec: &RunSpec) -> (SimResult, TraceSummary) {
    let out = measure(&kernel.build_seeded(spec.budget.scale, spec.seed), spec, true);
    (out.result, out.trace.unwrap_or_default())
}

/// Runs every job — a kernel and its units — on `workers` threads, one
/// kernel at a time per worker, and returns one outcome per unit, aligned
/// with `jobs`. A worker builds a kernel's program once for each run of
/// consecutive units with the same scale and seed, and runs those units on
/// it. Every run is single-threaded and deterministic and outcomes are
/// written back by index, so the result is identical for any `workers`
/// value — a property pinned by the `determinism` integration test.
/// `workers` is clamped to `1..=jobs.len()`.
///
/// ```
/// use swque_bench::{run_units, Budget, RunSpec, Unit};
/// use swque_core::IqKind;
/// use swque_workloads::suite;
///
/// let budget = Budget { warmup_insts: 1_000, max_insts: 5_000, scale: Some(500) };
/// let unit = Unit { spec: RunSpec::medium(IqKind::Circ, budget), traced: false };
/// let jobs = [
///     (suite::by_name("deepsjeng_like").unwrap(), vec![unit.clone()]),
///     (suite::by_name("xz_like").unwrap(), vec![unit]),
/// ];
/// let outcomes = run_units(&jobs, 2);
/// // Outcomes follow the job list, not thread completion order.
/// assert_eq!(outcomes.len(), 2);
/// assert!(outcomes[1][0].trace.is_none());
/// ```
pub fn run_units(jobs: &[(Kernel, Vec<Unit>)], workers: usize) -> Vec<Vec<Outcome>> {
    let outcomes: Mutex<Vec<Vec<Outcome>>> = Mutex::new(vec![Vec::new(); jobs.len()]);
    let next = AtomicUsize::new(0);
    let workers = workers.clamp(1, jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((kernel, units)) = jobs.get(i) else { break };
                let mut done = Vec::with_capacity(units.len());
                for group in units.chunk_by(|a, b| layout(&a.spec) == layout(&b.spec)) {
                    let (scale, seed) = layout(&group[0].spec);
                    let program = kernel.build_seeded(scale, seed);
                    done.extend(group.iter().map(|u| measure(&program, &u.spec, u.traced)));
                }
                outcomes.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[i] = done;
            });
        }
    });
    outcomes.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The program a spec runs: its kernel scale and layout seed.
fn layout(spec: &RunSpec) -> (Option<u64>, u64) {
    (spec.budget.scale, spec.seed)
}

/// Worker-thread count for a run over `kernels` kernels: the
/// `SWQUE_THREADS` environment variable when set (read through [`knob`],
/// so an unparsable value exits with status 2), otherwise the host's
/// available parallelism; always clamped to the number of kernels.
///
/// This is the *only* place the harness reads `SWQUE_THREADS`; all the
/// sizing logic lives in the pure [`default_workers_with`], which tests
/// exercise without mutating process environment (mutating env from one
/// `#[test]` races every other test in the same process).
pub fn default_workers(kernels: usize) -> usize {
    default_workers_with(knob("SWQUE_THREADS", 0, 0), kernels)
}

/// Pure worker-count policy behind [`default_workers`]: `requested` wins
/// when it is positive (`0` falls back to the host's available
/// parallelism), and the result is always clamped to the number of
/// kernels (at least 1).
pub fn default_workers_with(requested: usize, kernels: usize) -> usize {
    let n = if requested >= 1 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    };
    n.min(kernels.max(1))
}

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn knobs_parse_or_name_the_bad_value() {
        assert_eq!(parse_knob::<u64>("SWQUE_INSTS", None, 400_000, 1), Ok(400_000));
        assert_eq!(parse_knob::<u64>("SWQUE_INSTS", Some("20000"), 400_000, 1), Ok(20_000));
        assert_eq!(parse_knob::<usize>("SWQUE_NEIGHBOR_MAX", Some("0"), 3, 0), Ok(0));
        assert_eq!(parse_knob::<u64>("SWQUE_WARMUP", Some("0"), 300_000, 0), Ok(0));
        for bad in ["20k", "", "-1", " 5", "1e6"] {
            let err = parse_knob::<u64>("SWQUE_WARMUP", Some(bad), 300_000, 0).unwrap_err();
            assert!(err.contains("SWQUE_WARMUP"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
        // `SWQUE_THREADS` is a knob like the budgets: 0 is a value (the
        // host default), and a typo is an error, not host parallelism.
        assert_eq!(parse_knob::<usize>("SWQUE_THREADS", None, 0, 0), Ok(0));
        assert_eq!(parse_knob::<usize>("SWQUE_THREADS", Some("0"), 0, 0), Ok(0));
        assert_eq!(parse_knob::<usize>("SWQUE_THREADS", Some("4"), 0, 0), Ok(4));
        for bad in ["4x", "four", "-2", ""] {
            let err = parse_knob::<usize>("SWQUE_THREADS", Some(bad), 0, 0).unwrap_err();
            assert!(err.contains("SWQUE_THREADS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    /// A value that parses but falls below the knob's domain is refused
    /// like a parse failure: `SWQUE_INSTS=0` would measure an empty window
    /// and hand the figures' geomeans a NaN.
    #[test]
    fn knobs_refuse_values_below_their_domain() {
        assert_eq!(parse_knob::<u64>("SWQUE_INSTS", Some("1"), 400_000, 1), Ok(1));
        let err = parse_knob::<u64>("SWQUE_INSTS", Some("0"), 400_000, 1).unwrap_err();
        assert!(
            err.contains("SWQUE_INSTS") && err.contains("\"0\"") && err.contains(">= 1"),
            "{err}"
        );
    }

    #[test]
    fn run_kernel_smoke() {
        let k = swque_workloads::suite::by_name("deepsjeng_like").unwrap();
        let budget = Budget { warmup_insts: 5_000, max_insts: 20_000, scale: Some(2_000) };
        let spec = RunSpec::medium(IqKind::Age, budget);
        let r = run_kernel(&k, &spec);
        // Commit-width granularity means the warmup snapshot may overshoot
        // by a few instructions.
        assert!(r.retired >= 19_000, "measured window present: {}", r.retired);
        assert!(r.ipc() > 0.05);
    }
}
