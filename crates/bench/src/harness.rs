//! Shared experiment machinery: kernel runs, suite sweeps, aggregation.

use std::str::FromStr;
use std::sync::Mutex;

use swque_core::IqKind;
use swque_cpu::{Core, CoreConfig, SimResult};
use swque_trace::{TraceHandle, TraceSummary};
use swque_workloads::{suite, Kernel};

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

/// One simulation request.
///
/// Construct via [`RunSpec::medium`]/[`RunSpec::large`] and override the
/// handful of fields an experiment varies; [`RunSpec::config`] resolves
/// the spec to a concrete [`CoreConfig`] with any controller-threshold
/// overrides applied:
///
/// ```
/// use swque_bench::RunSpec;
/// use swque_core::IqKind;
///
/// let spec = RunSpec {
///     warmup_insts: 1_000,
///     max_insts: 5_000,
///     scale: Some(500),          // shrink the kernel for a quick run
///     mpki_threshold: Some(12.0), // controller sensitivity axis
///     ..RunSpec::medium(IqKind::Swque)
/// };
/// assert_eq!(spec.config().iq.swque.mpki_threshold, 12.0);
/// // Untouched fields keep the paper's Table 2/3 values.
/// assert_eq!(spec.config().width, 6);
/// ```
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Processor model.
    pub model: ProcessorModel,
    /// Issue-queue organization.
    pub iq: IqKind,
    /// Warmup instructions excluded from measurement (the paper skips the
    /// first 16B instructions of each program before its 100M sample).
    pub warmup_insts: u64,
    /// Measured dynamic instructions after warmup.
    pub max_insts: u64,
    /// Kernel scale override (`None` = the kernel's default).
    pub scale: Option<u64>,
    /// Workload layout-seed perturbation, mixed into the kernel generator's
    /// base seed (`0` = the kernel's canonical program, byte-identical to
    /// pre-seed-axis builds). Sweep campaigns use this as their seed axis.
    pub seed: u64,
    /// SWQUE controller MPKI-threshold override (`None` = the paper's
    /// Table 3 value from the model config).
    pub mpki_threshold: Option<f64>,
    /// SWQUE controller base FLPI-threshold override (`None` = the paper's
    /// Table 3 value from the model config).
    pub flpi_threshold: Option<f64>,
}

impl RunSpec {
    /// A medium-model run of `iq` with the default experiment budget.
    pub fn medium(iq: IqKind) -> RunSpec {
        RunSpec {
            model: ProcessorModel::Medium,
            iq,
            warmup_insts: default_warmup(),
            max_insts: default_insts(),
            scale: None,
            seed: 0,
            mpki_threshold: None,
            flpi_threshold: None,
        }
    }

    /// A large-model run of `iq` with the default experiment budget.
    pub fn large(iq: IqKind) -> RunSpec {
        RunSpec { model: ProcessorModel::Large, ..RunSpec::medium(iq) }
    }

    /// The core configuration this spec resolves to: the model's config
    /// with any controller-threshold overrides applied.
    pub fn config(&self) -> CoreConfig {
        let mut config = self.model.config();
        if let Some(mpki) = self.mpki_threshold {
            config.iq.swque.mpki_threshold = mpki;
        }
        if let Some(flpi) = self.flpi_threshold {
            config.iq.swque.flpi_threshold = flpi;
        }
        config
    }
}

/// Default per-run measured-instruction budget. The paper simulates 100M
/// instructions per program; the default here keeps a full-suite experiment
/// in minutes and can be raised with the `SWQUE_INSTS` environment
/// variable (see [`knob`]).
pub fn default_insts() -> u64 {
    knob("SWQUE_INSTS", 400_000)
}

/// Default warmup budget (cold caches and predictors are excluded from
/// measurement); override with `SWQUE_WARMUP` (see [`knob`]).
pub fn default_warmup() -> u64 {
    knob("SWQUE_WARMUP", 300_000)
}

/// Reads the integer environment knob `name`: `default` when unset, its
/// value when it parses. Any other value exits the process with status 2
/// and a message naming the variable and the value, so a typo such as
/// `SWQUE_INSTS=20k` cannot silently run the default budget. The policy
/// lives in the pure [`parse_knob`].
pub fn knob<T: FromStr>(name: &str, default: T) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Pure parse behind [`knob`]: `Ok(default)` when the variable is unset
/// (`raw` is `None`), the parsed value when `raw` parses, and otherwise an
/// error naming `name` and `raw`.
pub fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}={v:?} is not a non-negative integer")),
    }
}

/// Runs `kernel` under `spec` and returns the measured-window result
/// (warmup excluded).
pub fn run_kernel(kernel: &Kernel, spec: &RunSpec) -> SimResult {
    let program = kernel.build_seeded(spec.scale, spec.seed);
    let mut core = Core::new(spec.config(), spec.iq, &program);
    let warm = core.run(spec.warmup_insts);
    if core.finished() {
        // Short program: no meaningful warmup split.
        return warm;
    }
    core.run(spec.warmup_insts + spec.max_insts).delta(&warm)
}

/// Like [`run_kernel`] but with a [`TraceHandle`] attached for the measured
/// window: warmup runs untraced (cold-cache transients would pollute the
/// series exactly the way they would pollute IPC), then a fresh
/// [`TRACE_CAPACITY`]-event ring observes the measurement and is reduced to
/// a [`TraceSummary`].
///
/// ```
/// use swque_bench::{run_kernel_traced, RunSpec};
/// use swque_core::IqKind;
/// use swque_workloads::suite;
///
/// let kernel = suite::by_name("deepsjeng_like").unwrap();
/// let spec = RunSpec {
///     warmup_insts: 2_000,
///     max_insts: 10_000,
///     scale: Some(1_000),
///     ..RunSpec::medium(IqKind::Swque)
/// };
/// let (result, trace) = run_kernel_traced(&kernel, &spec);
/// assert!(result.retired >= 9_000, "measured window excludes warmup");
/// // The summary digests the ring: IPC interval samples land every 10k
/// // retired instructions, so a short window may hold at most one.
/// assert_eq!(trace.dropped, 0);
/// ```
pub fn run_kernel_traced(kernel: &Kernel, spec: &RunSpec) -> (SimResult, TraceSummary) {
    let program = kernel.build_seeded(spec.scale, spec.seed);
    let mut core = Core::new(spec.config(), spec.iq, &program);
    let warm = core.run(spec.warmup_insts);
    if core.finished() {
        return (warm, TraceSummary::default());
    }
    let trace = TraceHandle::ring(TRACE_CAPACITY);
    core.attach_trace(&trace);
    let result = core.run(spec.warmup_insts + spec.max_insts).delta(&warm);
    let summary = TraceSummary::from_events(&trace.events(), trace.dropped());
    (result, summary)
}

/// One suite kernel's results across a set of run specs.
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// The kernel that produced this row.
    pub kernel: Kernel,
    /// One result per requested spec, in request order.
    pub results: Vec<SimResult>,
    /// One trace digest per spec when produced by [`run_suite_traced`];
    /// empty for untraced sweeps ([`run_suite`]).
    pub traces: Vec<TraceSummary>,
}

/// Runs every suite kernel under each spec (kernels in parallel across
/// threads), returning rows in suite order. Worker count follows
/// [`default_workers`], so `SWQUE_THREADS=1` forces a serial sweep.
pub fn run_suite(specs: &[RunSpec]) -> Vec<SuiteRow> {
    let kernels = suite::all();
    let workers = default_workers(kernels.len());
    sweep(&kernels, specs, false, workers)
}

/// [`run_suite`] with a trace ring attached to every run (see
/// [`run_kernel_traced`]): each returned row carries one [`TraceSummary`]
/// per spec. Trace handles live entirely inside the worker thread that
/// owns the run — only the plain-data summaries cross threads.
pub fn run_suite_traced(specs: &[RunSpec]) -> Vec<SuiteRow> {
    let kernels = suite::all();
    let workers = default_workers(kernels.len());
    sweep(&kernels, specs, true, workers)
}

/// [`run_suite`] over an explicit kernel list with an explicit worker
/// count. Row order always matches `kernels` regardless of worker count
/// or scheduling, and every run is single-threaded and deterministic, so
/// the result is identical for any `workers` value — a property pinned by
/// the `determinism` integration test. Empty kernel lists yield an empty
/// result; `workers` is clamped to `1..=kernels.len()`.
///
/// ```
/// use swque_bench::{run_suite_on, RunSpec};
/// use swque_core::IqKind;
/// use swque_workloads::suite;
///
/// let kernels = [
///     suite::by_name("deepsjeng_like").unwrap(),
///     suite::by_name("xz_like").unwrap(),
/// ];
/// let spec = RunSpec {
///     warmup_insts: 1_000,
///     max_insts: 5_000,
///     scale: Some(500),
///     ..RunSpec::medium(IqKind::Circ)
/// };
/// let rows = run_suite_on(&kernels, &[spec], 2);
/// // Row order follows the kernel list, not thread completion order.
/// assert_eq!(rows[0].kernel.name, "deepsjeng_like");
/// assert_eq!(rows[1].kernel.name, "xz_like");
/// assert_eq!(rows[0].results.len(), 1);
/// ```
pub fn run_suite_on(kernels: &[Kernel], specs: &[RunSpec], workers: usize) -> Vec<SuiteRow> {
    sweep(kernels, specs, false, workers)
}

/// [`run_suite_on`] with trace rings attached (see [`run_suite_traced`]).
pub fn run_suite_traced_on(
    kernels: &[Kernel],
    specs: &[RunSpec],
    workers: usize,
) -> Vec<SuiteRow> {
    sweep(kernels, specs, true, workers)
}

/// Worker-thread count for a sweep over `kernels` kernels: the
/// `SWQUE_THREADS` environment variable when set to a positive integer
/// (invalid or zero values are ignored), otherwise the host's available
/// parallelism; always clamped to the number of kernels.
///
/// This is the *only* place the harness reads `SWQUE_THREADS`; all the
/// sizing logic lives in the pure [`default_workers_with`], which tests
/// exercise without mutating process environment (mutating env from one
/// `#[test]` races every other test in the same process).
pub fn default_workers(kernels: usize) -> usize {
    let requested = std::env::var("SWQUE_THREADS").ok().and_then(|v| v.parse::<usize>().ok());
    default_workers_with(requested, kernels)
}

/// Pure worker-count policy behind [`default_workers`]: `requested` wins
/// when it is a positive integer (`None` or `Some(0)` fall back to the
/// host's available parallelism), and the result is always clamped to the
/// number of kernels (at least 1).
pub fn default_workers_with(requested: Option<usize>, kernels: usize) -> usize {
    let n = requested
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4));
    n.min(kernels.max(1))
}

fn sweep(kernels: &[Kernel], specs: &[RunSpec], traced: bool, workers: usize) -> Vec<SuiteRow> {
    let rows: Mutex<Vec<Option<SuiteRow>>> = Mutex::new(vec![None; kernels.len()]);
    let next: Mutex<usize> = Mutex::new(0);
    let workers = workers.clamp(1, kernels.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = {
                    let mut n = next.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    let i = *n;
                    *n += 1;
                    i
                };
                if i >= kernels.len() {
                    break;
                }
                let kernel = &kernels[i];
                let mut results = Vec::with_capacity(specs.len());
                let mut traces = Vec::new();
                for s in specs {
                    if traced {
                        let (r, t) = run_kernel_traced(kernel, s);
                        results.push(r);
                        traces.push(t);
                    } else {
                        results.push(run_kernel(kernel, s));
                    }
                }
                rows.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[i] =
                    Some(SuiteRow { kernel: kernel.clone(), results, traces });
            });
        }
    });
    rows.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        // swque-lint: allow(panic-in-lib) — the worker loop claims every index in 0..kernels.len() exactly once before exiting
        .map(|r| r.expect("every kernel filled"))
        .collect()
}

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing"); // swque-lint: allow(panic-in-lib) — documented `# Panics` precondition
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            // swque-lint: allow(panic-in-lib) — documented `# Panics` precondition
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
        assert_eq!(parse_knob::<u64>("SWQUE_INSTS", None, 400_000), Ok(400_000));
        assert_eq!(parse_knob::<u64>("SWQUE_INSTS", Some("20000"), 400_000), Ok(20_000));
        assert_eq!(parse_knob::<usize>("SWQUE_NEIGHBOR_MAX", Some("0"), 3), Ok(0));
        for bad in ["20k", "", "-1", " 5", "1e6"] {
            let err = parse_knob::<u64>("SWQUE_WARMUP", Some(bad), 300_000).unwrap_err();
            assert!(err.contains("SWQUE_WARMUP"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn run_kernel_smoke() {
        let k = suite::by_name("deepsjeng_like").unwrap();
        let spec = RunSpec {
            warmup_insts: 5_000,
            max_insts: 20_000,
            scale: Some(2_000),
            ..RunSpec::medium(IqKind::Age)
        };
        let r = run_kernel(&k, &spec);
        // Commit-width granularity means the warmup snapshot may overshoot
        // by a few instructions.
        assert!(r.retired >= 19_000, "measured window present: {}", r.retired);
        assert!(r.ipc() > 0.05);
    }
}
