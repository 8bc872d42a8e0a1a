//! The experiment registry: every figure and table of the paper's
//! Section 4, and the extensions, as one [`Experiment`] entry — the units
//! it reads (kernel × [`RunSpec`], traced or not) and a render function
//! that writes its text tables and fills its [`Report`]. [`run`] serves any
//! set of entries from one shared run in which each distinct unit is
//! simulated once. Each figure binary (`fig09`, `tab06`, …) is a shim over
//! [`shim`] that runs its one entry; `all_experiments` runs the
//! [`EVALUATION`] entries in one process. The [`EXTENSIONS`] go beyond the
//! paper.

use swque_circuit::area::{areas, cost_summary, density};
use swque_circuit::delay::delays;
use swque_circuit::energy::{iq_energy, EnergyBreakdown};
use swque_circuit::{IqGeometry, WakeupStyle};
use swque_core::cycle::{CycleDelta, InstCount};
use swque_core::IqKind::{self, *};
use swque_core::SwqueParams;
use swque_cpu::{CoreConfig, SimResult};
use swque_isa::{Emulator, FuClass};
use swque_trace::{Json, TraceSummary};
use swque_workloads::{suite, Category, Kernel};

use crate::harness::{
    default_workers, geomean, run_units, Budget, Outcome, ProcessorModel, RunSpec, Short, Unit,
};
use crate::output::{json_path, Report};
use crate::table::Table;

/// `println!` into an [`Output`]'s text.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {{
        $out.text.push_str(&format!($($arg)*));
        $out.text.push('\n');
    }};
}

/// One experiment: the units it simulates and how it renders them.
pub struct Experiment {
    /// The entry's name: its shim binary, its report's `experiment`, and
    /// its `BENCH_<name>.json` under `all_experiments`.
    pub name: &'static str,
    /// `Some(kernel)` when the entry simulates that one kernel instead of
    /// the run's kernel list.
    only: Option<&'static str>,
    /// The units the entry reads on each of its kernels.
    units: UnitsFn,
    /// Writes the entry's text and report from one row per kernel.
    render: RenderFn,
}

type UnitsFn = fn(&Budget) -> Vec<Unit>;
type RenderFn = fn(&[Row<'_>], &mut Output);

/// One kernel's outcomes, aligned with the entry's units.
pub struct Row<'a> {
    /// The kernel.
    pub kernel: &'a Kernel,
    outcomes: Vec<&'a Outcome>,
}

impl<'a> Row<'a> {
    /// The result of the entry's `i`-th unit.
    pub fn result(&self, i: usize) -> &'a SimResult {
        &self.outcomes[i].result
    }

    /// The trace of the entry's `i`-th unit, which the entry declared
    /// traced.
    ///
    /// # Panics
    ///
    /// Panics if the entry did not declare unit `i` traced.
    pub fn trace(&self, i: usize) -> &'a TraceSummary {
        #[expect(clippy::expect_used, reason = "run() traces every unit an entry declares traced")]
        self.outcomes[i].trace.as_ref().expect("the entry declared this unit traced")
    }
}

/// What an entry renders: the text a shim prints and the report it writes.
pub struct Output {
    /// The plain-text tables, exactly as printed.
    pub text: String,
    /// The structured report (schema `swque-bench-v1`).
    pub report: Report,
}

impl Output {
    fn new(name: &str, budget: &Budget) -> Output {
        Output { text: String::new(), report: Report::new(name, budget) }
    }

    /// Prints the text and writes the report to `SWQUE_JSON`, if set.
    pub fn emit(&self) {
        print!("{}", self.text);
        if let Some(path) = json_path() {
            self.report.write(&path);
        }
    }
}

/// The paper's evaluation, in the order `all_experiments` runs it.
pub static EVALUATION: [Experiment; 12] = [
    Experiment::new("tables", |_| Vec::new(), |_, out| render_tables(None, out)),
    Experiment::new("fig08", |b| medium(&FIG08, b), fig08),
    // The medium SWQUE run carries the interval series Fig. 9 is about.
    Experiment::new(
        "fig09",
        |b| vec![m(Age, b), traced(m(Swque, b)), l(Age, b), l(Swque, b)],
        fig09,
    ),
    Experiment::new("fig10", |b| vec![traced(m(Swque, b))], fig10),
    Experiment::new("fig10_timeline", |b| vec![traced(m(Swque, b))], fig10_timeline),
    Experiment::new("fig11", |b| medium(&FIG11, b), fig11),
    Experiment::new("fig12", |b| medium(&[Shift, Swque], b), fig12),
    Experiment::new("fig13", |_| Vec::new(), fig13),
    Experiment::new(
        "fig14",
        |b| [medium(&FIG14, b), FIG14.map(|k| l(k, b)).to_vec()].concat(),
        fig14,
    ),
    // AGE given SWQUE's extra area as 17% more entries (150) instead.
    Experiment::new(
        "tab06",
        |b| vec![m(Age, b), m(Swque, b), with(m(Age, b), |c| c.iq.capacity = 150)],
        tab06,
    ),
    Experiment::new("sec47", |_| Vec::new(), sec47),
    Experiment::new(
        "sec48",
        |b| {
            vec![
                m(Swque, b),
                with(m(Swque, b), |c| c.iq.swque.switch_penalty = CycleDelta::new(40)),
            ]
        },
        sec48,
    ),
];

/// The entries beyond the paper's evaluation.
pub static EXTENSIONS: [Experiment; 6] = [
    Experiment::new("ablations", |b| ABLATIONS.map(|a| with(m(Swque, b), a.1)).to_vec(), ablations),
    Experiment::new("characterize", |b| vec![m(Age, b)], characterize),
    Experiment {
        only: Some("deepsjeng_like"),
        ..Experiment::new("ext_ram_wakeup", |b| vec![m(Swque, b)], ext_ram_wakeup)
    },
    Experiment::new("ext_rearrange", |b| medium(&EXT_REARRANGE, b), ext_rearrange),
    Experiment::new("sensitivity", |_| Vec::new(), sensitivity),
    Experiment::new("tune", |b| medium(&TUNE, b), tune),
];

impl Experiment {
    const fn new(name: &'static str, units: UnitsFn, render: RenderFn) -> Experiment {
        Experiment { name, only: None, units, render }
    }
}

/// The entry called `name`.
pub fn by_name(name: &str) -> Option<&'static Experiment> {
    EVALUATION.iter().chain(&EXTENSIONS).find(|e| e.name == name)
}

/// The kernels `entry` covers in a run over `kernels`.
fn covered(entry: &Experiment, kernels: &[Kernel]) -> Vec<Kernel> {
    match entry.only {
        Some(name) => suite::by_name(name).into_iter().collect(),
        None => kernels.to_vec(),
    }
}

/// The distinct units `entries` need under `budget`, grouped by kernel in
/// first-request order: a spec requested twice on a kernel appears once,
/// traced when any request is.
fn plan(entries: &[&Experiment], kernels: &[Kernel], budget: &Budget) -> Vec<(Kernel, Vec<Unit>)> {
    let mut jobs: Vec<(Kernel, Vec<Unit>)> = Vec::new();
    for entry in entries {
        let units = (entry.units)(budget);
        for kernel in covered(entry, kernels) {
            let j = jobs.iter().position(|(k, _)| k.name == kernel.name).unwrap_or_else(|| {
                jobs.push((kernel, Vec::new()));
                jobs.len() - 1
            });
            for unit in &units {
                match jobs[j].1.iter_mut().find(|u| u.spec == unit.spec) {
                    Some(u) => u.traced |= unit.traced,
                    None => jobs[j].1.push(unit.clone()),
                }
            }
        }
    }
    jobs
}

/// Renders `entries` over `kernels` under `budget` from one shared run on
/// `workers` threads: each distinct unit is simulated once. Outputs follow
/// `entries`; they are identical for any `workers` value and to rendering
/// each entry on its own. A unit that stopped before retiring its budget
/// gets one line on stderr.
pub fn run(
    entries: &[&Experiment],
    kernels: &[Kernel],
    budget: &Budget,
    workers: usize,
) -> Vec<Output> {
    let jobs = plan(entries, kernels, budget);
    let outcomes = run_units(&jobs, workers);
    let done: Vec<(&str, &RunSpec, &Outcome)> = jobs
        .iter()
        .zip(&outcomes)
        .flat_map(|((k, units), outs)| units.iter().zip(outs).map(|(u, o)| (k.name, &u.spec, o)))
        .collect();
    for (kernel, spec, out) in &done {
        let Some(short) = out.short else { continue };
        let model = [ProcessorModel::Medium, ProcessorModel::Large]
            .into_iter()
            .find(|m| m.config() == spec.config)
            .map_or("custom", ProcessorModel::label);
        let (iq, retired, b) = (spec.iq.label(), out.result.retired, spec.budget);
        let what = match short {
            Short::InWarmup => format!("halted in warmup after {retired}/{}", b.warmup_insts),
            Short::InMeasurement => format!("retired {retired}/{} measured", b.max_insts),
        };
        eprintln!("[swque-bench] short unit: {kernel} {iq} {model}: {what} instructions");
    }
    entries
        .iter()
        .map(|entry| {
            let units = (entry.units)(budget);
            let kernels = covered(entry, kernels);
            // Every (kernel, unit) pair of the entry went into `plan`.
            let find = |kernel: &Kernel, u: &Unit| {
                done.iter().find(|(k, s, _)| *k == kernel.name && **s == u.spec).map(|d| d.2)
            };
            let rows: Vec<Row<'_>> = kernels
                .iter()
                .map(|kernel| Row {
                    kernel,
                    outcomes: units.iter().filter_map(|u| find(kernel, u)).collect(),
                })
                .collect();
            let mut out = Output::new(entry.name, budget);
            (entry.render)(&rows, &mut out);
            out
        })
        .collect()
}

/// The body of a figure binary: renders entry `name` over the suite under
/// `budget` (worker count from `SWQUE_THREADS`), prints its text, and
/// writes its report to `SWQUE_JSON`, if set.
pub fn shim(name: &str, budget: &Budget) {
    let Some(entry) = by_name(name) else {
        eprintln!("error: no experiment named {name:?}");
        std::process::exit(2)
    };
    let kernels = suite::all();
    for out in run(&[entry], &kernels, budget, default_workers(kernels.len())) {
        out.emit();
    }
}

// ---------------------------------------------------------------------------
// Units.
// ---------------------------------------------------------------------------

const FIG08: [IqKind; 5] = [Shift, Circ, Rand, Age, Swque];
const FIG11: [IqKind; 4] = [Shift, Circ, CircPpri, CircPc];
const FIG14: [IqKind; 4] = [Age, Swque, AgeMulti, SwqueMulti];
const EXT_REARRANGE: [IqKind; 4] = [Age, Rearrange, Swque, Shift];
const TUNE: [IqKind; 7] = [Shift, Circ, CircPpri, CircPc, Rand, Age, Swque];

/// An edit of a machine configuration.
type ConfigChange = fn(&mut CoreConfig);

/// SWQUE design choices the paper argues for in prose, each as a change
/// to the medium configuration (the first is the default).
const ABLATIONS: [(&str, ConfigChange); 7] = [
    ("default (Table 3, AGE-favoring, stabilized)", |_| {}),
    ("CIRC-favoring disagreement policy (§3.2.2)", |c| c.iq.swque.age_favoring = false),
    ("no instability counter (§3.2.3)", |c| c.iq.swque.stabilize = false),
    ("switch interval = 2000 insts", |c| c.iq.swque.interval_insts = InstCount::new(2_000)),
    ("switch interval = 50000 insts", |c| c.iq.swque.interval_insts = InstCount::new(50_000)),
    ("FLPI region = 0.25 of the queue", |c| c.iq.flpi_region_frac = 0.25),
    ("FLPI region = 0.125 of the queue", |c| c.iq.flpi_region_frac = 0.125),
];

/// An untraced medium-model unit.
fn m(kind: IqKind, budget: &Budget) -> Unit {
    Unit { spec: RunSpec::medium(kind, *budget), traced: false }
}

/// An untraced large-model unit.
fn l(kind: IqKind, budget: &Budget) -> Unit {
    Unit { spec: RunSpec::large(kind, *budget), traced: false }
}

fn traced(unit: Unit) -> Unit {
    Unit { traced: true, ..unit }
}

/// `unit` with `change` applied to its machine configuration.
fn with(mut unit: Unit, change: ConfigChange) -> Unit {
    change(&mut unit.spec.config);
    unit
}

fn medium(kinds: &[IqKind], budget: &Budget) -> Vec<Unit> {
    kinds.iter().map(|&k| m(k, budget)).collect()
}

// ---------------------------------------------------------------------------
// Renders. Each entry's description is its binary's module doc.
// ---------------------------------------------------------------------------

/// Geometric mean over the `cat` kernels of unit `i`'s IPC relative to
/// unit `base`'s.
fn gm_ratio(rows: &[Row<'_>], cat: Category, i: usize, base: usize) -> f64 {
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| r.kernel.category == cat)
        .map(|r| r.result(i).ipc() / r.result(base).ipc())
        .collect();
    geomean(&ratios)
}

/// `+x.y%` for a speedup ratio.
fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// Tables 2–5, or only the one `part` names (`"table2"` … `"table5"`).
fn render_tables(part: Option<&str>, out: &mut Output) {
    match part {
        Some("table2") => table2(out),
        Some("table3") => table3(out),
        Some("table4") => table4(out),
        Some("table5") => table5(out),
        _ => {
            table2(out);
            say!(out, "");
            table3(out);
            say!(out, "");
            table4(out);
            say!(out, "");
            table5(out);
        }
    }
}

/// The body of the `tables` binary: Tables 2–5, or only the one `part`
/// names (`"table2"` … `"table5"`), printed and written to `SWQUE_JSON`.
pub fn tables_shim(part: Option<&str>, budget: &Budget) {
    let mut out = Output::new("tables", budget);
    render_tables(part, &mut out);
    out.emit();
}

/// Table 2: the medium model's configuration.
///
/// # Panics
///
/// Panics if the medium model has no prefetcher.
fn table2(out: &mut Output) {
    let c = CoreConfig::medium();
    let (pred, fu, mem) = (&c.predictor, &c.fu_counts, &c.mem);
    let mut t = Table::new(["parameter", "value"]);
    t.row(["Pipeline width", &format!("{}-instruction fetch/decode/issue/commit", c.width)]);
    t.row(["Reorder buffer", &format!("{} entries", c.rob_entries)]);
    t.row(["IQ", &format!("{} entries", c.iq.capacity)]);
    t.row(["Load/store queue", &format!("{} entries", c.lsq_entries)]);
    t.row(["Physical registers", &format!("{}(int) + {}(fp)", c.phys_int, c.phys_fp)]);
    t.row([
        "Branch prediction",
        &format!(
            "{}-bit history {}K-entry PHT gshare, {}K-set {}-way BTB, {}-cycle misprediction penalty",
            pred.history_bits,
            pred.pht_entries / 1024,
            pred.btb_sets / 1024,
            pred.btb_ways,
            c.frontend_depth
        ),
    ]);
    let fus = format!("{} iALU, {} iMULT/DIV, {} Ld/St, {} FPU", fu[0], fu[1], fu[2], fu[3]);
    t.row(["Function units", &fus]);
    let l1i = &mem.l1i;
    let l1i = format!("{}KB, {}-way, {}B line", l1i.size_bytes >> 10, l1i.ways, l1i.line_bytes);
    t.row(["L1 I-cache", &l1i]);
    let l1d = &mem.l1d;
    t.row([
        "L1 D-cache",
        &format!(
            "{}KB, {}-way, {}B line, 2 ports, {}-cycle hit, non-blocking",
            l1d.size_bytes >> 10,
            l1d.ways,
            l1d.line_bytes,
            l1d.hit_latency
        ),
    ]);
    let l2 = &mem.l2;
    t.row([
        "L2 cache",
        &format!(
            "{}MB, {}-way, {}B line, {}-cycle hit",
            l2.size_bytes >> 20,
            l2.ways,
            l2.line_bytes,
            l2.hit_latency
        ),
    ]);
    let (latency, bandwidth) = (mem.dram_latency, mem.dram_bytes_per_cycle);
    let dram = format!("{latency}-cycle min latency, {bandwidth}B/cycle bandwidth");
    t.row(["Main memory", &dram]);
    #[expect(clippy::expect_used, reason = "Table 2 describes the medium model, which has one")]
    let p = mem.prefetch.expect("medium model has a prefetcher");
    t.row([
        "Data prefetch",
        &format!(
            "stream-based: {}-stream tracked, {}-line distance, {}-line degree, prefetch to L2",
            p.streams, p.distance, p.degree
        ),
    ]);
    say!(out, "Table 2: base processor configuration\n\n{t}");
    out.report.add_table("table2", &t);
}

fn table3(out: &mut Output) {
    let p = SwqueParams::default();
    let mut t = Table::new(["parameter", "value"]);
    t.row(["Switch interval", &format!("{} instructions", p.interval_insts)]);
    t.row(["Switch penalty", &format!("{} cycles", p.switch_penalty)]);
    t.row(["Switch MPKI threshold", &format!("{}", p.mpki_threshold)]);
    t.row(["FLPI threshold", &format!("{}", p.flpi_threshold)]);
    t.row(["Instability counter threshold", &format!("{}", p.instability_threshold)]);
    t.row(["Reduction of FLPI threshold at instability", &format!("{}", p.flpi_reduction)]);
    t.row([
        "Instability counter reset interval",
        &format!("{} instructions", p.reset_interval_insts),
    ]);
    say!(out, "Table 3: parameters for SWQUE\n\n{t}");
    out.report.add_table("table3", &t);
}

fn table4(out: &mut Output) {
    let (m, l) = (CoreConfig::medium(), CoreConfig::large());
    let mut t = Table::new(["parameter", "medium", "large"]);
    t.row(["Fetch/decode/issue/commit width", &m.width.to_string(), &l.width.to_string()]);
    t.row(["IQ size", &m.iq.capacity.to_string(), &l.iq.capacity.to_string()]);
    t.row(["Load/store queue size", &m.lsq_entries.to_string(), &l.lsq_entries.to_string()]);
    t.row(["Reorder buffer size", &m.rob_entries.to_string(), &l.rob_entries.to_string()]);
    let regs = |c: &CoreConfig| format!("{}+{}", c.phys_int, c.phys_fp);
    t.row(["Physical regs (int+fp)", &regs(&m), &regs(&l)]);
    t.row(["Number of iALUs", &m.fu_counts[0].to_string(), &l.fu_counts[0].to_string()]);
    t.row(["Number of FPUs", &m.fu_counts[3].to_string(), &l.fu_counts[3].to_string()]);
    say!(out, "Table 4: medium/large processor models\n\n{t}");
    out.report.add_table("table4", &t);
}

fn table5(out: &mut Output) {
    let mut t = Table::new(["design", "circuit", "tr. density (x10^-3 / lambda^2)"]);
    t.row(["this model", "tag RAM", &format!("{:.3}", density::TAG_RAM)]);
    t.row(["this model", "wakeup logic", &format!("{:.3}", density::WAKEUP)]);
    t.row(["this model", "select logic", &format!("{:.3}", density::SELECT)]);
    t.row(["this model", "age matrix", &format!("{:.3}", density::AGE_MATRIX)]);
    t.row(["Sun Micro", "512KB L2 cache", &format!("{:.3}", density::REF_L2_CACHE)]);
    t.row(["Fujitsu", "54-bit FP multiplier", &format!("{:.3}", density::REF_MULTIPLIER)]);
    t.row(["Intel", "processor (Skylake)", &format!("{:.3}", density::REF_SKYLAKE)]);
    say!(out, "Table 5: transistor density comparison\n\n{t}");
    out.report.add_table("table5", &t);
    say!(out, "(IQ circuits are sparser than the dense L2 but comparable to or denser");
    say!(out, " than logic arrays and the whole Skylake chip — the layout is reasonable)");
}

/// GM IPC degradation relative to unit 0 (SHIFT) of units 1.. (`labels`).
fn degradation(rows: &[Row<'_>], labels: &[&str]) -> Table {
    let mut table = Table::new(["IQ", "GM int degradation", "GM fp degradation"]);
    for (i, label) in labels.iter().enumerate() {
        let gm = |cat| format!("{:.1}%", (1.0 - gm_ratio(rows, cat, i + 1, 0)) * 100.0);
        table.row([label.to_string(), gm(Category::Int), gm(Category::Fp)]);
    }
    table
}

fn fig08(rows: &[Row<'_>], out: &mut Output) {
    let labels: Vec<&str> = FIG08[1..].iter().map(|k| k.label()).collect();
    let table = degradation(rows, &labels);
    say!(out, "Figure 8: performance degradation relative to SHIFT (medium model)");
    say!(out, "(longer = worse; the paper reports >10% for CIRC/RAND, ~8% AGE-INT,");
    say!(out, " and SWQUE within 0.8% (INT) / 2.4% (FP) of SHIFT)\n");
    say!(out, "{table}");
    out.report.add_table("degradation", &table);
}

fn fig09(rows: &[Row<'_>], out: &mut Output) {
    let mut table = Table::new(["program", "class", "speedup (medium)", "speedup (large)"]);
    for row in rows {
        let ipc = |i: usize| row.result(i).ipc();
        let (medium, large) = (ipc(1) / ipc(0), ipc(3) / ipc(2));
        let (name, class) = (row.kernel.name, row.kernel.class.to_string());
        table.row([name, &class, &pct(medium), &pct(large)]);
        out.report.push_row(Json::obj([
            ("program", Json::from(name)),
            ("class", Json::from(class)),
            ("ipc_age_medium", Json::from(ipc(0))),
            ("ipc_swque_medium", Json::from(ipc(1))),
            ("ipc_age_large", Json::from(ipc(2))),
            ("ipc_swque_large", Json::from(ipc(3))),
            ("speedup_medium", Json::from(medium)),
            ("speedup_large", Json::from(large)),
        ]));
        out.report.push_trace(name, row.trace(1));
    }
    for (cat, label) in [(Category::Int, "GM int"), (Category::Fp, "GM fp")] {
        table.row([label, "", &pct(gm_ratio(rows, cat, 1, 0)), &pct(gm_ratio(rows, cat, 3, 2))]);
    }
    say!(out, "Figure 9: SWQUE speedup over AGE (medium and large models)");
    say!(out, "(paper averages: +9.7% INT / +2.9% FP medium; +13.4% / +4.0% large)\n");
    say!(out, "{table}");
    out.report.add_table("speedup", &table);
}

/// Figure 10: the share of cycles SWQUE spends in each mode.
///
/// # Panics
///
/// Panics if a row's unit is not a SWQUE run.
fn fig10(rows: &[Row<'_>], out: &mut Output) {
    let mut table = Table::new(["program", "class", "CIRC-PC cycles", "AGE cycles", "switches"]);
    for row in rows {
        #[expect(clippy::expect_used, reason = "fig10's one unit is a SWQUE run")]
        let sw = row.result(0).swque.expect("SWQUE reports mode stats");
        let frac = sw.circ_pc_fraction();
        let (name, class) = (row.kernel.name, row.kernel.class.to_string());
        let circ = format!("{:5.1}%", frac * 100.0);
        let age = format!("{:5.1}%", (1.0 - frac) * 100.0);
        table.row([name, &class, &circ, &age, &sw.switches.to_string()]);
        out.report.push_row(Json::obj([
            ("program", Json::from(name)),
            ("class", Json::from(class)),
            ("circ_pc_fraction", Json::from(frac)),
            ("switches", Json::from(sw.switches)),
            ("intervals", Json::from(sw.intervals)),
        ]));
        out.report.push_trace(name, row.trace(0));
    }
    say!(out, "Figure 10: execution-cycle breakdown by SWQUE mode (medium model)");
    say!(out, "(paper: m-ILP programs run mostly as CIRC-PC; r-ILP and MLP as AGE)\n");
    say!(out, "{table}");
    out.report.add_table("mode_breakdown", &table);
}

/// Widest mode strip `fig10_timeline` prints before downsampling
/// (terminal width, roughly). Downsampling keeps every switch boundary
/// visible: a bucket renders as the mode the majority of its intervals
/// ran in.
const STRIP_WIDTH: usize = 96;

fn render_strip(strip: &str) -> String {
    if strip.len() <= STRIP_WIDTH {
        return strip.to_string();
    }
    let chars: Vec<char> = strip.chars().collect();
    (0..STRIP_WIDTH)
        .map(|b| {
            let lo = b * chars.len() / STRIP_WIDTH;
            let hi = ((b + 1) * chars.len() / STRIP_WIDTH).max(lo + 1);
            let circ = chars[lo..hi].iter().filter(|&&c| c == 'C').count();
            if circ * 2 >= hi - lo {
                'C'
            } else {
                'A'
            }
        })
        .collect()
}

fn fig10_timeline(rows: &[Row<'_>], out: &mut Output) {
    let mut table = Table::new(["program", "intervals", "switches", "CIRC-PC", "IPC range"]);
    say!(out, "Figure 10 (timeline): SWQUE mode residency per controller interval");
    say!(out, "(one char per 10k-instruction interval: C = CIRC-PC, A = AGE)\n");
    for row in rows {
        let (name, t) = (row.kernel.name, row.trace(0));
        let strip = t.mode_strip();
        let ipc_lo = t.ipc.iter().map(|s| s.ipc).fold(f64::INFINITY, f64::min);
        let ipc_hi = t.ipc.iter().map(|s| s.ipc).fold(0.0, f64::max);
        let ipc_range =
            if t.ipc.is_empty() { "-".to_string() } else { format!("{ipc_lo:.2}-{ipc_hi:.2}") };
        say!(out, "{name:>16} [{}]", render_strip(&strip));
        let circ = format!("{:5.1}%", t.circ_pc_fraction() * 100.0);
        let intervals = t.intervals.len().to_string();
        table.row([name, &intervals, &t.switches.to_string(), &circ, &ipc_range]);
        out.report.push_row(Json::obj([
            ("program", Json::from(name)),
            ("intervals", Json::from(t.intervals.len())),
            ("switches", Json::from(t.switches)),
            ("circ_pc_fraction", Json::from(t.circ_pc_fraction())),
            ("mode_strip", Json::from(strip)),
        ]));
        out.report.push_trace(name, t);
    }
    say!(out, "\n{table}");
    out.report.add_table("timeline", &table);
}

fn fig11(rows: &[Row<'_>], out: &mut Output) {
    let table = degradation(rows, &["CIRC-CONV", "CIRC-PPRI", "CIRC-PC"]);
    say!(out, "Figure 11: degradation vs SHIFT for circular-queue variants (medium)");
    say!(out, "(paper: CIRC-PC is nearly identical to the idealized CIRC-PPRI —");
    say!(out, " the two-cycle RV issue path costs ~1.1% because ready wrapped");
    say!(out, " instructions are latency-tolerant)\n");
    say!(out, "{table}");
    out.report.add_table("degradation", &table);
}

fn fig12(rows: &[Row<'_>], out: &mut Output) {
    let g = IqGeometry::medium();
    let mut ishift = EnergyBreakdown::default();
    let mut swque = EnergyBreakdown::default();
    for row in rows {
        let a = iq_energy(row.result(0), &g, false);
        let b = iq_energy(row.result(1), &g, true);
        ishift.static_basic += a.static_basic;
        ishift.dynamic_basic += a.dynamic_basic;
        swque.static_basic += b.static_basic;
        swque.dynamic_basic += b.dynamic_basic;
        swque.static_swque += b.static_swque;
        swque.dynamic_swque += b.dynamic_swque;
    }
    let base = ishift.total();
    let rel = |v: f64, digits: usize| format!("{:.*}", digits, v / base);
    let mut table = Table::new(["component", "I-SHIFT", "SWQUE"]);
    table.row(["static (basic)", &rel(ishift.static_basic, 3), &rel(swque.static_basic, 3)]);
    table.row(["dynamic (basic)", &rel(ishift.dynamic_basic, 3), &rel(swque.dynamic_basic, 3)]);
    table.row(["static (SWQUE-specific)", "-", &rel(swque.static_swque, 4)]);
    table.row(["dynamic (SWQUE-specific)", "-", &rel(swque.dynamic_swque, 4)]);
    table.row(["total", "1.000", &format!("{:.3}", swque.relative_to(&ishift))]);
    say!(out, "Figure 12: IQ energy relative to I-SHIFT (suite aggregate, medium)");
    say!(out, "(paper: SWQUE totals only ~0.5% above I-SHIFT; the SWQUE-specific");
    say!(out, " slices are nearly invisible)\n");
    say!(out, "{table}");
    out.report.add_table("energy", &table);
}

#[expect(clippy::cast_possible_truncation, reason = "a bar is a fraction of 120 characters")]
fn fig13(_: &[Row<'_>], out: &mut Output) {
    let a = areas(&IqGeometry::medium());
    let total: f64 = a.figure13_rows().iter().map(|r| r.1).sum();
    let mut table = Table::new(["circuit", "relative size", "bar"]);
    for (name, area) in a.figure13_rows() {
        let frac = area / total;
        let bar = "#".repeat((frac * 120.0).round() as usize);
        table.row([name.to_string(), format!("{:5.1}%", frac * 100.0), bar]);
    }
    say!(out, "Figure 13: relative size of each circuit in SWQUE (128-entry, 6-wide)");
    say!(out, "(paper: the age matrix dominates; the tag RAM is small — which is");
    say!(out, " why its time-sliced double access fits in a cycle)\n");
    say!(out, "{table}");
    out.report.add_table("area", &table);
    let overhead = a.overhead_fraction() * 100.0;
    say!(out, "\nSWQUE area overhead vs baseline IQ: {overhead:.1}% (paper: 17%)");
}

fn fig14(rows: &[Row<'_>], out: &mut Output) {
    let mut table = Table::new(["model", "category", "SWQUE-1AM", "AGE-multiAM", "SWQUE-multiAM"]);
    for (model, off) in [("medium (7 AM)", 0usize), ("large (9 AM)", 4)] {
        for cat in [Category::Int, Category::Fp] {
            let gm = |idx: usize| pct(gm_ratio(rows, cat, off + idx, off));
            table.row([model.to_string(), format!("{cat}"), gm(1), gm(2), gm(3)]);
        }
    }
    say!(out, "Figure 14: speedup over single-age-matrix AGE (medium & large)");
    say!(out, "(paper: AGE-multiAM gains only ~1.4%; SWQUE's INT advantage persists");
    say!(out, " because CIRC-PC, not the age matrix, is its speedup source)\n");
    say!(out, "{table}");
    out.report.add_table("multi_am", &table);
}

fn tab06(rows: &[Row<'_>], out: &mut Output) {
    let cost = cost_summary(&IqGeometry::medium());
    let mut t = Table::new(["row", "value"]);
    t.row(["additional area (14nm)", &format!("{:.4} mm^2", cost.additional_mm2)]);
    t.row(["vs. Skylake core", &format!("{:.3}%", cost.vs_core * 100.0)]);
    t.row(["vs. Skylake chip", &format!("{:.3}%", cost.vs_chip * 100.0)]);
    // Both against the 128-entry AGE baseline (unit 0).
    for (label, i) in [
        ("perf: SWQUE (128 entries) over baseline AGE", 1),
        ("perf: AGE (150 entries) over baseline AGE", 2),
    ] {
        let gm = |cat| pct(gm_ratio(rows, cat, i, 0));
        t.row([label, &format!("{} (INT), {} (FP)", gm(Category::Int), gm(Category::Fp))]);
    }
    say!(out, "Table 6: additional costs and cost-neutral performance comparison");
    say!(out, "(paper: +9.8%/+3.7% for SWQUE vs -0.6%/-0.1% for simply enlarging AGE —");
    say!(out, " spending the area on more entries does not help)\n");
    out.report.add_table("cost", &t);
    say!(out, "{t}");
}

/// The critical-path columns of `sec47` and `sensitivity` for geometry `g`.
fn delay_cells(g: &IqGeometry, path_digits: usize) -> [String; 4] {
    let d = delays(g);
    [
        format!("{:.*}", path_digits, d.critical_path()),
        format!("{:.0}%", d.double_tag_fraction() * 100.0),
        format!("{:.0}%", d.payload_fraction() * 100.0),
        format!("{:.1}%", d.dtm_overhead() * 100.0),
    ]
}

fn fits(g: &IqGeometry) -> &'static str {
    if delays(g).double_access_fits() {
        "yes"
    } else {
        "NO"
    }
}

fn sec47(_: &[Row<'_>], out: &mut Output) {
    let mut t = Table::new([
        "geometry",
        "IQ critical path",
        "double tag access",
        "payload read",
        "DTM overhead",
        "fits?",
    ]);
    for (label, g) in
        [("medium (128/6)", IqGeometry::medium()), ("large (256/8)", IqGeometry::large())]
    {
        let [path, tag, payload, dtm] = delay_cells(&g, 1);
        t.row([label, &path, &tag, &payload, &dtm, fits(&g)]);
    }
    say!(out, "Section 4.7: SWQUE delay analysis");
    say!(out, "(paper at medium geometry: double tag access = 66% of the IQ critical");
    say!(out, " path, payload read = 43%, DTM adds 1.3%)\n");
    say!(out, "{t}");
    out.report.add_table("delay", &t);
}

fn sec48(rows: &[Row<'_>], out: &mut Output) {
    let mut ratios = Vec::new();
    let mut switches_per_mcycle = Vec::new();
    let mut t =
        Table::new(["program", "IPC (10-cycle)", "IPC (40-cycle)", "delta", "switches/Mcycle"]);
    for row in rows {
        let (base, slow) = (row.result(0), row.result(1));
        let ratio = slow.ipc() / base.ipc();
        ratios.push(ratio);
        let rate = base.swque.map(|s| s.switches).unwrap_or(0) as f64 * 1e6 / base.cycles as f64;
        switches_per_mcycle.push(rate);
        let (ipc, slow_ipc) = (format!("{:.3}", base.ipc()), format!("{:.3}", slow.ipc()));
        let delta = format!("{:+.2}%", (ratio - 1.0) * 100.0);
        t.row([row.kernel.name, &ipc, &slow_ipc, &delta, &format!("{rate:.1}")]);
    }
    say!(out, "Section 4.8: switch-penalty sensitivity (10 vs 40 cycles)");
    say!(out, "(paper: only 0.02% average degradation, because transitions occur");
    say!(out, " ~8 times per million cycles)\n");
    out.report.add_table("penalty_sensitivity", &t);
    say!(out, "{t}");
    say!(
        out,
        "\nGM degradation at 40 cycles: {:+.2}%   mean switch rate: {:.1}/Mcycle",
        (geomean(&ratios) - 1.0) * 100.0,
        switches_per_mcycle.iter().sum::<f64>() / switches_per_mcycle.len() as f64
    );
}

fn ablations(rows: &[Row<'_>], out: &mut Output) {
    let gm_ipc = |i: usize| geomean(&rows.iter().map(|r| r.result(i).ipc()).collect::<Vec<_>>());
    let baseline = gm_ipc(0);
    let mut t = Table::new(["ablation", "GM IPC", "vs default"]);
    for (i, (name, _)) in ABLATIONS.iter().enumerate() {
        let ipc = gm_ipc(i);
        say!(out, "  measured: {name}");
        t.row([*name, &format!("{ipc:.3}"), &pct(ipc / baseline)]);
    }
    say!(out, "\nAblations of SWQUE design choices (suite GM IPC, medium model)\n");
    say!(out, "{t}");
    out.report.add_table("ablations", &t);
}

/// The kernel characterization table: instruction mix, mispredictions,
/// MPKI and IPC.
///
/// # Panics
///
/// Panics if a suite kernel faults in the functional emulator.
fn characterize(rows: &[Row<'_>], out: &mut Output) {
    let mut t = Table::new([
        "kernel", "class", "iALU%", "mul%", "ld/st%", "FP%", "br%", "mispred%", "MPKI", "IPC(AGE)",
    ]);
    for row in rows {
        // Instruction mix from a functional run.
        let program = row.kernel.build_scaled(300);
        let mut emu = Emulator::new(&program);
        let (mut mix, mut branches, mut total) = ([0u64; 4], 0u64, 0u64);
        while !emu.halted() && total < 60_000 {
            #[expect(
                clippy::expect_used,
                reason = "suite kernels are well-formed; golden traces pin them"
            )]
            let r = emu.step().expect("well-formed kernel");
            mix[r.inst.op.fu_class().index()] += 1;
            branches += r.inst.op.is_control() as u64;
            total += 1;
        }
        let share = |c: FuClass| format!("{:.0}", 100.0 * mix[c.index()] as f64 / total as f64);
        // Timing behaviour from the measured run.
        let r = row.result(0);
        t.row([
            row.kernel.name.to_string(),
            row.kernel.class.to_string(),
            share(FuClass::IntAlu),
            share(FuClass::IntMulDiv),
            share(FuClass::LdSt),
            share(FuClass::Fpu),
            format!("{:.1}", 100.0 * branches as f64 / total as f64),
            format!("{:.1}", r.branch.mispredict_rate() * 100.0),
            format!("{:.2}", r.mpki()),
            format!("{:.2}", r.ipc()),
        ]);
    }
    say!(out, "Suite characterization (mix from functional runs; timing on AGE)\n");
    say!(out, "{t}");
    out.report.add_table("characterization", &t);
    say!(out, "\n(m-ILP kernels: load-heavy, sub-1 MPKI, branchy with real mispredicts;");
    say!(out, " MLP kernels: tens of MPKI; r-ILP kernels: FP-dominated, high IPC)");
}

fn ext_ram_wakeup(rows: &[Row<'_>], out: &mut Output) {
    let cam = IqGeometry::medium();
    let ram = IqGeometry { wakeup: WakeupStyle::Ram, ..IqGeometry::medium() };
    let mut t = Table::new(["metric", "CAM wakeup (paper)", "RAM wakeup (future work)"]);
    let (a_cam, a_ram) = (areas(&cam), areas(&ram));
    let mlambda = |a: f64| format!("{:.1}", a / 1e6);
    t.row(["wakeup structure area (Mlambda^2)", &mlambda(a_cam.wakeup), &mlambda(a_ram.wakeup)]);
    let overhead = |a: f64| format!("{:.1}%", a * 100.0);
    let (o_cam, o_ram) = (overhead(a_cam.overhead_fraction()), overhead(a_ram.overhead_fraction()));
    t.row(["SWQUE area overhead vs baseline IQ", &o_cam, &o_ram]);
    // Energy on a representative moderate-ILP run (the mode where the
    // SWQUE-specific machinery is busiest): the entry's one kernel.
    let r = rows[0].result(0);
    let (e_cam, e_ram) = (iq_energy(r, &cam, true), iq_energy(r, &ram, true));
    let eu = |v: f64| format!("{v:.0}");
    t.row(["IQ energy (deepsjeng_like run, EU)", &eu(e_cam.total()), &eu(e_ram.total())]);
    let dynamic = |e: &EnergyBreakdown| eu(e.dynamic_basic + e.dynamic_swque);
    t.row(["  of which dynamic", &dynamic(&e_cam), &dynamic(&e_ram)]);
    let stat = |e: &EnergyBreakdown| eu(e.static_basic + e.static_swque);
    t.row(["  of which static", &stat(&e_cam), &stat(&e_ram)]);
    say!(out, "Extension: SWQUE over a RAM-type wakeup (paper §2.1 future work)\n");
    say!(out, "{t}");
    out.report.add_table("ram_wakeup", &t);
    say!(out, "\n(The dependency matrix enlarges the wakeup structure — which also");
    say!(out, " shrinks SWQUE's *relative* overhead — while cutting broadcast energy.");
    say!(out, " Scheduling behaviour, and therefore every IPC result, is unchanged.)");
}

fn ext_rearrange(rows: &[Row<'_>], out: &mut Output) {
    let mut table = Table::new(["program", "class", "REARRANGE/AGE", "SWQUE/AGE", "SHIFT/AGE"]);
    let others = 1..EXT_REARRANGE.len();
    for row in rows {
        let mut cells = vec![row.kernel.name.to_string(), row.kernel.class.to_string()];
        cells.extend(others.clone().map(|i| pct(row.result(i).ipc() / row.result(0).ipc())));
        table.row(cells);
    }
    for (cat, label) in [(Category::Int, "GM int"), (Category::Fp, "GM fp")] {
        let mut cells = vec![label.to_string(), String::new()];
        cells.extend(others.clone().map(|i| pct(gm_ratio(rows, cat, i, 0))));
        table.row(cells);
    }
    say!(out, "Extension: rearranging random queue (Sakai et al.) vs AGE vs SWQUE");
    say!(out, "(multiple-oldest protection recovers part of RAND's priority loss");
    say!(out, " with full capacity efficiency, but cannot reach SWQUE's CIRC-PC");
    say!(out, " phases — consistent with the paper's related-work discussion)\n");
    say!(out, "{table}");
    out.report.add_table("rearrange", &table);
}

fn sensitivity(_: &[Row<'_>], out: &mut Output) {
    let mut t = Table::new([
        "IQ entries",
        "critical path",
        "double tag access",
        "payload",
        "DTM",
        "area overhead",
        "fits?",
    ]);
    for entries in [32usize, 64, 128, 192, 256, 384, 512] {
        let g = IqGeometry::with_entries(entries);
        let [path, tag, payload, dtm] = delay_cells(&g, 0);
        let overhead = format!("{:.1}%", areas(&g).overhead_fraction() * 100.0);
        t.row([entries.to_string().as_str(), &path, &tag, &payload, &dtm, &overhead, fits(&g)]);
    }
    say!(out, "Sensitivity: circuit scaling with IQ size (medium issue width)");
    say!(out, "(the paper's design point is 128 entries; the double tag access");
    say!(out, " has large margin there and the trend shows where it would not)\n");
    say!(out, "{t}");
    out.report.add_table("circuit_scaling", &t);
}

/// The tuning table: every `TUNE` kind's IPC, SWQUE's mode share and the
/// interval metrics.
///
/// # Panics
///
/// Panics if `TUNE`'s unit 6 is not a SWQUE run.
fn tune(rows: &[Row<'_>], out: &mut Output) {
    let mut header: Vec<&str> = vec!["kernel", "class"];
    header.extend(TUNE.iter().map(|k| k.label()));
    header.extend(["SWQUE/AGE", "%CIRC-PC", "MPKI", "FLPI"]);
    let mut t = Table::new(header);
    for row in rows {
        let mut cells = vec![row.kernel.name.to_string(), row.kernel.class.to_string()];
        cells.extend((0..TUNE.len()).map(|i| format!("{:.3}", row.result(i).ipc())));
        let (age, swque) = (row.result(5), row.result(6));
        cells.push(pct(swque.ipc() / age.ipc()));
        #[expect(clippy::expect_used, reason = "TUNE's unit 6 is a SWQUE run")]
        let sw = swque.swque.expect("SWQUE reports mode stats");
        cells.push(format!("{:.0}%", sw.circ_pc_fraction() * 100.0));
        cells.push(format!("{:.2}", age.mpki()));
        cells.push(format!("{:.4}", age.iq.flpi()));
        t.row(cells);
    }
    say!(out, "{t}");
    out.report.add_table("per_kernel_ipc", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The evaluation asks for 30 units per kernel; 15 are distinct (11
    /// medium, 4 large), so `all_experiments` simulates each kernel 15
    /// times.
    #[test]
    fn evaluation_runs_each_distinct_unit_once() {
        let all: Vec<&Experiment> = EVALUATION.iter().chain(&EXTENSIONS).collect();
        for (i, e) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|f| f.name != e.name), "duplicate {}", e.name);
        }
        let entries: Vec<&Experiment> = EVALUATION.iter().collect();
        let budget = Budget { warmup_insts: 1, max_insts: 1, scale: None };
        let requested: usize = entries.iter().map(|e| (e.units)(&budget).len()).sum();
        assert_eq!(requested, 30);
        let kernels = suite::all();
        let jobs = plan(&entries, &kernels, &budget);
        assert_eq!(jobs.len(), kernels.len());
        for (kernel, units) in &jobs {
            let large = units.iter().filter(|u| u.spec.config == CoreConfig::large()).count();
            assert_eq!((units.len() - large, large), (11, 4), "{}", kernel.name);
            // fig09, fig10 and fig10_timeline all read one traced medium
            // SWQUE run.
            let traced: Vec<&Unit> = units.iter().filter(|u| u.traced).collect();
            assert_eq!(traced.len(), 1);
            assert_eq!(traced[0].spec, RunSpec::medium(Swque, budget));
        }
    }
}
