//! `swque_benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! swque_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! ```
//!
//! Workloads: `ilp_busy`, `mlp_stall`, `multicore_contention` and
//! `mc_explore` (see `README.md` beside this crate). Each is a closed loop
//! with one client: units run one after another on one thread.
//!
//! * `--trace 0` (default) runs whole reps of the workload for `--seconds`
//!   (at least two) and reports the end-to-end metrics `rep_s`, `setup_s`
//!   and `peak_rss_mb`.
//! * `--trace 1` runs one rep for the workload's counters and set-up split,
//!   then the host-cost profile, and reports the per-layer metrics.
//!
//! Every metric prints as `name value unit`; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--json PATH` also writes the full report (rep summaries,
//! spans with self time, histograms). `--seed` picks the programs: seed 0
//! is the canonical suite, any other seed perturbs every kernel's layout.

#![forbid(unsafe_code)]

mod clock;
mod profile;
mod report;
mod run;
mod spans;
mod stats;
mod units;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use units::{Budget, Workload};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: swque_benchmark --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] [--json PATH]",
        names.join("|")
    )
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::IlpBusy,
        seed: 0,
        seconds: 30.0,
        trace: false,
        json: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                };
            }
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        Ok(run::traced(args.workload, args.seed, Budget::FULL))
    } else {
        run::timed(args.workload, args.seed, args.seconds, Budget::FULL)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("swque_benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{}\n", report.to_json())) {
            eprintln!("swque_benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "# workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (unit, failure) in &report.units {
        if let Some(why) = failure {
            println!("# FAILED {unit}: {why}");
        }
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for m in &report.info {
        println!("# {} {} {} (derived, not gated)", m.name, m.value, m.unit);
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_trace::Json;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "mlp_stall",
            "--seed",
            "1",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::MlpStall,
                seed: 1,
                seconds: 10.0,
                trace: true,
                json: None
            }
        );
        assert!(args(&[]).is_err(), "workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "ilp_busy", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "ilp_busy", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "ilp_busy", "--seed"]).is_err());
        assert!(args(&["--workload", "ilp_busy", "--bogus"]).is_err());
    }

    /// The metric names `BENCHMARK.json` lists under `key`, in order.
    fn listed(key: &str) -> Vec<(String, String)> {
        let text = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../../../../BENCHMARK.json"
        ));
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(report: &Report) -> Vec<(String, String)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    /// Smoke budget: every simulator workload emits exactly the metrics
    /// `BENCHMARK.json` lists, with their units, and passes its checks.
    #[test]
    fn smoke_runs_emit_exactly_the_listed_metrics() {
        let end_to_end = listed("end_to_end");
        let per_layer = listed("per_layer");
        assert!(per_layer.len() <= 128);
        for (name, _) in end_to_end.iter().chain(&per_layer) {
            assert!(report::valid_name(name), "{name}");
        }
        for workload in [
            Workload::IlpBusy,
            Workload::MlpStall,
            Workload::MulticoreContention,
        ] {
            let timed = run::timed(workload, 0, 0.0, Budget::SMOKE).expect("timed smoke run");
            assert_eq!(timed.failed(), 0, "{:?}", timed.units);
            assert_eq!(emitted(&timed), end_to_end, "{}", workload.name());
            assert!(
                timed.metrics.iter().all(|m| m.value > 0.0),
                "{:?}",
                timed.metrics
            );
            let traced = run::traced(workload, 0, Budget::SMOKE);
            assert_eq!(traced.failed(), 0, "{:?}", traced.units);
            assert_eq!(emitted(&traced), per_layer, "{}", workload.name());
        }
    }
}
