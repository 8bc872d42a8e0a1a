//! Runs the paper's evaluation (Section 4), or the registry entries named
//! on the command line, in one process: the entries share one run, in
//! which each distinct simulation unit runs once. Output is
//! EXPERIMENTS.md-ready plain text, one `== <name>` section per entry.
//!
//! ```text
//! all_experiments                 # the 12 EVALUATION entries, in order
//! all_experiments fig09 tables    # the named entries, in the order given
//! ```
//!
//! A name is any entry of `swque_bench::experiments::EVALUATION` or
//! `EXTENSIONS` (see `experiments::select`); an unknown or repeated name
//! exits with status 2 before any simulation.
//!
//! With `SWQUE_JSON=<dir>` set, the directory is created if missing and
//! every entry writes its structured report to `<dir>/BENCH_<name>.json`
//! — one `swque-bench-v1` document per figure/table, ready for downstream
//! tooling.

use swque_bench::{default_workers, experiments, json_dir, Budget};
use swque_workloads::suite;

fn main() {
    let names: Vec<String> =
        std::env::args_os().skip(1).map(|a| a.to_string_lossy().into_owned()).collect();
    let entries = experiments::select(&names).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let budget = Budget::from_env();
    let json_dir = json_dir();
    let kernels = suite::all();
    let outputs = experiments::run(&entries, &kernels, &budget, default_workers(kernels.len()));
    for (entry, out) in entries.iter().zip(&outputs) {
        println!("\n=============================================================");
        println!("== {}", entry.name);
        println!("=============================================================\n");
        print!("{}", out.text);
        if let Some(dir) = &json_dir {
            out.report.write(dir);
        }
    }
    if let Some(dir) = &json_dir {
        println!("\nStructured reports written to {}/BENCH_*.json", dir.display());
    }
}
