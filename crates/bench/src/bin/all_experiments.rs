//! Runs the paper's whole evaluation (Section 4) in one process: the
//! `swque_bench::experiments::EVALUATION` entries share one run, in which
//! each distinct simulation unit runs once. Output is EXPERIMENTS.md-ready
//! plain text.
//!
//! With `SWQUE_JSON=<dir>` set, the value is treated as a *directory*
//! (created if missing) and every entry writes its structured report to
//! `<dir>/BENCH_<experiment>.json` — one `swque-bench-v1` document per
//! figure/table, ready for downstream tooling.

use swque_bench::{default_workers, experiments, json_path, Budget};
use swque_workloads::suite;

fn main() {
    let budget = Budget::from_env();
    let json_dir = json_path();
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("SWQUE_JSON: cannot create {}: {e}", dir.display()));
    }
    let entries: Vec<_> = experiments::EVALUATION.iter().collect();
    let kernels = suite::all();
    let outputs = experiments::run(&entries, &kernels, &budget, default_workers(kernels.len()));
    for (entry, out) in entries.iter().zip(&outputs) {
        println!("\n=============================================================");
        println!("== {}", entry.name);
        println!("=============================================================\n");
        print!("{}", out.text);
        if let Some(dir) = &json_dir {
            out.report.write(&dir.join(format!("BENCH_{}.json", entry.name)));
        }
    }
    if let Some(dir) = &json_dir {
        println!("\nStructured reports written to {}/BENCH_*.json", dir.display());
    }
}
