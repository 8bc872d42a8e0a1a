//! Campaign sweep orchestrator: expands a declarative manifest (schema
//! `swque-sweep-manifest-v1`) into deterministic work units, runs them on
//! the harness worker pool (`SWQUE_THREADS` workers), writing one shard
//! per unit, and merges the completed campaign into a
//! `swque-sweep-campaign-v1` report. Shards are content-addressed, so an
//! interrupted campaign resumes from where it died: re-run the same
//! command and only the missing units are simulated. `--merge-only`
//! re-merges existing shards without simulating. See `swque_bench::sweep`
//! for the machinery and `DESIGN.md` §9 for the manifest grammar and both
//! output schemas.

use std::path::PathBuf;
use std::process::ExitCode;

use swque_bench::sweep::{merge_campaign, run_campaign, Manifest};
use swque_bench::{default_workers, Table};

const USAGE: &str = "usage: swque_sweep --manifest <file> --out <dir> [--merge-only]";

struct Args {
    manifest: PathBuf,
    out: PathBuf,
    merge_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut manifest = None;
    let mut out = None;
    let mut merge_only = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag}: missing value"));
        match flag.as_str() {
            "--manifest" => manifest = Some(PathBuf::from(value("--manifest")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--merge-only" => merge_only = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        manifest: manifest.ok_or(format!("--manifest is required\n{USAGE}"))?,
        out: out.ok_or(format!("--out is required\n{USAGE}"))?,
        merge_only,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let text = std::fs::read_to_string(&args.manifest)
        .map_err(|e| format!("{}: {e}", args.manifest.display()))?;
    let manifest = Manifest::parse(&text)?;
    let units = manifest.units();
    println!("campaign {:?}: {} unit(s)", manifest.name, units.len());

    if args.merge_only {
        println!("merged {}", merge_campaign(&manifest, &args.out)?.display());
        return Ok(());
    }

    let status = run_campaign(&manifest, &args.out, default_workers(units.len()))?;
    let mut table = Table::new(["total", "skipped", "ran", "repaired", "merged"]);
    table.row([
        status.total.to_string(),
        status.skipped.to_string(),
        status.ran.to_string(),
        status.repaired.to_string(),
        status.merged.display().to_string(),
    ]);
    print!("{table}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("swque_sweep: {e}");
            ExitCode::FAILURE
        }
    }
}
