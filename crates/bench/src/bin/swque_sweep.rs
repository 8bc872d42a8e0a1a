//! Campaign sweep orchestrator: expands a declarative manifest (schema
//! `swque-sweep-manifest-v1`) into deterministic work units, runs them
//! sharded across worker threads, and merges the completed campaign into a
//! `swque-sweep-campaign-v1` report. Shards are content-addressed, so an
//! interrupted campaign resumes from where it died: re-run the same
//! command and only the missing units are simulated. See
//! `swque_bench::sweep` for the machinery and `DESIGN.md` §9 for the
//! manifest grammar and both output schemas.

use std::path::PathBuf;
use std::process::ExitCode;

use swque_bench::sweep::{merge_campaign, run_campaign, Manifest};
use swque_bench::{default_workers, Table};

const USAGE: &str = "usage: swque_sweep --manifest <file> --out <dir> \
                     [--workers N] [--limit K] [--merge-only]";

struct Args {
    manifest: PathBuf,
    out: PathBuf,
    workers: Option<usize>,
    limit: Option<usize>,
    merge_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut manifest = None;
    let mut out = None;
    let mut workers = None;
    let mut limit = None;
    let mut merge_only = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag}: missing value"));
        match flag.as_str() {
            "--manifest" => manifest = Some(PathBuf::from(value("--manifest")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--workers" => {
                workers = Some(
                    value("--workers")?.parse::<usize>().map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--limit" => {
                limit =
                    Some(value("--limit")?.parse::<usize>().map_err(|e| format!("--limit: {e}"))?);
            }
            "--merge-only" => merge_only = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        manifest: manifest.ok_or(format!("--manifest is required\n{USAGE}"))?,
        out: out.ok_or(format!("--out is required\n{USAGE}"))?,
        workers,
        limit,
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
        let report = merge_campaign(&manifest, &args.out)?;
        let path = args.out.join("campaign.json");
        std::fs::write(&path, format!("{report}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("merged {}", path.display());
        return Ok(());
    }

    // Workers: explicit flag, else the harness policy (`SWQUE_THREADS` or
    // host parallelism), clamped to the unit count.
    let workers = args.workers.unwrap_or_else(|| default_workers(units.len()));
    let status = run_campaign(&manifest, &args.out, workers, args.limit)?;

    let mut table = Table::new(["total", "skipped", "ran", "repaired", "merged"]);
    table.row([
        status.total.to_string(),
        status.skipped.to_string(),
        status.ran.to_string(),
        status.repaired.to_string(),
        status.merged.as_ref().map_or("no".to_string(), |p| p.display().to_string()),
    ]);
    print!("{table}");
    if status.merged.is_none() {
        println!(
            "campaign incomplete: {}/{} shard(s) present — re-run to resume",
            status.skipped + status.ran,
            status.total,
        );
    }
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
