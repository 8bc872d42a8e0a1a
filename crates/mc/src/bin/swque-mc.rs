//! `swque-mc` — bounded exhaustive model checking of the issue queues
//! and the SWQUE mode controller.
//!
//! ```text
//! swque-mc [--smoke] [--kind LABEL|CTRL] [--capacity N] [--width N]
//!          [--depth N] [--inject NAME] [--json]
//! ```
//!
//! With no target flags the full matrix runs: every `IqKind` at
//! capacities 2–3, the non-SWQUE kinds at capacity 4 (see
//! `swque_mc::scope::in_matrix`), plus the controller. `--smoke` shrinks
//! the matrix for CI (SWQUE kinds at capacity 2 only). `--inject` plants a named bug
//! (with `--kind`) so `scripts/verify.sh` can prove detection. `--json`
//! emits the `swque-mc-v1` report on stdout (human progress moves to
//! stderr). Exit status: 0 = every run closed its state space with no
//! violations; 1 = a violation was found (counterexamples printed);
//! 2 = usage or setup error, or a clean run failed to close.

use std::process::ExitCode;

use swque_core::replay::{Replay, ReplayTarget};
use swque_core::IqKind;
use swque_mc::scope::{ctrl_depth, in_matrix, queue_depth};
use swque_mc::{
    check_replay, explore, minimize, report, CtrlHarness, Harness, Injection, McRun, McViolation,
    QueueHarness, RunOutcome,
};

/// One requested exploration.
struct Job {
    target: ReplayTarget,
    capacity: usize,
    width: usize,
    depth: u64,
    inject: Option<Injection>,
}

struct Args {
    smoke: bool,
    json: bool,
    kind: Option<String>,
    capacity: Option<usize>,
    width: Option<usize>,
    depth: Option<u64>,
    inject: Option<String>,
}

fn usage() -> String {
    "usage: swque-mc [--smoke] [--kind LABEL|CTRL] [--capacity N] [--width N] [--depth N] \
     [--inject NAME] [--json]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        json: false,
        kind: None,
        capacity: None,
        width: None,
        depth: None,
        inject: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let value_for = |flag: &str, it: &mut dyn Iterator<Item = String>| {
            it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--json" => args.json = true,
            "--kind" => args.kind = Some(value_for("--kind", &mut it)?),
            "--capacity" => {
                let v = value_for("--capacity", &mut it)?;
                args.capacity = Some(v.parse().map_err(|_| format!("bad --capacity `{v}`"))?);
            }
            "--width" => {
                let v = value_for("--width", &mut it)?;
                args.width = Some(v.parse().map_err(|_| format!("bad --width `{v}`"))?);
            }
            "--depth" => {
                let v = value_for("--depth", &mut it)?;
                args.depth = Some(v.parse().map_err(|_| format!("bad --depth `{v}`"))?);
            }
            "--inject" => args.inject = Some(value_for("--inject", &mut it)?),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn jobs(args: &Args) -> Result<Vec<Job>, String> {
    let inject = match &args.inject {
        None => None,
        Some(name) => {
            Some(Injection::parse(name).ok_or_else(|| format!("unknown injection `{name}`"))?)
        }
    };
    if let Some(kind) = &args.kind {
        let target = if kind == "CTRL" {
            ReplayTarget::Controller
        } else {
            ReplayTarget::Queue(
                IqKind::from_label(kind).ok_or_else(|| format!("unknown kind `{kind}`"))?,
            )
        };
        let capacity = args.capacity.unwrap_or(3);
        let depth = args.depth.unwrap_or(match target {
            ReplayTarget::Controller => ctrl_depth(),
            ReplayTarget::Queue(kind) => queue_depth(kind),
        });
        return Ok(vec![Job {
            target,
            capacity: if target == ReplayTarget::Controller { 0 } else { capacity },
            width: if target == ReplayTarget::Controller { 0 } else { args.width.unwrap_or(2) },
            depth,
            inject,
        }]);
    }
    if inject.is_some() {
        return Err("--inject needs an explicit --kind".to_string());
    }
    let width = args.width.unwrap_or(2);
    let mut out = Vec::new();
    for kind in IqKind::ALL {
        for capacity in [2usize, 3, 4] {
            if !in_matrix(args.smoke, kind, capacity) {
                continue;
            }
            out.push(Job {
                target: ReplayTarget::Queue(kind),
                capacity,
                width,
                depth: args.depth.unwrap_or_else(|| queue_depth(kind)),
                inject: None,
            });
        }
    }
    out.push(Job {
        target: ReplayTarget::Controller,
        capacity: 0,
        width: 0,
        depth: args.depth.unwrap_or_else(ctrl_depth),
        inject: None,
    });
    Ok(out)
}

/// Explores one job; returns the run record plus whether it is
/// acceptable for a clean tree (closed, no violation).
fn run_job(job: &Job) -> Result<(McRun, bool), String> {
    let outcome: RunOutcome;
    let minimized: Option<McViolation>;
    match job.target {
        ReplayTarget::Queue(kind) => {
            let root = QueueHarness::new(kind, job.capacity, job.width, job.inject)?;
            outcome = explore(&root, job.depth);
            minimized = shrink(&root, job, &outcome)?;
        }
        ReplayTarget::Controller => {
            let root = CtrlHarness::new(job.inject)?;
            outcome = explore(&root, job.depth);
            minimized = shrink(&root, job, &outcome)?;
        }
    }
    let mut run = McRun::from_outcome(
        job.target.label(),
        job.capacity,
        job.width,
        job.depth,
        job.inject.map(|i| i.label()),
        &outcome,
    );
    if let Some(violation) = minimized {
        run.violations.push(violation);
    }
    let ok = run.violations.is_empty() && run.closed;
    Ok((run, ok))
}

/// Minimizes a found violation and re-validates the rendered replay
/// string end-to-end before reporting it.
fn shrink<H: Harness>(
    root: &H,
    job: &Job,
    outcome: &RunOutcome,
) -> Result<Option<McViolation>, String> {
    let Some(found) = &outcome.violation else {
        return Ok(None);
    };
    let events = minimize(root, &found.events, found.property);
    let replay = Replay {
        target: job.target,
        capacity: job.capacity,
        width: job.width,
        inject: job.inject.map(|i| i.label().to_string()),
        expect: Some(found.property.to_string()),
        events,
    };
    let rendered = replay.render();
    // A counterexample that does not replay is worse than none: fail loudly.
    let reparsed = Replay::parse(&rendered)
        .map_err(|e| format!("internal: minimized replay does not re-parse: {e}"))?;
    check_replay(&reparsed)
        .map_err(|e| format!("internal: minimized replay does not reproduce: {e}"))?;
    Ok(Some(McViolation {
        property: found.property.to_string(),
        detail: found.detail.clone(),
        replay: rendered,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let jobs = match jobs(&args) {
        Ok(jobs) => jobs,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let mut runs: Vec<McRun> = Vec::new();
    let mut violated = false;
    let mut failed_close = false;
    for job in &jobs {
        let (run, ok) = match run_job(job) {
            Ok(result) => result,
            Err(message) => {
                eprintln!("swque-mc: {message}");
                return ExitCode::from(2);
            }
        };
        let scope = match job.target {
            ReplayTarget::Controller => format!("CTRL depth {}", run.depth),
            ReplayTarget::Queue(_) => format!(
                "{} cap {} width {} depth {}",
                run.target, run.capacity, run.width, run.depth
            ),
        };
        let line = if let Some(v) = run.violations.first() {
            violated = true;
            format!(
                "{scope}: VIOLATION {} after {} states — {}\n  replay: {}",
                v.property, run.states, v.detail, v.replay
            )
        } else if run.closed {
            format!("{scope}: explored {} states, frontier empty", run.states)
        } else {
            if job.inject.is_none() {
                failed_close = true;
            }
            format!(
                "{scope}: explored {} states, frontier OPEN ({} unexplored)",
                run.states, run.frontier
            )
        };
        if args.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
        let _ = ok;
        runs.push(run);
    }

    if args.json {
        println!("{}", report(args.smoke, &runs));
    }
    if violated {
        ExitCode::from(1)
    } else if failed_close {
        eprintln!("swque-mc: a clean run left its frontier open — raise --depth");
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
