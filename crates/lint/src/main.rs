//! The `swque-lint` command-line driver.
//!
//! ```text
//! swque-lint --workspace                 # gate the enclosing workspace
//! swque-lint --root DIR                  # gate an explicit tree
//! swque-lint --explain RULE              # rationale + fixture example
//! SWQUE_JSON=lint.json swque-lint --workspace  # also emit swque-lint-v5
//! ```
//!
//! Exit codes: `0` no unsuppressed finding, `1` any unsuppressed finding,
//! `2` usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use swque_lint::report::report_json;
use swque_lint::rules::{explain, RULES};
use swque_lint::{find_workspace_root, scan_workspace};

/// Parsed command line.
struct Args {
    root: Option<PathBuf>,
    workspace: bool,
    json: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: swque-lint (--workspace | --root DIR) [--json FILE]\n\
         \x20      swque-lint --explain RULE"
    );
    ExitCode::from(2)
}

/// Handles `--explain RULE`: prints the rule's rationale (what it guards,
/// a `bad:` example, a `fix:`) or, for an unknown rule, the rule list.
fn run_explain(rule: &str) -> ExitCode {
    match explain(rule) {
        Some(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("swque-lint: unknown rule {rule:?}; known rules:");
            for r in RULES {
                eprintln!("  {r}");
            }
            ExitCode::from(2)
        }
    }
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        root: None,
        workspace: false,
        json: std::env::var_os("SWQUE_JSON").filter(|v| !v.is_empty()).map(PathBuf::from),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--explain" => {
                let Some(rule) = it.next() else { return Err(usage()) };
                return Err(run_explain(&rule));
            }
            "--workspace" => args.workspace = true,
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            _ => return Err(usage()),
        }
    }
    if args.root.is_none() && !args.workspace {
        return Err(usage());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    let root = match &args.root {
        Some(r) => r.clone(),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("swque-lint: cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("swque-lint: no [workspace] Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let scan = match scan_workspace(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swque-lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.json {
        let doc = format!("{}\n", report_json(&scan));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("swque-lint: SWQUE_JSON: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("[swque-lint] wrote {}", path.display());
    }

    println!("swque-lint: {} file(s), {} suppressed finding(s)", scan.files_scanned, scan.suppressed);
    for (rule, count) in scan.counts() {
        println!("  {rule:<20} {count:>4}");
    }
    for f in &scan.findings {
        eprintln!("  {f}");
    }

    if scan.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("swque-lint: {} unsuppressed finding(s)", scan.findings.len());
        ExitCode::FAILURE
    }
}
