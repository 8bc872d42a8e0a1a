//! `swque-lint` — the workspace's determinism and hermeticity analyzer.
//!
//! The SWQUE reproduction's evidence — golden cycle pins, lockstep bitset
//! differentials, byte-identical parallel sweeps — rests on a contract:
//! simulated-path code is a pure function of `(program, config, seed)`.
//! rustc and clippy enforce its generic half (no `unsafe`, no host clock,
//! no hash-order containers, no interior mutability, no environment
//! reads), configured by the workspace's `clippy.toml` files. This crate
//! enforces what neither can express: narrowed counters, bare counter
//! subtraction, panic reachability from the public API, replay-literal
//! grammar, and manifest hermeticity. Cycle domains (stamps vs deltas vs
//! instruction counts) are types in `swque_core::cycle`, so rustc checks
//! them.
//!
//! * [`lexer`] — a minimal, total Rust lexer (comments, string/char/raw
//!   literals, idents, punctuation) so rules see *code*, never prose.
//! * [`parser`] — a total recursive-descent parser over the token stream
//!   (items, blocks, expressions, method calls) giving rules structure:
//!   what is iterated, what is cast, what is reachable from public API.
//! * [`resolve`] — the workspace-wide program model: every file of every
//!   crate parsed into one structure with a cross-file, cross-crate call
//!   graph (crate identity derived from workspace paths, visibility- and
//!   import-scoped edges).
//! * [`rules`] — the rule engine with per-crate-class policies and
//!   reasoned `// swque-lint: allow(rule) — why` pragmas.
//! * [`report`] — the versioned `swque-lint-v5` JSON report (findings
//!   tagged with their `rule_class` and reachability chain) and, in its
//!   tests, the schema's one validator.
//!
//! The `swque-lint` binary (`src/main.rs`) drives a workspace scan;
//! `scripts/verify.sh` runs it beside `cargo clippy` as hard gates that
//! fail on any unsuppressed finding. The rule table (with which tool owns
//! each rule), the class placement, the pragma grammar, and the report
//! schema are documented in DESIGN.md §8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod parser;
pub mod report;
pub mod resolve;
pub mod rules;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use rules::{scan_manifest, scan_sources, Finding, RULES};

/// Everything one workspace scan produced.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Surviving (unsuppressed) findings, in path order.
    pub findings: Vec<Finding>,
    /// Findings silenced by a valid pragma.
    pub suppressed: usize,
    /// Files scanned (Rust sources plus manifests).
    pub files_scanned: usize,
}

impl Scan {
    /// Per-rule finding counts, with every known rule present (zeros
    /// included) so the summary and the report cover the full rule set.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts: BTreeMap<&'static str, u64> = RULES.iter().map(|&r| (r, 0)).collect();
        for f in &self.findings {
            if let Some(n) = counts.get_mut(f.rule) {
                *n += 1;
            }
        }
        counts
    }
}

/// True for directories the walker must not descend into: build output,
/// VCS metadata, and anything hidden.
fn skip_dir(name: &str) -> bool {
    name == "target" || name.starts_with('.')
}

/// True when `dir/Cargo.toml` declares a `[workspace]` table of its own.
fn declares_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|text| text.lines().any(|l| l.trim() == "[workspace]"))
}

/// Collects every lintable file under `root`: `*.rs`, `Cargo.toml`, and
/// `Cargo.lock`, skipping `target/` and hidden directories. A nested
/// package with a `[workspace]` of its own (`swque_benchmark`) is outside
/// `cargo --workspace` and so outside the clippy gate; its sources are
/// not read, but its manifest and lockfile still are, for the hermeticity
/// rules. Paths come back sorted so scans (and their reports) are
/// deterministic.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        if dir != root && declares_workspace(&dir) {
            files.extend(
                ["Cargo.toml", "Cargo.lock"]
                    .map(|f| dir.join(f))
                    .into_iter()
                    .filter(|p| p.is_file()),
            );
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The workspace-relative, forward-slash form of `path` used in policies
/// and diagnostics.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Scans every lintable file under `root`. Rust sources are collected
/// first and analyzed as **one program** (so reachability chains cross
/// file and crate boundaries); manifests keep their per-file line rules.
pub fn scan_workspace(root: &Path) -> io::Result<Scan> {
    let mut scan = Scan { findings: Vec::new(), suppressed: 0, files_scanned: 0 };
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in collect_files(root)? {
        let rel = relative(root, &path);
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue; // non-UTF-8 file: nothing for a Rust lexer to do
        };
        scan.files_scanned += 1;
        if rel.ends_with(".rs") {
            sources.push((rel, src));
        } else {
            scan.findings.extend(scan_manifest(&rel, &src));
        }
    }
    let (findings, suppressed) = scan_sources(&sources);
    scan.findings.extend(findings);
    scan.suppressed += suppressed;
    // Manifest findings land before Rust findings above; restore global
    // path order so reports are stable whatever the mix.
    scan.findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
    });
    Ok(scan)
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if declares_workspace(&d) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_cover_every_rule_with_zeros() {
        let scan = Scan { findings: Vec::new(), suppressed: 0, files_scanned: 0 };
        let counts = scan.counts();
        assert_eq!(counts.len(), RULES.len());
        assert!(counts.values().all(|&v| v == 0));
    }

    #[test]
    fn walker_skips_target_and_hidden() {
        assert!(skip_dir("target"));
        assert!(skip_dir(".git"));
        assert!(!skip_dir("crates"));
        assert!(!skip_dir("src"));
    }

    #[test]
    fn scans_a_scratch_tree_deterministically() {
        let dir = std::env::temp_dir().join(format!("swque-lint-scan-{}", std::process::id()));
        let src_dir = dir.join("crates/core/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("bad.rs"),
            "pub fn t(v: &[u8]) -> u8 { *v.first().unwrap() }\n\
             fn u(cycle: u64) -> u32 { cycle as u32 }\n",
        )
        .unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
        let scan = scan_workspace(&dir).unwrap();
        let again = scan_workspace(&dir).unwrap();
        assert_eq!(scan.findings, again.findings);
        let counts = scan.counts();
        assert_eq!(counts["panic-in-lib"], 1);
        assert_eq!(counts["truncating-cast"], 1);
        assert_eq!(find_workspace_root(&src_dir), Some(dir.clone()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nested_workspace_keeps_only_its_manifests() {
        // A nested package with its own [workspace] (like swque_benchmark)
        // is outside clippy's reach, so a pragma naming a rule that moved
        // to clippy must not surface as malformed-pragma; its lockfile must
        // still be held to the path-only rule.
        let dir =
            std::env::temp_dir().join(format!("swque-lint-nested-{}", std::process::id()));
        let pkg = dir.join("crates/bench/src/bin/tool");
        std::fs::create_dir_all(pkg.join("src")).unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(pkg.join("Cargo.toml"), "[package]\nname = \"tool\"\n\n[workspace]\n")
            .unwrap();
        std::fs::write(
            pkg.join("src/clock.rs"),
            "// swque-lint: allow(wall-clock) — a rule clippy owns\nfn f() {}\n",
        )
        .unwrap();
        std::fs::write(
            pkg.join("Cargo.lock"),
            "[[package]]\nname = \"x\"\nsource = \"registry+https://x\"\n",
        )
        .unwrap();
        let scan = scan_workspace(&dir).unwrap();
        let counts = scan.counts();
        assert_eq!(counts["malformed-pragma"], 0, "{:?}", scan.findings);
        assert_eq!(counts["registry-source"], 1, "{:?}", scan.findings);
        assert_eq!(scan.findings[0].file, "crates/bench/src/bin/tool/Cargo.lock");
        // The stale pragma is a finding when the package is an ordinary
        // member of the outer workspace.
        std::fs::write(pkg.join("Cargo.toml"), "[package]\nname = \"tool\"\n").unwrap();
        let scan = scan_workspace(&dir).unwrap();
        assert_eq!(scan.counts()["malformed-pragma"], 1, "{:?}", scan.findings);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
