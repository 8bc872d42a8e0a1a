//! Hermeticity and clippy-configuration checks over the workspace's
//! manifests, run by the tier-1 `cargo test`.
//!
//! Every dependency is an in-tree path crate, so `--offline` builds work on
//! a clean machine. Cargo writes a `source = …` line into a lockfile for
//! each registry, git or other non-path package, so a lockfile without one
//! proves the package's whole dependency graph is in-tree.
//!
//! The determinism bans live in clippy configuration (DESIGN.md §8): the
//! strict root `clippy.toml` must keep banning hash-order containers, every
//! crate except `bench` must resolve to it, and `bench`'s harness
//! configuration must still ban the host clock.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `(line number, line)` pairs of `lock` that name a package source.
fn source_lines(lock: &str) -> Vec<(usize, &str)> {
    lock.lines()
        .enumerate()
        .filter(|(_, line)| line.trim_start().starts_with("source ="))
        .map(|(i, line)| (i + 1, line))
        .collect()
}

#[test]
fn lockfiles_have_only_path_packages() {
    // The workspace's lockfile, and the one of swque_benchmark, a package
    // with its own `[workspace]` that `--workspace` never resolves.
    for lock in ["Cargo.lock", "crates/bench/src/bin/swque_benchmark/Cargo.lock"] {
        let text = read(&root().join(lock));
        assert!(text.contains("[[package]]"), "{lock}: not a lockfile");
        let sources = source_lines(&text);
        assert!(sources.is_empty(), "{lock}: non-path packages at {sources:?}");
    }
}

#[test]
fn a_registry_source_line_is_detected() {
    let lock = "[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
                source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    assert_eq!(source_lines(lock).len(), 1);
    assert!(source_lines("[[package]]\nname = \"swque-rng\"\n").is_empty());
}

/// The directory whose `clippy.toml` applies to the package at `dir`:
/// clippy takes the nearest one at or above the package's manifest.
fn clippy_config_dir(root: &Path, dir: &Path) -> PathBuf {
    let mut d = dir.to_path_buf();
    loop {
        if d.join("clippy.toml").is_file() || d == root {
            return d;
        }
        assert!(d.pop(), "{} sits below the workspace root", dir.display());
    }
}

#[test]
fn clippy_configs_keep_the_determinism_bans() {
    let root = root();
    let strict = read(&root.join("clippy.toml"));
    assert!(strict.contains("std::collections::HashMap"), "root clippy.toml is the strict one");
    assert!(strict.contains("std::time::Instant"), "root clippy.toml bans the clock");
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap_or_else(|e| panic!("crates/: {e}"))
        .map(|entry| entry.map(|e| e.path()).unwrap_or_else(|e| panic!("crates/: {e}")))
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 10, "{crates:?}");
    for dir in &crates {
        let name = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let config = clippy_config_dir(&root, dir);
        if name == "bench" {
            // The harness configuration: figure and sweep binaries read
            // their environment knobs, but the clock stays banned.
            assert_eq!(&config, dir, "bench carries its own clippy.toml");
            let own = read(&dir.join("clippy.toml"));
            assert!(own.contains("std::time::Instant"), "bench: harness bans the clock");
            assert!(own.contains("std::time::SystemTime"), "bench: harness bans the clock");
        } else {
            assert_eq!(config, root, "{name}: resolves to the strict root clippy.toml");
        }
    }
}
