//! Fixture-corpus self-tests: one fixture per rule, each asserting the
//! exact diagnostic (rule, line, column, message) and that the rule's
//! `allow` pragma suppresses it.
//!
//! Fixtures are raw-string literals, not files on disk, so a workspace
//! scan of this crate never sees them as real violations (the only rule
//! that reads string contents, `mc-replay`, keys on the literal's leading
//! characters, and every fixture here leads with Rust source text).

use swque_lint::rules::{scan_manifest, scan_rust, Finding, RULES};

/// Runs one positive/negative fixture pair for a rule:
/// `bare` must produce exactly one finding of `rule` at `(line, col)` whose
/// message contains `needle`; `allowed` (the same code with a pragma) must
/// produce none, with exactly one suppression recorded.
fn assert_rule(rule: &str, path: &str, bare: &str, allowed: &str, line: u32, col: u32, needle: &str) {
    let (findings, suppressed) = scan_rust(path, bare);
    assert_eq!(findings.len(), 1, "{rule}: expected one finding, got {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, rule);
    assert_eq!((f.line, f.col), (line, col), "{rule}: wrong position: {f}");
    assert!(f.message.contains(needle), "{rule}: message {:?} lacks {needle:?}", f.message);
    assert_eq!(f.file, path);
    assert_eq!(suppressed, 0);

    let (findings, suppressed) = scan_rust(path, allowed);
    assert!(findings.is_empty(), "{rule}: pragma failed to suppress: {findings:?}");
    assert_eq!(suppressed, 1, "{rule}: suppression not recorded");
}

#[test]
fn fixture_truncating_cast() {
    assert_rule(
        "truncating-cast",
        "crates/core/src/fixture.rs",
        "fn f(cycle: u64) -> u32 { cycle as u32 }\n",
        "// swque-lint: allow(truncating-cast) — fixture: bounded by construction\n\
         fn f(cycle: u64) -> u32 { cycle as u32 }\n",
        1,
        27,
        "narrows a counter-typed expression",
    );
}

#[test]
fn fixture_unchecked_arith() {
    assert_rule(
        "unchecked-arith",
        "crates/core/src/fixture.rs",
        "fn f(cycle: u64, tick: u64) -> u64 { cycle - tick }\n",
        "// swque-lint: allow(unchecked-arith) — fixture: tick <= cycle by construction\n\
         fn f(cycle: u64, tick: u64) -> u64 { cycle - tick }\n",
        1,
        44,
        "saturating_sub",
    );
}

#[test]
fn fixture_panic_in_lib() {
    assert_rule(
        "panic-in-lib",
        "crates/trace/src/fixture.rs",
        "pub fn head(v: &[u8]) -> u8 { *v.first().unwrap() }\n",
        "// swque-lint: allow(panic-in-lib) — fixture: invariant documented at call site\n\
         pub fn head(v: &[u8]) -> u8 { *v.first().unwrap() }\n",
        1,
        42,
        "library code",
    );
}

#[test]
fn fixture_cross_domain_arith() {
    assert_rule(
        "cross-domain-arith",
        "crates/mem/src/fixture.rs",
        "fn f(done_at: u64, issue_at: u64) -> u64 { done_at + issue_at }\n",
        "// swque-lint: allow(cross-domain-arith) — fixture: documenting the bad add\n\
         fn f(done_at: u64, issue_at: u64) -> u64 { done_at + issue_at }\n",
        1,
        52,
        "CycleStamp",
    );
}

#[test]
fn fixture_cross_domain_call() {
    assert_rule(
        "cross-domain-call",
        "crates/mem/src/fixture.rs",
        "// swque-domain: at: CycleStamp(launch)\n\
         fn launch(at: u64) { let _ = at; }\n\
         fn f(done_at: u64) { launch(done_at); }\n",
        "// swque-domain: at: CycleStamp(launch)\n\
         fn launch(at: u64) { let _ = at; }\n\
         // swque-lint: allow(cross-domain-call) — fixture: documenting the bad pass\n\
         fn f(done_at: u64) { launch(done_at); }\n",
        3,
        22,
        "parameter `at` expects CycleStamp(launch)",
    );
}

#[test]
fn fixture_malformed_pragma() {
    // A reasonless pragma is itself the finding; there is deliberately no
    // pragma that can suppress a malformed pragma.
    let (findings, suppressed) =
        scan_rust("crates/core/src/fixture.rs", "// swque-lint: allow(panic-in-lib)\nfn f() {}\n");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.line, f.col), ("malformed-pragma", 1, 1));
    assert!(f.message.contains("reason"), "{:?}", f.message);
    assert_eq!(suppressed, 0);
}

#[test]
fn fixture_mc_replay() {
    assert_rule(
        "mc-replay",
        "crates/mc/tests/corpus.rs",
        "const T: &str = \"swque-mc-replay-v1 kind=CIRC cap=x width=1 inject=- expect=- \
         events=-\";\n",
        "// swque-lint: allow(mc-replay) — fixture: deliberately malformed trace\n\
         const T: &str = \"swque-mc-replay-v1 kind=CIRC cap=x width=1 inject=- expect=- \
         events=-\";\n",
        1,
        17,
        "cap",
    );
}

#[test]
fn mc_replay_accepts_valid_traces_and_the_bare_magic() {
    // A well-formed trace, the magic constant itself, and a raw-string
    // trace must all lint clean; a malformed raw string must not.
    let clean = "const A: &str = \"swque-mc-replay-v1 kind=SHIFT cap=2 width=1 inject=- \
                 expect=- events=d-.-,s1\";\n\
                 const M: &str = \"swque-mc-replay-v1\";\n\
                 const R: &str = r#\"swque-mc-replay-v1 kind=CTRL cap=0 width=0 inject=- \
                 expect=- events=e0:50\"#;\n";
    let (findings, _) = scan_rust("crates/mc/tests/corpus.rs", clean);
    assert!(findings.is_empty(), "{findings:?}");

    let bad_raw = "const R: &str = r\"swque-mc-replay-v1 kind=CTRL cap=0 width=0 inject=- \
                   expect=- events=s1\";\n";
    let (findings, _) = scan_rust("crates/mc/tests/corpus.rs", bad_raw);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "mc-replay");
    assert!(findings[0].message.contains("does not belong"), "{:?}", findings[0].message);
}

#[test]
fn fixture_external_dep() {
    let findings = scan_manifest("crates/x/Cargo.toml", "[dependencies]\nproptest = \"1\"\n");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.line, f.col), ("external-dep", 2, 1));
    assert!(f.message.contains("hermetic"), "{:?}", f.message);
}

#[test]
fn fixture_registry_source() {
    let findings = scan_manifest(
        "Cargo.lock",
        "[[package]]\nname = \"rand\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n",
    );
    // Line 3 is the registry source; the `name = "rand"` line is not an
    // external-dep finding because Cargo.lock only runs the lock rule.
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.line, f.col), ("registry-source", 3, 1));
    assert!(f.message.contains("path-only"), "{:?}", f.message);
}

/// Every rule in the table is exercised by a fixture above; this meta-test
/// fails when a rule is added without one.
#[test]
fn every_rule_has_a_fixture() {
    let covered = [
        "truncating-cast",
        "unchecked-arith",
        "panic-in-lib",
        "cross-domain-arith",
        "cross-domain-call",
        "malformed-pragma",
        "mc-replay",
        "external-dep",
        "registry-source",
    ];
    for rule in RULES {
        assert!(covered.contains(&rule), "rule {rule} has no fixture self-test");
    }
}

/// Class policy, end-to-end: the same source is a finding in a
/// deterministic crate and clean in an exempt location.
#[test]
fn policy_exemptions_hold() {
    let cast_src = "fn f(cycle: u64) -> u32 { cycle as u32 }\n";
    let (findings, _) = scan_rust("crates/cpu/src/x.rs", cast_src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    for exempt in [
        "crates/bench/src/table.rs",  // harness crate
        "crates/lint/src/x.rs",       // the analyzer itself
        "crates/core/tests/model.rs", // test tree
        "crates/cpu/src/bin/tool.rs", // binary target
    ] {
        let (findings, _) = scan_rust(exempt, cast_src);
        assert!(findings.is_empty(), "{exempt}: {findings:?}");
    }

    let panic_src = "pub fn f(v: Option<u8>) -> u8 { v.expect(\"set\") }\n";
    for exempt in ["crates/cpu/src/bin/tool.rs", "crates/cpu/tests/t.rs", "examples/demo.rs"] {
        let (findings, _) = scan_rust(exempt, panic_src);
        assert!(findings.is_empty(), "{exempt}: {findings:?}");
    }
}

/// Multi-rule pragma: one comment may allow several rules at once.
#[test]
fn pragma_with_multiple_rules() {
    let src = "// swque-lint: allow(panic-in-lib, truncating-cast) — fixture: both on purpose\n\
               pub fn f(v: Option<u8>, cycle: u64) -> u32 { v.unwrap(); cycle as u32 }\n";
    let (findings, suppressed) = scan_rust("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 2);
}

/// A pragma for rule A does not hide rule B on the same line.
#[test]
fn pragma_is_rule_specific() {
    let src = "// swque-lint: allow(truncating-cast) — fixture: cast only\n\
               pub fn f(v: Option<u8>, cycle: u64) -> u32 { v.unwrap(); cycle as u32 }\n";
    let (findings, suppressed) = scan_rust("crates/core/src/fixture.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "panic-in-lib");
    assert_eq!(suppressed, 1);
}

/// The diagnostics display as `file:line:col: [rule] message`.
#[test]
fn diagnostic_format() {
    let (findings, _) =
        scan_rust("crates/core/src/fixture.rs", "fn f(cycle: u64) -> u32 { cycle as u32 }\n");
    let shown = findings[0].to_string();
    assert!(
        shown.starts_with("crates/core/src/fixture.rs:1:27: [truncating-cast]"),
        "{shown}"
    );
    let _: &Finding = &findings[0];
}
