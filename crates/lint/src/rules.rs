//! The determinism/hermeticity rule engine.
//!
//! Since PR 5 the engine is AST-driven: every file is parsed by
//! [`crate::parser`] (a total recursive-descent pass over the
//! [`crate::lexer`] token stream), so rules see *structure* — what is
//! iterated, what is cast, which function a panic lives in — instead of
//! token windows. Rules still honour a per-file **policy** derived from
//! the file's workspace path (see [`Policy`] and DESIGN.md §8 for the
//! crate-class matrix), and findings can be suppressed with an explicit,
//! reasoned pragma:
//!
//! ```text
//! // swque-lint: allow(env-read) — documented SWQUE_PROP_CASES knob
//! ```
//!
//! A pragma suppresses matching findings on its own line and on the line
//! directly below it (so both trailing and preceding-line styles work).
//! A pragma with an unknown rule name or a missing reason is itself a
//! finding (`malformed-pragma`): silent or unexplained suppressions are
//! exactly what the tool exists to prevent.
//!
//! Rules come in four classes (reported per finding as `rule_class`):
//!
//! * **token** — pattern over the lexed token stream (wall-clock, env
//!   reads, manifest hygiene). These predate the parser and need no
//!   structure.
//! * **ast** — judgement over parsed structure: is this `HashMap`
//!   *iterated* or merely probed? Is this `as` cast *narrowing* a cycle
//!   counter? Is the container part of the *public* API surface?
//! * **reachability** — the `panic-in-lib` pass walks the workspace-wide
//!   call graph of [`crate::resolve`] and attributes every panic site to
//!   the public item that reaches it — across files and crates since v3 —
//!   so the finding list reads as an API audit rather than a grep dump.
//! * **dataflow** — the cycle-domain pass of [`crate::domains`]
//!   classifies integer values (cycle stamps vs deltas vs instruction
//!   counts vs …) and flags cross-domain arithmetic, comparison, and
//!   argument passing.
//!
//! Since v3 the engine scans the workspace as **one program**: every file
//! is parsed into a [`crate::resolve::Program`], per-file passes run per
//! unit, and the reachability and dataflow passes run over the whole
//! model. [`scan_rust`] remains as the one-file wrapper the fixture
//! suite exercises.

use crate::domains;
use crate::lexer::{lex, Tok, TokKind};
use crate::parser::{walk_exprs, walk_items, Ast, Expr, ExprKind, ItemKind};
use crate::resolve::{self, Program};

/// Every rule the analyzer knows, in report order.
///
/// * `no-unsafe` — the `unsafe` keyword anywhere (the workspace is 100%
///   safe code and `#![forbid(unsafe_code)]` locks each crate root; this
///   rule catches the attribute being dropped).
/// * `unordered-container` — a `HashMap`/`HashSet` that *escapes through
///   the public API* of a deterministic crate (pub fn signature, pub
///   field): local analysis cannot prove such a container is never
///   iterated by a caller, so exposure itself is the hazard.
/// * `iterated-unordered` — actual iteration (a `for` loop or an
///   iterating method: `iter`, `keys`, `values`, `drain`, `retain`, …)
///   of a binding, field, or parameter known to hold a `HashMap`/
///   `HashSet` in a deterministic crate. This is the precise successor
///   of PR-4's blanket mention rule: probing by key is fine, consuming
///   in hash order is not.
/// * `wall-clock` — `std::time` / `Instant` / `SystemTime` anywhere
///   except the two sanctioned timing harness files.
/// * `ambient-rng` — `thread_rng` / `from_entropy` / `rand::` paths; all
///   randomness must flow through the pinned in-tree `swque-rng`.
/// * `panic-in-lib` — the panic family (`.unwrap(` / `.expect(` /
///   `panic!` / `assert!` / `assert_eq!` / `assert_ne!` /
///   `unreachable!` / `todo!` / `unimplemented!`) in non-test, non-bin
///   library code, attributed to the nearest public item via the
///   intra-file call graph. `debug_assert!` is exempt: it compiles out
///   of the release binaries that produce the paper's numbers.
/// * `env-read` — `std::env` outside the bench/bin harness layer.
/// * `truncating-cast` — a narrowing `as` cast (`u8`/`u16`/`u32`/`i8`/
///   `i16`/`i32` target) applied to a cycle/counter-named expression in
///   a deterministic crate: silent truncation of a 64-bit counter is
///   exactly the accounting bug that distorts IPC conclusions.
/// * `unchecked-arith` — bare `-` between two counter-named operands in
///   a deterministic crate; the workspace convention for counter deltas
///   is `saturating_sub` (an underflow wraps to ~2^64 and poisons every
///   statistic downstream).
/// * `interior-mutability` — `Cell`/`RefCell`/`UnsafeCell` or
///   `static mut` in a deterministic crate: hidden mutation channels
///   defeat the "same inputs, same trace" audit.
/// * `cross-domain-arith` — arithmetic or comparison that mixes cycle
///   domains (stamp+stamp, delta−stamp, a stamp compared against a
///   delta, a stamp-named binding initialized from a delta) in a
///   deterministic crate; see [`crate::domains`] for the algebra.
/// * `cross-domain-call` — an argument whose inferred domain contradicts
///   the parameter's seeded/annotated domain at a call site resolved
///   through the workspace call graph — including a `CycleStamp`
///   qualifier clash (`done_at` passed where a launch stamp is
///   expected), the exact shape of the PR-8 prefetch bug.
/// * `malformed-pragma` — a `swque-lint:` pragma or `swque-domain:`
///   annotation that fails to parse.
/// * `mc-replay` — a string literal that begins with the
///   `swque-mc-replay-v1` magic but fails `Replay::parse`. Replay
///   strings are executable counterexamples; a committed trace that no
///   longer parses is a dead test vector, so the grammar is enforced at
///   lint time, the same way pragmas are.
/// * `external-dep` — `rand`/`proptest`/`criterion` named in a manifest.
/// * `registry-source` — a `source =` entry in `Cargo.lock` (the lockfile
///   must stay path-only for the offline build guarantee).
pub const RULES: [&str; 16] = [
    "no-unsafe",
    "unordered-container",
    "iterated-unordered",
    "wall-clock",
    "ambient-rng",
    "panic-in-lib",
    "env-read",
    "truncating-cast",
    "unchecked-arith",
    "interior-mutability",
    "cross-domain-arith",
    "cross-domain-call",
    "malformed-pragma",
    "mc-replay",
    "external-dep",
    "registry-source",
];

/// True if `rule` is one of [`RULES`].
pub fn is_known_rule(rule: &str) -> bool {
    RULES.contains(&rule)
}

/// The engine class a rule belongs to — carried per finding in the
/// `swque-lint-v4` report as `rule_class`.
pub fn rule_class(rule: &str) -> &'static str {
    match rule {
        "unordered-container" | "iterated-unordered" | "truncating-cast" | "unchecked-arith"
        | "interior-mutability" => "ast",
        "panic-in-lib" => "reachability",
        "cross-domain-arith" | "cross-domain-call" => "dataflow",
        _ => "token",
    }
}

/// The rationale and a minimal bad/good example for a rule, as printed by
/// `swque-lint --explain <rule>`. `None` for unknown rule names.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "no-unsafe" => {
            "no-unsafe [token]\n\
             The workspace is 100% safe Rust and every crate root carries\n\
             #![forbid(unsafe_code)]; this rule catches the attribute being\n\
             dropped or an `unsafe` block sneaking in through generated code.\n\
             bad:  unsafe { *ptr }\n\
             fix:  restructure with safe indexing, or don't."
        }
        "unordered-container" => {
            "unordered-container [ast]\n\
             A HashMap/HashSet exposed through the public API surface of a\n\
             deterministic crate (pub fn parameter/return, pub field). A\n\
             caller in another crate could iterate it, leaking the host hash\n\
             seed into simulated behaviour — and intra-file analysis cannot\n\
             see that caller. Private fields and locals are fine (the\n\
             iterated-unordered rule watches those for actual iteration).\n\
             bad:  pub fn pages(&self) -> &HashMap<u64, Page>\n\
             fix:  return a BTreeMap, a sorted Vec, or a probe method."
        }
        "iterated-unordered" => {
            "iterated-unordered [ast]\n\
             Actual iteration of a HashMap/HashSet (for loop, .iter(),\n\
             .keys(), .values(), .drain(), .retain(), …) in a deterministic\n\
             crate. Iteration order depends on the host hash seed, so any\n\
             simulated-path decision derived from it breaks the golden\n\
             cycle pins. Probing by key is allowed — that is the point of\n\
             the rule being AST-based.\n\
             bad:  for (addr, page) in &self.pages { … }\n\
             fix:  keep a sorted index, or collect-and-sort before use."
        }
        "wall-clock" => {
            "wall-clock [token]\n\
             std::time / Instant / SystemTime outside the two sanctioned\n\
             harness files (crates/rng/src/timer.rs, perf_gate.rs). Reading\n\
             the clock on the simulated path makes runs irreproducible.\n\
             bad:  let t0 = std::time::Instant::now();\n\
             fix:  count cycles/events, or use swque_rng::timer in harness code."
        }
        "ambient-rng" => {
            "ambient-rng [token]\n\
             thread_rng / from_entropy / rand:: paths tap host entropy; every\n\
             stochastic choice must flow through the pinned swque-rng stream\n\
             so a (kernel, parameters) pair names one trace forever.\n\
             bad:  let x = rand::thread_rng().gen::<u64>();\n\
             fix:  let x = rng.next_u64(); // swque_rng::Rng, seeded"
        }
        "panic-in-lib" => {
            "panic-in-lib [reachability]\n\
             The panic family (.unwrap(, .expect(, panic!, assert!,\n\
             assert_eq!, assert_ne!, unreachable!, todo!, unimplemented!) in\n\
             library code. Each finding is attributed to its enclosing\n\
             function and, via the workspace-wide call graph (cross-file,\n\
             cross-crate since v3), to the nearest public item that reaches\n\
             it — so the findings read as an API audit. debug_assert! is\n\
             exempt (compiled out of release binaries). Fix by\n\
             bubbling a Result, saturating, or justifying the invariant\n\
             with a reasoned pragma.\n\
             bad:  pub fn ipc(&self) -> f64 { self.div().unwrap() }\n\
             fix:  pub fn ipc(&self) -> Option<f64> { self.div() }"
        }
        "env-read" => {
            "env-read [token]\n\
             std::env outside the bench/bin harness layer. Environment knobs\n\
             are config, and config flows in through constructors — a lib\n\
             that reads the environment behaves differently per shell.\n\
             bad:  let n = std::env::var(\"N\").unwrap();\n\
             fix:  take `n` as a parameter; parse env in the bin."
        }
        "truncating-cast" => {
            "truncating-cast [ast]\n\
             A narrowing `as` cast (target u8/u16/u32/i8/i16/i32) applied to\n\
             a cycle/counter-named expression in a deterministic crate.\n\
             Counters are u64 by convention; `as u32` silently truncates\n\
             after 4.2 billion cycles and the IPC numbers drift without a\n\
             single test failing.\n\
             bad:  let c = self.cycles as u32;\n\
             fix:  keep u64, or use u32::try_from(cycles) at a checked edge."
        }
        "unchecked-arith" => {
            "unchecked-arith [ast]\n\
             Bare `-` between two counter-named operands in a deterministic\n\
             crate. Counter deltas use saturating_sub by workspace\n\
             convention: an underflow wraps to ~2^64 and poisons every\n\
             derived statistic. Additions are exempt (u64 headroom).\n\
             bad:  let delta = end_cycle - start_cycle;\n\
             fix:  let delta = end_cycle.saturating_sub(start_cycle);"
        }
        "interior-mutability" => {
            "interior-mutability [ast]\n\
             Cell/RefCell/UnsafeCell or `static mut` in a deterministic\n\
             crate. Interior mutability is a hidden write channel: state\n\
             changes that don't appear in any &mut signature defeat the\n\
             \"same inputs, same trace\" audit the whole evaluation rests on.\n\
             bad:  stats: RefCell<Stats>\n\
             fix:  take &mut self, or move the state to the caller."
        }
        "cross-domain-arith" => {
            "cross-domain-arith [dataflow]\n\
             Arithmetic, comparison, or a let-binding that mixes cycle\n\
             domains in a deterministic crate. Values are classified\n\
             (CycleStamp, CycleDelta, InstCount, IntervalIdx, ByteAddr,\n\
             RequesterId, SlotTag) from names and `// swque-domain:`\n\
             annotations; the legal algebra is stamp−stamp→delta and\n\
             stamp±delta→stamp — adding two stamps, subtracting a stamp\n\
             from a delta, or comparing a stamp against a delta is a unit\n\
             error of exactly the kind behind the PR-8 prefetch bug.\n\
             `*`/`/`/`%` erase the domain (insts/cycles is IPC, not a bug)\n\
             and unknown operands never flag.\n\
             bad:  let budget = done_at + issue_at;\n\
             fix:  let budget = done_at - issue_at; // stamp - stamp = delta"
        }
        "cross-domain-call" => {
            "cross-domain-call [dataflow]\n\
             An argument whose inferred cycle domain contradicts the\n\
             parameter's domain (seeded from its name or pinned by a\n\
             `// swque-domain:` annotation on the callee signature), at a\n\
             call site resolved through the workspace-wide call graph.\n\
             CycleStamp qualifiers are enforced here: passing a\n\
             completion-qualified stamp (`done_at`) where the callee\n\
             declares `CycleStamp(launch)` re-creates the PR-8 bug of\n\
             launching prefetches at the demand's completion cycle.\n\
             bad:  dram.request_from(requester, done_at)\n\
             fix:  dram.request_from(requester, pf_issue_at)"
        }
        "malformed-pragma" => {
            "malformed-pragma [token]\n\
             A `// swque-lint: …` pragma or `// swque-domain: …` annotation\n\
             that fails to parse — unknown rule or domain name, missing\n\
             parens, or missing reason. Silent or unexplained suppressions\n\
             (and silently ignored annotations) are what the tool exists to\n\
             prevent, so a broken comment is itself a finding rather than a\n\
             silent no-op.\n\
             bad:  // swque-lint: allow(wall-clock)\n\
             fix:  // swque-lint: allow(wall-clock) — bench timer, documented"
        }
        "mc-replay" => {
            "mc-replay [token]\n\
             A string literal starting with the `swque-mc-replay-v1` magic\n\
             fails `swque_core::replay::Replay::parse`. Replay strings are\n\
             executable counterexamples: the corpus under\n\
             `crates/mc/tests/replays/` and every inline trace in a test\n\
             must stay re-runnable, so the grammar is enforced here the\n\
             same way pragma syntax is.\n\
             bad:  \"swque-mc-replay-v1 kind=CIRC cap=x width=2 …\"\n\
             fix:  render traces with `Replay::render`; build deliberately\n\
             broken parser fixtures with `format!(\"{REPLAY_MAGIC} …\")` so\n\
             the literal itself does not carry the magic."
        }
        "external-dep" => {
            "external-dep [token]\n\
             A manifest names rand/proptest/criterion. The workspace is\n\
             hermetic: every dependency is an in-tree path crate, and the\n\
             offline build on a clean machine is the CI-enforced path.\n\
             bad:  [dev-dependencies] proptest = \"1\"\n\
             fix:  use swque_rng::prop, the in-tree property harness."
        }
        "registry-source" => {
            "registry-source [token]\n\
             Cargo.lock contains a `source =` registry entry. The lockfile\n\
             must stay path-only so `cargo build --offline` succeeds on a\n\
             checkout with no network and no ~/.cargo cache.\n\
             bad:  source = \"registry+https://github.com/rust-lang/crates.io-index\"\n\
             fix:  remove the external dependency; vendor the code in-tree."
        }
        _ => return None,
    })
}

/// One diagnostic: a rule fired at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (an entry of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Dataflow rules: the domain the offending value actually has
    /// (rendered per the annotation grammar, e.g. `CycleStamp(completion)`).
    /// Empty for other rules.
    pub domain_from: String,
    /// Dataflow rules: the domain the context expects. Empty otherwise.
    pub domain_to: String,
    /// Reachability rules: the pub-to-site hop chain (`entry:12 →
    /// helper:40 (crates/cpu/src/core.rs)`). Empty when the site is
    /// directly public, at module scope, or the rule carries no chain.
    pub chain: String,
}

impl Finding {
    /// A finding with empty structured extras (`domain_from`/`domain_to`/`chain`).
    pub fn new(rule: &'static str, file: String, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            file,
            line,
            col,
            message,
            domain_from: String::new(),
            domain_to: String::new(),
            chain: String::new(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// File lives in a test/bench/example tree (`tests/`, `benches/`,
    /// `examples/` path segment): relaxed determinism, panics allowed.
    pub test_code: bool,
    /// File is a binary target (`src/bin/…` or `src/main.rs`): harness
    /// layer, may read the environment and panic.
    pub bin: bool,
    /// Library code of a simulated-path crate: unordered containers,
    /// narrowing counter casts, and interior mutability banned.
    pub deterministic: bool,
    /// Sanctioned wall-clock site (the bench timer and the perf gate).
    pub wall_clock_allowed: bool,
    /// Sanctioned environment-read site (harness crate, bins, tests, and
    /// the bench timer).
    pub env_allowed: bool,
    /// Non-bin, non-test code under some `src/`: panic family banned.
    pub lib_code: bool,
}

/// Crates whose library code runs on the simulated path and therefore must
/// not observe host hash-seed nondeterminism. `branch` and `circuit` carry
/// no containers today but are simulated-path crates, so the ban applies
/// to them too; `swque` is the root facade. `mc` is not simulated-path but
/// its whole value is exhaustive reproducibility — the same determinism
/// contract applies to the checker itself.
const DETERMINISTIC_CRATES: [&str; 10] =
    ["core", "cpu", "mem", "isa", "workloads", "trace", "branch", "circuit", "swque", "mc"];

/// Files allowed to read the wall clock: the in-tree bench timer (the
/// workspace's only `Instant` abstraction) and the host-throughput gate.
const WALL_CLOCK_FILES: [&str; 2] =
    ["crates/rng/src/timer.rs", "crates/bench/src/bin/perf_gate.rs"];

/// Derives the rule policy for a workspace-relative path (forward-slash
/// separated, e.g. `crates/mem/src/hierarchy.rs`).
pub fn classify(rel: &str) -> Policy {
    let segs: Vec<&str> = rel.split('/').collect();
    let test_code = segs.iter().any(|s| matches!(*s, "tests" | "benches" | "examples"));
    let bin = rel.contains("src/bin/") || rel.ends_with("src/main.rs") || rel == "build.rs";
    let crate_name = if segs.first() == Some(&"crates") && segs.len() > 1 {
        segs[1]
    } else {
        "swque" // the root facade crate
    };
    let in_src = segs.iter().any(|s| *s == "src");
    let deterministic =
        DETERMINISTIC_CRATES.contains(&crate_name) && in_src && !test_code && !bin;
    let wall_clock_allowed = WALL_CLOCK_FILES.contains(&rel);
    let env_allowed =
        crate_name == "bench" || bin || test_code || rel == "crates/rng/src/timer.rs";
    let lib_code = in_src && !bin && !test_code;
    Policy { test_code, bin, deterministic, wall_clock_allowed, env_allowed, lib_code }
}

/// A parsed suppression pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pragma {
    /// Line the pragma comment sits on.
    line: u32,
    /// The rules it suppresses.
    rules: Vec<String>,
}

/// Parses the body of one `swque-lint:` comment (the text after the
/// marker). Grammar: `allow(rule[, rule]*) <sep> <reason>` where `<sep>`
/// is `—`, `–`, `-`, or `:` and `<reason>` is non-empty.
fn parse_pragma_body(body: &str) -> Result<Vec<String>, String> {
    let body = body.trim();
    let rest = body
        .strip_prefix("allow")
        .map(str::trim_start)
        .ok_or("expected `allow(rule, …)` after `swque-lint:`")?;
    let rest = rest.strip_prefix('(').ok_or("expected `(` after `allow`")?;
    let close = rest.find(')').ok_or("unclosed `allow(` rule list")?;
    let (list, tail) = rest.split_at(close);
    let mut rules = Vec::new();
    for name in list.split(',') {
        let name = name.trim();
        if name.is_empty() {
            return Err("empty rule name in allow(...)".to_string());
        }
        if !is_known_rule(name) {
            return Err(format!("unknown rule {name:?} (known: {})", RULES.join(", ")));
        }
        rules.push(name.to_string());
    }
    let mut reason = tail[1..].trim_start(); // past the ')'
    for sep in ['\u{2014}', '\u{2013}', '-', ':'] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r.trim_start();
            break;
        }
    }
    if reason.is_empty() {
        return Err("pragma needs a reason: `allow(rule) — <why>`".to_string());
    }
    Ok(rules)
}

/// Extracts pragmas from comment tokens; malformed ones become findings.
fn collect_pragmas(toks: &[Tok<'_>], rel: &str) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for t in toks {
        if !t.is_comment() {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim_start_matches('!').trim_start();
        let Some(body) = body.strip_prefix("swque-lint:") else { continue };
        match parse_pragma_body(body) {
            Ok(rules) => pragmas.push(Pragma { line: t.line, rules }),
            Err(why) => {
                findings.push(Finding::new("malformed-pragma", rel.to_string(), t.line, t.col, why));
            }
        }
    }
    (pragmas, findings)
}

/// True when `line` falls inside any of the inclusive `regions`.
fn line_in(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| a <= line && line <= b)
}

/// Inclusive line ranges of `#[cfg(test)]` items, read off the AST.
/// Determinism rules do not apply inside: test code may use `HashMap`
/// models, `unwrap`, and friends freely.
fn test_regions(ast: &Ast<'_>) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    walk_items(ast, &ast.items, false, &mut |item, in_test| {
        if in_test {
            let (start, _) = ast.pos(item.lo);
            let end = item.hi.checked_sub(1).map_or(start, |i| ast.pos(i).0);
            regions.push((start, end.max(start)));
        }
    });
    regions
}

/// The unordered container type names the container rules watch.
fn is_unordered_ty(name: &str) -> bool {
    matches!(name, "HashMap" | "HashSet")
}

/// Methods that consume a container in iteration order.
const ITER_METHODS: [&str; 10] = [
    "iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "into_keys", "into_values",
    "drain", "retain",
];

/// Idents that name cycle/instruction counters — the lexicon behind
/// `truncating-cast` and `unchecked-arith`.
fn counterish(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    ["cycle", "tick", "retired", "epoch", "insts", "instret"].iter().any(|k| l.contains(k))
}

/// Narrow integer type names for `truncating-cast`. `usize` is excluded:
/// it is 64-bit on every supported target, so `u64 as usize` is not a
/// truncation hazard there, and flagging it would bury the real signal.
fn is_narrow_int(name: &str) -> bool {
    matches!(name, "u8" | "u16" | "u32" | "i8" | "i16" | "i32")
}

/// The macro names of the panic family. `debug_assert*` is deliberately
/// absent: it compiles out of release binaries, and the paper's numbers
/// come from release builds.
const PANIC_MACROS: [&str; 7] =
    ["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

// ---------------------------------------------------------------------------
// Token-class rules.
// ---------------------------------------------------------------------------

/// The token-window rules: wall-clock, ambient RNG, env reads, `unsafe`,
/// and interior-mutability type names. These need no structure beyond
/// "is a code token" (plus the AST-derived cfg(test) regions).
fn token_rules(
    ast: &Ast<'_>,
    policy: &Policy,
    regions: &[(u32, u32)],
    rel: &str,
    out: &mut Vec<Finding>,
) {
    let text_at = |k: usize| ast.tok(k).map(|t| t.text);
    let mut push = |rule: &'static str, t: &Tok<'_>, message: String| {
        out.push(Finding::new(rule, rel.to_string(), t.line, t.col, message));
    };
    for (i, t) in ast.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = text_at(i + 1);
        let next2 = text_at(i + 2);
        let next3 = text_at(i + 3);
        match t.text {
            "unsafe" => {
                push("no-unsafe", t, "`unsafe` is banned workspace-wide".to_string());
            }
            "Instant" | "SystemTime" if !policy.wall_clock_allowed => {
                push(
                    "wall-clock",
                    t,
                    format!("`{}` outside the sanctioned timing harness", t.text),
                );
            }
            "std"
                if !policy.wall_clock_allowed
                    && next == Some(":")
                    && next2 == Some(":")
                    && next3 == Some("time") =>
            {
                push("wall-clock", t, "`std::time` outside the sanctioned timing harness".into());
            }
            "thread_rng" | "from_entropy" => {
                push(
                    "ambient-rng",
                    t,
                    format!("`{}` taps ambient entropy; seed a `swque_rng::Rng` instead", t.text),
                );
            }
            "rand" if next == Some(":") && next2 == Some(":") => {
                push("ambient-rng", t, "`rand::` path: the workspace PRNG is swque-rng".into());
            }
            "std"
                if !policy.env_allowed
                    && !line_in(regions, t.line)
                    && next == Some(":")
                    && next2 == Some(":")
                    && next3 == Some("env") =>
            {
                push("env-read", t, "`std::env` outside the bench/bin harness layer".to_string());
            }
            "Cell" | "RefCell" | "UnsafeCell"
                if policy.deterministic && !line_in(regions, t.line) =>
            {
                push(
                    "interior-mutability",
                    t,
                    format!(
                        "`{}` in a deterministic crate: hidden write channels defeat the \
                         same-inputs-same-trace audit",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }
}

/// The cooked content of a string-literal token (`"…"`, `b"…"`, `r#"…"#`)
/// with escapes resolved. `None` when the token is not a recoverable
/// string form. `\x`/`\u` escapes are kept verbatim: replay strings are
/// plain ASCII and a trace that needs them is malformed anyway.
fn str_literal_content(raw: &str) -> Option<String> {
    let rest = raw.strip_prefix('b').unwrap_or(raw);
    if let Some(rest) = rest.strip_prefix('r') {
        let hashes = rest.len() - rest.trim_start_matches('#').len();
        let rest = rest[hashes..].strip_prefix('"')?;
        let closer = format!("\"{}", "#".repeat(hashes));
        return Some(rest.strip_suffix(closer.as_str()).unwrap_or(rest).to_string());
    }
    let rest = rest.strip_prefix('"')?;
    let body = rest.strip_suffix('"').unwrap_or(rest);
    let mut out = String::new();
    let mut chars = body.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('0') => out.push('\0'),
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('\'') => out.push('\''),
            Some('\n') => {
                // Line continuation: swallow the newline and the next
                // line's leading indentation.
                while chars.peek().is_some_and(|c| c.is_whitespace()) {
                    chars.next();
                }
            }
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => {}
        }
    }
    Some(out)
}

/// `mc-replay`: every string literal that begins with the replay magic
/// must parse under the `swque-mc-replay-v1` grammar. Applies everywhere,
/// tests included — the committed counterexample corpus lives in test
/// code, and a trace that stopped parsing is a dead vector. A literal
/// holding the bare magic is a constant, not a trace, and is exempt.
fn replay_literal_rules(toks: &[Tok<'_>], rel: &str, out: &mut Vec<Finding>) {
    use swque_core::replay::{Replay, REPLAY_MAGIC};
    for t in toks {
        if t.kind != TokKind::Str {
            continue;
        }
        let Some(content) = str_literal_content(t.text) else { continue };
        let Some(rest) = content.strip_prefix(REPLAY_MAGIC) else { continue };
        if rest.is_empty() {
            continue;
        }
        if let Err(e) = Replay::parse(&content) {
            out.push(Finding::new(
                "mc-replay",
                rel.to_string(),
                t.line,
                t.col,
                format!("replay literal fails to parse: {}", e.message),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// AST-class rules.
// ---------------------------------------------------------------------------

/// Scans back from token `at` to the nearest field/param boundary (`,`,
/// `{`, `(`, `|`) after `lo`; returns the tokens of that segment as
/// `(index, text)` pairs up to and including `at`.
fn segment_before<'a>(ast: &Ast<'a>, lo: usize, at: usize) -> Vec<(usize, &'a str)> {
    let mut start = at;
    while start > lo {
        let prev = ast.text(start - 1);
        if matches!(prev, "," | "{" | "(" | "|" | ";") {
            break;
        }
        start -= 1;
    }
    (start..=at).map(|i| (i, ast.text(i))).collect()
}

/// The declared name of the field/param whose type mentions token `at`:
/// the ident directly before the first `:` of the segment.
fn segment_name<'a>(ast: &Ast<'a>, lo: usize, at: usize) -> Option<&'a str> {
    let seg = segment_before(ast, lo, at);
    seg.windows(2).find_map(|w| {
        let ((i, name), (_, colon)) = (w[0], w[1]);
        let is_ident = ast.tok(i).is_some_and(|t| t.kind == TokKind::Ident);
        (is_ident && colon == ":").then_some(name)
    })
}

/// True when the field/param segment holding token `at` carries `pub`.
fn segment_is_pub(ast: &Ast<'_>, lo: usize, at: usize) -> bool {
    segment_before(ast, lo, at).iter().any(|&(_, s)| s == "pub")
}

/// The "iteration root" of an expression: the name token a container
/// lookup resolves against. `&self.pages` → `pages`; `(m)` → `m`;
/// `map` → `map`. `None` when the expression has no stable name.
fn iter_root(e: &Expr) -> Option<usize> {
    match &e.kind {
        ExprKind::Path(segs) => segs.last().copied(),
        ExprKind::Field { name, .. } => Some(*name),
        ExprKind::Unary { expr } => iter_root(expr),
        ExprKind::Group { exprs } if exprs.len() == 1 => iter_root(&exprs[0]),
        _ => None,
    }
}

/// The container rules plus cast/arith rules — everything that needs the
/// parse tree. Only called for deterministic-crate files.
fn ast_rules(ast: &Ast<'_>, rel: &str, out: &mut Vec<Finding>) {
    // Pass 1: every name known to hold an unordered container — private
    // fields, fn params, and let-bindings (by type annotation or by a
    // `HashMap::…`/`HashSet::…` constructor initializer).
    let mut unordered_names: Vec<String> = Vec::new();
    let mut record = |name: &str| {
        if !name.is_empty() && !unordered_names.iter().any(|n| n == name) {
            unordered_names.push(name.to_string());
        }
    };
    walk_items(ast, &ast.items, false, &mut |item, in_test| {
        if in_test {
            return;
        }
        match &item.kind {
            ItemKind::Adt { .. } => {
                for i in item.lo..item.hi {
                    if is_unordered_ty(ast.text(i)) {
                        if let Some(name) = segment_name(ast, item.lo, i) {
                            record(name);
                        }
                    }
                }
            }
            ItemKind::Fn { sig, .. } => {
                for i in sig.0..sig.1 {
                    if is_unordered_ty(ast.text(i)) {
                        if let Some(name) = segment_name(ast, sig.0, i) {
                            record(name);
                        }
                    }
                }
            }
            _ => {}
        }
    });
    walk_exprs(ast, &ast.items, &mut |e, cx| {
        if cx.in_cfg_test {
            return;
        }
        if let ExprKind::Let { name: Some(n), ty, init } = &e.kind {
            let ty_unordered = ty
                .map(|(a, b)| (a..b).any(|i| is_unordered_ty(ast.text(i))))
                .unwrap_or(false);
            let init_unordered = init.as_deref().is_some_and(|init| {
                let root = match &init.kind {
                    ExprKind::Call { callee, .. } => callee,
                    _ => init,
                };
                matches!(&root.kind, ExprKind::Path(segs)
                    if segs.iter().any(|&s| is_unordered_ty(ast.text(s))))
            });
            if ty_unordered || init_unordered {
                let name = ast.text(*n).to_string();
                if !name.is_empty() && !unordered_names.iter().any(|x| *x == name) {
                    unordered_names.push(name);
                }
            }
        }
    });

    // Pass 2a: public-API escape (`unordered-container`). A pub fn whose
    // signature mentions the type, a pub field of a pub struct, or any
    // variant of a pub enum: a caller outside this file could iterate it.
    walk_items(ast, &ast.items, false, &mut |item, in_test| {
        if in_test || !item.vis_pub {
            return;
        }
        let mut fire = |i: usize, surface: &str| {
            let (line, col) = ast.pos(i);
            out.push(Finding::new(
                "unordered-container",
                rel.to_string(),
                line,
                col,
                format!(
                    "`{}` escapes through a public {surface} in a deterministic crate: a \
                     caller could iterate it in host hash order; expose a BTreeMap/BTreeSet, \
                     a sorted Vec, or a probe method instead",
                    ast.text(i)
                ),
            ));
        };
        match &item.kind {
            ItemKind::Fn { sig, .. } => {
                for i in sig.0..sig.1 {
                    if is_unordered_ty(ast.text(i)) {
                        fire(i, "fn signature");
                    }
                }
            }
            ItemKind::Adt { .. } => {
                let is_enum = (item.lo..item.hi).any(|i| ast.text(i) == "enum");
                for i in item.lo..item.hi {
                    if is_unordered_ty(ast.text(i))
                        && (is_enum || segment_is_pub(ast, item.lo, i))
                    {
                        fire(i, if is_enum { "enum variant" } else { "struct field" });
                    }
                }
            }
            _ => {}
        }
    });

    // Pass 2b: expression rules — iteration, narrowing casts, bare
    // counter subtraction.
    walk_exprs(ast, &ast.items, &mut |e, cx| {
        if cx.in_cfg_test {
            return;
        }
        match &e.kind {
            ExprKind::For { iter, .. } => {
                if let Some(root) = iter_root(iter) {
                    if unordered_names.iter().any(|n| n == ast.text(root)) {
                        let (line, col) = ast.pos(root);
                        out.push(Finding::new(
                            "iterated-unordered",
                            rel.to_string(),
                            line,
                            col,
                            format!(
                                "`for` loop iterates `{}` (a HashMap/HashSet) in a \
                                 deterministic crate: iteration order depends on the host \
                                 hash seed",
                                ast.text(root)
                            ),
                        ));
                    }
                }
            }
            ExprKind::MethodCall { recv, name, .. }
                if ITER_METHODS.contains(&ast.text(*name)) =>
            {
                if let Some(root) = iter_root(recv) {
                    if unordered_names.iter().any(|n| n == ast.text(root)) {
                        let (line, col) = ast.pos(*name);
                        out.push(Finding::new(
                            "iterated-unordered",
                            rel.to_string(),
                            line,
                            col,
                            format!(
                                "`.{}()` consumes `{}` (a HashMap/HashSet) in iteration \
                                 order in a deterministic crate",
                                ast.text(*name),
                                ast.text(root)
                            ),
                        ));
                    }
                }
            }
            ExprKind::Cast { expr, ty } => {
                let narrow = (ty.0..ty.1).find(|&i| is_narrow_int(ast.text(i)));
                let counter = (expr.lo..expr.hi).find(|&i| {
                    ast.tok(i).is_some_and(|t| t.kind == TokKind::Ident)
                        && counterish(ast.text(i))
                });
                if let (Some(ty_tok), Some(src_tok)) = (narrow, counter) {
                    let (line, col) = ast.pos(expr.lo);
                    out.push(Finding::new(
                        "truncating-cast",
                        rel.to_string(),
                        line,
                        col,
                        format!(
                            "`{} as {}` narrows a counter-typed expression in a \
                             deterministic crate; keep u64 or use try_from at a checked edge",
                            ast.text(src_tok),
                            ast.text(ty_tok)
                        ),
                    ));
                }
            }
            ExprKind::Binary { op: "-", op_tok, lhs, rhs } => {
                let counter_leaf = |side: &Expr| {
                    (side.lo..side.hi).any(|i| {
                        ast.tok(i).is_some_and(|t| t.kind == TokKind::Ident)
                            && counterish(ast.text(i))
                    })
                };
                if counter_leaf(lhs) && counter_leaf(rhs) {
                    let (line, col) = ast.pos(*op_tok);
                    out.push(Finding::new(
                        "unchecked-arith",
                        rel.to_string(),
                        line,
                        col,
                        "bare `-` between counters in a deterministic crate; the \
                         workspace convention for counter deltas is `saturating_sub`"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    });

    // `static mut` — the item-level half of interior-mutability.
    walk_items(ast, &ast.items, false, &mut |item, in_test| {
        if in_test {
            return;
        }
        if let ItemKind::Static { mutable: true } = item.kind {
            let (line, col) = ast.pos(item.lo);
            out.push(Finding::new(
                "interior-mutability",
                rel.to_string(),
                line,
                col,
                "`static mut` in a deterministic crate".to_string(),
            ));
        }
    });
}

// ---------------------------------------------------------------------------
// The panic-reachability pass (workspace-wide since v3).
// ---------------------------------------------------------------------------

/// The panic-family pass for one unit of the program: find every site
/// over the token stream (exact parity with the PR-4 token rule, so no
/// site is lost to a parse degradation), then attribute each to its
/// enclosing function and the nearest public item via the workspace-wide
/// call graph of [`crate::resolve`] — the chain may cross files and
/// crates, and foreign hops carry their file in the rendered chain.
fn panic_rules(
    prog: &Program<'_>,
    unit: usize,
    regions: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    let ast = &prog.units[unit].ast;
    let rel = prog.units[unit].rel;
    let text_at = |k: usize| ast.tok(k).map(|t| t.text);
    for (i, t) in ast.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || line_in(regions, t.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(text_at);
        let next = text_at(i + 1);
        let what = match t.text {
            "unwrap" | "expect" if prev == Some(".") && next == Some("(") => {
                format!("`.{}(`", t.text)
            }
            m if PANIC_MACROS.contains(&m) && next == Some("!") => format!("`{m}!`"),
            _ => continue,
        };
        let mut chain_text = String::new();
        let attribution = match prog.enclosing_fn(unit, i) {
            None => " at module scope".to_string(),
            Some(e) => match resolve::path_to_pub(prog, e) {
                Some(chain) if chain.len() == 1 => {
                    format!(" in pub fn `{}`", prog.fns[e].name)
                }
                Some(chain) => {
                    chain_text = resolve::format_chain(prog, &chain, unit);
                    format!(
                        " in `{}`, reachable from pub fn `{}` via {}",
                        prog.fns[e].name, prog.fns[chain[0]].name, chain_text
                    )
                }
                None => format!(
                    " in `{}` (no public caller found in the workspace)",
                    prog.fns[e].name
                ),
            },
        };
        let mut f = Finding::new(
            "panic-in-lib",
            rel.to_string(),
            t.line,
            t.col,
            format!(
                "{what} in library code{attribution}; bubble a Result, saturate, or justify \
                 the invariant with a pragma"
            ),
        );
        f.chain = chain_text;
        out.push(f);
    }
}

// ---------------------------------------------------------------------------
// Program entry points.
// ---------------------------------------------------------------------------

/// Scans a set of Rust sources as **one program**: per-file token/AST
/// rules, then the workspace passes (cross-file panic reachability and
/// the cycle-domain dataflow pass), then per-file pragma suppression.
/// Returns the surviving findings (sorted by file, line, col, rule) plus
/// the number of findings pragmas suppressed.
pub fn scan_sources(sources: &[(String, String)]) -> (Vec<Finding>, usize) {
    let prog = Program::build(sources);
    let mut raw: Vec<Finding> = Vec::new();
    // Malformed pragmas/annotations bypass suppression: no pragma may
    // suppress the finding that reports a broken pragma.
    let mut findings: Vec<Finding> = Vec::new();
    let mut pragmas_by_file: std::collections::BTreeMap<&str, Vec<Pragma>> = Default::default();
    let mut annots: Vec<Vec<domains::Annot>> = Vec::new();

    for (u, (rel, src)) in sources.iter().enumerate() {
        let policy = classify(rel);
        let raw_toks = lex(src);
        let (pragmas, mut malformed) = collect_pragmas(&raw_toks, rel);
        let (file_annots, mut bad_annots) = domains::collect_annotations(&raw_toks, rel);
        findings.append(&mut malformed);
        findings.append(&mut bad_annots);
        pragmas_by_file.insert(rel.as_str(), pragmas);
        annots.push(file_annots);

        let ast = &prog.units[u].ast;
        let regions = test_regions(ast);
        token_rules(ast, &policy, &regions, rel, &mut raw);
        replay_literal_rules(&raw_toks, rel, &mut raw);
        if policy.deterministic {
            ast_rules(ast, rel, &mut raw);
        }
        if policy.lib_code {
            panic_rules(&prog, u, &regions, &mut raw);
        }
    }

    let sigs = domains::fn_sigs(&prog, &annots);
    domains::domain_rules(&prog, &sigs, &annots, &mut raw);

    // One finding per (rule, file, line): a `use std::time::Instant`
    // should read as one diagnostic, not three.
    raw.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
    });
    raw.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);

    let mut suppressed = 0usize;
    for f in raw {
        let allowed = pragmas_by_file.get(f.file.as_str()).is_some_and(|pragmas| {
            pragmas.iter().any(|p| {
                (p.line == f.line || p.line + 1 == f.line) && p.rules.iter().any(|r| r == f.rule)
            })
        });
        if allowed {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
    });
    (findings, suppressed)
}

/// Scans one Rust source file as a single-unit program. The fixture
/// suite runs through this wrapper; its semantics are [`scan_sources`]
/// over one file (so reachability chains and domain resolution see only
/// this file, as in v2).
pub fn scan_rust(rel: &str, src: &str) -> (Vec<Finding>, usize) {
    let sources = vec![(rel.to_string(), src.to_string())];
    scan_sources(&sources)
}

/// Scans a manifest (`Cargo.toml`) or lockfile (`Cargo.lock`) with the
/// hermeticity line rules that used to live as `grep`s in `verify.sh`.
pub fn scan_manifest(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lock = rel.ends_with("Cargo.lock");
    for (ln, line) in src.lines().enumerate() {
        let line_no = ln as u32 + 1;
        let trimmed = line.trim_start();
        let col = (line.chars().count() - trimmed.chars().count()) as u32 + 1;
        if lock {
            if trimmed.starts_with("source =") {
                findings.push(Finding::new(
                    "registry-source",
                    rel.to_string(),
                    line_no,
                    col,
                    "Cargo.lock names a registry source; the lockfile must stay \
                     path-only for the offline build"
                        .to_string(),
                ));
            }
            continue;
        }
        for dep in ["rand", "proptest", "criterion"] {
            let boundary_ok = trimmed
                .strip_prefix(dep)
                .is_some_and(|rest| !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_'));
            if boundary_ok {
                findings.push(Finding::new(
                    "external-dep",
                    rel.to_string(),
                    line_no,
                    col,
                    format!(
                        "manifest names external dependency `{dep}`; the workspace is hermetic"
                    ),
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classify_matrix() {
        let det = classify("crates/mem/src/hierarchy.rs");
        assert!(det.deterministic && det.lib_code && !det.env_allowed);
        let bench = classify("crates/bench/src/harness.rs");
        assert!(!bench.deterministic && bench.env_allowed && bench.lib_code);
        let bin = classify("crates/bench/src/bin/perf_gate.rs");
        assert!(bin.bin && bin.wall_clock_allowed && !bin.lib_code);
        let timer = classify("crates/rng/src/timer.rs");
        assert!(timer.wall_clock_allowed && timer.env_allowed && timer.lib_code);
        let test = classify("crates/core/tests/proptest_queues.rs");
        assert!(test.test_code && !test.deterministic && test.env_allowed);
        let root = classify("src/lib.rs");
        assert!(root.deterministic && root.lib_code);
        let example = classify("examples/quickstart.rs");
        assert!(example.test_code, "examples are harness-class");
        let lint = classify("crates/lint/src/rules.rs");
        assert!(!lint.deterministic && lint.lib_code && !lint.env_allowed);
    }

    #[test]
    fn every_rule_has_a_class_and_an_explanation() {
        for rule in RULES {
            assert!(
                matches!(rule_class(rule), "token" | "ast" | "reachability" | "dataflow"),
                "{rule}: bad class"
            );
            let text = explain(rule).unwrap_or_else(|| panic!("{rule}: no explanation"));
            assert!(text.starts_with(rule), "{rule}: explanation must lead with the rule name");
            assert!(text.contains("bad:") && text.contains("fix:"), "{rule}: needs an example");
        }
        assert!(explain("not-a-rule").is_none());
        assert_eq!(rule_class("panic-in-lib"), "reachability");
        assert_eq!(rule_class("iterated-unordered"), "ast");
        assert_eq!(rule_class("wall-clock"), "token");
        assert_eq!(rule_class("cross-domain-arith"), "dataflow");
        assert_eq!(rule_class("cross-domain-call"), "dataflow");
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        let (findings, _) = scan_rust("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn dedupe_one_finding_per_line() {
        let src = "use std::time::Instant;\n";
        let (findings, _) = scan_rust("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "wall-clock");
    }

    #[test]
    fn pragma_suppresses_own_and_next_line() {
        let above = "// swque-lint: allow(wall-clock) — fixture\nuse std::time::Instant;\n";
        let (f, s) = scan_rust("crates/core/src/x.rs", above);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s, 1);
        let trailing = "use std::time::Instant; // swque-lint: allow(wall-clock) — fixture\n";
        let (f, s) = scan_rust("crates/core/src/x.rs", trailing);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s, 1);
    }

    #[test]
    fn pragma_does_not_leak_two_lines_down() {
        let src = "// swque-lint: allow(wall-clock) — fixture\n\nuse std::time::Instant;\n";
        let (f, _) = scan_rust("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn words_in_strings_and_comments_do_not_fire() {
        let src = "const X: &str = \"HashMap Instant unsafe\"; // HashMap\n/* unsafe */\n";
        let (f, _) = scan_rust("crates/core/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn expect_attribute_is_not_a_panic() {
        // #[expect(...)] has no leading dot; only `.expect(` fires.
        let src = "#[expect(dead_code)]\nfn f() {}\n";
        let (f, _) = scan_rust("crates/core/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn probed_private_hashmap_is_clean() {
        // The PR-4 engine flagged every mention; the AST engine only flags
        // public escape or actual iteration. A probed private field is the
        // legitimate use the old rule punished.
        let src = "use std::collections::HashMap;\n\
                   struct M { pages: HashMap<u64, u8> }\n\
                   impl M {\n\
                       fn read(&self, a: u64) -> Option<u8> { self.pages.get(&a).copied() }\n\
                   }\n";
        let (f, _) = scan_rust("crates/isa/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pub_escape_fires_unordered_container() {
        let sig = "use std::collections::HashMap;\n\
                   pub fn dump(m: &HashMap<u64, u8>) -> usize { m.len() }\n";
        let (f, _) = scan_rust("crates/isa/src/x.rs", sig);
        assert_eq!(rules_fired(&f), ["unordered-container"], "{f:?}");
        let field = "use std::collections::HashMap;\n\
                     pub struct M { pub pages: HashMap<u64, u8> }\n";
        let (f, _) = scan_rust("crates/isa/src/x.rs", field);
        assert_eq!(rules_fired(&f), ["unordered-container"], "{f:?}");
        // Private field of a pub struct: no escape.
        let private = "use std::collections::HashMap;\n\
                       pub struct M { pages: HashMap<u64, u8> }\n";
        let (f, _) = scan_rust("crates/isa/src/x.rs", private);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn iteration_fires_iterated_unordered() {
        let m = "use std::collections::HashMap;\n\
                 struct M { pages: HashMap<u64, u8> }\n\
                 impl M {\n\
                     fn sum(&self) -> u64 { let mut s = 0; for v in self.pages.values() { s += u64::from(*v); } s }\n\
                 }\n";
        let (f, _) = scan_rust("crates/isa/src/x.rs", m);
        assert_eq!(rules_fired(&f), ["iterated-unordered"], "{f:?}");
        let local = "fn f() {\n\
                     let m = std::collections::HashMap::new();\n\
                     for (k, v) in &m { drop((k, v)); }\n\
                     }\n";
        let (f, _) = scan_rust("crates/core/src/x.rs", local);
        assert_eq!(rules_fired(&f), ["iterated-unordered"], "{f:?}");
    }

    #[test]
    fn truncating_cast_fires_on_counters_only() {
        let bad = "fn f(cycles: u64) -> u32 { cycles as u32 }\n";
        let (f, _) = scan_rust("crates/cpu/src/x.rs", bad);
        assert_eq!(rules_fired(&f), ["truncating-cast"], "{f:?}");
        // Widening, or a non-counter name: clean.
        let ok = "fn f(cycles: u32) -> u64 { cycles as u64 }\nfn g(mask: u64) -> u8 { mask as u8 }\n";
        let (f, _) = scan_rust("crates/cpu/src/x.rs", ok);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unchecked_arith_fires_on_counter_subtraction() {
        let bad = "fn f(end_cycle: u64, start_cycle: u64) -> u64 { end_cycle - start_cycle }\n";
        let (f, _) = scan_rust("crates/cpu/src/x.rs", bad);
        assert_eq!(rules_fired(&f), ["unchecked-arith"], "{f:?}");
        let ok = "fn f(end_cycle: u64, start_cycle: u64) -> u64 { end_cycle.saturating_sub(start_cycle) }\n\
                  fn g(hi: u64, lo: u64) -> u64 { hi - lo }\n";
        let (f, _) = scan_rust("crates/cpu/src/x.rs", ok);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn interior_mutability_fires_in_deterministic_crates_only() {
        let bad = "use std::cell::RefCell;\nstruct S { x: RefCell<u64> }\n";
        let (f, _) = scan_rust("crates/core/src/x.rs", bad);
        assert!(rules_fired(&f).iter().all(|&r| r == "interior-mutability"), "{f:?}");
        assert!(!f.is_empty());
        // The lint crate itself is not deterministic-class.
        let (f, _) = scan_rust("crates/lint/src/x.rs", bad);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_reachability_names_the_public_entry() {
        let src = "fn inner(x: Option<u64>) -> u64 { x.unwrap() }\n\
                   fn mid(x: Option<u64>) -> u64 { inner(x) }\n\
                   pub fn entry(x: Option<u64>) -> u64 { mid(x) }\n";
        let (f, _) = scan_rust("crates/cpu/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "panic-in-lib");
        assert!(f[0].message.contains("reachable from pub fn `entry`"), "{}", f[0].message);
        assert!(f[0].message.contains("entry:3"), "{}", f[0].message);
        assert!(f[0].message.contains("inner"), "{}", f[0].message);
    }

    #[test]
    fn panic_in_pub_fn_and_unreachable_fn_are_labelled() {
        let direct = "pub fn f(x: Option<u64>) -> u64 { x.expect(\"set\") }\n";
        let (f, _) = scan_rust("crates/cpu/src/x.rs", direct);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("in pub fn `f`"), "{}", f[0].message);
        let dead = "fn orphan() { panic!(\"boom\") }\n";
        let (f, _) = scan_rust("crates/cpu/src/x.rs", dead);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no public caller"), "{}", f[0].message);
    }

    #[test]
    fn assert_family_counts_but_debug_assert_does_not() {
        let src = "pub fn f(a: u64, b: u64) {\n\
                       assert_eq!(a, b);\n\
                       debug_assert!(a <= b);\n\
                   }\n";
        let (f, _) = scan_rust("crates/cpu/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`assert_eq!`"), "{}", f[0].message);
    }

    #[test]
    fn manifest_rules_fire_with_word_boundary() {
        let toml = "[dependencies]\nrandomize = \"1\"\nrand = \"0.8\"\n";
        let f = scan_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("external-dep", 3));
        let lock = "[[package]]\nname = \"x\"\nsource = \"registry+https://x\"\n";
        let f = scan_manifest("Cargo.lock", lock);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "registry-source");
    }

    #[test]
    fn malformed_pragmas_are_findings() {
        for src in [
            "// swque-lint: allow(wall-clock)\n",     // no reason
            "// swque-lint: allow(not-a-rule) — x\n", // unknown rule
            "// swque-lint: allow wall-clock — x\n",  // no parens
        ] {
            let (f, _) = scan_rust("crates/core/src/x.rs", src);
            assert_eq!(f.len(), 1, "{src:?} -> {f:?}");
            assert_eq!(f[0].rule, "malformed-pragma");
        }
    }
}
