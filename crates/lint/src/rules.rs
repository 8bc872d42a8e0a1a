//! The determinism/hermeticity rule engine.
//!
//! Since PR 5 the engine is AST-driven: every file is parsed by
//! [`crate::parser`] (a total recursive-descent pass over the
//! [`crate::lexer`] token stream), so rules see *structure* — what is
//! cast, what is subtracted, which function a panic lives in — instead
//! of token windows. Rules still honour a per-file **policy** derived
//! from the file's workspace path (see [`Policy`] and DESIGN.md §8.5 for
//! the crate classes), and findings can be suppressed with an explicit,
//! reasoned pragma:
//!
//! ```text
//! // swque-lint: allow(panic-in-lib) — documented `# Panics` precondition
//! ```
//!
//! A pragma suppresses matching findings on its own line and on the line
//! directly below it (so both trailing and preceding-line styles work).
//! A pragma with an unknown rule name or a missing reason is itself a
//! finding (`malformed-pragma`): silent or unexplained suppressions are
//! exactly what the tool exists to prevent.
//!
//! Rules come in three classes (reported per finding as `rule_class`):
//!
//! * **token** — pattern over the lexed token stream (pragma syntax,
//!   replay literals, manifest hygiene). These need no structure.
//! * **ast** — judgement over parsed structure: is this `as` cast
//!   *narrowing* a cycle counter? Is this `-` a bare difference of two
//!   counters?
//! * **reachability** — the `panic-in-lib` pass walks the workspace-wide
//!   call graph of [`crate::resolve`] and attributes every panic site to
//!   the public item that reaches it — across files and crates since v3 —
//!   so the finding list reads as an API audit rather than a grep dump.
//!
//! Since v3 the engine scans the workspace as **one program**: every file
//! is parsed into a [`crate::resolve::Program`], per-file passes run per
//! unit, and the reachability pass runs over the whole model.
//! [`scan_rust`] remains as the one-file wrapper the fixture suite
//! exercises.
//!
//! The generic determinism rules (no `unsafe`, no host clock, no
//! hash-order containers, no interior mutability, no environment reads)
//! are rustc's and clippy's, configured by the `clippy.toml` files and
//! gated in `scripts/verify.sh`; cycle domains are types
//! (`swque_core::cycle`), so rustc owns them too. This engine keeps only
//! what neither expresses (DESIGN.md §8.4).

use crate::lexer::{lex, Tok, TokKind};
use crate::parser::{walk_exprs, walk_items, Ast, Expr, ExprKind};
use crate::resolve::{self, Program};

/// Every rule the analyzer knows, in report order.
///
/// * `panic-in-lib` — the panic family (`.unwrap(` / `.expect(` /
///   `panic!` / `assert!` / `assert_eq!` / `assert_ne!` /
///   `unreachable!` / `todo!` / `unimplemented!`) in non-test, non-bin
///   library code, attributed to the nearest public item via the
///   intra-file call graph. `debug_assert!` is exempt: it compiles out
///   of the release binaries that produce the paper's numbers.
/// * `truncating-cast` — a narrowing `as` cast (`u8`/`u16`/`u32`/`i8`/
///   `i16`/`i32` target) applied to a cycle/counter-named expression in
///   a deterministic crate: silent truncation of a 64-bit counter is
///   exactly the accounting bug that distorts IPC conclusions.
/// * `unchecked-arith` — bare `-` between two counter-named operands in
///   a deterministic crate; the workspace convention for counter deltas
///   is `saturating_sub` (an underflow wraps to ~2^64 and poisons every
///   statistic downstream).
/// * `malformed-pragma` — a `swque-lint:` pragma that fails to parse.
/// * `mc-replay` — a string literal that begins with the
///   `swque-mc-replay-v1` magic but fails `Replay::parse`. Replay
///   strings are executable counterexamples; a committed trace that no
///   longer parses is a dead test vector, so the grammar is enforced at
///   lint time, the same way pragmas are.
/// * `external-dep` — `rand`/`proptest`/`criterion` named in a manifest.
/// * `registry-source` — a `source =` entry in `Cargo.lock` (the lockfile
///   must stay path-only for the offline build guarantee).
pub const RULES: [&str; 7] = [
    "panic-in-lib",
    "truncating-cast",
    "unchecked-arith",
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
/// `swque-lint-v5` report as `rule_class`.
pub fn rule_class(rule: &str) -> &'static str {
    match rule {
        "truncating-cast" | "unchecked-arith" => "ast",
        "panic-in-lib" => "reachability",
        _ => "token",
    }
}

/// The rationale and a minimal bad/good example for a rule, as printed by
/// `swque-lint --explain <rule>`. `None` for unknown rule names.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
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
        "malformed-pragma" => {
            "malformed-pragma [token]\n\
             A `// swque-lint: …` pragma that fails to parse — unknown rule\n\
             name, missing parens, or missing reason. Silent or unexplained\n\
             suppressions are what the tool exists to prevent, so a broken\n\
             pragma is itself a finding rather than a silent no-op.\n\
             bad:  // swque-lint: allow(panic-in-lib)\n\
             fix:  // swque-lint: allow(panic-in-lib) — documented `# Panics` precondition"
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
    /// Reachability rules: the pub-to-site hop chain (`entry:12 →
    /// helper:40 (crates/cpu/src/core.rs)`). Empty when the site is
    /// directly public, at module scope, or the rule carries no chain.
    pub chain: String,
}

impl Finding {
    /// A finding with an empty `chain`.
    pub fn new(rule: &'static str, file: String, line: u32, col: u32, message: String) -> Finding {
        Finding { rule, file, line, col, message, chain: String::new() }
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
    /// layer, may panic.
    pub bin: bool,
    /// Library code of a simulated-path crate: narrowing counter casts and
    /// bare counter subtraction banned.
    pub deterministic: bool,
    /// Non-bin, non-test code under some `src/`: panic family banned.
    pub lib_code: bool,
}

/// Crates whose library code runs on the simulated path, where a truncated
/// or wrapped counter corrupts every figure. `swque` is
/// the root facade. `mc` is not simulated-path but its whole value is
/// exhaustive reproducibility — the same contract applies to the checker
/// itself. Each of them resolves to the strict root `clippy.toml`; the
/// `clippy_configs_match_crate_classes` test keeps the two tools in step.
const DETERMINISTIC_CRATES: [&str; 10] =
    ["core", "cpu", "mem", "isa", "workloads", "trace", "branch", "circuit", "swque", "mc"];

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
    let in_src = segs.contains(&"src");
    let deterministic =
        DETERMINISTIC_CRATES.contains(&crate_name) && in_src && !test_code && !bin;
    let lib_code = in_src && !bin && !test_code;
    Policy { test_code, bin, deterministic, lib_code }
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

/// The cast and arithmetic rules — everything that needs the parse tree.
/// Only called for deterministic-crate files.
fn ast_rules(ast: &Ast<'_>, rel: &str, out: &mut Vec<Finding>) {
    walk_exprs(ast, &ast.items, &mut |e, cx| {
        if cx.in_cfg_test {
            return;
        }
        match &e.kind {
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
/// rules and cross-file panic reachability, then per-file pragma
/// suppression.
/// Returns the surviving findings (sorted by file, line, col, rule) plus
/// the number of findings pragmas suppressed.
pub fn scan_sources(sources: &[(String, String)]) -> (Vec<Finding>, usize) {
    let prog = Program::build(sources);
    let mut raw: Vec<Finding> = Vec::new();
    // Malformed pragmas bypass suppression: no pragma may suppress the
    // finding that reports a broken pragma.
    let mut findings: Vec<Finding> = Vec::new();
    let mut pragmas_by_file: std::collections::BTreeMap<&str, Vec<Pragma>> = Default::default();

    for (u, (rel, src)) in sources.iter().enumerate() {
        let policy = classify(rel);
        let raw_toks = lex(src);
        let (pragmas, mut malformed) = collect_pragmas(&raw_toks, rel);
        findings.append(&mut malformed);
        pragmas_by_file.insert(rel.as_str(), pragmas);

        let ast = &prog.units[u].ast;
        let regions = test_regions(ast);
        replay_literal_rules(&raw_toks, rel, &mut raw);
        if policy.deterministic {
            ast_rules(ast, rel, &mut raw);
        }
        if policy.lib_code {
            panic_rules(&prog, u, &regions, &mut raw);
        }
    }


    // One finding per (rule, file, line): `a.unwrap() + b.unwrap()`
    // should read as one diagnostic, not two.
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
/// over one file (so reachability chains see only this file, as in v2).
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
        assert!(det.deterministic && det.lib_code);
        let bench = classify("crates/bench/src/harness.rs");
        assert!(!bench.deterministic && bench.lib_code);
        let bin = classify("crates/bench/src/bin/fig09.rs");
        assert!(bin.bin && !bin.lib_code);
        let rng = classify("crates/rng/src/lib.rs");
        assert!(!rng.deterministic && rng.lib_code);
        let test = classify("crates/core/tests/proptest_queues.rs");
        assert!(test.test_code && !test.deterministic);
        let root = classify("src/lib.rs");
        assert!(root.deterministic && root.lib_code);
        let example = classify("examples/quickstart.rs");
        assert!(example.test_code, "examples are harness-class");
        let lint = classify("crates/lint/src/rules.rs");
        assert!(!lint.deterministic && lint.lib_code);
    }

    /// The directory of the first `clippy.toml` clippy would load for a
    /// crate at `dir`: it searches the crate directory, then each parent.
    fn clippy_config_dir(root: &std::path::Path, dir: &std::path::Path) -> std::path::PathBuf {
        let mut d = dir;
        loop {
            if d.join("clippy.toml").is_file() || d.join(".clippy.toml").is_file() || d == root {
                return d.to_path_buf();
            }
            d = d.parent().expect("crate directories sit below the workspace root");
        }
    }

    #[test]
    fn clippy_configs_match_crate_classes() {
        // clippy owns the generic determinism bans; swque-lint owns the
        // counter rules. A crate gets the harness
        // clippy.toml exactly when swque-lint treats its library code as
        // harness, so neither tool relaxes a crate the other keeps strict.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let root = root.canonicalize().unwrap();
        let strict = std::fs::read_to_string(root.join("clippy.toml")).unwrap();
        assert!(strict.contains("std::collections::HashMap"), "root clippy.toml is the strict one");
        let mut names: Vec<String> = std::fs::read_dir(root.join("crates"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert!(names.len() >= DETERMINISTIC_CRATES.len(), "{names:?}");
        for name in &names {
            let dir = root.join("crates").join(name);
            let config = clippy_config_dir(&root, &dir);
            let harness = config == dir;
            if harness {
                let own = std::fs::read_to_string(dir.join("clippy.toml")).unwrap();
                assert!(own.contains("std::time::Instant"), "{name}: harness bans the clock");
                assert!(!own.contains("std::collections::HashMap"), "{name}: harness config");
            } else {
                assert_eq!(config, root, "{name}: resolves to the strict root clippy.toml");
            }
            let lint_harness = !classify(&format!("crates/{name}/src/lib.rs")).deterministic;
            // rng is the one exception: its library code carries the
            // property harness, a test-support layer outside swque-lint's
            // deterministic class, but its PRNG seeds every simulated
            // stream, so clippy keeps it strict: a hash order or an
            // environment read there would move every trace.
            if name == "rng" {
                assert!(lint_harness && !harness, "rng: strict under clippy only");
                continue;
            }
            assert_eq!(harness, lint_harness, "{name}: clippy.toml placement vs classify");
        }
        for name in DETERMINISTIC_CRATES {
            let dir = if name == "swque" { root.clone() } else { root.join("crates").join(name) };
            assert!(dir.is_dir(), "{name}: no such crate");
            assert_eq!(clippy_config_dir(&root, &dir), root, "{name}: strict root config");
        }
    }

    #[test]
    fn every_rule_has_a_class_and_an_explanation() {
        for rule in RULES {
            assert!(
                matches!(rule_class(rule), "token" | "ast" | "reachability"),
                "{rule}: bad class"
            );
            let text = explain(rule).unwrap_or_else(|| panic!("{rule}: no explanation"));
            assert!(text.starts_with(rule), "{rule}: explanation must lead with the rule name");
            assert!(text.contains("bad:") && text.contains("fix:"), "{rule}: needs an example");
        }
        assert!(explain("not-a-rule").is_none());
        assert_eq!(rule_class("panic-in-lib"), "reachability");
        assert_eq!(rule_class("truncating-cast"), "ast");
        assert_eq!(rule_class("mc-replay"), "token");
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        let (findings, _) = scan_rust("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn dedupe_one_finding_per_line() {
        let src = "pub fn f(a: Option<u8>, b: Option<u8>) -> u8 { a.unwrap() + b.unwrap() }\n";
        let (findings, _) = scan_rust("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "panic-in-lib");
    }

    #[test]
    fn pragma_suppresses_own_and_next_line() {
        let above = "// swque-lint: allow(panic-in-lib) — fixture\npub fn f() { panic!() }\n";
        let (f, s) = scan_rust("crates/core/src/x.rs", above);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s, 1);
        let trailing = "pub fn f() { panic!() } // swque-lint: allow(panic-in-lib) — fixture\n";
        let (f, s) = scan_rust("crates/core/src/x.rs", trailing);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s, 1);
    }

    #[test]
    fn pragma_does_not_leak_two_lines_down() {
        let src = "// swque-lint: allow(panic-in-lib) — fixture\n\npub fn f() { panic!() }\n";
        let (f, _) = scan_rust("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn words_in_strings_and_comments_do_not_fire() {
        let src = "const X: &str = \"x.unwrap() panic!()\"; // x.unwrap()\n/* panic!() */\n";
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
            "// swque-lint: allow(panic-in-lib)\n",    // no reason
            "// swque-lint: allow(wall-clock) — x\n",  // unknown rule: clippy owns it
            "// swque-lint: allow panic-in-lib — x\n", // no parens
        ] {
            let (f, _) = scan_rust("crates/core/src/x.rs", src);
            assert_eq!(f.len(), 1, "{src:?} -> {f:?}");
            assert_eq!(f[0].rule, "malformed-pragma");
        }
    }
}
