//! swque-rng property tests for the lexer and the pragma parser.
//!
//! The lexer is the analyzer's trusted base: if it panics or drops text,
//! every rule built on it is worthless. Three properties pin it down:
//!
//! 1. **Totality** — random "token soup" (adversarial fragments: stray
//!    quotes, comment openers, hash runs, unicode) never panics and every
//!    produced span is exact.
//! 2. **Nesting round-trips** — randomly nested block comments and raw
//!    strings with random hash counts lex as a single token whose text is
//!    exactly the constructed literal.
//! 3. **Pragma parsing** — well-formed pragmas with random rule subsets
//!    and reasons suppress exactly their rules; malformed ones are
//!    findings, never silent.

use swque_lint::lexer::{lex, TokKind};
use swque_lint::rules::{scan_rust, RULES};
use swque_rng::prop::{check, Gen};

/// Adversarial source fragments: everything that has a lexer mode switch.
const SOUP: &[&str] = &[
    "//", "/*", "*/", "\"", "\\\"", "'", "r#", "r\"", "b\"", "br##\"", "#", "\n", " ", "\t",
    "ident", "x", "0", "1.5e-3", "0x_f", "'a", "'a'", "b'q'", "::", ";", "{", "}", "αβγ", "🦀",
    "\\", "r", "b", "br", "\"\"", "''",
];

fn soup(g: &mut Gen, max_frags: usize) -> String {
    let n = g.gen_range(0..max_frags);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(SOUP[g.gen_range(0..SOUP.len())]);
    }
    s
}

#[test]
fn token_soup_never_panics_and_spans_are_exact() {
    check(512, |g| {
        let src = soup(g, 40);
        let toks = lex(&src);
        let mut prev_end = 0usize;
        for t in &toks {
            assert!(t.start >= prev_end, "overlapping tokens in {src:?}");
            let end = t.start + t.text.len();
            assert!(end <= src.len());
            assert_eq!(&src[t.start..end], t.text, "span text mismatch in {src:?}");
            assert!(t.line >= 1 && t.col >= 1);
            prev_end = end;
        }
        // Nothing but whitespace may fall between tokens: the stream is
        // lossless.
        let mut covered: Vec<(usize, usize)> = toks.iter().map(|t| (t.start, t.start + t.text.len())).collect();
        covered.push((src.len(), src.len()));
        let mut cursor = 0usize;
        for (a, b) in covered {
            assert!(
                src[cursor..a].chars().all(char::is_whitespace),
                "dropped non-whitespace text in {src:?}"
            );
            cursor = b;
        }
    });
}

#[test]
fn scanning_token_soup_never_panics() {
    // The full rule pipeline (lexing, pragma parse, cfg(test) region
    // detection, pattern matching) over arbitrary input, under both a
    // strict and an exempt policy path.
    check(256, |g| {
        let src = soup(g, 60);
        let _ = scan_rust("crates/core/src/soup.rs", &src);
        let _ = scan_rust("crates/bench/src/bin/soup.rs", &src);
    });
}

/// Builds a correctly nested block comment of the given depth with random
/// filler, e.g. `/* a /* b */ c */`.
fn nested_comment(g: &mut Gen, depth: usize) -> String {
    let fillers = ["x", " ", "//", "\"", "'", "*", "/", "α"];
    let mut s = String::from("/*");
    for _ in 0..g.gen_range(0..4) {
        s.push_str(fillers[g.gen_range(0..fillers.len())]);
        s.push(' ');
    }
    if depth > 0 {
        s.push_str(&nested_comment(g, depth - 1));
    }
    s.push_str(" */");
    s
}

#[test]
fn nested_block_comments_round_trip() {
    check(256, |g| {
        let depth = g.gen_range(0..5);
        let comment = nested_comment(g, depth);
        let src = format!("before {comment} after");
        let toks = lex(&src);
        let comments: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::BlockComment).collect();
        assert_eq!(comments.len(), 1, "{src:?}");
        assert_eq!(comments[0].text, comment, "comment text round-trips");
        assert!(toks.iter().any(|t| t.text == "before"));
        assert!(toks.iter().any(|t| t.text == "after"));
    });
}

#[test]
fn raw_strings_round_trip_with_random_hashes() {
    check(256, |g| {
        let hashes = g.gen_range(1usize..5);
        let byte_prefix = g.bool();
        // Body may contain quote-hash runs shorter than the delimiter,
        // which must NOT close the string.
        let mut body = String::new();
        for _ in 0..g.gen_range(0..6) {
            match g.gen_range(0u32..4) {
                0 => body.push_str("word "),
                1 => {
                    body.push('"');
                    for _ in 0..g.gen_range(0..hashes) {
                        body.push('#');
                    }
                }
                2 => body.push_str("// HashMap "),
                _ => body.push('α'),
            }
        }
        let delim = "#".repeat(hashes);
        let literal =
            format!("{}r{delim}\"{body}\"{delim}", if byte_prefix { "b" } else { "" });
        let src = format!("let s = {literal};");
        let toks = lex(&src);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1, "{src:?} -> {toks:?}");
        assert_eq!(strs[0].text, literal, "raw string text round-trips");
        // And nothing inside the literal leaked out as an ident finding.
        let (findings, _) = scan_rust("crates/core/src/raw.rs", &src);
        assert!(findings.is_empty(), "{src:?}: {findings:?}");
    });
}

#[test]
fn pragma_parsing_property() {
    check(256, |g| {
        // A random non-empty subset of rules, in random order.
        let mut rules: Vec<&str> = RULES.to_vec();
        g.rng().shuffle(&mut rules);
        let picked: Vec<&str> = rules[..g.gen_range(1..rules.len())].to_vec();
        let seps = ["\u{2014}", "-", ":", "\u{2013}"];
        let sep = seps[g.gen_range(0..seps.len())];
        let spaces = if g.bool() { " " } else { "  " };
        let reason = ["documented knob", "fixture", "lookup-only map"][g.gen_range(0..3)];
        let pragma =
            format!("// swque-lint: allow({}){spaces}{sep} {reason}", picked.join(", "));

        // The pragma suppresses exactly the picked rules on the next line.
        let probes: &[(&str, &str)] = &[
            ("truncating-cast", "fn a(cycle: u64) -> u32 { cycle as u32 }"),
            ("unchecked-arith", "fn b(cycle: u64, tick: u64) -> u64 { cycle - tick }"),
            ("panic-in-lib", "pub fn t(v: &[u8]) -> u8 { *v.first().unwrap() }"),
        ];
        let (probe_rule, probe_code) = probes[g.gen_range(0..probes.len())];
        let src = format!("{pragma}\n{probe_code}\n");
        let (findings, suppressed) = scan_rust("crates/core/src/p.rs", &src);
        if picked.contains(&probe_rule) {
            assert!(findings.is_empty(), "{src:?}: {findings:?}");
            assert_eq!(suppressed, 1, "{src:?}");
        } else {
            assert_eq!(findings.len(), 1, "{src:?}: {findings:?}");
            assert_eq!(findings[0].rule, probe_rule, "{src:?}");
            assert_eq!(suppressed, 0, "{src:?}");
        }
    });
}

#[test]
fn malformed_pragmas_are_always_findings() {
    check(256, |g| {
        let breakages = [
            "// swque-lint: allow(panic-in-lib)",      // missing reason
            "// swque-lint: allow(panic-in-lib) —",    // empty reason
            "// swque-lint: allow() — reason",         // empty rule list
            "// swque-lint: allow(nope) — reason",     // unknown rule
            "// swque-lint: allow(panic-in-lib — r",   // unclosed list
            "// swque-lint: panic-in-lib — reason",    // missing allow(
        ];
        let bad = breakages[g.gen_range(0..breakages.len())];
        let src = format!("{bad}\nfn f() {{}}\n");
        let (findings, suppressed) = scan_rust("crates/core/src/p.rs", &src);
        assert_eq!(findings.len(), 1, "{src:?}: {findings:?}");
        assert_eq!(findings[0].rule, "malformed-pragma", "{src:?}");
        assert_eq!(findings[0].line, 1);
        assert_eq!(suppressed, 0);
    });
}
