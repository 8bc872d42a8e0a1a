//! swque-rng property tests for the recursive-descent parser.
//!
//! The parser is total and faithful by design (see `parser.rs` docs);
//! these tests pin the three properties the rule engine relies on:
//!
//! 1. **Totality** — arbitrary token soup never panics the parser, and
//!    whatever comes back is still well-formed: every item consumes at
//!    least one token and the top-level item ranges tile the token
//!    stream exactly.
//! 2. **Span tiling** — on generated semi-realistic programs, child
//!    items nest inside their parents in order without overlap, so a
//!    visitor sees every token exactly once.
//! 3. **Print stability** — `parse → pretty → re-lex` reproduces the
//!    original non-comment token text sequence, i.e. the AST holds the
//!    whole program, not a lossy sketch of it.

use swque_lint::lexer::lex;
use swque_lint::parser::{parse, Ast, Item, ItemKind};
use swque_rng::prop::{check, Gen};

/// Adversarial source fragments, mirroring the lexer suite plus
/// parser-relevant structure: braces, item keywords, attribute heads.
const SOUP: &[&str] = &[
    "fn", "mod", "impl", "struct", "enum", "pub", "{", "}", "(", ")", "[", "]", "#[", "#![",
    "cfg(test)", "]", ";", ",", "->", "::", ".", "=", "let", "for", "in", "as", "match", "if",
    "x", "ident", "0", "1.5", "'a", "\"s\"", "unsafe", "use", "static", "mut", "//", "/*", "*/",
    "\"", "r#\"", "αβ", "🦀", "+", "-", "&", "<", ">",
];

fn soup(g: &mut Gen, max_frags: usize) -> String {
    let n = g.gen_range(0..max_frags);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(SOUP[g.gen_range(0..SOUP.len())]);
        if g.bool() {
            s.push(' ');
        }
    }
    s
}

/// Child items of `item` must sit inside its range, in order, without
/// overlapping each other.
fn assert_children_nest(item: &Item) {
    let children: &[Item] = match &item.kind {
        ItemKind::Mod { items, .. } | ItemKind::Container { items, .. } => items,
        _ => return,
    };
    let mut cursor = item.lo;
    for child in children {
        assert!(child.lo < child.hi, "empty child item span {}..{}", child.lo, child.hi);
        assert!(
            child.lo >= cursor && child.hi <= item.hi,
            "child {}..{} escapes parent {}..{} (cursor {cursor})",
            child.lo,
            child.hi,
            item.lo,
            item.hi
        );
        assert_children_nest(child);
        cursor = child.hi;
    }
}

/// Top-level item ranges must tile `0..toks.len()` exactly: no gaps, no
/// overlap, nothing dropped. Recurses into nested items.
fn assert_tiles(ast: &Ast<'_>) {
    let mut cursor = 0usize;
    for item in &ast.items {
        assert_eq!(item.lo, cursor, "gap or overlap before item at token {}", item.lo);
        assert!(item.hi > item.lo, "item consumed no tokens at {}", item.lo);
        assert!(item.hi <= ast.toks.len());
        assert_children_nest(item);
        cursor = item.hi;
    }
    assert_eq!(cursor, ast.toks.len(), "tokens dropped after the last item");
}

#[test]
fn token_soup_never_panics_and_items_tile() {
    check(512, |g| {
        let src = soup(g, 50);
        let ast = parse(&src);
        assert_tiles(&ast);
    });
}

const NAMES: &[&str] = &["alpha", "beta", "gamma", "delta", "omega", "sigma"];

/// Emits one random semi-realistic item (recursing for `mod` bodies).
fn gen_item(g: &mut Gen, depth: usize, out: &mut String) {
    let n = NAMES[g.gen_range(0..NAMES.len())];
    match g.gen_range(0u32..10) {
        0 => {
            out.push_str(&format!("fn {n}(x: u64, y: u64) -> u64 {{ let t = x + y; t }}\n"));
        }
        1 => out.push_str(&format!("pub fn {n}(v: &[u8]) -> usize {{ v.len() }}\n")),
        2 => out.push_str(&format!("struct {n} {{ a: u64, b: Vec<u8> }}\n")),
        3 => out.push_str(&format!("pub enum {n} {{ A, B(u64) }}\n")),
        4 if depth < 2 => {
            out.push_str(&format!("mod {n} {{\n"));
            for _ in 0..g.gen_range(0..3) {
                gen_item(g, depth + 1, out);
            }
            out.push_str("}\n");
        }
        5 => out.push_str(&format!("impl {n} {{ fn get(&self) -> u64 {{ self.a }} }}\n")),
        6 => out.push_str("use std::collections::BTreeMap;\n"),
        7 => out.push_str(&format!("static S_{n}: u64 = 42;\n")),
        8 => out.push_str(&format!(
            "#[cfg(test)]\nmod tests {{ fn {n}() {{ assert_eq!(1 + 1, 2); }} }}\n"
        )),
        _ => out.push_str(&format!(
            "fn {n}() {{ let mut t = 0u64; for i in [1u64, 2, 3] {{ t = t.wrapping_add(i); }} \
             if t > 3 {{ t = t.saturating_sub(1); }} }}\n"
        )),
    }
}

fn gen_program(g: &mut Gen) -> String {
    let mut src = String::new();
    for _ in 0..g.gen_range(0..7) {
        gen_item(g, 0, &mut src);
    }
    src
}

#[test]
fn generated_programs_tile_and_nest() {
    check(256, |g| {
        let src = gen_program(g);
        let ast = parse(&src);
        assert_tiles(&ast);
    });
}

#[test]
fn parse_pretty_relex_is_stable() {
    check(256, |g| {
        let src = gen_program(g);
        let ast = parse(&src);
        let printed = ast.pretty();
        let original: Vec<&str> = ast.toks.iter().map(|t| t.text).collect();
        let relexed: Vec<&str> =
            lex(&printed).iter().filter(|t| !t.is_comment()).map(|t| t.text).collect();
        assert_eq!(relexed, original, "pretty output drifted for {src:?}");
    });
}
