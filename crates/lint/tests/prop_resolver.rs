//! swque-rng property tests for the workspace-wide call-graph resolver.
//!
//! The reachability pass leans on three resolver guarantees, pinned here
//! over randomly generated module trees:
//!
//! 1. **Totality** — `Program::build` never panics, on adversarial token
//!    soup or on semi-realistic multi-unit workspaces, and every `FnNode`
//!    it returns is internally consistent (unit index in range, token
//!    range non-empty and inside the unit's token stream).
//! 2. **Edges land on declared items** — every recorded call edge joins
//!    two declared functions and respects the visibility/import scoping
//!    rule (`edge_allowed`).
//! 3. **Resolution is total** — `path_to_pub` returns either `None` or a
//!    chain that starts at a `pub fn`, ends at the queried function, and
//!    whose consecutive hops are all legal edges; `format_chain` renders
//!    one segment per hop without panicking.

use swque_lint::resolve::{crate_of, format_chain, path_to_pub, Program};
use swque_rng::prop::{check, Gen};

/// Adversarial fragments, biased toward resolver-relevant shapes: fn
/// declarations, calls, visibility, `use` lines, module nesting.
const SOUP: &[&str] = &[
    "fn", "pub", "mod", "impl", "use", "swque_mem", "swque_cpu", "::", "f", "g", "h", "(", ")",
    "{", "}", ";", ",", "->", "u64", "x", ".", "self", "&", "let", "=", "+", "#[", "]",
    "cfg(test)", "unwrap", "\"s\"", "0", "//", "/*",
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

/// Workspace paths spanning three crates plus an out-of-tree file, so
/// crate derivation and cross-crate scoping both get exercised.
const PATHS: &[&str] = &[
    "crates/mem/src/a.rs",
    "crates/mem/src/b.rs",
    "crates/cpu/src/core.rs",
    "crates/core/src/lib.rs",
    "examples/demo.rs",
];

const FN_NAMES: &[&str] = &["alpha", "beta", "gamma", "delta", "omega", "sigma"];

/// One random unit: optional imports of the other crates, then a handful
/// of functions that call random names from the shared pool (including
/// names nobody declares — those must simply produce no edge).
fn gen_unit(g: &mut Gen) -> String {
    let mut src = String::new();
    for krate in ["swque_mem", "swque_cpu", "swque_core"] {
        if g.bool() {
            src.push_str(&format!("use {krate}::queue;\n"));
        }
    }
    let nested = g.bool();
    if nested {
        src.push_str("mod inner {\n");
    }
    for _ in 0..g.gen_range(1..5usize) {
        let name = FN_NAMES[g.gen_range(0..FN_NAMES.len())];
        let vis = if g.bool() { "pub " } else { "" };
        src.push_str(&format!("{vis}fn {name}() {{\n"));
        for _ in 0..g.gen_range(0..3usize) {
            let callee = FN_NAMES[g.gen_range(0..FN_NAMES.len())];
            if g.bool() {
                src.push_str(&format!("    {callee}();\n"));
            } else {
                src.push_str(&format!("    undeclared_{callee}();\n"));
            }
        }
        src.push_str("}\n");
    }
    if nested {
        src.push_str("}\n");
    }
    src
}

fn gen_workspace(g: &mut Gen, body: impl Fn(&mut Gen) -> String) -> Vec<(String, String)> {
    let n = g.gen_range(1..PATHS.len() + 1);
    (0..n).map(|i| (PATHS[i].to_string(), body(g))).collect()
}

/// Structural invariants every built program must satisfy, whatever the
/// input looked like.
fn assert_well_formed(prog: &Program<'_>) {
    for f in &prog.fns {
        assert!(f.unit < prog.units.len(), "fn {:?}: unit out of range", f.name);
        let n_toks = prog.units[f.unit].ast.toks.len();
        assert!(f.lo < f.hi && f.hi <= n_toks, "fn {:?}: bad token range", f.name);
    }
    assert_eq!(prog.callers.len(), prog.fns.len());
    for (callee, callers) in prog.callers.iter().enumerate() {
        for &caller in callers {
            assert!(caller < prog.fns.len(), "edge from undeclared fn index {caller}");
            assert!(
                prog.edge_allowed(caller, callee),
                "recorded edge {} -> {} violates scoping",
                prog.fns[caller].name,
                prog.fns[callee].name
            );
        }
    }
}

#[test]
fn token_soup_never_panics_the_resolver() {
    check(256, |g| {
        let sources = gen_workspace(g, |g| soup(g, 60));
        let prog = Program::build(&sources);
        assert_well_formed(&prog);
    });
}

#[test]
fn edges_land_on_declared_items_and_respect_scoping() {
    check(256, |g| {
        let sources = gen_workspace(g, gen_unit);
        let prog = Program::build(&sources);
        assert_well_formed(&prog);
    });
}

#[test]
fn resolution_is_total_and_chains_are_legal() {
    check(256, |g| {
        let sources = gen_workspace(g, gen_unit);
        let prog = Program::build(&sources);
        for start in 0..prog.fns.len() {
            let Some(chain) = path_to_pub(&prog, start) else { continue };
            assert!(!chain.is_empty());
            assert!(prog.fns[chain[0]].vis_pub, "chain must start at a pub fn");
            assert_eq!(*chain.last().unwrap(), start, "chain must end at the query");
            for hop in chain.windows(2) {
                assert!(
                    prog.edge_allowed(hop[0], hop[1]),
                    "illegal hop {} -> {}",
                    prog.fns[hop[0]].name,
                    prog.fns[hop[1]].name
                );
                assert!(
                    prog.callers[hop[1]].contains(&hop[0]),
                    "hop not backed by a recorded edge"
                );
            }
            let shown = format_chain(&prog, &chain, prog.fns[start].unit);
            assert_eq!(
                shown.split(" \u{2192} ").count(),
                chain.len(),
                "one rendered segment per hop: {shown:?}"
            );
        }
    });
}

#[test]
fn crate_derivation_is_stable() {
    check(128, |g| {
        let dir = FN_NAMES[g.gen_range(0..FN_NAMES.len())];
        let file = FN_NAMES[g.gen_range(0..FN_NAMES.len())];
        let rel = format!("crates/{dir}/src/{file}.rs");
        assert_eq!(crate_of(&rel), format!("swque_{dir}"));
        assert_eq!(crate_of(&format!("tools/{file}.rs")), "swque");
    });
}
