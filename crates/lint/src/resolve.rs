//! The workspace-wide program model: every file of every crate parsed
//! into one structure, with a cross-file, cross-crate call graph over it.
//!
//! PR 5's reachability pass was intra-file: a panic in a private helper
//! whose only public caller lived in another module was attributed as
//! "no public caller found in this file". This module removes that
//! limitation. [`Program::build`] takes every `(path, source)` pair of a
//! scan, derives each file's **crate** from its workspace path
//! (`crates/<dir>/src/…` → `swque_<dir>`, the root `src/` → the `swque`
//! facade), parses each file, collects every `fn` item into one global
//! table, and connects them with name-keyed call edges scoped by Rust's
//! actual visibility reach:
//!
//! * **same file** — any mention of the callee's name counts (exactly the
//!   PR-5 "call-graph-lite" semantics: `g(x)`, `self.g()`, `Self::g`);
//! * **same crate, different file** — the callee must be `pub` (any
//!   `pub(...)` form; the parser does not distinguish restrictions, which
//!   over-approximates callers — that can lengthen a chain, never hide a
//!   panic);
//! * **different crate** — the callee must be `pub` *and* the caller's
//!   file must mention the callee's crate ident (`use swque_mem::…` or a
//!   fully qualified path both leave the ident in the token stream).
//!
//! [`path_to_pub`] then answers the question the panic pass asks — which
//! public API reaches this function? — with a BFS over the caller edges
//! that is free to cross file and crate boundaries, returning the full
//! hop chain for the diagnostic.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::parser::{parse, walk_items, Ast, ItemKind};

/// One parsed file of the program.
pub struct Unit<'a> {
    /// Workspace-relative, forward-slash path.
    pub rel: &'a str,
    /// The file's parse tree (comment-free token stream included).
    pub ast: Ast<'a>,
    /// The crate the file belongs to, as the ident other files would
    /// `use` (e.g. `swque_mem`; the root facade is `swque`).
    pub crate_name: String,
    /// Crate idents of *other* units this file mentions anywhere in its
    /// token stream — the import relation the cross-crate edges require.
    pub imports: Vec<String>,
}

/// One function in the global table.
pub struct FnNode {
    /// Index of the unit the function lives in.
    pub unit: usize,
    /// The function's name.
    pub name: String,
    /// True when the item is `pub` (any `pub(...)` form).
    pub vis_pub: bool,
    /// Token range of the whole item within its unit's AST.
    pub lo: usize,
    /// One past the last token of the item.
    pub hi: usize,
    /// Signature token range (after the name, up to the body or `;`).
    pub sig: (usize, usize),
    /// 1-based line of the item's first token.
    pub line: u32,
    /// 1-based line of the name ident (where a `swque-domain` annotation
    /// anchors).
    pub name_line: u32,
}

/// The whole-workspace program model.
pub struct Program<'a> {
    /// Every parsed file.
    pub units: Vec<Unit<'a>>,
    /// Every `fn` item of every unit, at any nesting depth.
    pub fns: Vec<FnNode>,
    /// `callers[g]` = indices of functions whose body mentions `fns[g]`'s
    /// name, subject to the visibility scoping in the module docs.
    pub callers: Vec<Vec<usize>>,
    /// Function indices grouped by name (the call-edge index).
    by_name: BTreeMap<String, Vec<usize>>,
}

/// The crate ident a workspace-relative path belongs to:
/// `crates/<dir>/…` → `swque_<dir>` (dashes mapped to underscores),
/// anything else → the root `swque` facade.
pub fn crate_of(rel: &str) -> String {
    let mut segs = rel.split('/');
    if segs.next() == Some("crates") {
        if let Some(dir) = segs.next() {
            return format!("swque_{}", dir.replace('-', "_"));
        }
    }
    "swque".to_string()
}

impl<'a> Program<'a> {
    /// Parses every `(rel, src)` pair and wires the call graph.
    pub fn build(sources: &'a [(String, String)]) -> Program<'a> {
        let mut units: Vec<Unit<'a>> = sources
            .iter()
            .map(|(rel, src)| Unit {
                rel,
                ast: parse(src),
                crate_name: crate_of(rel),
                imports: Vec::new(),
            })
            .collect();

        // The import relation: unit U imports crate C when any ident
        // token of U equals C's ident and some other unit belongs to C.
        let crate_names: Vec<String> = {
            let mut names: Vec<String> = units.iter().map(|u| u.crate_name.clone()).collect();
            names.sort();
            names.dedup();
            names
        };
        for unit in &mut units {
            let mut imports: Vec<String> = unit
                .ast
                .toks
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .filter(|t| crate_names.iter().any(|c| c == t.text))
                .map(|t| t.text.to_string())
                .collect();
            imports.sort();
            imports.dedup();
            unit.imports = imports;
        }

        // The global function table.
        let mut fns: Vec<FnNode> = Vec::new();
        for (u_idx, unit) in units.iter().enumerate() {
            walk_items(&unit.ast, &unit.ast.items, false, &mut |item, _| {
                if let ItemKind::Fn { name, sig, .. } = item.kind {
                    fns.push(FnNode {
                        unit: u_idx,
                        name: unit.ast.text(name).to_string(),
                        vis_pub: item.vis_pub,
                        lo: item.lo,
                        hi: item.hi,
                        sig,
                        line: unit.ast.pos(item.lo).0,
                        name_line: unit.ast.pos(name).0,
                    });
                }
            });
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }

        let mut prog = Program { units, fns, callers: Vec::new(), by_name };
        prog.callers = prog.build_edges();
        prog
    }

    /// True when a call edge from `f` (caller) to `g` (callee) is in
    /// scope per the visibility rules in the module docs.
    pub fn edge_allowed(&self, f: usize, g: usize) -> bool {
        let (cf, cg) = (&self.fns[f], &self.fns[g]);
        if cf.unit == cg.unit {
            return true;
        }
        if !cg.vis_pub {
            return false;
        }
        let (uf, ug) = (&self.units[cf.unit], &self.units[cg.unit]);
        uf.crate_name == ug.crate_name || uf.imports.contains(&ug.crate_name)
    }

    /// Callee candidates for a call site: every function named `name`
    /// that `caller` could reach under the edge scoping rules.
    pub fn candidates(&self, caller: usize, name: &str) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|v| v.iter().copied().filter(|&g| self.edge_allowed(caller, g)).collect())
            .unwrap_or_default()
    }

    /// Name-keyed call edges: `callers[g]` lists every function whose
    /// token range mentions `g`'s name, scoped by [`Program::edge_allowed`].
    fn build_edges(&self) -> Vec<Vec<usize>> {
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (f_idx, f) in self.fns.iter().enumerate() {
            let ast = &self.units[f.unit].ast;
            for i in f.lo..f.hi {
                let Some(t) = ast.tok(i) else { continue };
                if t.kind != TokKind::Ident {
                    continue;
                }
                let Some(cands) = self.by_name.get(t.text) else { continue };
                for &g_idx in cands {
                    if g_idx == f_idx {
                        continue;
                    }
                    let g = &self.fns[g_idx];
                    // Skip the callee's own definition site.
                    if g.unit == f.unit && g.lo <= i && i < g.hi {
                        continue;
                    }
                    if !self.edge_allowed(f_idx, g_idx) {
                        continue;
                    }
                    if !callers[g_idx].contains(&f_idx) {
                        callers[g_idx].push(f_idx);
                    }
                }
            }
        }
        callers
    }

    /// The innermost function of `unit` whose token range contains
    /// `tok_idx`, as a global function index.
    pub fn enclosing_fn(&self, unit: usize, tok_idx: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.unit == unit && f.lo <= tok_idx && tok_idx < f.hi)
            .max_by_key(|(_, f)| f.lo)
            .map(|(i, _)| i)
    }
}

/// BFS from `start` backwards over the caller edges to the nearest
/// `pub fn`; returns the chain `[pub, …, start]` of global function
/// indices when one exists. Free to cross file and crate boundaries.
pub fn path_to_pub(prog: &Program<'_>, start: usize) -> Option<Vec<usize>> {
    if prog.fns[start].vis_pub {
        return Some(vec![start]);
    }
    let mut parent: Vec<Option<usize>> = vec![None; prog.fns.len()];
    let mut seen = vec![false; prog.fns.len()];
    let mut queue = std::collections::VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    while let Some(x) = queue.pop_front() {
        for &c in &prog.callers[x] {
            if seen[c] {
                continue;
            }
            seen[c] = true;
            parent[c] = Some(x);
            if prog.fns[c].vis_pub {
                return Some(reconstruct(&parent, start, c));
            }
            queue.push_back(c);
        }
    }
    None
}

/// Chain from `pub_fn` down to `start` following the BFS parents.
fn reconstruct(parent: &[Option<usize>], start: usize, pub_fn: usize) -> Vec<usize> {
    let mut chain = vec![pub_fn];
    let mut cur = pub_fn;
    while cur != start {
        match parent[cur] {
            Some(p) => {
                chain.push(p);
                cur = p;
            }
            None => break,
        }
    }
    chain
}

/// Formats a reachability chain for diagnostics: each hop as
/// `name:line`, with `(file)` appended for hops outside `home_unit`.
pub fn format_chain(prog: &Program<'_>, chain: &[usize], home_unit: usize) -> String {
    let hops: Vec<String> = chain
        .iter()
        .map(|&f| {
            let node = &prog.fns[f];
            if node.unit == home_unit {
                format!("{}:{}", node.name, node.line)
            } else {
                format!("{}:{} ({})", node.name, node.line, prog.units[node.unit].rel)
            }
        })
        .collect();
    hops.join(" \u{2192} ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect()
    }

    #[test]
    fn crate_derivation_from_paths() {
        assert_eq!(crate_of("crates/mem/src/dram.rs"), "swque_mem");
        assert_eq!(crate_of("crates/swque-lint/src/lib.rs"), "swque_swque_lint");
        assert_eq!(crate_of("src/lib.rs"), "swque");
        assert_eq!(crate_of("examples/quickstart.rs"), "swque");
    }

    #[test]
    fn same_file_edges_match_pr5_semantics() {
        let srcs = sources(&[(
            "crates/cpu/src/x.rs",
            "fn inner() {}\nfn mid() { inner(); }\npub fn entry() { mid(); }\n",
        )]);
        let prog = Program::build(&srcs);
        assert_eq!(prog.fns.len(), 3);
        let inner = prog.fns.iter().position(|f| f.name == "inner").unwrap();
        let chain = path_to_pub(&prog, inner).unwrap();
        let names: Vec<&str> = chain.iter().map(|&f| prog.fns[f].name.as_str()).collect();
        assert_eq!(names, ["entry", "mid", "inner"]);
    }

    #[test]
    fn cross_file_attribution_requires_pub_callee() {
        // `helper` is private but its caller `drive` is pub in another
        // file of the same crate: the chain must cross the file boundary
        // through the pub callee `step`.
        let srcs = sources(&[
            (
                "crates/cpu/src/core.rs",
                "fn helper() {}\npub fn step() { helper(); }\n",
            ),
            ("crates/cpu/src/driver.rs", "pub fn drive() { step(); }\n"),
        ]);
        let prog = Program::build(&srcs);
        let helper = prog.fns.iter().position(|f| f.name == "helper").unwrap();
        let step = prog.fns.iter().position(|f| f.name == "step").unwrap();
        // `step` is pub, so `drive` gains a caller edge to it.
        assert!(prog.callers[step].iter().any(|&c| prog.fns[c].name == "drive"));
        // `helper` is private: no cross-file caller may reach it directly.
        assert!(prog.callers[helper].iter().all(|&c| prog.fns[c].unit == prog.fns[helper].unit));
        let chain = path_to_pub(&prog, helper).unwrap();
        assert_eq!(prog.fns[chain[0]].name, "step", "nearest pub fn wins");
    }

    #[test]
    fn cross_crate_edges_require_an_import() {
        let importer = "use swque_mem::fill;\nfn local() { fill(); }\n";
        let stranger = "fn other() { fill(); }\n";
        let callee = "pub fn fill() {}\n";
        let srcs = sources(&[
            ("crates/cpu/src/a.rs", importer),
            ("crates/core/src/b.rs", stranger),
            ("crates/mem/src/c.rs", callee),
        ]);
        let prog = Program::build(&srcs);
        let fill = prog.fns.iter().position(|f| f.name == "fill").unwrap();
        let caller_names: Vec<&str> =
            prog.callers[fill].iter().map(|&c| prog.fns[c].name.as_str()).collect();
        assert_eq!(caller_names, ["local"], "only the importing crate gets the edge");
    }

    #[test]
    fn chain_format_marks_foreign_files() {
        let srcs = sources(&[
            ("crates/cpu/src/core.rs", "fn helper() { }\npub fn step() { helper(); }\n"),
            ("crates/cpu/src/driver.rs", "pub fn drive() { step(); }\n"),
        ]);
        let prog = Program::build(&srcs);
        let helper = prog.fns.iter().position(|f| f.name == "helper").unwrap();
        let chain = path_to_pub(&prog, helper).unwrap();
        let home = prog.fns[helper].unit;
        let text = format_chain(&prog, &chain, home);
        assert!(text.contains("step:2"), "{text}");
        assert!(!text.contains("core.rs"), "home-file hops carry no path: {text}");
    }

    #[test]
    fn candidates_respect_scoping() {
        let srcs = sources(&[
            ("crates/mem/src/a.rs", "pub fn probe() {}\nfn probe_helper() { probe(); }\n"),
            ("crates/cpu/src/b.rs", "fn cpu_side() {}\n"),
        ]);
        let prog = Program::build(&srcs);
        let cpu_side = prog.fns.iter().position(|f| f.name == "cpu_side").unwrap();
        // No `use swque_mem` in b.rs: the cross-crate candidate set is empty.
        assert!(prog.candidates(cpu_side, "probe").is_empty());
        let helper = prog.fns.iter().position(|f| f.name == "probe_helper").unwrap();
        assert_eq!(prog.candidates(helper, "probe").len(), 1);
    }
}
