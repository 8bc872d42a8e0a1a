//! The cycle-domain dataflow pass.
//!
//! PR 8's headline bug was two `u64`s with different *meanings*: stream
//! prefetches launched at the demand's completion cycle (`done_at`)
//! instead of the L2 lookup cycle. The type system cannot see the
//! difference; this pass can. Every integer value is classified into a
//! **domain**:
//!
//! | domain | meaning | example |
//! |---|---|---|
//! | `CycleStamp` | an absolute point on the cycle axis | `pf_issue_at`, `now` |
//! | `CycleDelta` | a distance between two stamps | `latency`, `wait_cycles` |
//! | `InstCount` | a count of instructions | `insts_retired` |
//! | `IntervalIdx` | an interval/epoch ordinal | `epoch` |
//! | `ByteAddr` | a byte address | `line_addr` |
//! | `RequesterId` | a core/requester index | `requester` |
//! | `SlotTag` | a physical-register/slot tag | `dst_tag` |
//!
//! `CycleStamp` additionally carries an optional **qualifier** —
//! `launch` or `completion` — because the PR-8 bug was stamp-vs-stamp:
//! both `done_at` and `pf_issue_at` are cycle stamps, and only the
//! qualifier tells the *time a request is made* apart from the *time a
//! response arrives*.
//!
//! Domains are **seeded** from names (struct fields, fn parameters, let
//! bindings — see [`seed_name`] for the exact lexicon) and from explicit
//! annotations:
//!
//! ```text
//! // swque-domain: now: CycleStamp(launch), return: CycleStamp(completion)
//! pub fn request_from(&mut self, requester: usize, now: u64) -> u64 { … }
//! ```
//!
//! An annotation binds the named parameters (and `return`) of the `fn`
//! whose signature starts on the same or the next line; on a `let`
//! binding's line (or the line above) it binds that local. A comment
//! that mentions `swque-domain` but fails this grammar is a
//! `malformed-pragma` finding — a silently ignored annotation would be
//! worse than none.
//!
//! Domains then **propagate** through let-bindings, field accesses,
//! casts, and — via the call graph in [`crate::resolve`] — through calls
//! (a call site inherits the consensus return domain of every in-scope
//! callee with that name). Checks fire only when **both** sides are
//! known; an unknown operand is never a finding. Two rules report:
//!
//! * `cross-domain-arith` — `+`/`-` (and their `saturating_*` /
//!   `wrapping_*` / `checked_*` method forms) between incompatible
//!   bases: stamp+stamp, delta−stamp, count+delta, …. The legal algebra
//!   is stamp−stamp→delta, stamp±delta→stamp, and same-base for every
//!   other base. Comparisons (`==` `<` … and `min`/`max`) require equal
//!   bases, qualifiers ignored. `*` `/` `%` and bitwise ops erase the
//!   domain and are never flagged (`insts / cycles` is IPC, not a bug).
//! * `cross-domain-call` — an argument whose base differs from the
//!   parameter's seeded/annotated base, or whose `CycleStamp` qualifier
//!   contradicts an explicitly qualified stamp parameter (`done_at`
//!   passed where a `CycleStamp(launch)` is expected — the PR-8 bug).

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};
use crate::parser::{walk_exprs, Ast, Expr, ExprKind};
use crate::resolve::Program;
use crate::rules::{classify, Finding};

/// The base of a domain: what axis the integer lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// An absolute point on the cycle axis.
    CycleStamp,
    /// A distance between two cycle stamps.
    CycleDelta,
    /// A count of instructions.
    InstCount,
    /// An interval/epoch ordinal.
    IntervalIdx,
    /// A byte address.
    ByteAddr,
    /// A core/requester index.
    RequesterId,
    /// A physical-register/slot tag.
    SlotTag,
}

impl Base {
    fn name(self) -> &'static str {
        match self {
            Base::CycleStamp => "CycleStamp",
            Base::CycleDelta => "CycleDelta",
            Base::InstCount => "InstCount",
            Base::IntervalIdx => "IntervalIdx",
            Base::ByteAddr => "ByteAddr",
            Base::RequesterId => "RequesterId",
            Base::SlotTag => "SlotTag",
        }
    }
}

/// The `CycleStamp` qualifier: which end of a request the stamp marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Qual {
    /// The cycle a request is made.
    Launch,
    /// The cycle a response arrives.
    Completion,
}

/// A domain: a base, plus an optional qualifier on `CycleStamp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    /// The axis.
    pub base: Base,
    /// `launch`/`completion`, only ever `Some` on [`Base::CycleStamp`].
    pub qual: Option<Qual>,
}

impl Domain {
    /// An unqualified domain.
    pub fn of(base: Base) -> Domain {
        Domain { base, qual: None }
    }

    /// Renders as the annotation grammar spells it: `CycleStamp(launch)`.
    pub fn render(self) -> String {
        match self.qual {
            Some(Qual::Launch) => format!("{}(launch)", self.base.name()),
            Some(Qual::Completion) => format!("{}(completion)", self.base.name()),
            None => self.base.name().to_string(),
        }
    }
}

/// Parses a domain spec from the annotation grammar: a base name,
/// optionally `CycleStamp(launch|completion)`.
pub fn parse_domain(s: &str) -> Option<Domain> {
    let s = s.trim();
    let (base_txt, qual_txt) = match s.find('(') {
        Some(i) => {
            let rest = s[i + 1..].strip_suffix(')')?;
            (&s[..i], Some(rest.trim()))
        }
        None => (s, None),
    };
    let base = match base_txt.trim() {
        "CycleStamp" => Base::CycleStamp,
        "CycleDelta" => Base::CycleDelta,
        "InstCount" => Base::InstCount,
        "IntervalIdx" => Base::IntervalIdx,
        "ByteAddr" => Base::ByteAddr,
        "RequesterId" => Base::RequesterId,
        "SlotTag" => Base::SlotTag,
        _ => return None,
    };
    let qual = match qual_txt {
        None => None,
        Some("launch") => Some(Qual::Launch),
        Some("completion") => Some(Qual::Completion),
        Some(_) => return None,
    };
    if qual.is_some() && base != Base::CycleStamp {
        return None;
    }
    Some(Domain { base, qual })
}

/// Seeds a domain from an identifier, or `None` when the name says
/// nothing. The lexicon, in match order (first hit wins):
///
/// 1. `CycleStamp`: suffix `_at`/`_until`/`_done`/`_cycle`, exact
///    `now`/`done`/`cycle`, or contains `horizon` — except `per_cycle`
///    rates, which are not stamps. Qualifier: contains `done`/`complete`
///    → `completion`; contains `issue`/`launch` → `launch` (deliberately
///    *not* `start`/`lookup`: `start` names the head of an MSHR wait in
///    the hierarchy, which is neither end of a request).
/// 2. `RequesterId`: exact `requester` or suffix `requester_id`.
/// 3. `SlotTag`: exact `tag` or suffix `_tag`.
/// 4. `InstCount`: contains `insts`/`retired`/`instret`.
/// 5. `ByteAddr`: contains `addr`.
/// 6. `CycleDelta`: contains `latency`/`penalty`/`delay`, suffix
///    `_cycles`, or exact `cycles` (plural = distance; singular = stamp).
/// 7. `IntervalIdx`: contains `epoch`, or `interval` + `idx`/`index`.
pub fn seed_name(name: &str) -> Option<Domain> {
    let l = name.to_ascii_lowercase();
    if l.is_empty() || !l.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_') {
        return None;
    }
    let stampish = (l.ends_with("_at")
        || l == "now"
        || l.ends_with("_until")
        || l == "done"
        || l.ends_with("_done")
        || l.contains("horizon")
        || l == "cycle"
        || l.ends_with("_cycle"))
        && !l.contains("per_cycle");
    if stampish {
        let qual = if l.contains("done") || l.contains("complete") {
            Some(Qual::Completion)
        } else if l.contains("issue") || l.contains("launch") {
            Some(Qual::Launch)
        } else {
            None
        };
        return Some(Domain { base: Base::CycleStamp, qual });
    }
    let base = if l == "requester" || l.ends_with("requester_id") {
        Base::RequesterId
    } else if l == "tag" || l.ends_with("_tag") {
        Base::SlotTag
    } else if l.contains("insts") || l.contains("retired") || l.contains("instret") {
        Base::InstCount
    } else if l.contains("addr") {
        Base::ByteAddr
    } else if l.contains("latency")
        || l.contains("penalty")
        || l.contains("delay")
        || l.ends_with("_cycles")
        || l == "cycles"
    {
        Base::CycleDelta
    } else if l.contains("epoch")
        || (l.contains("interval") && (l.contains("idx") || l.contains("index")))
    {
        Base::IntervalIdx
    } else {
        return None;
    };
    Some(Domain::of(base))
}

/// One parsed `// swque-domain:` annotation.
#[derive(Debug, Clone)]
pub struct Annot {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// `(name, domain)` bindings; `return` names the fn return value.
    pub binds: Vec<(String, Domain)>,
}

/// Extracts every `swque-domain` annotation from a raw (comment-bearing)
/// token stream. Comments that mention `swque-domain` but fail the
/// grammar come back as `malformed-pragma` findings.
pub fn collect_annotations(toks: &[Tok<'_>], rel: &str) -> (Vec<Annot>, Vec<Finding>) {
    let mut annots = Vec::new();
    let mut bad = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        // Mirrors pragma detection: only a comment whose body *starts*
        // with the marker is an annotation attempt; prose that merely
        // mentions `swque-domain` (docs, this file) is not.
        let body = t.text.trim_start_matches('/').trim_start_matches('!').trim_start();
        let Some(rest) = body.strip_prefix("swque-domain") else { continue };
        let Some(rest) = rest.trim_start().strip_prefix(':') else {
            bad.push(malformed(rel, t, "missing `:` after `swque-domain`"));
            continue;
        };
        let mut binds = Vec::new();
        let mut ok = true;
        for part in rest.split(',') {
            let Some((name, spec)) = part.split_once(':') else {
                ok = false;
                break;
            };
            let name = name.trim();
            let named_ok = !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            let Some(dom) = parse_domain(spec) else {
                ok = false;
                break;
            };
            if !named_ok {
                ok = false;
                break;
            }
            binds.push((name.to_string(), dom));
        }
        if !ok || binds.is_empty() {
            bad.push(malformed(
                rel,
                t,
                "expected `name: Domain[, name: Domain]*` with Domain one of \
                 CycleStamp[(launch|completion)]/CycleDelta/InstCount/IntervalIdx/\
                 ByteAddr/RequesterId/SlotTag",
            ));
            continue;
        }
        annots.push(Annot { line: t.line, binds });
    }
    (annots, bad)
}

fn malformed(rel: &str, t: &Tok<'_>, why: &str) -> Finding {
    Finding::new(
        "malformed-pragma",
        rel.to_string(),
        t.line,
        t.col,
        format!("unparseable swque-domain annotation ({why})"),
    )
}

/// The domain signature of one function in the program: parameter
/// domains (receiver excluded) and the return domain.
#[derive(Debug, Clone, Default)]
pub struct FnSig {
    /// `(name, domain)` per value parameter, in order, `self` excluded.
    pub params: Vec<(String, Option<Domain>)>,
    /// True when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Return domain, from a `return:` annotation or the fn name.
    pub ret: Option<Domain>,
}

/// Builds the [`FnSig`] table, parallel to `prog.fns`. Annotations in
/// `annots[unit]` bind a fn whose name line is the annotation's line or
/// the one after it.
pub fn fn_sigs(prog: &Program<'_>, annots: &[Vec<Annot>]) -> Vec<FnSig> {
    prog.fns
        .iter()
        .map(|f| {
            let ast = &prog.units[f.unit].ast;
            let mut sig = parse_sig(ast, f.sig);
            sig.ret = seed_name(&f.name);
            for a in &annots[f.unit] {
                if a.line != f.name_line && a.line + 1 != f.name_line {
                    continue;
                }
                for (name, dom) in &a.binds {
                    if name == "return" {
                        sig.ret = Some(*dom);
                        continue;
                    }
                    for p in sig.params.iter_mut().filter(|p| p.0 == *name) {
                        p.1 = Some(*dom);
                    }
                }
            }
            sig
        })
        .collect()
}

/// Parses the parameter list out of a signature token range: everything
/// between the first `(` and its match, split on depth-0 commas; each
/// segment's name is the first ident followed by a single `:`.
fn parse_sig(ast: &Ast<'_>, (lo, hi): (usize, usize)) -> FnSig {
    let mut sig = FnSig::default();
    let mut i = lo;
    while i < hi && ast.text(i) != "(" {
        i += 1;
    }
    if i >= hi {
        return sig;
    }
    i += 1;
    let (mut depth, mut angle) = (1i64, 0i64);
    let mut seg: Vec<usize> = Vec::new();
    let mut first = true;
    let flush = |seg: &mut Vec<usize>, first: &mut bool, sig: &mut FnSig| {
        if seg.iter().any(|&k| ast.text(k) == "self") {
            if *first {
                sig.has_self = true;
            }
        } else if !seg.is_empty() {
            let mut name = None;
            for w in 0..seg.len().saturating_sub(1) {
                let t = ast.text(seg[w]);
                if ast.tok(seg[w]).is_some_and(|t| t.kind == TokKind::Ident)
                    && t != "mut"
                    && ast.text(seg[w + 1]) == ":"
                    && (w + 2 >= seg.len() || ast.text(seg[w + 2]) != ":")
                {
                    name = Some(t.to_string());
                    break;
                }
            }
            if let Some(n) = name {
                let dom = seed_name(&n);
                sig.params.push((n, dom));
            } else {
                sig.params.push((String::new(), None));
            }
        }
        seg.clear();
        *first = false;
    };
    while i < hi {
        let t = ast.text(i);
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            "," if depth == 1 && angle == 0 => {
                flush(&mut seg, &mut first, &mut sig);
                i += 1;
                continue;
            }
            _ => {}
        }
        seg.push(i);
        i += 1;
    }
    flush(&mut seg, &mut first, &mut sig);
    sig
}

/// What a `+`/`-` over two known domains yields.
enum Arith {
    /// Legal; the result's domain (None = result meaningless but legal).
    Ok(Option<Domain>),
    /// Cross-domain: illegal.
    Bad,
}

fn arith(op: char, l: Domain, r: Domain) -> Arith {
    use Base::{CycleDelta as D, CycleStamp as S};
    match (op, l.base, r.base) {
        ('+', S, S) => Arith::Bad,
        ('+', S, D) => Arith::Ok(Some(Domain { base: S, qual: l.qual })),
        ('+', D, S) => Arith::Ok(Some(Domain { base: S, qual: r.qual })),
        ('-', S, S) => Arith::Ok(Some(Domain::of(D))),
        ('-', S, D) => Arith::Ok(Some(Domain { base: S, qual: l.qual })),
        ('-', D, S) => Arith::Bad,
        (_, a, b) if a == b => Arith::Ok(Some(Domain::of(a))),
        _ => Arith::Bad,
    }
}

const SUB_METHODS: [&str; 3] = ["saturating_sub", "wrapping_sub", "checked_sub"];
const ADD_METHODS: [&str; 3] = ["saturating_add", "wrapping_add", "checked_add"];
const CMP_METHODS: [&str; 2] = ["min", "max"];

/// Per-function binding environment.
type Env = BTreeMap<String, Domain>;

struct Cx<'p, 'a> {
    prog: &'p Program<'a>,
    sigs: &'p [FnSig],
    unit: usize,
    fidx: usize,
}

impl Cx<'_, '_> {
    fn ast(&self) -> &Ast<'_> {
        &self.prog.units[self.unit].ast
    }

    /// Candidate callees for `name` visible from the current fn whose
    /// sigs all agree; used for both return and parameter consensus.
    fn consensus<T: PartialEq + Copy>(
        &self,
        name: &str,
        f: impl Fn(&FnSig) -> Option<T>,
    ) -> Option<T> {
        let cands = self.prog.candidates(self.fidx, name);
        let mut out: Option<T> = None;
        if cands.is_empty() {
            return None;
        }
        for g in cands {
            let v = f(&self.sigs[g])?;
            match out {
                None => out = Some(v),
                Some(prev) if prev == v => {}
                Some(_) => return None,
            }
        }
        out
    }

    /// Infers the domain of an expression. Pure: never emits findings —
    /// the visitor emits them exactly once per flagged node.
    fn dom(&self, e: &Expr, env: &Env) -> Option<Domain> {
        let ast = self.ast();
        match &e.kind {
            ExprKind::Path(segs) => {
                let last = ast.text(*segs.last()?);
                if segs.len() == 1 {
                    if last == "self" {
                        return None;
                    }
                    if let Some(d) = env.get(last) {
                        return Some(*d);
                    }
                }
                seed_name(last)
            }
            ExprKind::Field { name, .. } => seed_name(ast.text(*name)),
            ExprKind::Cast { expr, .. } | ExprKind::Unary { expr } => self.dom(expr, env),
            ExprKind::Group { exprs } if exprs.len() == 1 => self.dom(&exprs[0], env),
            ExprKind::Binary { op, lhs, rhs, .. } => {
                let c = match *op {
                    "+" => '+',
                    "-" => '-',
                    _ => return None,
                };
                let (l, r) = (self.dom(lhs, env)?, self.dom(rhs, env)?);
                match arith(c, l, r) {
                    Arith::Ok(d) => d,
                    Arith::Bad => None,
                }
            }
            ExprKind::MethodCall { recv, name, args } => {
                let mname = ast.text(*name);
                if SUB_METHODS.contains(&mname) || ADD_METHODS.contains(&mname) {
                    let c = if SUB_METHODS.contains(&mname) { '-' } else { '+' };
                    let (l, r) = (self.dom(recv, env)?, self.dom(args.first()?, env)?);
                    return match arith(c, l, r) {
                        Arith::Ok(d) => d,
                        Arith::Bad => None,
                    };
                }
                if CMP_METHODS.contains(&mname) && args.len() == 1 {
                    let (l, r) = (self.dom(recv, env)?, self.dom(&args[0], env)?);
                    if l.base == r.base {
                        let qual = if l.qual == r.qual { l.qual } else { None };
                        return Some(Domain { base: l.base, qual });
                    }
                    return None;
                }
                self.consensus(mname, |s| s.ret)
            }
            ExprKind::Call { callee, .. } => {
                if let ExprKind::Path(segs) = &callee.kind {
                    let last = ast.text(*segs.last()?);
                    return self.consensus(last, |s| s.ret);
                }
                None
            }
            _ => None,
        }
    }
}

/// Whether passing `arg` where `param` is expected is a cross-domain
/// error; `Some((from, to))` renders the finding's domain pair.
fn call_clash(arg: Domain, param: Domain) -> Option<(Domain, Domain)> {
    if arg.base != param.base {
        return Some((arg, param));
    }
    if let (Some(a), Some(p)) = (arg.qual, param.qual) {
        if a != p {
            return Some((arg, param));
        }
    }
    None
}

/// Runs the dataflow pass over every deterministic-crate library file of
/// the program, appending `cross-domain-arith` / `cross-domain-call`
/// findings. `annots[unit]` are that unit's parsed annotations (also
/// consulted for `let` bindings).
pub fn domain_rules(
    prog: &Program<'_>,
    sigs: &[FnSig],
    annots: &[Vec<Annot>],
    out: &mut Vec<Finding>,
) {
    for (u_idx, unit) in prog.units.iter().enumerate() {
        let policy = classify(unit.rel);
        if !policy.deterministic || policy.test_code {
            continue;
        }
        let lo_to_fn: BTreeMap<usize, usize> = prog
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.unit == u_idx)
            .map(|(i, f)| (f.lo, i))
            .collect();
        let mut envs: BTreeMap<usize, Env> = BTreeMap::new();
        let ast = &unit.ast;
        walk_exprs(ast, &ast.items, &mut |e, cx| {
            if cx.in_cfg_test {
                return;
            }
            let Some(item) = cx.enclosing_fn else { return };
            let Some(&fidx) = lo_to_fn.get(&item.lo) else { return };
            let env = envs.entry(fidx).or_insert_with(|| {
                sigs[fidx]
                    .params
                    .iter()
                    .filter_map(|(n, d)| Some((n.clone(), (*d)?)))
                    .collect()
            });
            let cx = Cx { prog, sigs, unit: u_idx, fidx };
            check_expr(&cx, e, env, unit.rel, &annots[u_idx], out);
        });
    }
}

/// The single-visit check for one expression node.
fn check_expr(
    cx: &Cx<'_, '_>,
    e: &Expr,
    env: &mut Env,
    rel: &str,
    annots: &[Annot],
    out: &mut Vec<Finding>,
) {
    let ast = cx.ast();
    match &e.kind {
        ExprKind::Let { name: Some(n), init, .. } => {
            let nm = ast.text(*n).to_string();
            let line = ast.pos(*n).0;
            let annotated = annots
                .iter()
                .filter(|a| a.line == line || a.line + 1 == line)
                .flat_map(|a| a.binds.iter())
                .find(|(bn, _)| *bn == nm)
                .map(|(_, d)| *d);
            let named = annotated.or_else(|| seed_name(&nm));
            let init_dom = init.as_ref().and_then(|i| cx.dom(i, env));
            if let (Some(nd), Some(id)) = (named, init_dom) {
                if nd.base != id.base {
                    out.push(cross(
                        "cross-domain-arith",
                        rel,
                        line,
                        ast.pos(*n).1,
                        format!(
                            "`{nm}` is {} but its initializer is {}",
                            nd.render(),
                            id.render()
                        ),
                        id,
                        nd,
                    ));
                }
            }
            // The binding's domain: explicit/name wins (it can carry a
            // qualifier); a same-base initializer donates its qualifier
            // to an unqualified name.
            let bound = match (named, init_dom) {
                (Some(nd), Some(id)) if nd.base == id.base && nd.qual.is_none() => {
                    Some(Domain { base: nd.base, qual: id.qual })
                }
                (Some(nd), _) => Some(nd),
                (None, id) => id,
            };
            if let Some(d) = bound {
                env.insert(nm, d);
            }
        }
        ExprKind::Binary { op, op_tok, lhs, rhs } => {
            let arith_op = match *op {
                "+" | "+=" => Some('+'),
                "-" | "-=" => Some('-'),
                _ => None,
            };
            let compare = matches!(*op, "==" | "!=" | "<" | "<=" | ">" | ">=");
            if arith_op.is_none() && !compare {
                return;
            }
            let (Some(l), Some(r)) = (cx.dom(lhs, env), cx.dom(rhs, env)) else {
                return;
            };
            let (line, col) = ast.pos(*op_tok);
            if let Some(c) = arith_op {
                if let Arith::Bad = arith(c, l, r) {
                    out.push(cross(
                        "cross-domain-arith",
                        rel,
                        line,
                        col,
                        format!("`{op}` mixes {} with {}", l.render(), r.render()),
                        l,
                        r,
                    ));
                }
            } else if l.base != r.base {
                out.push(cross(
                    "cross-domain-arith",
                    rel,
                    line,
                    col,
                    format!("`{op}` compares {} against {}", l.render(), r.render()),
                    l,
                    r,
                ));
            }
        }
        ExprKind::MethodCall { recv, name, args } => {
            let mname = ast.text(*name);
            let (line, col) = ast.pos(*name);
            if SUB_METHODS.contains(&mname) || ADD_METHODS.contains(&mname) {
                if args.len() != 1 {
                    return;
                }
                let c = if SUB_METHODS.contains(&mname) { '-' } else { '+' };
                let (Some(l), Some(r)) = (cx.dom(recv, env), cx.dom(&args[0], env)) else {
                    return;
                };
                if let Arith::Bad = arith(c, l, r) {
                    out.push(cross(
                        "cross-domain-arith",
                        rel,
                        line,
                        col,
                        format!("`{mname}` mixes {} with {}", l.render(), r.render()),
                        l,
                        r,
                    ));
                }
                return;
            }
            if CMP_METHODS.contains(&mname) && args.len() == 1 {
                let (Some(l), Some(r)) = (cx.dom(recv, env), cx.dom(&args[0], env)) else {
                    return;
                };
                if l.base != r.base {
                    out.push(cross(
                        "cross-domain-arith",
                        rel,
                        line,
                        col,
                        format!("`{mname}` compares {} against {}", l.render(), r.render()),
                        l,
                        r,
                    ));
                }
                return;
            }
            check_call_args(cx, mname, true, args, env, rel, (line, col), out);
        }
        ExprKind::Call { callee, args } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if let Some(&last) = segs.last() {
                    let name = ast.text(last);
                    let (line, col) = ast.pos(last);
                    check_call_args(cx, name, false, args, env, rel, (line, col), out);
                }
            }
        }
        _ => {}
    }
}

/// Checks each argument of a call site against the consensus parameter
/// domain at that position across every in-scope callee candidate.
#[expect(
    clippy::too_many_arguments,
    reason = "the call-site context is already bundled in `cx`; the rest is per-call data"
)]
fn check_call_args(
    cx: &Cx<'_, '_>,
    name: &str,
    is_method: bool,
    args: &[Expr],
    env: &Env,
    rel: &str,
    (line, col): (u32, u32),
    out: &mut Vec<Finding>,
) {
    let cands = cx.prog.candidates(cx.fidx, name);
    if cands.is_empty() {
        return;
    }
    // A free call to a method (Self::helper(self, …)) or a method call
    // resolving to a free fn would misalign positions: require agreement.
    if cands.iter().any(|&g| cx.sigs[g].has_self != is_method) {
        return;
    }
    for (k, arg) in args.iter().enumerate() {
        let Some(param) = cx.consensus(name, |s| s.params.get(k).and_then(|p| p.1)) else {
            continue;
        };
        let Some(adom) = cx.dom(arg, env) else { continue };
        if let Some((from, to)) = call_clash(adom, param) {
            let pname = cx
                .sigs
                .get(cands[0])
                .and_then(|s| s.params.get(k))
                .map(|p| p.0.clone())
                .unwrap_or_default();
            out.push(cross(
                "cross-domain-call",
                rel,
                line,
                col,
                format!(
                    "argument {} of `{name}` is {} but parameter `{pname}` expects {}",
                    k + 1,
                    from.render(),
                    to.render()
                ),
                from,
                to,
            ));
        }
    }
}

fn cross(
    rule: &'static str,
    rel: &str,
    line: u32,
    col: u32,
    message: String,
    from: Domain,
    to: Domain,
) -> Finding {
    let mut f = Finding::new(rule, rel.to_string(), line, col, message);
    f.domain_from = from.render();
    f.domain_to = to.render();
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_one(rel: &str, src: &str) -> Vec<Finding> {
        let sources = vec![(rel.to_string(), src.to_string())];
        let prog = Program::build(&sources);
        let toks = lex(src);
        let (annots, bad) = collect_annotations(&toks, rel);
        assert!(bad.is_empty(), "{bad:?}");
        let per_unit = vec![annots];
        let sigs = fn_sigs(&prog, &per_unit);
        let mut out = Vec::new();
        domain_rules(&prog, &sigs, &per_unit, &mut out);
        out
    }

    #[test]
    fn seeding_lexicon() {
        assert_eq!(seed_name("pf_issue_at").unwrap().render(), "CycleStamp(launch)");
        assert_eq!(seed_name("done_at").unwrap().render(), "CycleStamp(completion)");
        assert_eq!(seed_name("l2_lookup_at").unwrap().render(), "CycleStamp");
        assert_eq!(seed_name("now").unwrap().render(), "CycleStamp");
        assert_eq!(seed_name("arb_wait_cycles").unwrap().base, Base::CycleDelta);
        assert_eq!(seed_name("hit_latency").unwrap().base, Base::CycleDelta);
        assert_eq!(seed_name("insts_retired").unwrap().base, Base::InstCount);
        assert_eq!(seed_name("retired_at").unwrap().base, Base::CycleStamp);
        assert_eq!(seed_name("epoch").unwrap().base, Base::IntervalIdx);
        assert_eq!(seed_name("line_addr").unwrap().base, Base::ByteAddr);
        assert_eq!(seed_name("requester").unwrap().base, Base::RequesterId);
        assert_eq!(seed_name("dst_tag").unwrap().base, Base::SlotTag);
        assert_eq!(seed_name("bytes_per_cycle"), None);
        assert_eq!(seed_name("start"), None, "MSHR wait heads stay unseeded");
        assert_eq!(seed_name("x"), None);
    }

    #[test]
    fn stamp_algebra() {
        // stamp - stamp -> delta; stamp + delta -> stamp; stamp + stamp -> bad.
        let f = scan_one(
            "crates/mem/src/t.rs",
            "fn f(done_at: u64, issue_at: u64, latency: u64) -> u64 {\n\
             let wait_cycles = done_at - issue_at;\n\
             let retire_at = done_at + latency;\n\
             retire_at + wait_cycles\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = scan_one(
            "crates/mem/src/t.rs",
            "fn f(done_at: u64, issue_at: u64) -> u64 { done_at + issue_at }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "cross-domain-arith");
        assert_eq!(f[0].domain_from, "CycleStamp(completion)");
        assert_eq!(f[0].domain_to, "CycleStamp(launch)");
    }

    #[test]
    fn compares_require_equal_bases() {
        let f = scan_one(
            "crates/core/src/t.rs",
            "fn f(done_at: u64, latency: u64) -> bool { done_at < latency }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("compares"), "{}", f[0].message);
        let ok = scan_one(
            "crates/core/src/t.rs",
            "fn f(done_at: u64, now: u64) -> bool { done_at < now }\n",
        );
        assert!(ok.is_empty(), "qualifiers are ignored in compares: {ok:?}");
    }

    #[test]
    fn saturating_methods_follow_the_algebra() {
        let ok = scan_one(
            "crates/mem/src/t.rs",
            "fn f(start_at: u64, now: u64) -> u64 { start_at.saturating_sub(now) }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let f = scan_one(
            "crates/mem/src/t.rs",
            "fn f(latency: u64, now: u64) -> u64 { latency.saturating_sub(now) }\n",
        );
        assert_eq!(f.len(), 1, "delta - stamp is the classic inversion: {f:?}");
    }

    #[test]
    fn unknown_operands_never_flag() {
        let f = scan_one(
            "crates/mem/src/t.rs",
            "fn f(x: u64, done_at: u64) -> u64 { x + done_at * 2 }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn annotated_qualifier_clash_at_a_call_site() {
        // The PR-8 shape: a completion stamp passed where the callee's
        // annotation demands a launch stamp.
        let src = "\
// swque-domain: now: CycleStamp(launch), return: CycleStamp(completion)
pub fn request(now: u64) -> u64 { now }
pub fn t(done_at: u64) -> u64 { request(done_at) }
pub fn ok(pf_issue_at: u64) -> u64 { request(pf_issue_at) }
pub fn ok2(l2_lookup_at: u64) -> u64 { request(l2_lookup_at) }
";
        let f = scan_one("crates/mem/src/t.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "cross-domain-call");
        assert_eq!(f[0].line, 3);
        assert_eq!(f[0].domain_from, "CycleStamp(completion)");
        assert_eq!(f[0].domain_to, "CycleStamp(launch)");
    }

    #[test]
    fn count_passed_as_stamp_flags() {
        let src = "\
pub fn at(now: u64) -> u64 { now }
pub fn t(insts_retired: u64) -> u64 { at(insts_retired) }
";
        let f = scan_one("crates/cpu/src/t.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].domain_from, "InstCount");
        assert_eq!(f[0].domain_to, "CycleStamp");
    }

    #[test]
    fn call_returns_propagate_through_lets() {
        let src = "\
// swque-domain: return: CycleStamp(completion)
pub fn request(now: u64) -> u64 { now }
// swque-domain: at: CycleStamp(launch)
pub fn launch(at: u64) {}
pub fn t(now: u64) { let t0 = request(now); launch(t0); }
";
        let f = scan_one("crates/mem/src/t.rs", src);
        assert_eq!(f.len(), 1, "the completion return reaches the launch arg: {f:?}");
        assert_eq!(f[0].rule, "cross-domain-call");
    }

    #[test]
    fn let_annotation_overrides_the_name() {
        let src = "\
pub fn t(now: u64, latency: u64) -> u64 {\n\
// swque-domain: fuel: CycleDelta\n\
let fuel = latency; now + fuel }\n";
        let f = scan_one("crates/mem/src/t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn let_binding_base_mismatch_flags() {
        let f = scan_one(
            "crates/mem/src/t.rs",
            "pub fn t(latency: u64) -> u64 { let done_at = latency; done_at }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("initializer"), "{}", f[0].message);
    }

    #[test]
    fn malformed_annotation_is_a_finding() {
        let toks = lex("// swque-domain: now CycleStamp\nfn f() {}\n");
        let (annots, bad) = collect_annotations(&toks, "crates/mem/src/t.rs");
        assert!(annots.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "malformed-pragma");
        let toks = lex("// swque-domain: x: CycleDelta(launch)\n");
        let (annots, bad) = collect_annotations(&toks, "t.rs");
        assert!(annots.is_empty());
        assert_eq!(bad.len(), 1, "qualifier on a non-stamp base is malformed");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n#[test]\nfn t() { let done_at = 1u64; \
                   let issue_at = 2u64; assert_eq!(done_at + issue_at, 3); }\n}\n";
        let f = scan_one("crates/mem/src/t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }
}
