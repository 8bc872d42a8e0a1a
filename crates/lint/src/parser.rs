//! A minimal, total recursive-descent parser for the Rust subset the
//! rule engine needs.
//!
//! The PR-4 engine matched token windows (`prev == "." && next == "("`),
//! which cannot tell a `HashMap` that is iterated from one that is only
//! probed, or attribute a panic to the public item that reaches it. This
//! parser recovers just enough structure for those judgements:
//!
//! * **items** — `fn` (name, visibility, body), `impl` /
//!   `mod` / `trait` bodies (recursed), `struct` / `enum` (field type
//!   tokens kept), everything else verbatim;
//! * **expressions** — paths, method calls, free calls, macro calls,
//!   `as` casts, binary operators, `for` loops, `let` bindings, blocks;
//! * **attributes** — kept per item so `#[cfg(test)]` regions are a
//!   structural fact instead of a brace-matching scan.
//!
//! Like the lexer underneath it, the parser is held to two properties
//! (see `crates/lint/tests/prop_parser.rs`):
//!
//! 1. **Total** — parsing never panics and never loses tokens, whatever
//!    token soup it is fed. Anything unparseable degrades to a
//!    [`ExprKind::Verbatim`] leaf, always consuming at least one token.
//! 2. **Faithful** — every non-comment token of the source appears in
//!    the AST exactly once, in order (top-level item ranges tile the
//!    token stream),
//!    and printing the AST back out ([`Ast::pretty`]) re-lexes to the
//!    same token text sequence.
//!
//! The grammar subset is documented operator-by-operator in DESIGN.md §8.

use crate::lexer::{lex, Tok, TokKind};

/// A parsed file: the shared (comment-free) token buffer plus the item
/// forest over it. All AST nodes index into `toks`.
#[derive(Debug, Clone)]
pub struct Ast<'a> {
    /// Every non-comment token of the source, in order.
    pub toks: Vec<Tok<'a>>,
    /// Top-level items, in order.
    pub items: Vec<Item>,
}

/// One attribute, e.g. `#[cfg(test)]` or `#![warn(missing_docs)]`: the
/// token range covering `#` through the closing `]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// First token index (the `#`).
    pub lo: usize,
    /// One past the closing `]`.
    pub hi: usize,
}

/// An item: attributes, visibility, kind, and its full token range
/// (attributes included).
#[derive(Debug, Clone)]
pub struct Item {
    /// Attributes preceding the item.
    pub attrs: Vec<Attr>,
    /// True when the item is `pub` (any `pub(...)` form counts).
    pub vis_pub: bool,
    /// What the item is.
    pub kind: ItemKind,
    /// First token index of the item (its first attribute, if any).
    pub lo: usize,
    /// One past the last token of the item.
    pub hi: usize,
}

/// The kinds of item the rules distinguish.
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// `fn name(sig) -> ret { body }` (or `;` for trait methods).
    Fn {
        /// Token index of the name ident.
        name: usize,
        /// The body block, absent for bodyless trait methods.
        body: Option<Block>,
    },
    /// `mod name { items }` or `mod name;`.
    Mod {
        /// Token index of the name ident.
        name: usize,
        /// Nested items for inline modules.
        items: Vec<Item>,
    },
    /// `impl … { items }` / `trait … { items }`: the header token range
    /// plus the member items.
    Container {
        /// Header tokens (`impl`/`trait` through the opening `{`).
        header: (usize, usize),
        /// Member items.
        items: Vec<Item>,
    },
    /// `struct` / `enum` / `union`: name kept, every other token (fields,
    /// generics) in the range for type-position scans.
    Adt {
        /// Token index of the name ident, when present.
        name: Option<usize>,
    },
    /// Anything else (`use`, `const`, `static`, `type`, `extern`,
    /// item-level macro invocations, stray tokens): held as its token
    /// range only.
    Verbatim,
}

/// A `{ … }` block: the statements/expressions inside, plus the token
/// range including both braces.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Parsed statements and trailing expression, in order.
    pub exprs: Vec<Expr>,
    /// Token index of the opening `{`.
    pub lo: usize,
    /// One past the closing `}`.
    pub hi: usize,
}

/// An expression node. Every node records its token range `lo..hi`;
/// child ranges nest inside the parent's.
#[derive(Debug, Clone)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// First token index.
    pub lo: usize,
    /// One past the last token.
    pub hi: usize,
}

/// The expression forms the rules inspect.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// `a::b::c` (or a lone ident): token indices of the segment idents.
    Path(Vec<usize>),
    /// A literal token (number, string, char, lifetime).
    Lit,
    /// `recv.name(args)` — token index of the method name ident.
    MethodCall {
        /// The receiver expression.
        recv: Box<Expr>,
        /// Token index of the method-name ident.
        name: usize,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `recv.field` (no call parens) — token index of the field ident.
    Field {
        /// The base expression.
        recv: Box<Expr>,
        /// Token index of the field ident (or tuple index number).
        name: usize,
    },
    /// `callee(args)`.
    Call {
        /// The callee (usually a path).
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `path!(…)` / `path![…]` / `path!{…}` — the macro's bang form.
    Macro {
        /// Token indices of the macro path segments.
        path: Vec<usize>,
        /// Expressions parsed from inside the delimiters.
        args: Vec<Expr>,
    },
    /// `expr as Type` — the cast target's token range.
    Cast {
        /// The value being cast.
        expr: Box<Expr>,
        /// Token range of the target type.
        ty: (usize, usize),
    },
    /// `lhs op rhs` for a joined binary operator (`+`, `-`, `<<`, `&&`,
    /// `+=`, `==`, …).
    Binary {
        /// The joined operator text, e.g. `"+"` or `">>="`.
        op: &'static str,
        /// Token index of the operator's first punct.
        op_tok: usize,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A prefix-operator expression: `&x`, `*p`, `-n`, `!b`, `&mut x`.
    Unary {
        /// The operand.
        expr: Box<Expr>,
    },
    /// `for <pat> in <iter> { body }`.
    For {
        /// Pattern token range (between `for` and `in`).
        pat: (usize, usize),
        /// The iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `let <pat>[: ty] [= init]` — the type annotation is skipped.
    Let {
        /// Token index of the bound name ident, when the pattern is a
        /// simple (possibly `mut`) identifier.
        name: Option<usize>,
        /// Initializer expression.
        init: Option<Box<Expr>>,
    },
    /// `if` / `match` / `while` / `loop` / plain `{}` — head expression
    /// (condition or scrutinee) plus every nested block.
    Structured {
        /// Condition / scrutinee / etc., when the form has one.
        head: Option<Box<Expr>>,
        /// Every `{ … }` block the form owns (then/else arms, bodies).
        blocks: Vec<Block>,
    },
    /// `(…)` / `[…]` groups: inner expressions.
    Group {
        /// Comma-separated (or soup) inner expressions.
        exprs: Vec<Expr>,
    },
    /// An unparsed run of at least one token.
    Verbatim,
}

/// Parses `src` into an [`Ast`]. Comments are dropped (pragmas are read
/// separately by the rule engine from the raw token stream).
pub fn parse(src: &str) -> Ast<'_> {
    let toks: Vec<Tok<'_>> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
    let items = {
        let mut p = Parser { toks: &toks, pos: 0 };
        p.items_until(None)
    };
    Ast { toks, items }
}

impl<'a> Ast<'a> {
    /// The token at AST index `i`.
    pub fn tok(&self, i: usize) -> Option<&Tok<'a>> {
        self.toks.get(i)
    }

    /// The text of token `i` (empty for an out-of-range index).
    pub fn text(&self, i: usize) -> &'a str {
        self.toks.get(i).map_or("", |t| t.text)
    }

    /// `(line, col)` of token `i` (1,1 for an out-of-range index).
    pub fn pos(&self, i: usize) -> (u32, u32) {
        self.toks.get(i).map_or((1, 1), |t| (t.line, t.col))
    }

    /// Pretty-prints the AST by structural traversal: items, blocks, and
    /// expressions emit their children in grammatical order with gap
    /// tokens in between, one space between tokens. Re-lexing the output
    /// yields the same token text sequence — the stability property the
    /// parser tests pin.
    pub fn pretty(&self) -> String {
        let mut out = Vec::new();
        for item in &self.items {
            pretty_item(self, item, &mut out);
        }
        out.join(" ")
    }
}

/// Emits `toks[lo..hi]` excluding any index claimed by `skip` ranges.
fn emit_range(ast: &Ast<'_>, lo: usize, hi: usize, skip: &[(usize, usize)], out: &mut Vec<String>) {
    let mut i = lo;
    while i < hi.min(ast.toks.len()) {
        if let Some(&(a, b)) = skip.iter().find(|&&(a, _)| a == i) {
            debug_assert!(b > a && b <= hi);
            i = b;
            continue;
        }
        out.push(ast.toks[i].text.to_string());
        i += 1;
    }
}

fn pretty_item(ast: &Ast<'_>, item: &Item, out: &mut Vec<String>) {
    match &item.kind {
        ItemKind::Fn { body: Some(body), .. } => {
            emit_range(ast, item.lo, body.lo, &[], out);
            pretty_block(ast, body, out);
            emit_range(ast, body.hi, item.hi, &[], out);
        }
        ItemKind::Mod { items, .. } | ItemKind::Container { items, .. } if !items.is_empty() => {
            let first = items.first().map_or(item.hi, |i| i.lo);
            emit_range(ast, item.lo, first, &[], out);
            let mut cursor = first;
            for child in items {
                emit_range(ast, cursor, child.lo, &[], out);
                pretty_item(ast, child, out);
                cursor = child.hi;
            }
            emit_range(ast, cursor, item.hi, &[], out);
        }
        _ => emit_range(ast, item.lo, item.hi, &[], out),
    }
}

fn pretty_block(ast: &Ast<'_>, block: &Block, out: &mut Vec<String>) {
    let mut cursor = block.lo;
    for e in &block.exprs {
        emit_range(ast, cursor, e.lo, &[], out);
        pretty_expr(ast, e, out);
        cursor = e.hi;
    }
    emit_range(ast, cursor, block.hi, &[], out);
}

fn pretty_expr(ast: &Ast<'_>, e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::MethodCall { recv, args, .. } | ExprKind::Call { callee: recv, args } => {
            pretty_expr(ast, recv, out);
            let mut cursor = recv.hi;
            for a in args {
                emit_range(ast, cursor, a.lo, &[], out);
                pretty_expr(ast, a, out);
                cursor = a.hi;
            }
            emit_range(ast, cursor, e.hi, &[], out);
        }
        ExprKind::Field { recv, .. } => {
            pretty_expr(ast, recv, out);
            emit_range(ast, recv.hi, e.hi, &[], out);
        }
        ExprKind::Cast { expr, .. } | ExprKind::Unary { expr } => {
            emit_range(ast, e.lo, expr.lo, &[], out);
            pretty_expr(ast, expr, out);
            emit_range(ast, expr.hi, e.hi, &[], out);
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            pretty_expr(ast, lhs, out);
            emit_range(ast, lhs.hi, rhs.lo, &[], out);
            pretty_expr(ast, rhs, out);
            emit_range(ast, rhs.hi, e.hi, &[], out);
        }
        ExprKind::For { iter, body, .. } => {
            emit_range(ast, e.lo, iter.lo, &[], out);
            pretty_expr(ast, iter, out);
            emit_range(ast, iter.hi, body.lo, &[], out);
            pretty_block(ast, body, out);
            emit_range(ast, body.hi, e.hi, &[], out);
        }
        ExprKind::Let { init: Some(init), .. } => {
            emit_range(ast, e.lo, init.lo, &[], out);
            pretty_expr(ast, init, out);
            emit_range(ast, init.hi, e.hi, &[], out);
        }
        ExprKind::Structured { head, blocks } => {
            let mut cursor = e.lo;
            if let Some(h) = head {
                emit_range(ast, cursor, h.lo, &[], out);
                pretty_expr(ast, h, out);
                cursor = h.hi;
            }
            for b in blocks {
                emit_range(ast, cursor, b.lo, &[], out);
                pretty_block(ast, b, out);
                cursor = b.hi;
            }
            emit_range(ast, cursor, e.hi, &[], out);
        }
        ExprKind::Group { exprs } | ExprKind::Macro { args: exprs, .. } => {
            let mut cursor = e.lo;
            for a in exprs {
                emit_range(ast, cursor, a.lo, &[], out);
                pretty_expr(ast, a, out);
                cursor = a.hi;
            }
            emit_range(ast, cursor, e.hi, &[], out);
        }
        ExprKind::Path(_) | ExprKind::Lit | ExprKind::Verbatim | ExprKind::Let { .. } => {
            emit_range(ast, e.lo, e.hi, &[], out);
        }
    }
}

// ---------------------------------------------------------------------------
// The parser proper.
// ---------------------------------------------------------------------------

struct Parser<'t, 'a> {
    toks: &'t [Tok<'a>],
    pos: usize,
}

/// Keywords that introduce an item at statement or module level.
const ITEM_KEYWORDS: [&str; 14] = [
    "fn", "struct", "enum", "union", "impl", "trait", "mod", "use", "static", "const", "type",
    "extern", "pub", "macro_rules",
];

/// Binary operators by descending precedence tier. Joined text (the lexer
/// emits single puncts; the parser re-joins adjacent ones). Assignment
/// and `..`/`..=` sit at the bottom so rule visitors still see both
/// sides.
const BIN_TIERS: &[&[&str]] = &[
    &["*", "/", "%"],
    &["+", "-"],
    &["<<", ">>"],
    &["&"],
    &["^"],
    &["|"],
    &["==", "!=", "<=", ">=", "<", ">"],
    &["&&"],
    &["||"],
    &["..=", ".."],
    &[
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
    ],
];

impl<'t, 'a> Parser<'t, 'a> {
    fn peek(&self, k: usize) -> Option<&'t Tok<'a>> {
        self.toks.get(self.pos + k)
    }

    fn text(&self, k: usize) -> &'a str {
        self.peek(k).map_or("", |t| t.text)
    }

    fn bump(&mut self) -> usize {
        let i = self.pos;
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        i
    }

    /// True when tokens `pos+k` and `pos+k+1` are adjacent in the source
    /// (no whitespace/comment between) — needed to join `<` `<` into `<<`
    /// without gluing `a < -b` into `<-`.
    fn adjacent(&self, k: usize) -> bool {
        match (self.peek(k), self.peek(k + 1)) {
            (Some(a), Some(b)) => a.start + a.text.len() == b.start,
            _ => false,
        }
    }

    /// If the next tokens spell `op` (as adjacent puncts), returns the
    /// number of tokens it spans.
    fn match_op(&self, op: &str) -> Option<usize> {
        let n = op.chars().count();
        for k in 0..n {
            let t = self.peek(k)?;
            if t.kind != TokKind::Punct || t.text.chars().next() != op.chars().nth(k) {
                return None;
            }
            if k + 1 < n && !self.adjacent(k) {
                return None;
            }
        }
        // Reject a partial match of a longer operator: `<<=` must not
        // match as `<<`, `=>` must not match as `=`, `->` not as `-`. One
        // extra adjacent punct char that would extend the operator means
        // this isn't `op`.
        if self.adjacent(n - 1) {
            if let Some(next) = self.peek(n) {
                if next.kind == TokKind::Punct {
                    let longer: String =
                        op.chars().chain(next.text.chars().take(1)).collect();
                    let known = BIN_TIERS.iter().any(|tier| tier.contains(&longer.as_str()))
                        || longer == "=>"
                        || longer == "->";
                    if known {
                        return None;
                    }
                }
            }
        }
        Some(n)
    }

    // -- items -------------------------------------------------------------

    /// Parses items until `closer` (a `}` for module bodies) or EOF.
    fn items_until(&mut self, closer: Option<&str>) -> Vec<Item> {
        let mut items = Vec::new();
        while let Some(t) = self.peek(0) {
            if closer == Some(t.text) {
                break;
            }
            items.push(self.item());
        }
        items
    }

    /// Parses one item; always consumes at least one token.
    fn item(&mut self) -> Item {
        let lo = self.pos;
        let attrs = self.attrs();
        let vis_pub = self.eat_vis();
        // Modifier keywords before `fn`.
        let mut k = 0;
        while matches!(self.text(k), "const" | "async" | "unsafe" | "extern") {
            // `const` could start `const X: …` instead of `const fn`; only
            // treat it as a modifier when an `fn` eventually follows.
            k += 1;
            if self.text(k).starts_with('"') {
                k += 1; // extern "C"
            }
        }
        let kw_at = k;
        let item = match self.text(kw_at) {
            "fn" => self.fn_item(lo, attrs.clone(), vis_pub, kw_at),
            "mod" if self.peek(kw_at + 1).is_some_and(|t| t.kind == TokKind::Ident) => {
                self.mod_item(lo, attrs.clone(), vis_pub)
            }
            "impl" | "trait" => self.container_item(lo, attrs.clone(), vis_pub),
            "struct" | "enum" | "union" => self.adt_item(lo, attrs.clone(), vis_pub),
            _ => self.verbatim_item(lo, attrs.clone(), vis_pub),
        };
        debug_assert!(item.hi > lo || self.pos > lo, "item must consume tokens");
        item
    }

    /// Consumes `#[…]` / `#![…]` attributes.
    fn attrs(&mut self) -> Vec<Attr> {
        let mut attrs = Vec::new();
        while self.text(0) == "#" && (self.text(1) == "[" || (self.text(1) == "!" && self.text(2) == "[")) {
            let lo = self.pos;
            self.bump(); // '#'
            if self.text(0) == "!" {
                self.bump();
            }
            self.skip_balanced("[", "]");
            attrs.push(Attr { lo, hi: self.pos });
        }
        attrs
    }

    /// Consumes a visibility qualifier, returning true when present.
    fn eat_vis(&mut self) -> bool {
        if self.text(0) != "pub" {
            return false;
        }
        self.bump();
        if self.text(0) == "(" {
            self.skip_balanced("(", ")");
        }
        true
    }

    /// Skips one balanced `open…close` group (consumes the `open` too).
    /// Tolerates EOF: an unclosed group runs to the end.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        if self.text(0) != open {
            return;
        }
        let mut depth = 0i64;
        while let Some(t) = self.peek(0) {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    fn fn_item(&mut self, lo: usize, attrs: Vec<Attr>, vis_pub: bool, kw_at: usize) -> Item {
        for _ in 0..=kw_at {
            self.bump(); // modifiers + `fn`
        }
        let name = if self.peek(0).is_some_and(|t| t.kind == TokKind::Ident) {
            self.bump()
        } else {
            self.pos.saturating_sub(1)
        };
        // Signature runs to the body `{` or a `;`. Skip balanced groups
        // so `where F: Fn() -> { … }`-ish token runs can't derail it, and
        // `->` return types with generic `<`s pass through unparsed.
        while let Some(t) = self.peek(0) {
            match t.text {
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                "{" => break,
                ";" => break,
                _ => {
                    self.bump();
                }
            }
        }
        let body = if self.text(0) == "{" {
            Some(self.block())
        } else {
            if self.text(0) == ";" {
                self.bump();
            }
            None
        };
        Item { attrs, vis_pub, kind: ItemKind::Fn { name, body }, lo, hi: self.pos }
    }

    fn mod_item(&mut self, lo: usize, attrs: Vec<Attr>, vis_pub: bool) -> Item {
        self.bump(); // `mod`
        let name = self.bump();
        let items = if self.text(0) == "{" {
            self.bump();
            let items = self.items_until(Some("}"));
            if self.text(0) == "}" {
                self.bump();
            }
            items
        } else {
            if self.text(0) == ";" {
                self.bump();
            }
            Vec::new()
        };
        Item { attrs, vis_pub, kind: ItemKind::Mod { name, items }, lo, hi: self.pos }
    }

    fn container_item(&mut self, lo: usize, attrs: Vec<Attr>, vis_pub: bool) -> Item {
        let head_lo = self.pos;
        while let Some(t) = self.peek(0) {
            match t.text {
                "{" => break,
                ";" => {
                    self.bump();
                    return Item {
                        attrs,
                        vis_pub,
                        kind: ItemKind::Container { header: (head_lo, self.pos), items: Vec::new() },
                        lo,
                        hi: self.pos,
                    };
                }
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                _ => {
                    self.bump();
                }
            }
        }
        let header = (head_lo, self.pos);
        if self.text(0) == "{" {
            self.bump();
        }
        let items = self.items_until(Some("}"));
        if self.text(0) == "}" {
            self.bump();
        }
        Item { attrs, vis_pub, kind: ItemKind::Container { header, items }, lo, hi: self.pos }
    }

    fn adt_item(&mut self, lo: usize, attrs: Vec<Attr>, vis_pub: bool) -> Item {
        self.bump(); // struct/enum/union
        let name = self
            .peek(0)
            .is_some_and(|t| t.kind == TokKind::Ident)
            .then(|| self.bump());
        // Body: `{ … }` braced, `( … );` tuple, or `;` unit. Generics and
        // where clauses pass through.
        while let Some(t) = self.peek(0) {
            match t.text {
                "{" => {
                    self.skip_balanced("{", "}");
                    break;
                }
                "(" => {
                    self.skip_balanced("(", ")");
                }
                ";" => {
                    self.bump();
                    break;
                }
                _ => {
                    self.bump();
                }
            }
        }
        Item { attrs, vis_pub, kind: ItemKind::Adt { name }, lo, hi: self.pos }
    }

    /// Everything else: consume to the next `;` at depth zero, or one
    /// balanced brace group (item macros, `use {…}` trees). Always makes
    /// progress.
    fn verbatim_item(&mut self, lo: usize, attrs: Vec<Attr>, vis_pub: bool) -> Item {
        if self.pos == lo && attrs.is_empty() {
            // Not even an attribute was consumed: take tokens to `;`/`{}`.
        }
        let mut any = self.pos > lo;
        while let Some(t) = self.peek(0) {
            match t.text {
                ";" => {
                    self.bump();
                    any = true;
                    break;
                }
                "{" => {
                    self.skip_balanced("{", "}");
                    any = true;
                    break;
                }
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                "}" => break, // stray closer belongs to an enclosing scope
                _ => {
                    self.bump();
                    any = true;
                }
            }
        }
        if !any && self.pos == lo {
            self.bump(); // guarantee progress on pathological input
        }
        Item { attrs, vis_pub, kind: ItemKind::Verbatim, lo, hi: self.pos }
    }

    // -- blocks and statements ----------------------------------------------

    /// Parses a `{ … }` block; the cursor sits on the `{`.
    fn block(&mut self) -> Block {
        let lo = self.pos;
        if self.text(0) == "{" {
            self.bump();
        }
        let mut exprs = Vec::new();
        while let Some(t) = self.peek(0) {
            match t.text {
                "}" => {
                    self.bump();
                    return Block { exprs, lo, hi: self.pos };
                }
                ";" | "," => {
                    self.bump(); // statement / arm separators
                }
                "=" if self.match_op("=>").is_some() => {
                    self.bump();
                    self.bump(); // match-arm arrow: treat as separator
                }
                "#" => {
                    // Statement attributes; a `#` not opening one is soup.
                    let before = self.pos;
                    self.attrs();
                    if self.pos == before {
                        exprs.push(self.expr());
                    }
                }
                _ if ITEM_KEYWORDS.contains(&t.text) && t.text != "pub" && t.text != "const" => {
                    // Nested item (fn-in-fn, local use, mod). `pub` at
                    // statement level would be odd and `const` is usually
                    // a `*const` pointer type fragment; leave those to
                    // the expression parser.
                    let item = self.item();
                    exprs.push(Expr { kind: ExprKind::Verbatim, lo: item.lo, hi: item.hi });
                }
                _ => exprs.push(self.expr()),
            }
        }
        Block { exprs, lo, hi: self.pos } // unterminated: to EOF
    }

    // -- expressions ---------------------------------------------------------

    /// Parses one expression; always consumes at least one token.
    fn expr(&mut self) -> Expr {
        let before = self.pos;
        let e = self.binary(BIN_TIERS.len());
        if self.pos == before {
            let lo = self.bump();
            return Expr { kind: ExprKind::Verbatim, lo, hi: self.pos };
        }
        e
    }

    /// Precedence-climbing over [`BIN_TIERS`]; `tier` is the highest tier
    /// index allowed (tiers bind looser as the index grows).
    fn binary(&mut self, tier: usize) -> Expr {
        if tier == 0 {
            return self.unary();
        }
        let mut lhs = self.binary(tier - 1);
        loop {
            let ops = BIN_TIERS[tier - 1];
            let Some((op, n)) = ops.iter().find_map(|&op| self.match_op(op).map(|n| (op, n)))
            else {
                return lhs;
            };
            // `<` heuristics: `Foo < Bar >` generics are rare in expr
            // position (turbofish is required), so treating `<` as
            // comparison is safe for rule purposes.
            let op_tok = self.pos;
            for _ in 0..n {
                self.bump();
            }
            // A trailing `..`/range or assignment with no RHS (e.g. `x=`
            // at EOF, or `..` before `}`): keep totality, stop cleanly.
            if self.peek(0).is_none()
                || matches!(self.text(0), "}" | ")" | "]" | ";" | ",")
            {
                let hi = self.pos;
                return Expr {
                    kind: ExprKind::Binary {
                        op,
                        op_tok,
                        lhs: Box::new(lhs.clone()),
                        rhs: Box::new(Expr { kind: ExprKind::Verbatim, lo: hi, hi }),
                    },
                    lo: lhs.lo,
                    hi,
                };
            }
            let rhs = self.binary(tier - 1);
            let (lo, hi) = (lhs.lo, rhs.hi.max(self.pos));
            lhs = Expr {
                kind: ExprKind::Binary { op, op_tok, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                lo,
                hi,
            };
        }
    }

    fn unary(&mut self) -> Expr {
        let lo = self.pos;
        match self.text(0) {
            "&" | "*" | "-" | "!" => {
                self.bump();
                if self.text(0) == "mut" {
                    self.bump();
                }
                if self.peek(0).is_none() || matches!(self.text(0), "}" | ")" | "]" | ";" | ",") {
                    return Expr { kind: ExprKind::Verbatim, lo, hi: self.pos };
                }
                let inner = self.unary();
                let hi = inner.hi;
                Expr { kind: ExprKind::Unary { expr: Box::new(inner) }, lo, hi }
            }
            _ => self.postfix(),
        }
    }

    /// Parses a primary expression and its postfix chain: `.method(…)`,
    /// `.field`, `(call)`, `[index]`, `?`, `as Type`.
    fn postfix(&mut self) -> Expr {
        let mut e = self.primary();
        loop {
            match self.text(0) {
                "." => {
                    // `.ident`, `.ident(…)`, `.await`, `.0` — but not the
                    // range `..` (two adjacent dots).
                    if self.match_op("..").is_some() || self.match_op("..=").is_some() {
                        return e;
                    }
                    self.bump(); // '.'
                    let name = self.pos;
                    let is_ident = self
                        .peek(0)
                        .is_some_and(|t| matches!(t.kind, TokKind::Ident | TokKind::Num));
                    if !is_ident {
                        // `.` with nothing nameable after it: verbatim.
                        let hi = self.pos;
                        e = Expr { kind: ExprKind::Verbatim, lo: e.lo, hi };
                        continue;
                    }
                    self.bump();
                    // Turbofish: `.collect::<Vec<_>>()`.
                    if self.match_op("::").is_some() {
                        self.bump();
                        self.bump();
                        self.skip_generics();
                    }
                    let lo = e.lo;
                    if self.text(0) == "(" {
                        let args = self.paren_args();
                        let hi = self.pos;
                        e = Expr {
                            kind: ExprKind::MethodCall { recv: Box::new(e), name, args },
                            lo,
                            hi,
                        };
                    } else {
                        let hi = self.pos;
                        e = Expr { kind: ExprKind::Field { recv: Box::new(e), name }, lo, hi };
                    }
                }
                "(" => {
                    let lo = e.lo;
                    let args = self.paren_args();
                    let hi = self.pos;
                    e = Expr { kind: ExprKind::Call { callee: Box::new(e), args }, lo, hi };
                }
                "[" => {
                    let lo = e.lo;
                    self.skip_balanced("[", "]");
                    let hi = self.pos;
                    e = Expr {
                        kind: ExprKind::Field { recv: Box::new(e), name: hi.saturating_sub(1) },
                        lo,
                        hi,
                    };
                }
                "?" => {
                    self.bump();
                    e = Expr { kind: e.kind.clone(), lo: e.lo, hi: self.pos };
                }
                "as" => {
                    self.bump();
                    let ty_lo = self.pos;
                    self.type_tokens();
                    let ty_hi = self.pos;
                    e = Expr {
                        kind: ExprKind::Cast { expr: Box::new(e.clone()), ty: (ty_lo, ty_hi) },
                        lo: e.lo,
                        hi: ty_hi,
                    };
                }
                _ => return e,
            }
        }
    }

    /// Consumes a type: path segments, `&`/`*` prefixes, tuple/array
    /// groups, one balanced `<…>` generic run. Stops before operators and
    /// separators.
    fn type_tokens(&mut self) {
        while matches!(self.text(0), "&" | "*" | "mut" | "dyn" | "impl" | "'static") {
            self.bump();
        }
        if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
            self.bump();
        }
        match self.text(0) {
            "(" => {
                self.skip_balanced("(", ")");
                return;
            }
            "[" => {
                self.skip_balanced("[", "]");
                return;
            }
            _ => {}
        }
        // Path with optional generics per segment.
        loop {
            if !self.peek(0).is_some_and(|t| t.kind == TokKind::Ident) {
                return;
            }
            self.bump();
            if self.text(0) == "<" {
                self.skip_generics();
            }
            if self.match_op("::").is_some() {
                self.bump();
                self.bump();
                continue;
            }
            return;
        }
    }

    /// Skips one `<…>` angle-bracket group, tolerant of shifts.
    fn skip_generics(&mut self) {
        if self.text(0) != "<" {
            return;
        }
        let mut depth = 0i64;
        let mut budget = 256usize; // generics runs are short; stay total
        while let Some(t) = self.peek(0) {
            match t.text {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        return;
                    }
                }
                ";" | "{" => return, // gave up: not a generics run
                _ => {}
            }
            self.bump();
            budget -= 1;
            if budget == 0 {
                return;
            }
        }
    }

    /// Parses `( a, b, … )` call arguments.
    fn paren_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if self.text(0) != "(" {
            return args;
        }
        self.bump();
        while let Some(t) = self.peek(0) {
            match t.text {
                ")" => {
                    self.bump();
                    return args;
                }
                "," => {
                    self.bump();
                }
                _ => args.push(self.expr()),
            }
        }
        args // unterminated: to EOF
    }

    /// Primary expressions. Always consumes at least one token.
    fn primary(&mut self) -> Expr {
        let lo = self.pos;
        let Some(t) = self.peek(0) else {
            return Expr { kind: ExprKind::Verbatim, lo, hi: lo };
        };
        match t.kind {
            TokKind::Num | TokKind::Str | TokKind::Char | TokKind::Lifetime => {
                self.bump();
                Expr { kind: ExprKind::Lit, lo, hi: self.pos }
            }
            TokKind::Punct => match t.text {
                "(" | "[" => {
                    let (open, close) = if t.text == "(" { ("(", ")") } else { ("[", "]") };
                    self.bump();
                    let mut exprs = Vec::new();
                    while let Some(t) = self.peek(0) {
                        if t.text == close {
                            self.bump();
                            break;
                        }
                        if t.text == "," || t.text == ";" {
                            self.bump();
                            continue;
                        }
                        exprs.push(self.expr());
                    }
                    let _ = open;
                    Expr { kind: ExprKind::Group { exprs }, lo, hi: self.pos }
                }
                "{" => {
                    let b = self.block();
                    Expr { kind: ExprKind::Structured { head: None, blocks: vec![b] }, lo, hi: self.pos }
                }
                _ => {
                    self.bump();
                    Expr { kind: ExprKind::Verbatim, lo, hi: self.pos }
                }
            },
            TokKind::Ident => match t.text {
                "let" => self.let_expr(lo),
                "for" => self.for_expr(lo),
                "if" | "while" => self.cond_expr(lo),
                "match" => self.match_expr(lo),
                "loop" => {
                    self.bump();
                    let b = if self.text(0) == "{" { self.block() } else { Block::default() };
                    Expr { kind: ExprKind::Structured { head: None, blocks: vec![b] }, lo, hi: self.pos }
                }
                "return" | "break" | "continue" | "move" | "mut" | "ref" | "else" | "in" | "box"
                | "await" | "async" | "yield" | "do" | "where" => {
                    self.bump();
                    Expr { kind: ExprKind::Verbatim, lo, hi: self.pos }
                }
                _ => self.path_expr(lo),
            },
            _ => {
                self.bump();
                Expr { kind: ExprKind::Verbatim, lo, hi: self.pos }
            }
        }
    }

    /// `let pat [: ty] [= init]` — the terminating `;` belongs to the
    /// enclosing block loop.
    fn let_expr(&mut self, lo: usize) -> Expr {
        self.bump(); // `let`
        if self.text(0) == "mut" {
            self.bump();
        }
        // Simple-ident pattern → tracked name; anything else (tuples,
        // structs, Some(x)) → None, pattern tokens skipped.
        let mut name = None;
        let next_is_path_sep = self.text(1) == ":"
            && self.peek(2).is_some_and(|t| t.text == ":")
            && self.adjacent(1);
        if self.peek(0).is_some_and(|t| t.kind == TokKind::Ident)
            && matches!(self.text(1), ":" | "=" | ";")
            && !next_is_path_sep
        {
            name = Some(self.bump());
        } else {
            // Skip pattern tokens up to `:`/`=`/`;`/EOF at depth 0.
            let mut depth = 0i64;
            while let Some(t) = self.peek(0) {
                match t.text {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ":" | "=" | ";" if depth == 0 => break,
                    _ => {}
                }
                self.bump();
            }
        }
        if self.text(0) == ":" && self.match_op("::").is_none() {
            self.bump();
            self.type_tokens();
        }
        let init = if self.text(0) == "=" && self.match_op("==").is_none() && self.match_op("=>").is_none() {
            self.bump();
            Some(Box::new(self.expr()))
        } else {
            None
        };
        Expr { kind: ExprKind::Let { name, init }, lo, hi: self.pos }
    }

    fn for_expr(&mut self, lo: usize) -> Expr {
        self.bump(); // `for`
        let pat_lo = self.pos;
        while let Some(t) = self.peek(0) {
            if t.text == "in" || t.text == "{" {
                break;
            }
            match t.text {
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                _ => {
                    self.bump();
                }
            }
        }
        let pat = (pat_lo, self.pos);
        if self.text(0) == "in" {
            self.bump();
        }
        let iter = Box::new(self.head_expr());
        let body = if self.text(0) == "{" { self.block() } else { Block::default() };
        Expr { kind: ExprKind::For { pat, iter, body }, lo, hi: self.pos }
    }

    /// `if cond { } [else if …] [else { }]` and `while cond { }`.
    fn cond_expr(&mut self, lo: usize) -> Expr {
        self.bump(); // `if` / `while`
        if self.text(0) == "let" {
            // `if let pat = expr`: skip the pattern to `=`.
            self.bump();
            let mut depth = 0i64;
            while let Some(t) = self.peek(0) {
                match t.text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "=" if depth == 0 && self.match_op("==").is_none() => {
                        self.bump();
                        break;
                    }
                    "{" if depth == 0 => break,
                    _ => {}
                }
                self.bump();
            }
        }
        let head = Box::new(self.head_expr());
        let mut blocks = Vec::new();
        if self.text(0) == "{" {
            blocks.push(self.block());
        }
        while self.text(0) == "else" {
            self.bump();
            if self.text(0) == "if" {
                let nested = self.cond_expr(self.pos);
                if let ExprKind::Structured { blocks: mut inner, .. } = nested.kind {
                    blocks.append(&mut inner);
                }
            } else if self.text(0) == "{" {
                blocks.push(self.block());
            } else {
                break;
            }
        }
        Expr { kind: ExprKind::Structured { head: Some(head), blocks }, lo, hi: self.pos }
    }

    fn match_expr(&mut self, lo: usize) -> Expr {
        self.bump(); // `match`
        let head = Box::new(self.head_expr());
        let blocks = if self.text(0) == "{" { vec![self.block()] } else { Vec::new() };
        Expr { kind: ExprKind::Structured { head: Some(head), blocks }, lo, hi: self.pos }
    }

    /// A condition/scrutinee/iterator expression: like [`Parser::expr`]
    /// but a `{` never starts a primary (it opens the body instead).
    fn head_expr(&mut self) -> Expr {
        if self.text(0) == "{" || self.peek(0).is_none() {
            let lo = self.pos;
            return Expr { kind: ExprKind::Verbatim, lo, hi: lo };
        }
        // Structs literals in heads are rare and `match x {` must not eat
        // the body; the postfix chain already refuses bare `{`.
        self.expr()
    }

    /// A path `a::b::c`, possibly ending as a macro call `p!(…)` or left
    /// for the postfix parser to extend into calls/method chains.
    fn path_expr(&mut self, lo: usize) -> Expr {
        let mut segs = vec![self.bump()];
        loop {
            if self.match_op("::").is_some() {
                self.bump();
                self.bump();
                if self.text(0) == "<" {
                    // `Vec::<u8>::new` turbofish inside a path.
                    self.skip_generics();
                    continue;
                }
                if self.peek(0).is_some_and(|t| t.kind == TokKind::Ident) {
                    segs.push(self.bump());
                    continue;
                }
                if self.text(0) == "{" {
                    // `use`-tree-ish braces in expr position: verbatim.
                    self.skip_balanced("{", "}");
                }
                break;
            }
            break;
        }
        if self.text(0) == "!" && self.match_op("!=").is_none() {
            // Macro call: `path!( … )` / `![…]` / `!{…}`.
            self.bump();
            let args = match self.text(0) {
                "(" => {
                    let mut args = Vec::new();
                    self.bump();
                    while let Some(t) = self.peek(0) {
                        match t.text {
                            ")" => {
                                self.bump();
                                break;
                            }
                            "," | ";" => {
                                self.bump();
                            }
                            _ => args.push(self.expr()),
                        }
                    }
                    args
                }
                "[" | "{" => {
                    let (open, close) = if self.text(0) == "[" { ("[", "]") } else { ("{", "}") };
                    let mut args = Vec::new();
                    self.bump();
                    while let Some(t) = self.peek(0) {
                        match t.text {
                            x if x == close => {
                                self.bump();
                                break;
                            }
                            "," | ";" => {
                                self.bump();
                            }
                            "(" => self.skip_balanced("(", ")"),
                            _ => args.push(self.expr()),
                        }
                    }
                    let _ = open;
                    args
                }
                _ => Vec::new(),
            };
            return Expr { kind: ExprKind::Macro { path: segs, args }, lo, hi: self.pos };
        }
        Expr { kind: ExprKind::Path(segs), lo, hi: self.pos }
    }
}

// ---------------------------------------------------------------------------
// Traversal helpers for the rule engine.
// ---------------------------------------------------------------------------

/// Context handed to expression visitors.
#[derive(Debug, Clone, Copy)]
pub struct VisitCx<'i> {
    /// The innermost enclosing `fn` item, when any.
    pub enclosing_fn: Option<&'i Item>,
    /// True inside a `#[cfg(test)]` item (directly or via an ancestor).
    pub in_cfg_test: bool,
}

/// True when any attribute in `attrs` is exactly `#[cfg(test)]`.
pub fn has_cfg_test(ast: &Ast<'_>, attrs: &[Attr]) -> bool {
    attrs.iter().any(|a| {
        let texts: Vec<&str> = (a.lo..a.hi).map(|i| ast.text(i)).collect();
        texts == ["#", "[", "cfg", "(", "test", ")", "]"]
    })
}

/// Walks every item (depth-first), invoking `f` with the item and whether
/// a `#[cfg(test)]` ancestor (or the item itself) marks it test-only.
pub fn walk_items<'i>(ast: &Ast<'_>, items: &'i [Item], in_test: bool, f: &mut impl FnMut(&'i Item, bool)) {
    for item in items {
        let test_here = in_test || has_cfg_test(ast, &item.attrs);
        f(item, test_here);
        match &item.kind {
            ItemKind::Mod { items, .. } | ItemKind::Container { items, .. } => {
                walk_items(ast, items, test_here, f);
            }
            _ => {}
        }
    }
}

/// Walks every expression under `items` (bodies, nested blocks, args),
/// invoking `f` with the [`VisitCx`] of the innermost function.
pub fn walk_exprs<'i>(
    ast: &Ast<'_>,
    items: &'i [Item],
    f: &mut impl FnMut(&'i Expr, VisitCx<'i>),
) {
    fn items_rec<'i>(
        ast: &Ast<'_>,
        items: &'i [Item],
        in_test: bool,
        f: &mut impl FnMut(&'i Expr, VisitCx<'i>),
    ) {
        for item in items {
            let test_here = in_test || has_cfg_test(ast, &item.attrs);
            match &item.kind {
                ItemKind::Fn { body: Some(body), .. } => {
                    let cx = VisitCx { enclosing_fn: Some(item), in_cfg_test: test_here };
                    block_rec(body, cx, f);
                }
                ItemKind::Mod { items, .. } | ItemKind::Container { items, .. } => {
                    items_rec(ast, items, test_here, f);
                }
                _ => {}
            }
        }
    }

    fn block_rec<'i>(
        block: &'i Block,
        cx: VisitCx<'i>,
        f: &mut impl FnMut(&'i Expr, VisitCx<'i>),
    ) {
        for e in &block.exprs {
            expr_rec(e, cx, f);
        }
    }

    fn expr_rec<'i>(e: &'i Expr, cx: VisitCx<'i>, f: &mut impl FnMut(&'i Expr, VisitCx<'i>)) {
        f(e, cx);
        match &e.kind {
            ExprKind::MethodCall { recv, args, .. } => {
                expr_rec(recv, cx, f);
                for a in args {
                    expr_rec(a, cx, f);
                }
            }
            ExprKind::Call { callee, args } => {
                expr_rec(callee, cx, f);
                for a in args {
                    expr_rec(a, cx, f);
                }
            }
            ExprKind::Field { recv, .. } => expr_rec(recv, cx, f),
            ExprKind::Macro { args, .. } | ExprKind::Group { exprs: args } => {
                for a in args {
                    expr_rec(a, cx, f);
                }
            }
            ExprKind::Cast { expr, .. } | ExprKind::Unary { expr } => expr_rec(expr, cx, f),
            ExprKind::Binary { lhs, rhs, .. } => {
                expr_rec(lhs, cx, f);
                expr_rec(rhs, cx, f);
            }
            ExprKind::For { iter, body, .. } => {
                expr_rec(iter, cx, f);
                block_rec(body, cx, f);
            }
            ExprKind::Let { init, .. } => {
                if let Some(init) = init {
                    expr_rec(init, cx, f);
                }
            }
            ExprKind::Structured { head, blocks } => {
                if let Some(h) = head {
                    expr_rec(h, cx, f);
                }
                for b in blocks {
                    block_rec(b, cx, f);
                }
            }
            ExprKind::Path(_) | ExprKind::Lit | ExprKind::Verbatim => {}
        }
    }

    items_rec(ast, items, false, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fn_body(src: &str) -> (Ast<'_>, Vec<String>) {
        let ast = parse(src);
        let mut shapes = Vec::new();
        walk_exprs(&ast, &ast.items.clone(), &mut |e, _| {
            shapes.push(shape(&ast, e));
        });
        (ast, shapes)
    }

    fn shape(ast: &Ast<'_>, e: &Expr) -> String {
        match &e.kind {
            ExprKind::Path(segs) => {
                format!("path:{}", segs.iter().map(|&i| ast.text(i)).collect::<Vec<_>>().join("::"))
            }
            ExprKind::MethodCall { name, .. } => format!("method:{}", ast.text(*name)),
            ExprKind::Call { .. } => "call".into(),
            ExprKind::Macro { path, .. } => {
                format!("macro:{}", path.iter().map(|&i| ast.text(i)).collect::<Vec<_>>().join("::"))
            }
            ExprKind::Cast { ty, .. } => {
                format!("cast:{}", (ty.0..ty.1).map(|i| ast.text(i)).collect::<Vec<_>>().join(""))
            }
            ExprKind::Binary { op, .. } => format!("bin:{op}"),
            ExprKind::For { .. } => "for".into(),
            ExprKind::Let { name, .. } => format!("let:{}", name.map_or("_", |i| ast.text(i))),
            ExprKind::Field { name, .. } => format!("field:{}", ast.text(*name)),
            _ => "-".into(),
        }
    }

    #[test]
    fn fn_item_with_name_vis_and_body() {
        let ast = parse("pub fn answer(x: u64) -> u64 { x }\nfn private() {}\n");
        assert_eq!(ast.items.len(), 2);
        assert!(ast.items[0].vis_pub && !ast.items[1].vis_pub);
        let ItemKind::Fn { name, body, .. } = &ast.items[0].kind else { panic!("not a fn") };
        assert_eq!(ast.text(*name), "answer");
        assert!(body.is_some());
    }

    #[test]
    fn cfg_test_is_structural() {
        let ast = parse("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn real() {}\n");
        let mut seen = Vec::new();
        walk_items(&ast, &ast.items.clone(), false, &mut |item, in_test| {
            if let ItemKind::Fn { name, .. } = &item.kind {
                seen.push((ast.text(*name).to_string(), in_test));
            }
        });
        assert_eq!(seen, vec![("t".to_string(), true), ("real".to_string(), false)]);
    }

    #[test]
    fn method_chain_and_macro() {
        let (_, shapes) = fn_body("fn f() { v.first().unwrap(); panic!(\"boom\"); }");
        assert!(shapes.contains(&"method:unwrap".to_string()), "{shapes:?}");
        assert!(shapes.contains(&"method:first".to_string()), "{shapes:?}");
        assert!(shapes.contains(&"macro:panic".to_string()), "{shapes:?}");
    }

    #[test]
    fn cast_and_binary() {
        let (_, shapes) = fn_body("fn f(cycle: u64) -> u32 { (cycle - start) as u32 }");
        assert!(shapes.contains(&"cast:u32".to_string()), "{shapes:?}");
        assert!(shapes.contains(&"bin:-".to_string()), "{shapes:?}");
    }

    #[test]
    fn shift_ops_join_only_when_adjacent() {
        let (_, shapes) = fn_body("fn f(a: u64, b: u64) { let c = a << b; let d = a < b; }");
        assert!(shapes.contains(&"bin:<<".to_string()), "{shapes:?}");
        assert!(shapes.contains(&"bin:<".to_string()), "{shapes:?}");
    }

    #[test]
    fn for_loop_over_method_call() {
        let (_, shapes) = fn_body("fn f(m: &M) { for (k, v) in m.iter() { use_it(k, v); } }");
        assert!(shapes.contains(&"for".to_string()), "{shapes:?}");
        assert!(shapes.contains(&"method:iter".to_string()), "{shapes:?}");
        assert!(shapes.contains(&"call".to_string()), "{shapes:?}");
    }

    #[test]
    fn let_binding_with_type_and_init() {
        let src = "fn f() { let mut m: HashMap<u64, u64> = HashMap::new(); }";
        let ast = parse(src);
        let mut found = None;
        walk_exprs(&ast, &ast.items.clone(), &mut |e, _| {
            if let ExprKind::Let { name, init } = &e.kind {
                found = Some((name.map(|i| ast.text(i).to_string()), init.is_some()));
            }
        });
        let (name, has_init) = found.expect("let parsed");
        assert_eq!(name.as_deref(), Some("m"));
        assert!(has_init, "the initializer is found past the type tokens");
    }

    #[test]
    fn impl_and_mod_bodies_recurse() {
        let src = "impl Foo { pub fn m(&self) { self.x.unwrap(); } }\nmod inner { fn g() {} }";
        let ast = parse(src);
        let mut fns = Vec::new();
        walk_items(&ast, &ast.items.clone(), false, &mut |item, _| {
            if let ItemKind::Fn { name, .. } = &item.kind {
                fns.push((ast.text(*name).to_string(), item.vis_pub));
            }
        });
        assert_eq!(fns, vec![("m".to_string(), true), ("g".to_string(), false)]);
    }

    #[test]
    fn tokens_are_never_lost() {
        // Every token index in [0, len) is covered by some top-level item
        // range, in order.
        for src in [
            "fn f() { let x = 1 + 2; }",
            "struct S { a: u64 }\nenum E { A, B }\nuse std::fmt;\n",
            "impl T for S { fn m() {} }",
            "#[derive(Debug)]\npub struct X;",
            "let orphan = ;;; }} {{",
        ] {
            let ast = parse(src);
            let mut cursor = 0usize;
            for item in &ast.items {
                assert!(item.lo == cursor, "{src:?}: gap before item at {}", item.lo);
                assert!(item.hi > item.lo, "{src:?}: empty item");
                cursor = item.hi;
            }
            assert_eq!(cursor, ast.toks.len(), "{src:?}: trailing tokens lost");
        }
    }

    #[test]
    fn pretty_round_trips_token_text() {
        for src in [
            "pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }",
            "fn g() { for (k, v) in map.iter() { total += v; } }",
            "impl S { fn m(&self) -> u32 { self.cycle as u32 } }",
            "fn h() { match x { Some(v) => v, None => 0 }; }",
            "fn e() { if let Some(x) = opt { x } else { 0 }; }",
        ] {
            let ast = parse(src);
            let printed = ast.pretty();
            let orig: Vec<&str> =
                lex(src).into_iter().filter(|t| !t.is_comment()).map(|t| t.text).collect();
            let re: Vec<String> = lex(&printed)
                .into_iter()
                .filter(|t| !t.is_comment())
                .map(|t| t.text.to_string())
                .collect();
            assert_eq!(re, orig, "pretty not stable for {src:?}:\n{printed}");
        }
    }

    #[test]
    fn unterminated_soup_never_panics() {
        for src in ["fn f( {", "impl {", "let x = ", "match {", "fn", "pub", "for x in", "a.b.", "x as"] {
            let ast = parse(src);
            let mut cursor = 0usize;
            for item in &ast.items {
                assert!(item.lo >= cursor && item.hi >= item.lo);
                cursor = item.hi;
            }
        }
    }
}
