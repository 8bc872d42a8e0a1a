//! A minimal, loss-tolerant Rust lexer.
//!
//! The rule engine in [`crate::rules`] needs just enough token structure to
//! tell *code* apart from *comments and literals*: an ident `HashMap` in
//! code is a finding, the same word inside a doc comment or a fixture
//! string is not. This lexer provides exactly that — idents, lifetimes,
//! string/char/byte/raw-string literals, numbers, single-character
//! punctuation, and line/block comments (block comments nest, as in Rust).
//!
//! Two properties matter more than full fidelity to `rustc`'s grammar:
//!
//! 1. **Total**: lexing never panics and never loses text, whatever bytes
//!    it is fed. Malformed input (unterminated strings or comments)
//!    degrades to a single token running to end-of-file.
//! 2. **Span-exact**: every token records its byte span and 1-based
//!    line/column, and the tokens tile the non-whitespace source exactly —
//!    the property tests in `tests/prop_lexer.rs` hold the lexer to this.

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (including raw idents like `r#mod`).
    Ident,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// A string literal: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, `br##"…"##`.
    Str,
    /// A character or byte literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A numeric literal (integers and floats, loosely).
    Num,
    /// A single punctuation character.
    Punct,
    /// A `//` line comment (doc comments included), excluding the newline.
    LineComment,
    /// A `/* … */` block comment, nesting respected.
    BlockComment,
}

/// One lexed token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    /// What the token is.
    pub kind: TokKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// Byte offset of the token start in the source.
    pub start: usize,
    /// 1-based line of the token start.
    pub line: u32,
    /// 1-based column (in characters) of the token start.
    pub col: u32,
}

impl Tok<'_> {
    /// True for line and block comments.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Character-indexed cursor over the source. All lookahead goes through
/// [`Cursor::peek`], so the lexer can never index out of bounds or split a
/// UTF-8 sequence.
struct Cursor<'a> {
    src: &'a str,
    /// `(byte_offset, char)` for every character, in order.
    chars: Vec<(usize, char)>,
    /// Index of the next unconsumed character in `chars`.
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor { src, chars: src.char_indices().collect(), i: 0, line: 1, col: 1 }
    }

    /// The character `k` positions ahead, if any.
    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).map(|&(_, c)| c)
    }

    /// Byte offset of the next unconsumed character (or end of source).
    fn offset(&self) -> usize {
        self.chars.get(self.i).map_or(self.src.len(), |&(o, _)| o)
    }

    /// Consumes one character, maintaining line/column bookkeeping.
    fn bump(&mut self) -> Option<char> {
        let &(_, c) = self.chars.get(self.i)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes characters while `pred` holds.
    fn bump_while(&mut self, pred: impl Fn(char) -> bool) {
        while self.peek(0).is_some_and(&pred) {
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a complete token stream.
///
/// The returned tokens are in source order, non-overlapping, and cover
/// every non-whitespace character of the input; unterminated literals or
/// comments extend to end-of-file rather than failing.
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let mut cx = Cursor::new(src);
    let mut toks = Vec::new();
    while let Some(c) = cx.peek(0) {
        if c.is_whitespace() {
            cx.bump();
            continue;
        }
        let (start, line, col) = (cx.offset(), cx.line, cx.col);
        let kind = lex_one(&mut cx, c);
        let end = cx.offset();
        toks.push(Tok { kind, text: &src[start..end], start, line, col });
    }
    toks
}

/// Lexes exactly one token starting at `c`; the cursor is advanced past it.
fn lex_one(cx: &mut Cursor<'_>, c: char) -> TokKind {
    match c {
        '/' if cx.peek(1) == Some('/') => {
            cx.bump_while(|c| c != '\n');
            TokKind::LineComment
        }
        '/' if cx.peek(1) == Some('*') => {
            cx.bump();
            cx.bump();
            let mut depth = 1u32;
            while depth > 0 {
                match (cx.peek(0), cx.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cx.bump();
                        cx.bump();
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cx.bump();
                        cx.bump();
                    }
                    (Some(_), _) => {
                        cx.bump();
                    }
                    (None, _) => break, // unterminated: comment to EOF
                }
            }
            TokKind::BlockComment
        }
        'r' | 'b' if raw_string_hashes(cx).is_some() => {
            let hashes = raw_string_hashes(cx).unwrap_or(0);
            lex_raw_string(cx, hashes)
        }
        'r' if cx.peek(1) == Some('#') && cx.peek(2).is_some_and(is_ident_start) => {
            // Raw identifier: r#ident.
            cx.bump();
            cx.bump();
            cx.bump_while(is_ident_continue);
            TokKind::Ident
        }
        'b' if cx.peek(1) == Some('"') => {
            cx.bump();
            lex_string(cx)
        }
        'b' if cx.peek(1) == Some('\'') => {
            cx.bump();
            lex_char(cx)
        }
        '"' => lex_string(cx),
        '\'' => {
            // Lifetime if followed by an ident char that is not itself
            // closed by a quote ('a vs 'a').
            let one = cx.peek(1);
            let two = cx.peek(2);
            if one.is_some_and(is_ident_start) && two != Some('\'') {
                cx.bump();
                cx.bump_while(is_ident_continue);
                TokKind::Lifetime
            } else {
                lex_char(cx)
            }
        }
        c if is_ident_start(c) => {
            cx.bump_while(is_ident_continue);
            TokKind::Ident
        }
        c if c.is_ascii_digit() => {
            lex_number(cx);
            TokKind::Num
        }
        _ => {
            cx.bump();
            TokKind::Punct
        }
    }
}

/// If the cursor sits on the start of a raw string (`r"`, `r#"`, `br##"`,
/// …), returns the number of `#`s; otherwise `None`.
fn raw_string_hashes(cx: &Cursor<'_>) -> Option<u32> {
    let mut k = 1; // past the leading r or b
    if cx.peek(0) == Some('b') {
        if cx.peek(1) != Some('r') {
            return None;
        }
        k = 2;
    }
    let mut hashes = 0u32;
    while cx.peek(k) == Some('#') {
        hashes += 1;
        k += 1;
    }
    (cx.peek(k) == Some('"')).then_some(hashes)
}

/// Consumes a raw string with `hashes` delimiter hashes (prefix included).
fn lex_raw_string(cx: &mut Cursor<'_>, hashes: u32) -> TokKind {
    // Prefix (r / br), hashes, opening quote.
    cx.bump();
    if cx.peek(0) == Some('r') {
        cx.bump(); // the r of br
    }
    for _ in 0..hashes {
        cx.bump();
    }
    cx.bump(); // opening quote
    loop {
        match cx.bump() {
            None => return TokKind::Str, // unterminated: to EOF
            Some('"') => {
                let closes = (0..hashes as usize).all(|k| cx.peek(k) == Some('#'));
                if closes {
                    for _ in 0..hashes {
                        cx.bump();
                    }
                    return TokKind::Str;
                }
            }
            Some(_) => {}
        }
    }
}

/// Consumes a `"…"` string with `\` escapes; cursor is on the open quote.
fn lex_string(cx: &mut Cursor<'_>) -> TokKind {
    cx.bump();
    loop {
        match cx.bump() {
            None | Some('"') => return TokKind::Str,
            Some('\\') => {
                cx.bump(); // the escaped character (possibly the quote)
            }
            Some(_) => {}
        }
    }
}

/// Consumes a char/byte literal; cursor is on the open quote.
fn lex_char(cx: &mut Cursor<'_>) -> TokKind {
    cx.bump();
    match cx.bump() {
        None | Some('\'') => return TokKind::Char,
        Some('\\') => {
            // `\u{…}` spans multiple characters; consuming only the `u`
            // would leave `{…}'` behind and the trailing quote would eat
            // the next real token (this desynced the parser's paren
            // matching on `'\u{fffd}'`). Bounded by `}`/quote/newline so
            // soup stays total.
            if cx.peek(0) == Some('u') && cx.peek(1) == Some('{') {
                cx.bump();
                cx.bump();
                while cx.peek(0).is_some_and(|c| c != '}' && c != '\'' && c != '\n') {
                    cx.bump();
                }
                if cx.peek(0) == Some('}') {
                    cx.bump();
                }
            } else {
                cx.bump();
            }
        }
        Some(_) => {}
    }
    if cx.peek(0) == Some('\'') {
        cx.bump();
    }
    TokKind::Char
}

/// Consumes a numeric literal: leading digit, then ident-ish characters,
/// with `.`/exponent handling loose enough for ranges (`0..10` stays three
/// tokens) and floats (`1.5e-3` is one).
fn lex_number(cx: &mut Cursor<'_>) {
    cx.bump();
    loop {
        match cx.peek(0) {
            Some(c) if is_ident_continue(c) => {
                cx.bump();
                // Signed exponent: 1e-9, 2.5E+10.
                if (c == 'e' || c == 'E')
                    && matches!(cx.peek(0), Some('+') | Some('-'))
                    && cx.peek(1).is_some_and(|d| d.is_ascii_digit())
                {
                    cx.bump();
                }
            }
            Some('.') if cx.peek(1).is_some_and(|d| d.is_ascii_digit()) => {
                cx.bump();
            }
            _ => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            kinds("use std::time;"),
            vec![
                (TokKind::Ident, "use"),
                (TokKind::Ident, "std"),
                (TokKind::Punct, ":"),
                (TokKind::Punct, ":"),
                (TokKind::Ident, "time"),
                (TokKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn comments_swallow_code_words() {
        let toks = kinds("x /* HashMap */ y // Instant");
        assert_eq!(toks[0], (TokKind::Ident, "x"));
        assert_eq!(toks[1], (TokKind::BlockComment, "/* HashMap */"));
        assert_eq!(toks[2], (TokKind::Ident, "y"));
        assert_eq!(toks[3], (TokKind::LineComment, "// Instant"));
    }

    #[test]
    fn nested_block_comment_is_one_token() {
        let src = "/* a /* b */ c */ z";
        let toks = kinds(src);
        assert_eq!(toks[0], (TokKind::BlockComment, "/* a /* b */ c */"));
        assert_eq!(toks[1], (TokKind::Ident, "z"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r##"body with "# inside"## ;"####;
        let toks = kinds(src);
        assert_eq!(toks[3], (TokKind::Str, r###"r##"body with "# inside"##"###));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        assert_eq!(kinds(r#"b"x""#)[0].0, TokKind::Str);
        assert_eq!(kinds(r##"br#"x"#"##)[0].0, TokKind::Str);
        assert_eq!(kinds("b'q'")[0].0, TokKind::Char);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("&'a str; 'x'; '\\n'");
        assert!(toks.contains(&(TokKind::Lifetime, "'a")));
        assert!(toks.contains(&(TokKind::Char, "'x'")));
        assert!(toks.contains(&(TokKind::Char, "'\\n'")));
    }

    #[test]
    fn unicode_escape_chars_are_one_token() {
        // Regression: `'\u{fffd}'` must not leave a stray trailing quote
        // that swallows the next delimiter (it desynced paren matching in
        // the parser on `unwrap_or('\u{fffd}'));`).
        let toks = kinds("f('\\u{fffd}'); g()");
        assert!(toks.contains(&(TokKind::Char, "'\\u{fffd}'")), "{toks:?}");
        assert_eq!(toks.iter().filter(|t| t.1 == ")").count(), 2, "{toks:?}");
        assert!(toks.iter().any(|t| *t == (TokKind::Char, "'\\u{8}'") || t.1 == "g"));
    }

    #[test]
    fn string_escapes_do_not_end_the_string() {
        let toks = kinds(r#""a\"b" c"#);
        assert_eq!(toks[0], (TokKind::Str, r#""a\"b""#));
        assert_eq!(toks[1], (TokKind::Ident, "c"));
    }

    #[test]
    fn numbers_and_ranges() {
        assert_eq!(
            kinds("0..10"),
            vec![
                (TokKind::Num, "0"),
                (TokKind::Punct, "."),
                (TokKind::Punct, "."),
                (TokKind::Num, "10"),
            ]
        );
        assert_eq!(kinds("1.5e-3")[0], (TokKind::Num, "1.5e-3"));
        assert_eq!(kinds("0xFF_u64")[0], (TokKind::Num, "0xFF_u64"));
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* abc", "r#\"abc", "'", "b\"", "r#"] {
            let toks = lex(src);
            assert!(!toks.is_empty(), "{src:?}");
        }
    }

    #[test]
    fn line_and_col_are_one_based_and_utf8_aware() {
        let toks = lex("αβ x\n  y");
        let x = toks.iter().find(|t| t.text == "x").expect("x");
        assert_eq!((x.line, x.col), (1, 4));
        let y = toks.iter().find(|t| t.text == "y").expect("y");
        assert_eq!((y.line, y.col), (2, 3));
    }

    #[test]
    fn spans_tile_the_source() {
        let src = "fn main() { let s = \"// not a comment\"; }";
        let mut end = 0;
        for t in lex(src) {
            assert!(t.start >= end, "tokens ordered and disjoint");
            assert_eq!(&src[t.start..t.start + t.text.len()], t.text);
            end = t.start + t.text.len();
        }
    }
}
