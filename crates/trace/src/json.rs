//! A minimal JSON value: builder, writer, and parser.
//!
//! The workspace is hermetic (no external crates), so the structured
//! experiment output ([`SWQUE_JSON`]) needs an in-tree serializer — and the
//! verification gate needs an in-tree *parser* to validate what the
//! binaries wrote. This module provides both around one [`Json`] value
//! type.
//!
//! Scope: exactly what the bench schema needs. Objects preserve insertion
//! order (stable output diffs), numbers are `f64` (every counter in the
//! simulator fits in 53 bits; integral values print without a fraction),
//! and the parser accepts standard JSON including escapes and scientific
//! notation. Not a general-purpose JSON library — no streaming, no
//! comments, no duplicate-key detection.
//!
//! ```
//! use swque_trace::json::Json;
//!
//! let doc = Json::obj([
//!     ("schema", Json::from("swque-bench-v1")),
//!     ("rows", Json::Arr(vec![Json::from(1.0), Json::from(2.5)])),
//! ]);
//! let text = doc.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(doc, back);
//! assert_eq!(back.get("schema").and_then(Json::as_str), Some("swque-bench-v1"));
//! ```
//!
//! [`SWQUE_JSON`]: https://docs.rs/swque-bench

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always stored as `f64`; integral values print as
    /// integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is insertion order and is preserved by the
    /// writer (the parser preserves document order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs in order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the guard admits only integers in 0..=2^53"
            )]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The object's keys in order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Parses a JSON document (the whole input must be one value plus
    /// optional whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the byte offset and what was
    /// expected there.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("end of input"));
        }
        Ok(value)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    /// Writes compact JSON (no insignificant whitespace). Integral numbers
    /// print without a fractional part; non-finite numbers print as `null`
    /// (JSON has no representation for them).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the guard admits only integers below 2^53 in magnitude"
            )]
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 2f64.powi(53) => {
                write!(f, "{}", *n as i64)
            }
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure: what was expected and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input at which the failure occurred.
    pub offset: usize,
    /// What the parser was expecting there.
    pub expected: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting the parser accepts. The recursive-descent
/// parser uses one host stack frame per nesting level, so an adversarial
/// `[[[[…]]]]` input would otherwise overflow the stack; real bench
/// reports nest four or five levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting level, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &'static str) -> ParseError {
        ParseError { offset: self.pos, expected }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, expected: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("a JSON literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    /// Bumps the nesting level on container entry; errors at the cap
    /// instead of recursing toward a host stack overflow.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting no deeper than 128 levels"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[', "'['")?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{', "'{'")?;
        self.descend()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("a closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("an escape character"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("four hex digits"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("four hex digits"))?;
                            self.pos = end;
                            // Surrogates are not combined (the writer never
                            // emits them; BMP coverage suffices here).
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("valid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("a character"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("no raw control characters"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // The scan above admits only ASCII bytes, so the UTF-8 check passes.
        let n: f64 = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse().ok())
            .ok_or(ParseError { offset: start, expected: "a number" })?;
        // Overflowing literals like `1e999` parse to ±infinity, which the
        // writer can only render as `null` — accepting them would break
        // parse/serialize round-tripping. Reject at the source instead.
        if !n.is_finite() {
            return Err(ParseError { offset: start, expected: "a finite number" });
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_documents() {
        let doc = Json::obj([
            ("a", Json::from(1u64)),
            ("b", Json::from(2.5)),
            ("c", Json::from("x\"y")),
            ("d", Json::Arr(vec![Json::Null, Json::from(true)])),
        ]);
        assert_eq!(doc.to_string(), r#"{"a":1,"b":2.5,"c":"x\"y","d":[null,true]}"#);
    }

    #[test]
    fn integral_floats_print_as_integers() {
        assert_eq!(Json::from(400000u64).to_string(), "400000");
        assert_eq!(Json::from(0.04).to_string(), "0.04");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null", "non-finite becomes null");
    }

    #[test]
    fn parses_what_it_writes() {
        let doc = Json::obj([
            ("schema", Json::from("swque-bench-v1")),
            ("n", Json::from(12345u64)),
            ("f", Json::from(-0.75)),
            ("nested", Json::obj([("k", Json::Arr(vec![Json::from(1u64)]))])),
            ("text", Json::from("tabs\tand\nnewlines and ünïcode")),
        ]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn parses_standard_inputs() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.0e1 , -3 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(20.0));
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(Json::parse(r#""A\n""#).unwrap(), Json::from("A\n"));
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "trail", "1 2", "\"open", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // One past the cap fails cleanly…
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.expected.contains("nesting"), "got {err}");
        // …as does a pathological input far beyond it (the original bug:
        // recursion depth proportional to input length).
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
        let bomb = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        // Depth is current nesting, not a total-container count: many
        // shallow siblings are fine.
        let wide = format!("[{}]", vec!["[]"; 500].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn overflowing_number_literals_are_rejected() {
        for bad in ["1e999", "-1e999", "1e308e", "123456789012e300"] {
            let r = Json::parse(bad);
            assert!(r.is_err(), "accepted {bad:?} as {r:?}");
        }
        // Large but finite is fine.
        assert_eq!(Json::parse("1e300").unwrap().as_f64(), Some(1e300));
    }

    /// Round-trip pin: every finite value the builder can produce must
    /// survive `to_string` → `parse` exactly. Random documents are built
    /// from the in-tree RNG; before the non-finite rejection fix, a `Num`
    /// holding infinity printed as `null` and round-tripping silently
    /// changed the document.
    #[test]
    fn prop_write_parse_round_trip() {
        use swque_rng::prop::{check, Gen};

        fn random_value(g: &mut Gen, depth: usize) -> Json {
            match g.gen_range(0u32..if depth < 4 { 8 } else { 6 }) {
                0 => Json::Null,
                1 => Json::Bool(g.bool()),
                2 => Json::from(g.gen_range(0u64..1_000_000_000)),
                3 => Json::Num(g.gen_range(0u64..2_000_000) as f64 / 1024.0 - 500.0),
                4 => Json::from(format!("s{}", g.gen_range(0u64..1000))),
                5 => Json::from("täb\t\"quote\"\nünicode \u{1F600}"),
                6 => Json::Arr(
                    (0..g.gen_range(0u64..5)).map(|_| random_value(g, depth + 1)).collect(),
                ),
                _ => Json::obj(
                    (0..g.gen_range(0u64..5))
                        .map(|i| (format!("k{i}"), random_value(g, depth + 1)))
                        .collect::<Vec<_>>(),
                ),
            }
        }

        check(256, |g| {
            let doc = random_value(g, 0);
            let text = doc.to_string();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
            assert_eq!(back, doc, "round-trip changed the document: {text}");
        });
    }

    #[test]
    fn accessors_and_keys() {
        let v = Json::obj([("x", Json::from(3u64)), ("y", Json::from(false))]);
        assert_eq!(v.keys(), vec!["x", "y"]);
        assert_eq!(v.get("x").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("y").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("z"), None);
        assert_eq!(Json::from(2.5).as_u64(), None, "fractional is not u64");
        assert_eq!(v.as_obj().map(<[(String, Json)]>::len), Some(2));
    }
}
