//! Totality of the in-tree JSON parser: random byte soup and single-token
//! mutations of well-formed documents each return a value or an error
//! that names a byte offset inside the input, never a panic.

use swque_rng::prop::check;
use swque_trace::json::Json;

/// Well-formed documents the property mutates: the committed sweep
/// manifest, and literals covering every value kind, escapes, exponents
/// and nesting.
fn corpus() -> Vec<String> {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../manifests/sensitivity.json");
    let manifest = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
    vec![
        manifest,
        r#"{"schema":"swque-bench-v1","rows":[{"ipc":1.25,"cycles":1e3,"ok":true,"x":null}]}"#
            .to_string(),
        r#"[-0.5e-3, 18446744073709551615, "tab\tquote\"unié😀", [[[]]], {}]"#
            .to_string(),
    ]
}

/// Fragments the soup and the mutations draw from: structural bytes,
/// literals and their prefixes, escapes (valid, truncated and lone
/// surrogates), numbers at and past `f64`'s range, and whitespace.
const FRAGMENTS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\"k\"", "true", "tru", "false", "null", "nul",
    "0", "-", "-0", "01", "1.", ".5", "1e", "1e999", "-1e-999", "18446744073709551616", "+1",
    "\\u", "\\u00e9", "\\ud83d", "\\udc00", "\\x", " ", "\t", "\n", "\r", "é", "\u{0}", "\u{1f}",
    "",
];

#[test]
fn json_parse_is_total_on_soup_and_corpus_mutations() {
    let corpus = corpus();
    for text in &corpus {
        let value = Json::parse(text).unwrap_or_else(|e| panic!("corpus must parse: {e}"));
        assert_eq!(Json::parse(&value.to_string()), Ok(value), "render round-trips");
    }
    // Nesting past the parser's depth bound is an error, not a stack
    // overflow.
    let deep = "[".repeat(100_000);
    let e = Json::parse(&deep).unwrap_err();
    assert!(e.offset < deep.len());
    check(2048, |g| {
        let input = if g.bool() {
            g.soup(FRAGMENTS)
        } else {
            let text = &corpus[g.gen_range(0..corpus.len())];
            g.mutate(text, FRAGMENTS)
        };
        if let Err(e) = Json::parse(&input) {
            assert!(e.offset <= input.len(), "{e} is past the end of {input:?}");
            assert!(!e.expected.is_empty(), "an error names what it expected: {input:?}");
        }
    });
}
