//! Totality of `Manifest::parse`: random soup and single-token mutations
//! of well-formed manifests each return a manifest or an error located
//! by its field path (`budget.max_insts`, `axes.seeds[2]`, …) or, for a
//! JSON syntax error, by byte offset, never a panic.

use swque_bench::sweep::Manifest;
use swque_rng::prop::check;

fn corpus() -> Vec<String> {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../manifests/sensitivity.json");
    let committed =
        std::fs::read_to_string(committed).unwrap_or_else(|e| panic!("{committed}: {e}"));
    vec![
        committed,
        r#"{"schema": "swque-sweep-manifest-v1", "name": "smoke",
            "budget": {"warmup_insts": 2000, "max_insts": 8000, "scale": 1500},
            "axes": {"kinds": ["CIRC", "AGE"], "seeds": [0, 7, 11],
                     "models": ["medium", "large"], "mpki_thresholds": [null, 1.0],
                     "kernels": ["mcf_like", "omnetpp_like"]}}"#
            .to_string(),
        r#"{"schema": "swque-sweep-manifest-v1", "name": "defaults",
            "budget": {"warmup_insts": 0, "max_insts": 1}}"#
            .to_string(),
    ]
}

/// Fragments the soup and the mutations draw from: JSON structure, the
/// manifest's keys and labels (known and unknown), and numbers that are
/// not integers or overflow one.
const FRAGMENTS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", " ", "\n", "null", "true", "\"schema\"",
    "\"swque-sweep-manifest-v1\"", "\"name\"", "\"budget\"", "\"axes\"", "\"warmup_insts\"",
    "\"max_insts\"", "\"scale\"", "\"kinds\"", "\"models\"", "\"seeds\"", "\"kernels\"",
    "\"mpki_thresholds\"", "\"flpi_thresholds\"", "\"SWQUE\"", "\"BOGUS\"", "\"medium\"",
    "\"mcf_like\"", "\"nope_like\"", "0", "-1", "1.5", "1e999", "18446744073709551616", "é",
    "",
];

#[test]
fn manifest_parse_is_total_on_soup_and_corpus_mutations() {
    let corpus = corpus();
    for text in &corpus {
        Manifest::parse(text).unwrap_or_else(|e| panic!("corpus manifest must parse: {e}"));
    }
    check(2048, |g| {
        let input = if g.bool() {
            g.soup(FRAGMENTS)
        } else {
            let text = &corpus[g.gen_range(0..corpus.len())];
            g.mutate(text, FRAGMENTS)
        };
        if let Err(e) = Manifest::parse(&input) {
            let (path, message) = e.split_once(": ").unwrap_or(("", ""));
            assert!(
                !path.is_empty() && !path.contains(char::is_whitespace) && !message.is_empty(),
                "error {e:?} names no field path for {input:?}"
            );
            if path == "manifest" {
                assert!(message.contains(" at byte "), "{e:?} names no byte offset");
            }
        }
    });
}
