//! The versioned `swque-lint-v5` JSON report.
//!
//! Shape (all keys always present, documented field-by-field in DESIGN.md
//! §8.9):
//!
//! ```json
//! {
//!   "schema": "swque-lint-v5",
//!   "files_scanned": 123,
//!   "suppressed": 2,
//!   "status": "ok",
//!   "rules": [ {"rule": "panic-in-lib", "count": 0}, … ],
//!   "findings": [ {"rule": "…", "rule_class": "token", "file": "…",
//!                  "line": 1, "col": 5, "message": "…", "chain": ""}, … ]
//! }
//! ```
//!
//! `status` is `"ok"` when the scan has no unsuppressed finding and
//! `"failed"` otherwise — the same verdict as the binary's exit code;
//! `rules` lists every known rule in stable order with its current count.
//! The `report_shape_is_stable_and_parses` test below is the schema's one
//! validator: it pins every key and value type at every level.

use swque_trace::Json;

use crate::rules::{rule_class, RULES};
use crate::Scan;

/// Schema identifier written into every report.
pub const LINT_SCHEMA: &str = "swque-lint-v5";

/// Serializes a scan and its verdict as a `swque-lint-v5` document.
pub fn report_json(scan: &Scan) -> Json {
    let counts = scan.counts();
    let rules = RULES
        .iter()
        .map(|&rule| {
            Json::obj([
                ("rule", Json::from(rule)),
                ("count", Json::from(counts.get(rule).copied().unwrap_or(0))),
            ])
        })
        .collect();
    let findings = scan
        .findings
        .iter()
        .map(|f| {
            Json::obj([
                ("rule", Json::from(f.rule)),
                ("rule_class", Json::from(rule_class(f.rule))),
                ("file", Json::from(f.file.as_str())),
                ("line", Json::from(u64::from(f.line))),
                ("col", Json::from(u64::from(f.col))),
                ("message", Json::from(f.message.as_str())),
                ("chain", Json::from(f.chain.as_str())),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::from(LINT_SCHEMA)),
        ("files_scanned", Json::from(scan.files_scanned as u64)),
        ("suppressed", Json::from(scan.suppressed as u64)),
        ("status", Json::from(if scan.findings.is_empty() { "ok" } else { "failed" })),
        ("rules", Json::Arr(rules)),
        ("findings", Json::Arr(findings)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn scan_with(findings: Vec<Finding>) -> Scan {
        Scan { findings, suppressed: 1, files_scanned: 3 }
    }

    /// Asserts that `doc` has exactly the v5 shape: every key at every
    /// level, in order, each with its value type.
    fn assert_v5_shape(doc: &Json) {
        assert_eq!(
            doc.keys(),
            vec!["schema", "files_scanned", "suppressed", "status", "rules", "findings"],
        );
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(LINT_SCHEMA));
        for key in ["files_scanned", "suppressed"] {
            assert!(doc.get(key).and_then(Json::as_u64).is_some(), "{key}: not an integer");
        }
        let status = doc.get("status").and_then(Json::as_str);
        assert!(matches!(status, Some("ok" | "failed")), "status: {status:?}");

        let rules = doc.get("rules").and_then(Json::as_arr).expect("rules: not an array");
        assert_eq!(rules.len(), RULES.len());
        for (r, name) in rules.iter().zip(RULES) {
            assert_eq!(r.keys(), vec!["rule", "count"]);
            assert_eq!(r.get("rule").and_then(Json::as_str), Some(name), "rules out of order");
            let count = r.get("count").and_then(Json::as_u64);
            assert!(count.is_some(), "{name}.count: not an integer");
        }

        let findings = doc.get("findings").and_then(Json::as_arr).expect("findings: not an array");
        for f in findings {
            assert_eq!(
                f.keys(),
                vec!["rule", "rule_class", "file", "line", "col", "message", "chain"],
            );
            for key in ["rule", "file", "message", "chain"] {
                assert!(f.get(key).and_then(Json::as_str).is_some(), "{key}: not a string");
            }
            for key in ["line", "col"] {
                assert!(f.get(key).and_then(Json::as_u64).is_some(), "{key}: not an integer");
            }
            let class = f.get("rule_class").and_then(Json::as_str);
            assert!(
                matches!(class, Some("token" | "ast" | "reachability")),
                "rule_class: {class:?}"
            );
        }
    }

    #[test]
    fn report_shape_is_stable_and_parses() {
        let scan = scan_with(vec![Finding::new(
            "mc-replay",
            "crates/mc/tests/x.rs".to_string(),
            4,
            9,
            "replay literal fails to parse: bad cap".to_string(),
        )]);
        let doc = report_json(&scan);
        // Round-trips through the in-tree parser, and the parsed copy
        // (what a consumer sees) carries the full shape.
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
        assert_v5_shape(&back);

        assert_eq!(back.get("files_scanned").and_then(Json::as_u64), Some(3));
        assert_eq!(back.get("suppressed").and_then(Json::as_u64), Some(1));
        let rules = back.get("rules").and_then(Json::as_arr).unwrap();
        for r in rules {
            let want = u64::from(r.get("rule").and_then(Json::as_str) == Some("mc-replay"));
            assert_eq!(r.get("count").and_then(Json::as_u64), Some(want));
        }
        let f = &back.get("findings").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(f.get("rule_class").and_then(Json::as_str), Some("token"));
        assert_eq!(f.get("line").and_then(Json::as_u64), Some(4));
        assert_eq!(f.get("col").and_then(Json::as_u64), Some(9));
        assert_eq!(f.get("chain").and_then(Json::as_str), Some(""));
    }

    #[test]
    fn status_fails_on_any_unsuppressed_finding() {
        let failing = scan_with(vec![Finding::new(
            "panic-in-lib",
            "crates/bench/src/output.rs".to_string(),
            1,
            1,
            "x".to_string(),
        )]);
        let doc = report_json(&failing);
        assert_v5_shape(&doc);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));

        // Suppressed findings alone do not fail the gate.
        let clean = scan_with(Vec::new());
        let doc = report_json(&clean);
        assert_v5_shape(&doc);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("findings").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    }
}
