//! Schema validator for structured tool output: parses each file named on
//! the command line with the in-tree JSON parser and dispatches on its
//! declared schema. `swque-bench-v1` experiment reports (including the
//! nested `swque-trace-v1` shape of any embedded trace digests) are checked
//! field by field here, because their rows are free-form. Every other
//! schema is checked by the code that writes it: `swque-sweep-manifest-v1`
//! campaign manifests by the sweep's own parser, `swque-sweep-shard-v1`
//! shards and `swque-sweep-campaign-v1` merged reports by rebuilding them
//! with their writers (`swque_bench::sweep`), and `swque-mc-v1`
//! model-checker reports by `swque_mc::validate_report`, which also
//! re-parses every violation's replay string. A document is valid when its
//! writer rebuilds it byte for byte, so a tampered unit key, an edited
//! geomean or marginal, or a zero-IPC shard fails here exactly as it fails
//! the merge. Used by `scripts/verify.sh` as the JSON smoke step for these
//! producers.
//!
//! Diagnostics name the offending JSON path (`tables[2].rows[5]`,
//! `marginals[1].geomean_ipc`, …) so a broken writer can be located
//! without diffing documents by eye. All files are checked even after a
//! failure; the exit code is non-zero if *any* file was unreadable,
//! unparseable, or schema-violating.

use std::process::ExitCode;

use swque_bench::sweep::{validate_campaign, validate_shard_doc};
use swque_bench::{Manifest, BENCH_SCHEMA, CAMPAIGN_SCHEMA, MANIFEST_SCHEMA, SHARD_SCHEMA};
use swque_mc::MC_SCHEMA;
use swque_trace::Json;

/// Dispatches on the document's declared `schema` field.
fn check_report(doc: &Json) -> Result<String, String> {
    match doc.get("schema").and_then(Json::as_str).unwrap_or("") {
        BENCH_SCHEMA => check_bench_report(doc),
        MANIFEST_SCHEMA => {
            let m = Manifest::parse(&doc.to_string())?;
            Ok(format!("sweep manifest {:?}: {} unit(s)", m.name, m.units().len()))
        }
        SHARD_SCHEMA => Ok(format!("sweep shard {}", validate_shard_doc(doc)?.0.key())),
        CAMPAIGN_SCHEMA => validate_campaign(doc).map(|()| {
            let name = doc.get("name").and_then(Json::as_str).unwrap_or("");
            let count = |key| doc.get(key).and_then(Json::as_arr).map_or(0, <[Json]>::len);
            format!(
                "sweep campaign {name:?}: {} unit(s), {} marginal(s)",
                count("rows"),
                count("marginals")
            )
        }),
        MC_SCHEMA => swque_mc::validate_report(doc).map(|runs| {
            let states: u64 = runs.iter().map(|r| r.states).sum();
            let violations: usize = runs.iter().map(|r| r.violations.len()).sum();
            format!(
                "mc report: {} run(s), {states} state(s), {violations} violation(s)",
                runs.len()
            )
        }),
        other => Err(format!(
            "schema: {other:?}, expected {BENCH_SCHEMA:?}, {MANIFEST_SCHEMA:?}, \
             {SHARD_SCHEMA:?}, {CAMPAIGN_SCHEMA:?}, or {MC_SCHEMA:?}"
        )),
    }
}

/// The roles a requester-tagged result row may claim.
const REQUESTER_ROLES: [&str; 2] = ["measured", "aggressor"];

/// Validates one requester-tagged result row (multi-core experiments such
/// as `neighbor` emit one per core per scenario; a row is requester-tagged
/// iff it carries a `requester` key). The per-requester contention
/// counters must all be present and integer-typed so interference tooling
/// can aggregate them unconditionally.
fn check_requester_row(row: &Json, path: &str) -> Result<(), String> {
    for key in [
        "requester",
        "cycles",
        "retired",
        "llc_demand_misses",
        "dram_transfers",
        "arb_wait_cycles",
        "quota_stall_cycles",
    ] {
        row.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}.{key}: not an integer"))?;
    }
    row.get("kernel")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}.kernel: not a string"))?;
    row.get("ipc").and_then(Json::as_f64).ok_or_else(|| format!("{path}.ipc: not a number"))?;
    let role = row.get("role").and_then(Json::as_str).unwrap_or("");
    if !REQUESTER_ROLES.contains(&role) {
        return Err(format!("{path}.role: {role:?}, expected one of {REQUESTER_ROLES:?}"));
    }
    Ok(())
}

/// Validates one `swque-bench-v1` experiment report. `Err` carries a
/// diagnostic of the form `<json path>: <what is wrong>`.
fn check_bench_report(doc: &Json) -> Result<String, String> {
    let keys = doc.keys();
    let expect = ["schema", "experiment", "params", "tables", "rows", "traces"];
    if keys != expect {
        return Err(format!("$: top-level keys {keys:?}, expected {expect:?}"));
    }
    let experiment =
        doc.get("experiment").and_then(Json::as_str).ok_or("experiment: not a string")?;
    let params = doc.get("params").ok_or("params: missing")?;
    for key in ["warmup_insts", "max_insts"] {
        params
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("params.{key}: not an integer"))?;
    }
    let tables = doc.get("tables").and_then(Json::as_arr).ok_or("tables: not an array")?;
    for (ti, t) in tables.iter().enumerate() {
        if t.keys() != ["name", "header", "rows"] {
            return Err(format!("tables[{ti}]: keys {:?}, expected name/header/rows", t.keys()));
        }
        let width = t
            .get("header")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("tables[{ti}].header: not an array"))?
            .len();
        let rows = t
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("tables[{ti}].rows: not an array"))?;
        for (ri, row) in rows.iter().enumerate() {
            let cells =
                row.as_arr().ok_or_else(|| format!("tables[{ti}].rows[{ri}]: not an array"))?;
            if cells.len() != width {
                return Err(format!(
                    "tables[{ti}].rows[{ri}]: width {} vs header width {width}",
                    cells.len()
                ));
            }
        }
    }
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or("rows: not an array")?;
    for (ri, row) in rows.iter().enumerate() {
        if row.get("requester").is_some() {
            check_requester_row(row, &format!("rows[{ri}]"))?;
        }
    }
    let traces = doc.get("traces").and_then(Json::as_arr).ok_or("traces: not an array")?;
    for (ei, entry) in traces.iter().enumerate() {
        entry
            .get("program")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("traces[{ei}].program: missing or not a string"))?;
        let t = entry.get("trace").ok_or_else(|| format!("traces[{ei}].trace: missing"))?;
        let path = format!("traces[{ei}].trace");
        let ts = t.get("schema").and_then(Json::as_str).unwrap_or("");
        if ts != "swque-trace-v1" {
            return Err(format!("{path}.schema: {ts:?}, expected \"swque-trace-v1\""));
        }
        for key in ["events", "dropped", "switches", "circ_pc_intervals", "age_intervals"] {
            t.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}.{key}: not an integer"))?;
        }
        t.get("circ_pc_fraction")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}.circ_pc_fraction: not a number"))?;
        t.get("mode_strip")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}.mode_strip: not a string"))?;
        let intervals = t
            .get("intervals")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}.intervals: not an array"))?;
        for (ii, iv) in intervals.iter().enumerate() {
            let want = ["cycle", "retired", "mpki", "flpi", "mode", "instability", "switched"];
            if iv.keys() != want {
                return Err(format!(
                    "{path}.intervals[{ii}]: keys {:?}, expected {want:?}",
                    iv.keys()
                ));
            }
        }
        t.get("ipc").and_then(Json::as_arr).ok_or_else(|| format!("{path}.ipc: not an array"))?;
    }
    Ok(format!(
        "{experiment}: {} table(s), {} row(s), {} trace(s)",
        tables.len(),
        doc.get("rows").and_then(Json::as_arr).map_or(0, |r| r.len()),
        traces.len(),
    ))
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: check_json <report.json>...");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                failures += 1;
                continue;
            }
        };
        match Json::parse(&text) {
            Ok(doc) => match check_report(&doc) {
                Ok(desc) => println!("{path}: ok ({desc})"),
                Err(e) => {
                    eprintln!("{path}: schema violation at {e}");
                    failures += 1;
                }
            },
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("check_json: {failures} of {} file(s) failed", paths.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_bench::{Budget, Report, Table};

    /// A schema-valid report via the real writer.
    fn valid_doc() -> Json {
        let budget = Budget { warmup_insts: 1_000, max_insts: 4_000, scale: None };
        let mut report = Report::new("unit", &budget);
        let mut table = Table::new(["a", "b"]);
        table.row(["1".to_string(), "2".to_string()]);
        report.add_table("t", &table);
        report.push_row(Json::obj([("x", Json::from(1u64))]));
        Json::parse(&report.to_json().to_string()).expect("writer output parses")
    }

    /// Replaces the member at `key` (top level) with `value`.
    fn with(doc: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(pairs) = doc else { panic!("not an object") };
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
                .collect(),
        )
    }

    #[test]
    fn accepts_writer_output() {
        let desc = check_report(&valid_doc()).expect("valid report");
        assert!(desc.contains("unit"), "description names the experiment: {desc}");
    }

    #[test]
    fn names_the_offending_table_row() {
        let doc = valid_doc();
        // Break the width of the only data row of the only table.
        let tables = Json::Arr(vec![Json::obj([
            ("name", Json::from("t")),
            ("header", Json::Arr(vec![Json::from("a"), Json::from("b")])),
            (
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![Json::from("1"), Json::from("2")]),
                    Json::Arr(vec![Json::from("only-one-cell")]),
                ]),
            ),
        ])]);
        let err = check_report(&with(&doc, "tables", tables)).unwrap_err();
        assert!(err.starts_with("tables[0].rows[1]:"), "path not named: {err}");
    }

    #[test]
    fn names_the_offending_param() {
        let doc = valid_doc();
        let params = Json::obj([
            ("warmup_insts", Json::from(1u64)),
            ("max_insts", Json::from("not-a-number")),
        ]);
        let err = check_report(&with(&doc, "params", params)).unwrap_err();
        assert!(err.starts_with("params.max_insts:"), "path not named: {err}");
    }

    #[test]
    fn names_the_offending_trace_field() {
        let doc = valid_doc();
        let trace = Json::obj([
            ("program", Json::from("k")),
            (
                "trace",
                Json::obj([
                    ("schema", Json::from("swque-trace-v1")),
                    ("events", Json::from("many")), // not an integer
                ]),
            ),
        ]);
        let err = check_report(&with(&doc, "traces", Json::Arr(vec![trace]))).unwrap_err();
        assert!(err.starts_with("traces[0].trace.events:"), "path not named: {err}");
    }

    /// A requester-tagged row shaped like the `neighbor` binary's output.
    fn requester_row() -> Json {
        Json::obj([
            ("aggressors", Json::from(1u64)),
            ("requester", Json::from(0u64)),
            ("role", Json::from("measured")),
            ("kernel", Json::from("omnetpp_like")),
            ("cycles", Json::from(100u64)),
            ("retired", Json::from(200u64)),
            ("ipc", Json::from(2.0)),
            ("llc_demand_misses", Json::from(5u64)),
            ("dram_transfers", Json::from(6u64)),
            ("arb_wait_cycles", Json::from(7u64)),
            ("quota_stall_cycles", Json::from(8u64)),
        ])
    }

    #[test]
    fn accepts_requester_tagged_rows() {
        let doc = with(&valid_doc(), "rows", Json::Arr(vec![requester_row()]));
        check_report(&doc).expect("requester-tagged row validates");
    }

    #[test]
    fn names_the_offending_requester_field() {
        // A missing contention counter is named precisely.
        let Json::Obj(pairs) = requester_row() else { panic!("row is an object") };
        let stripped: Vec<_> =
            pairs.iter().filter(|(k, _)| k != "arb_wait_cycles").cloned().collect();
        let doc = with(&valid_doc(), "rows", Json::Arr(vec![Json::Obj(stripped)]));
        let err = check_report(&doc).unwrap_err();
        assert!(err.starts_with("rows[0].arb_wait_cycles:"), "{err}");
        // A bogus role is rejected.
        let bad_role = with(&requester_row(), "role", Json::from("bystander"));
        let doc = with(&valid_doc(), "rows", Json::Arr(vec![bad_role]));
        let err = check_report(&doc).unwrap_err();
        assert!(err.starts_with("rows[0].role:"), "{err}");
        // Untagged rows (no `requester` key) stay schema-free.
        let doc = with(&valid_doc(), "rows", Json::Arr(vec![Json::obj([("x", Json::from(1u64))])]));
        check_report(&doc).expect("untagged rows are unconstrained");
    }

    #[test]
    fn rejects_wrong_schema_and_missing_keys() {
        let doc = valid_doc();
        let err = check_report(&with(&doc, "schema", Json::from("bogus-v0"))).unwrap_err();
        assert!(err.starts_with("schema:"), "{err}");
        let err = check_report(&Json::obj([("schema", Json::from(BENCH_SCHEMA))])).unwrap_err();
        assert!(err.starts_with("$:"), "{err}");
    }

    /// A schema-valid shard document shaped like the real orchestrator's
    /// output (hand-built so the test needs no simulation run and pins the
    /// wire format; the `sweep` integration test covers the real writer).
    fn valid_shard_doc() -> Json {
        let unit = Json::obj([
            ("kind", Json::from("SWQUE")),
            ("model", Json::from("medium")),
            ("mpki_threshold", Json::Null),
            ("flpi_threshold", Json::from(0.04)),
            ("seed", Json::from(3u64)),
            ("kernel", Json::from("mcf_like")),
            (
                "budget",
                Json::obj([
                    ("warmup_insts", Json::from(1000u64)),
                    ("max_insts", Json::from(4000u64)),
                    ("scale", Json::Null),
                ]),
            ),
        ]);
        let key = format!("{:016x}", swque_core::fnv1a64(unit.to_string().as_bytes()));
        Json::obj([
            ("schema", Json::from(SHARD_SCHEMA)),
            ("unit_key", Json::from(key)),
            ("unit", unit),
            (
                "result",
                Json::obj([
                    ("cycles", Json::from(100u64)),
                    ("retired", Json::from(200u64)),
                    ("ipc", Json::from(2.0)),
                    ("mpki", Json::from(1.5)),
                    ("flpi", Json::from(0.1)),
                    ("mode_switches", Json::from(4u64)),
                ]),
            ),
        ])
    }

    #[test]
    fn accepts_valid_sweep_shard() {
        let desc = check_report(&valid_shard_doc()).expect("valid shard");
        assert!(desc.contains("sweep shard"), "{desc}");
    }

    #[test]
    fn rejects_shard_with_tampered_unit_key() {
        let doc = with(&valid_shard_doc(), "unit_key", Json::from("0000000000000000"));
        let err = check_report(&doc).unwrap_err();
        assert!(err.contains("content hash"), "{err}");
    }

    #[test]
    fn rejects_shard_whose_unit_was_edited_after_hashing() {
        // Mutate the embedded unit but keep the old key: the recomputed
        // digest no longer matches.
        let doc = valid_shard_doc();
        let Some(unit) = doc.get("unit") else { panic!("unit present") };
        let edited = with(unit, "seed", Json::from(4u64));
        let err = check_report(&with(&doc, "unit", edited)).unwrap_err();
        assert!(err.contains("content hash"), "{err}");
    }

    #[test]
    fn validates_campaign_reports_and_row_counts() {
        let shard = valid_shard_doc();
        let row = Json::obj([
            ("unit_key", shard.get("unit_key").cloned().unwrap_or(Json::Null)),
            ("unit", shard.get("unit").cloned().unwrap_or(Json::Null)),
            ("result", shard.get("result").cloned().unwrap_or(Json::Null)),
        ]);
        let campaign = Json::obj([
            ("schema", Json::from(CAMPAIGN_SCHEMA)),
            ("name", Json::from("t")),
            ("units", Json::from(1u64)),
            (
                "budget",
                Json::obj([
                    ("warmup_insts", Json::from(1000u64)),
                    ("max_insts", Json::from(4000u64)),
                    ("scale", Json::Null),
                ]),
            ),
            ("geomean_ipc", Json::from(2.0)),
            ("marginals", Json::Arr(vec![])),
            ("rows", Json::Arr(vec![row.clone()])),
        ]);
        let desc = check_report(&campaign).expect("valid campaign");
        assert!(desc.contains("1 unit(s)"), "{desc}");
        // Declared unit count must match the row count.
        let err = check_report(&with(&campaign, "units", Json::from(2u64))).unwrap_err();
        assert!(err.starts_with("rows:"), "{err}");
        // A zero-IPC result is rejected, as the merge rejects it, both in a
        // campaign row and in a shard.
        let zero_ipc = with(shard.get("result").unwrap(), "ipc", Json::from(0.0));
        let bad_row = with(&row, "result", zero_ipc.clone());
        let err = check_report(&with(&campaign, "rows", Json::Arr(vec![bad_row]))).unwrap_err();
        assert!(err.starts_with("rows[0].result.ipc:"), "{err}");
        let err = check_report(&with(&shard, "result", zero_ipc)).unwrap_err();
        assert!(err.starts_with("result.ipc:"), "{err}");
    }

    /// A two-unit campaign (CIRC and AGE) through the real writer, so it
    /// has one marginal row per kind.
    fn valid_campaign_doc() -> Json {
        use swque_bench::sweep::campaign_doc;
        use swque_bench::WorkUnit;
        let shard = valid_shard_doc();
        let unit = WorkUnit::from_json(shard.get("unit").unwrap()).expect("unit reads back");
        let result = shard.get("result").unwrap();
        let rows = [
            (WorkUnit { kind: swque_core::IqKind::Circ, ..unit.clone() }, result.clone()),
            (unit, with(result, "ipc", Json::from(0.5))),
        ];
        let budget = Budget { warmup_insts: 1000, max_insts: 4000, scale: None };
        Json::parse(&campaign_doc("t", &budget, &rows).to_string()).expect("writer output parses")
    }

    #[test]
    fn rejects_campaigns_whose_aggregates_were_edited() {
        let doc = valid_campaign_doc();
        let desc = check_report(&doc).expect("valid campaign");
        assert!(desc.contains("2 unit(s), 2 marginal(s)"), "{desc}");
        // Top-level geomean: every value still has the right type.
        let err = check_report(&with(&doc, "geomean_ipc", Json::from(1.5))).unwrap_err();
        assert!(err.starts_with("geomean_ipc: 1.5, expected 1"), "{err}");
        // One marginal's geomean.
        let mut marginals = doc.get("marginals").and_then(Json::as_arr).unwrap().to_vec();
        marginals[1] = with(&marginals[1], "geomean_ipc", Json::from(9.0));
        let err = check_report(&with(&doc, "marginals", Json::Arr(marginals))).unwrap_err();
        assert!(err.starts_with("marginals[1].geomean_ipc: 9, expected 0.5"), "{err}");
    }

    #[test]
    fn validates_manifests_through_the_real_parser() {
        let doc = Json::parse(
            r#"{"schema":"swque-sweep-manifest-v1","name":"m",
                "budget":{"warmup_insts":10,"max_insts":20},
                "axes":{"kinds":["AGE","SWQUE"]}}"#,
        )
        .expect("literal parses");
        let desc = check_report(&doc).expect("valid manifest");
        assert!(desc.contains("sweep manifest"), "{desc}");
        let err = check_report(&with(
            &doc,
            "axes",
            Json::obj([("kinds", Json::Arr(vec![Json::from("BOGUS")]))]),
        ))
        .unwrap_err();
        assert!(err.contains("axes.kinds"), "{err}");
    }

    /// A schema-valid model-checker report via the real `swque-mc` writer.
    fn valid_mc_doc(replay: &str) -> Json {
        use swque_mc::{McRun, McViolation};
        let run = McRun {
            target: "CIRC-PC".to_string(),
            capacity: 3,
            width: 2,
            depth: 24,
            inject: "circ-pc-no-correct".to_string(),
            states: 412,
            deepest: 11,
            frontier: 0,
            closed: true,
            violations: vec![McViolation {
                property: "pc-age-ordered".to_string(),
                detail: "granted seq 1001 after younger seq 1002".to_string(),
                replay: replay.to_string(),
            }],
        };
        swque_mc::report(true, &[run])
    }

    const MC_REPLAY: &str = "swque-mc-replay-v1 kind=CIRC-PC cap=3 width=2 \
                             inject=circ-pc-no-correct expect=pc-age-ordered events=d-.-,s2";

    #[test]
    fn accepts_mc_writer_output_and_round_trips() {
        let doc = valid_mc_doc(MC_REPLAY);
        let desc = check_report(&doc).expect("valid mc report");
        assert!(desc.contains("1 run(s)"), "{desc}");
        assert!(desc.contains("412 state(s)"), "{desc}");
        assert!(desc.contains("1 violation(s)"), "{desc}");
        // The compact rendering survives the in-tree parser byte-for-byte.
        let text = doc.to_string();
        let back = Json::parse(&text).expect("round trip");
        assert_eq!(back.to_string(), text);
        check_report(&back).expect("parsed copy still validates");
    }

    #[test]
    fn rejects_mc_cross_field_inconsistencies() {
        let doc = valid_mc_doc(MC_REPLAY);
        // Declared totals must match the per-run sums.
        let err = check_report(&with(&doc, "total_states", Json::from(9u64))).unwrap_err();
        assert!(err.starts_with("total_states:"), "{err}");
        let err = check_report(&with(&doc, "violations", Json::from(0u64))).unwrap_err();
        assert!(err.starts_with("violations:"), "{err}");
        // `closed` must agree with `frontier`.
        let text = doc.to_string().replace("\"frontier\":0", "\"frontier\":7");
        let err = check_report(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("inconsistent with frontier=7"), "{err}");
    }

    #[test]
    fn rejects_mc_replays_that_do_not_match_their_run() {
        // Replay fails the grammar outright (assembled with `format!`, so
        // every literal with the magic prefix stays a well-formed trace).
        let magic = swque_core::replay::REPLAY_MAGIC;
        let bad = valid_mc_doc(&format!("{magic} kind=CIRC-PC cap=3"));
        let err = check_report(&bad).unwrap_err();
        assert!(err.starts_with("runs[0].violations[0].replay:"), "{err}");
        // Replay parses but names a different target than the run.
        let wrong_target = valid_mc_doc(
            "swque-mc-replay-v1 kind=SHIFT cap=3 width=2 inject=circ-pc-no-correct \
             expect=pc-age-ordered events=d-.-,s2",
        );
        let err = check_report(&wrong_target).unwrap_err();
        assert!(err.contains("targets SHIFT"), "{err}");
        // Replay's expect clause disagrees with the violated property.
        let wrong_expect = valid_mc_doc(
            "swque-mc-replay-v1 kind=CIRC-PC cap=3 width=2 inject=circ-pc-no-correct \
             expect=oldest-first events=d-.-,s2",
        );
        let err = check_report(&wrong_expect).unwrap_err();
        assert!(err.contains("violated property"), "{err}");
    }
}
