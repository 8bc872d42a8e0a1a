//! Schema validator for structured tool output: parses each file named on
//! the command line with the in-tree JSON parser and checks its declared
//! schema — `swque-bench-v1` experiment reports (including the nested
//! `swque-trace-v1` shape of any embedded trace digests), the sweep
//! orchestrator's three shapes: `swque-sweep-manifest-v1` campaign
//! manifests, `swque-sweep-shard-v1` per-unit shards, and
//! `swque-sweep-campaign-v1` merged reports (shard and campaign-row
//! `unit_key`s are re-derived from the embedded unit and results go
//! through the merge's own `validate_result`, so a tampered, stale, or
//! zero-IPC shard fails here exactly as it fails the merge), and
//! `swque-mc-v1` model-checker reports (every violation's replay string
//! is re-parsed under the `swque-mc-replay-v1` grammar and checked
//! against the run's target and violated property). Used by
//! `scripts/verify.sh` as the JSON smoke step for these producers.
//!
//! Diagnostics name the offending JSON path (`tables[2].rows[5]`,
//! `traces[0].trace.events`, …) so a broken writer can be located without
//! diffing documents by eye. All files are checked even after a failure;
//! the exit code is non-zero if *any* file was unreadable, unparseable, or
//! schema-violating.

use std::process::ExitCode;

use swque_bench::sweep::validate_result;
use swque_bench::{Manifest, BENCH_SCHEMA, CAMPAIGN_SCHEMA, MANIFEST_SCHEMA, SHARD_SCHEMA};
use swque_trace::Json;

/// Schema string of `swque-mc` model-checker reports. A literal because
/// the mc crate is a dev-dependency only; the unit tests assert it
/// matches `swque_mc::MC_SCHEMA`.
const MC_SCHEMA: &str = "swque-mc-v1";

/// Dispatches on the document's declared `schema` field.
fn check_report(doc: &Json) -> Result<String, String> {
    match doc.get("schema").and_then(Json::as_str).unwrap_or("") {
        BENCH_SCHEMA => check_bench_report(doc),
        MANIFEST_SCHEMA => check_sweep_manifest(doc),
        SHARD_SCHEMA => check_sweep_shard(doc),
        CAMPAIGN_SCHEMA => check_sweep_campaign(doc),
        MC_SCHEMA => check_mc_report(doc),
        other => Err(format!(
            "schema: {other:?}, expected {BENCH_SCHEMA:?}, {MANIFEST_SCHEMA:?}, \
             {SHARD_SCHEMA:?}, {CAMPAIGN_SCHEMA:?}, or {MC_SCHEMA:?}"
        )),
    }
}

/// Validates one `swque-mc-v1` model-checker report: fixed key sets at
/// every level, cross-field consistency (`closed` ⇔ `frontier == 0`,
/// declared totals vs per-run sums), and every violation's replay string
/// re-parsed under the `swque-mc-replay-v1` grammar with its `expect=`
/// clause equal to the violated property and its target equal to the
/// run's target.
fn check_mc_report(doc: &Json) -> Result<String, String> {
    use swque_core::replay::Replay;
    let keys = doc.keys();
    let expect = ["schema", "smoke", "runs", "total_states", "violations"];
    if keys != expect {
        return Err(format!("$: top-level keys {keys:?}, expected {expect:?}"));
    }
    doc.get("smoke").and_then(Json::as_bool).ok_or("smoke: not a bool")?;
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("runs: not an array")?;
    let mut states_sum = 0u64;
    let mut violation_count = 0u64;
    for (ri, run) in runs.iter().enumerate() {
        let path = format!("runs[{ri}]");
        let expect = [
            "target", "capacity", "width", "depth", "inject", "states", "deepest", "frontier",
            "closed", "violations",
        ];
        if run.keys() != expect {
            return Err(format!("{path}: keys {:?}, expected {expect:?}", run.keys()));
        }
        let target = run
            .get("target")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}.target: not a string"))?;
        run.get("inject")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}.inject: not a string"))?;
        for key in ["capacity", "width", "depth", "states", "deepest", "frontier"] {
            run.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}.{key}: not an integer"))?;
        }
        let closed = run
            .get("closed")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{path}.closed: not a bool"))?;
        let frontier = run.get("frontier").and_then(Json::as_u64).unwrap_or(0);
        if closed != (frontier == 0) {
            return Err(format!("{path}: closed={closed} inconsistent with frontier={frontier}"));
        }
        states_sum += run.get("states").and_then(Json::as_u64).unwrap_or(0);
        let violations = run
            .get("violations")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}.violations: not an array"))?;
        violation_count += violations.len() as u64;
        for (vi, v) in violations.iter().enumerate() {
            let vpath = format!("{path}.violations[{vi}]");
            if v.keys() != ["property", "detail", "replay"] {
                return Err(format!(
                    "{vpath}: keys {:?}, expected property/detail/replay",
                    v.keys()
                ));
            }
            let property = v
                .get("property")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{vpath}.property: not a string"))?;
            v.get("detail")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{vpath}.detail: not a string"))?;
            let replay = v
                .get("replay")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{vpath}.replay: not a string"))?;
            let parsed = Replay::parse(replay)
                .map_err(|e| format!("{vpath}.replay: {}", e.message))?;
            if parsed.target.label() != target {
                return Err(format!(
                    "{vpath}.replay: targets {}, run explores {target}",
                    parsed.target.label()
                ));
            }
            if parsed.expect.as_deref() != Some(property) {
                return Err(format!(
                    "{vpath}.replay: expect={:?} vs violated property {property:?}",
                    parsed.expect
                ));
            }
        }
    }
    let total_states =
        doc.get("total_states").and_then(Json::as_u64).ok_or("total_states: not an integer")?;
    if total_states != states_sum {
        return Err(format!("total_states: {total_states} vs per-run sum {states_sum}"));
    }
    let declared = doc.get("violations").and_then(Json::as_u64).ok_or("violations: not an integer")?;
    if declared != violation_count {
        return Err(format!("violations: {declared} vs per-run count {violation_count}"));
    }
    Ok(format!(
        "mc report: {} run(s), {states_sum} state(s), {violation_count} violation(s)",
        runs.len()
    ))
}

/// Validates a `swque-sweep-manifest-v1` campaign manifest by handing it
/// to the real parser — the definition of valid is "the orchestrator
/// accepts it", so there is exactly one implementation of the rules.
fn check_sweep_manifest(doc: &Json) -> Result<String, String> {
    let m = Manifest::parse(&doc.to_string())?;
    Ok(format!("sweep manifest {:?}: {} unit(s)", m.name, m.units().len()))
}

/// Validates the unit object embedded in shards and campaign rows.
fn check_sweep_unit(unit: &Json, path: &str) -> Result<(), String> {
    let want = ["kind", "model", "mpki_threshold", "flpi_threshold", "seed", "kernel", "budget"];
    if unit.keys() != want {
        return Err(format!("{path}: keys {:?}, expected {want:?}", unit.keys()));
    }
    for key in ["kind", "model", "kernel"] {
        unit.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}.{key}: not a string"))?;
    }
    unit.get("seed").and_then(Json::as_u64).ok_or_else(|| format!("{path}.seed: not an integer"))?;
    for key in ["mpki_threshold", "flpi_threshold"] {
        match unit.get(key) {
            Some(Json::Null) | Some(Json::Num(_)) => {}
            _ => return Err(format!("{path}.{key}: not a number or null")),
        }
    }
    let budget = unit.get("budget").ok_or_else(|| format!("{path}.budget: missing"))?;
    for key in ["warmup_insts", "max_insts"] {
        budget
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}.budget.{key}: not an integer"))?;
    }
    Ok(())
}

/// The content-addressing invariant shared by shards and campaign rows:
/// `unit_key` must equal the FNV-1a 64 digest of the embedded unit's
/// serialization — the property resume and merge trust.
fn check_unit_key(doc: &Json, path: &str) -> Result<(), String> {
    let key = doc.get("unit_key").and_then(Json::as_str).unwrap_or("");
    let unit = doc.get("unit").ok_or_else(|| format!("{path}.unit: missing"))?;
    let expect = format!("{:016x}", swque_core::fnv1a64(unit.to_string().as_bytes()));
    if key != expect {
        return Err(format!(
            "{path}.unit_key: {key:?} does not match the unit's content hash {expect:?}"
        ));
    }
    Ok(())
}

/// Validates one `swque-sweep-shard-v1` per-unit result file.
fn check_sweep_shard(doc: &Json) -> Result<String, String> {
    let keys = doc.keys();
    let expect = ["schema", "unit_key", "unit", "result"];
    if keys != expect {
        return Err(format!("$: top-level keys {keys:?}, expected {expect:?}"));
    }
    check_unit_key(doc, "$")?;
    check_sweep_unit(doc.get("unit").ok_or("unit: missing")?, "unit")?;
    validate_result(doc.get("result").ok_or("result: missing")?, "result")?;
    Ok(format!(
        "sweep shard {}",
        doc.get("unit_key").and_then(Json::as_str).unwrap_or("?")
    ))
}

/// Validates one `swque-sweep-campaign-v1` merged campaign report.
fn check_sweep_campaign(doc: &Json) -> Result<String, String> {
    let keys = doc.keys();
    let expect = ["schema", "name", "units", "budget", "geomean_ipc", "marginals", "rows"];
    if keys != expect {
        return Err(format!("$: top-level keys {keys:?}, expected {expect:?}"));
    }
    let name = doc.get("name").and_then(Json::as_str).ok_or("name: not a string")?;
    let units = doc.get("units").and_then(Json::as_u64).ok_or("units: not an integer")?;
    doc.get("geomean_ipc").and_then(Json::as_f64).ok_or("geomean_ipc: not a number")?;
    let budget = doc.get("budget").ok_or("budget: missing")?;
    for key in ["warmup_insts", "max_insts"] {
        budget
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("budget.{key}: not an integer"))?;
    }
    let marginals =
        doc.get("marginals").and_then(Json::as_arr).ok_or("marginals: not an array")?;
    for (mi, m) in marginals.iter().enumerate() {
        if m.keys() != ["axis", "value", "units", "geomean_ipc"] {
            return Err(format!(
                "marginals[{mi}]: keys {:?}, expected axis/value/units/geomean_ipc",
                m.keys()
            ));
        }
        for key in ["axis", "value"] {
            m.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("marginals[{mi}].{key}: not a string"))?;
        }
        m.get("units")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("marginals[{mi}].units: not an integer"))?;
        m.get("geomean_ipc")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("marginals[{mi}].geomean_ipc: not a number"))?;
    }
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or("rows: not an array")?;
    if rows.len() as u64 != units {
        return Err(format!("rows: {} row(s) vs declared units {units}", rows.len()));
    }
    for (ri, row) in rows.iter().enumerate() {
        if row.keys() != ["unit_key", "unit", "result"] {
            return Err(format!(
                "rows[{ri}]: keys {:?}, expected unit_key/unit/result",
                row.keys()
            ));
        }
        let path = format!("rows[{ri}]");
        check_unit_key(row, &path)?;
        check_sweep_unit(
            row.get("unit").ok_or_else(|| format!("{path}.unit: missing"))?,
            &format!("{path}.unit"),
        )?;
        validate_result(
            row.get("result").ok_or_else(|| format!("{path}.result: missing"))?,
            &format!("{path}.result"),
        )?;
    }
    Ok(format!("sweep campaign {name:?}: {units} unit(s), {} marginal(s)", marginals.len()))
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
    let experiment = doc
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("experiment: not a string")?;
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
            let cells = row
                .as_arr()
                .ok_or_else(|| format!("tables[{ti}].rows[{ri}]: not an array"))?;
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
        t.get("ipc")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}.ipc: not an array"))?;
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
                .map(|(k, v)| {
                    (k.clone(), if k == key { value.clone() } else { v.clone() })
                })
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
        let trace = Json::obj([(
            "program",
            Json::from("k"),
        ), (
            "trace",
            Json::obj([
                ("schema", Json::from("swque-trace-v1")),
                ("events", Json::from("many")), // not an integer
            ]),
        )]);
        let err =
            check_report(&with(&doc, "traces", Json::Arr(vec![trace]))).unwrap_err();
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
        let doc = with(
            &valid_doc(),
            "rows",
            Json::Arr(vec![Json::obj([("x", Json::from(1u64))])]),
        );
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
    /// output (hand-built so the test needs no simulation run; the
    /// `sweep` integration test covers the real writer).
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
        let key = format!(
            "{:016x}",
            swque_core::fnv1a64(unit.to_string().as_bytes())
        );
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
        let err =
            check_report(&with(&campaign, "rows", Json::Arr(vec![bad_row]))).unwrap_err();
        assert!(err.starts_with("rows[0].result.ipc:"), "{err}");
        let err = check_report(&with(&shard, "result", zero_ipc)).unwrap_err();
        assert!(err.starts_with("result.ipc:"), "{err}");
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
    fn mc_schema_literal_matches_the_mc_crate() {
        assert_eq!(MC_SCHEMA, swque_mc::MC_SCHEMA);
    }

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
