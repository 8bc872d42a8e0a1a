//! Structured JSON experiment output (schema `swque-bench-v1`).
//!
//! Every experiment prints its plain-text tables unconditionally and
//! *additionally* fills a [`Report`]. When the
//! [`SWQUE_JSON`](crate#environment-knobs) environment variable names a
//! directory, the binary writes each report there as
//! `BENCH_<experiment>.json`. The serialized shape is stable and versioned
//! (documented field-by-field in `DESIGN.md`): tooling that reads
//! `BENCH_fig09.json` today keeps working until the schema string changes.
//!
//! The writer is [`swque_trace::Json`] — the workspace is hermetic, so no
//! external serializer is available, and none is needed: reports are
//! trees of strings, numbers, and arrays.

use std::path::{Path, PathBuf};

use swque_trace::{Json, TraceSummary};

use crate::harness::Budget;
use crate::table::Table;

/// Schema identifier written into every report.
pub const BENCH_SCHEMA: &str = "swque-bench-v1";

/// The `SWQUE_JSON` report directory, created if missing, when the caller
/// requested JSON output.
///
/// A binary calls this once, before it simulates anything. A directory
/// that cannot be created exits the process with status 2 and a message
/// naming the variable and the value, as an unparsable integer knob does
/// ([`knob`](crate::harness::knob)), so a bad destination never costs a
/// whole run.
pub fn json_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("SWQUE_JSON").filter(|v| !v.is_empty())?);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: SWQUE_JSON={dir:?} is not a directory that can be created: {e}");
        std::process::exit(2)
    }
    Some(dir)
}

/// A structured experiment report, accumulated alongside the plain-text
/// output and serialized by [`Report::write`].
///
/// Reports always contain all top-level keys (`tables`, `rows`, `traces`),
/// empty arrays included, so consumers can index unconditionally.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: String,
    params: Vec<(String, Json)>,
    tables: Vec<Json>,
    rows: Vec<Json>,
    traces: Vec<Json>,
}

impl Report {
    /// Starts a report for `experiment` (e.g. `"fig09"`). The run budget
    /// is recorded so a report is interpretable without the environment
    /// that produced it.
    pub fn new(experiment: &str, budget: &Budget) -> Report {
        Report {
            experiment: experiment.to_string(),
            params: vec![
                ("warmup_insts".to_string(), Json::from(budget.warmup_insts)),
                ("max_insts".to_string(), Json::from(budget.max_insts)),
            ],
            tables: Vec::new(),
            rows: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// Records an experiment parameter (sweep value, model, threshold …).
    pub fn param(&mut self, key: &str, value: impl Into<Json>) -> &mut Report {
        self.params.push((key.to_string(), value.into()));
        self
    }

    /// Serializes a plain-text [`Table`] verbatim: header plus string rows.
    /// This is the generic path — every figure's printed table round-trips
    /// into JSON without per-figure schema work.
    pub fn add_table(&mut self, name: &str, table: &Table) -> &mut Report {
        let header = Json::Arr(table.header().iter().map(|h| Json::from(h.as_str())).collect());
        let rows = Json::Arr(
            table
                .rows()
                .iter()
                .map(|r| Json::Arr(r.iter().map(|c| Json::from(c.as_str())).collect()))
                .collect(),
        );
        self.tables.push(Json::obj([
            ("name", Json::from(name)),
            ("header", header),
            ("rows", rows),
        ]));
        self
    }

    /// Appends one typed result row (figures with first-class schemas —
    /// fig09's per-program speedups — push objects here in addition to the
    /// generic table).
    pub fn push_row(&mut self, row: Json) -> &mut Report {
        self.rows.push(row);
        self
    }

    /// Attaches a run's trace digest under `program` (schema
    /// `swque-trace-v1`, nested verbatim).
    pub fn push_trace(&mut self, program: &str, summary: &TraceSummary) -> &mut Report {
        self.traces
            .push(Json::obj([("program", Json::from(program)), ("trace", summary.to_json())]));
        self
    }

    /// The report as a JSON document (schema [`BENCH_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(BENCH_SCHEMA)),
            ("experiment", Json::from(self.experiment.as_str())),
            ("params", Json::Obj(self.params.clone())),
            ("tables", Json::Arr(self.tables.clone())),
            ("rows", Json::Arr(self.rows.clone())),
            ("traces", Json::Arr(self.traces.clone())),
        ])
    }

    /// Writes the report to `<dir>/BENCH_<experiment>.json`, `dir` being
    /// the [`json_dir`]. The notice goes to stderr so the plain-text tables
    /// on stdout stay paste-ready.
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written — a silently dropped report
    /// is worse than a failed experiment run.
    pub fn write(&self, dir: &Path) {
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        let doc = format!("{}\n", self.to_json());
        match std::fs::write(&path, doc) {
            Ok(()) => {}
            #[expect(
                clippy::panic,
                reason = "documented: a silently dropped report is worse than a failed run"
            )]
            Err(e) => panic!("SWQUE_JSON: cannot write {}: {e}", path.display()),
        }
        eprintln!("[swque-bench] wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_is_stable() {
        let mut t = Table::new(["program", "ipc"]);
        t.row(["xz_like", "0.40"]);
        let budget = Budget { warmup_insts: 300, max_insts: 400, scale: None };
        let mut r = Report::new("fig99", &budget);
        r.param("model", "medium").add_table("main", &t);
        r.push_row(Json::obj([("program", Json::from("xz_like"))]));
        r.push_trace("xz_like", &TraceSummary::default());
        let doc = r.to_json();
        assert_eq!(doc.keys(), vec!["schema", "experiment", "params", "tables", "rows", "traces"],);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("fig99"));
        let params = doc.get("params").unwrap();
        assert_eq!(params.get("warmup_insts").and_then(Json::as_u64), Some(300));
        assert_eq!(params.get("max_insts").and_then(Json::as_u64), Some(400));
        assert_eq!(params.get("model").and_then(Json::as_str), Some("medium"));
        let table = &doc.get("tables").unwrap().as_arr().unwrap()[0];
        assert_eq!(table.keys(), vec!["name", "header", "rows"]);
        let trace = &doc.get("traces").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            trace.get("trace").unwrap().get("schema").and_then(Json::as_str),
            Some("swque-trace-v1"),
        );
        // And the whole document survives its own parser.
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn empty_report_still_has_all_keys() {
        let budget = Budget { warmup_insts: 1, max_insts: 1, scale: None };
        let doc = Report::new("x", &budget).to_json();
        assert_eq!(doc.get("tables").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(doc.get("traces").unwrap().as_arr().unwrap().len(), 0);
    }
}
