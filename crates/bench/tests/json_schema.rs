//! Golden test pinning the structured-output schema: a small traced run is
//! serialized exactly the way the figure binaries do it, re-parsed with the
//! in-tree parser, and its key sets compared against the documented
//! `swque-bench-v1` / `swque-trace-v1` shapes. A change that reshapes the
//! JSON must update this test, DESIGN.md, and the schema version together.

use swque_bench::{run_kernel_traced, Budget, Report, RunSpec, Table, BENCH_SCHEMA};
use swque_core::IqKind;
use swque_trace::Json;
use swque_workloads::suite;

const BUDGET: Budget = Budget { warmup_insts: 5_000, max_insts: 40_000, scale: Some(2_000) };

#[test]
fn bench_report_schema_is_pinned() {
    let kernel = suite::by_name("mcf_like").expect("suite kernel");
    let (result, trace) = run_kernel_traced(&kernel, &RunSpec::medium(IqKind::Swque, BUDGET));
    assert!(result.retired >= 30_000, "measured window ran");

    let mut table = Table::new(["program", "ipc"]);
    table.row([kernel.name.to_string(), format!("{:.3}", result.ipc())]);
    let mut report = Report::new("golden", &BUDGET);
    report.param("model", "medium");
    report.add_table("main", &table);
    report.push_row(Json::obj([
        ("program", Json::from(kernel.name)),
        ("ipc", Json::from(result.ipc())),
    ]));
    report.push_trace(kernel.name, &trace);

    // Serialize and re-parse: the golden shape is checked on the wire
    // format, not on the in-memory builder.
    let doc = Json::parse(&report.to_json().to_string()).expect("own output parses");

    assert_eq!(doc.keys(), vec!["schema", "experiment", "params", "tables", "rows", "traces"],);
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("golden"));
    assert_eq!(doc.get("params").unwrap().keys(), vec!["warmup_insts", "max_insts", "model"],);

    let tables = doc.get("tables").and_then(Json::as_arr).unwrap();
    assert_eq!(tables.len(), 1);
    assert_eq!(tables[0].keys(), vec!["name", "header", "rows"]);
    assert_eq!(
        tables[0].get("header").and_then(Json::as_arr).unwrap().len(),
        tables[0].get("rows").and_then(Json::as_arr).unwrap()[0].as_arr().unwrap().len(),
        "row width matches header",
    );

    let traces = doc.get("traces").and_then(Json::as_arr).unwrap();
    assert_eq!(traces[0].keys(), vec!["program", "trace"]);
    let t = traces[0].get("trace").unwrap();
    assert_eq!(
        t.keys(),
        vec![
            "schema",
            "events",
            "dropped",
            "switches",
            "circ_pc_intervals",
            "age_intervals",
            "circ_pc_fraction",
            "mode_strip",
            "stall_episodes",
            "stall_cycles",
            "mem_epochs",
            "llc_misses",
            "intervals",
            "ipc",
        ],
    );
    assert_eq!(t.get("schema").and_then(Json::as_str), Some("swque-trace-v1"));

    // The run is long enough for real interval content; pin its row shape.
    let intervals = t.get("intervals").and_then(Json::as_arr).unwrap();
    assert!(!intervals.is_empty(), "40k measured insts cross interval boundaries");
    for iv in intervals {
        assert_eq!(
            iv.keys(),
            vec!["cycle", "retired", "mpki", "flpi", "mode", "instability", "switched"],
        );
        let mode = iv.get("mode").and_then(Json::as_str).unwrap();
        assert!(mode == "CIRC-PC" || mode == "AGE", "mode label: {mode}");
    }
    let ipc = t.get("ipc").and_then(Json::as_arr).unwrap();
    assert!(!ipc.is_empty(), "IPC series recorded");
    for s in ipc {
        assert_eq!(s.keys(), vec!["cycle", "retired", "ipc"]);
        assert!(s.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
    }

    // Trace residency reconciles with the aggregate mode statistics: the
    // interval-weighted fraction approximates the cycle-weighted one.
    let sw = result.swque.expect("SWQUE stats");
    assert_eq!(
        t.get("switches").and_then(Json::as_u64),
        Some(sw.switches),
        "trace switches match SwqueStats (trace attached for the whole window)",
    );
}
