//! Sweep-campaign robustness: shards are content-addressed and resume is
//! strict, so a campaign must (a) merge byte-identically for any worker
//! count, (b) skip completed shards on re-run, (c) repair a shard
//! truncated by a mid-write kill and still produce the identical merged
//! report, and (d) refuse to merge a tampered shard. Every document it
//! writes must pass its writer's own validator.
//!
//! Each test owns a unique scratch directory (process id + test tag) so
//! the suite can run concurrently in one process.

use std::path::PathBuf;

use swque_bench::sweep::{
    merge_campaign, run_campaign, shard_path, validate_campaign, validate_shard_doc, Manifest,
    CAMPAIGN_SCHEMA,
};
use swque_trace::Json;

/// Four cheap units: 2 kinds x 2 seeds over one kernel, tiny budget.
fn mini_manifest() -> Manifest {
    Manifest::parse(
        r#"{"schema":"swque-sweep-manifest-v1","name":"mini",
            "budget":{"warmup_insts":500,"max_insts":2000,"scale":800},
            "axes":{"kinds":["CIRC","AGE"],"seeds":[0,7],
                    "kernels":["mcf_like"]}}"#,
    )
    .expect("valid manifest")
}

/// A fresh scratch directory for `tag`, cleaned from any earlier run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swque-sweep-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn campaign_runs_merges_and_validates() {
    let m = mini_manifest();
    let out = scratch("merge");
    let status = run_campaign(&m, &out, 2).expect("campaign runs");
    assert_eq!((status.total, status.skipped, status.ran, status.repaired), (4, 0, 4, 0));
    let text = read(&status.merged);
    let doc = Json::parse(&text).expect("campaign.json parses");
    validate_campaign(&doc).expect("the merged report rebuilds");
    for unit in m.units() {
        let shard = Json::parse(&read(&shard_path(&out, &unit))).expect("shard parses");
        assert_eq!(validate_shard_doc(&shard).expect("shard rebuilds").0.key(), unit.key());
    }
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(CAMPAIGN_SCHEMA));
    assert_eq!(doc.get("units").and_then(Json::as_u64), Some(4));
    assert_eq!(doc.get("rows").and_then(Json::as_arr).map(|r| r.len()), Some(4));
    // Axes with one value (model, thresholds, kernel) contribute no
    // marginal rows; kind and seed contribute two each.
    let marginals = doc.get("marginals").and_then(Json::as_arr).expect("marginals");
    let axes: Vec<&str> =
        marginals.iter().filter_map(|m| m.get("axis").and_then(Json::as_str)).collect();
    assert_eq!(axes, ["kind", "kind", "seed", "seed"]);
    assert!(doc.get("geomean_ipc").and_then(Json::as_f64).expect("geomean") > 0.0);
    // A merge alone rewrites the same report, through a temporary file
    // that it renames into place.
    std::fs::remove_file(&status.merged).expect("remove report");
    assert_eq!(read(&merge_campaign(&m, &out).expect("merge")), text);
    let names: Vec<_> =
        std::fs::read_dir(&out).expect("out dir").flatten().map(|e| e.file_name()).collect();
    assert_eq!(names.len(), 2, "only shards/ and campaign.json: {names:?}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn merged_report_is_byte_identical_for_any_worker_count() {
    let m = mini_manifest();
    let mut reports = Vec::new();
    for workers in [1usize, 3, 16] {
        let out = scratch(&format!("workers{workers}"));
        let status = run_campaign(&m, &out, workers).expect("campaign runs");
        reports.push(read(&status.merged));
        let _ = std::fs::remove_dir_all(&out);
    }
    assert_eq!(reports[0], reports[1], "1 vs 3 workers");
    assert_eq!(reports[0], reports[2], "1 vs 16 workers");
}

#[test]
fn resume_skips_completed_shards_by_content_hash() {
    let m = mini_manifest();
    let out = scratch("resume");
    let golden = read(&run_campaign(&m, &out, 2).expect("full run").merged);
    // Interrupted campaign: only the first two units' shards survive.
    let units = m.units();
    for u in &units[2..] {
        std::fs::remove_file(shard_path(&out, u)).expect("remove shard");
    }
    let first_shards: Vec<String> = units[..2].iter().map(|u| read(&shard_path(&out, u))).collect();
    // Resume: the two existing shards are recognized and skipped.
    let resumed = run_campaign(&m, &out, 2).expect("resume");
    assert_eq!((resumed.skipped, resumed.ran, resumed.repaired), (2, 2, 0));
    assert_eq!(read(&resumed.merged), golden, "resumed report matches the full run");
    for (u, before) in units[..2].iter().zip(&first_shards) {
        assert_eq!(&read(&shard_path(&out, u)), before, "skipped shard untouched");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn kill_mid_write_truncation_is_repaired_and_report_identical() {
    let m = mini_manifest();
    let out = scratch("repair");
    let status = run_campaign(&m, &out, 2).expect("first full run");
    let golden = read(&status.merged);
    // Simulate a shard left truncated by a hard kill: half a document.
    let victim = shard_path(&out, &m.units()[1]);
    let text = read(&victim);
    std::fs::write(&victim, &text[..text.len() / 2]).expect("truncate shard");
    // Resume detects the invalid shard, re-runs exactly that unit, and the
    // merged report comes out byte-identical.
    let resumed = run_campaign(&m, &out, 2).expect("resume after truncation");
    assert_eq!((resumed.skipped, resumed.ran, resumed.repaired), (3, 1, 1));
    assert_eq!(read(&resumed.merged), golden);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn tampered_shard_fails_the_merge() {
    let m = mini_manifest();
    let out = scratch("tamper");
    run_campaign(&m, &out, 2).expect("full run");
    // Flip the recorded IPC without re-hashing: the embedded unit still
    // matches its key, but the result is now unattested... the merge
    // cannot catch a result edit by hash (results are not hashed), so
    // tamper with the *unit* — the attested part — and the key check must
    // fail both resume-validation and merge.
    let victim = shard_path(&out, &m.units()[0]);
    let doc = read(&victim);
    let tampered = doc.replacen("\"seed\":0", "\"seed\":1", 1);
    assert_ne!(doc, tampered, "test edited something");
    std::fs::write(&victim, tampered).expect("tamper shard");
    let err = merge_campaign(&m, &out).expect_err("merge must fail");
    assert!(err.contains("unit"), "names the mismatch: {err}");
    let _ = std::fs::remove_dir_all(&out);
}
