//! The `all_experiments` command line: named entries run in the order
//! given, one section and one `BENCH_<name>.json` each, and an unknown or
//! repeated name or an uncreatable `SWQUE_JSON` directory exits with
//! status 2 before any output. Only the analytic entries (`tables`,
//! `fig13`), which simulate nothing, run here.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swque-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn all_experiments(args: &[&str], json: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .env("SWQUE_JSON", json)
        .env("SWQUE_WARMUP", "2000")
        .env("SWQUE_INSTS", "5000")
        .output()
        .expect("all_experiments starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn named_entries_run_in_order_with_one_report_each() {
    let dir = scratch("named");
    let out = all_experiments(&["tables", "fig13"], &dir);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let banners: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    assert_eq!(banners, ["== tables", "== fig13"]);
    assert!(stdout.contains("Figure 13: relative size"), "{stdout}");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["BENCH_fig13.json", "BENCH_tables.json"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_or_repeated_names_exit_2_before_any_output() {
    for (tag, args, needle) in
        [("unknown", ["fig13", "nosuch"], "\"nosuch\""), ("repeated", ["fig13", "fig13"], "twice")]
    {
        let dir = scratch(tag);
        let out = all_experiments(&args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{}", stderr(&out));
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(!dir.exists(), "{args:?} created the report directory");
    }
}

#[test]
fn an_uncreatable_json_directory_exits_2_before_any_output() {
    // A directory cannot be created under a regular file.
    let file = scratch("file");
    std::fs::write(&file, "").unwrap();
    let out = all_experiments(&["fig13"], &file.join("reports"));
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("error: SWQUE_JSON="), "{}", stderr(&out));
    assert!(out.stdout.is_empty());
    std::fs::remove_file(&file).unwrap();
}
