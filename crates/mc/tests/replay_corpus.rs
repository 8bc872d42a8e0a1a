//! The committed counterexample corpus under `tests/replays/`.
//!
//! Every `.replay` file re-executes against the real queues/controller
//! and must honor its `expect=` contract, so each counterexample the
//! checker ever minimized stays a live regression test. The `MANIFEST`
//! ratchet pins each trace's content digest, one way only: a trace can
//! be *appended* (add the file plus its MANIFEST line), but silently
//! altering or dropping a committed trace fails here.

use std::collections::BTreeMap;
use std::path::PathBuf;

use swque_core::fnv1a64;
use swque_core::replay::Replay;
use swque_mc::check_replay;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("replays")
}

/// The trace line of a corpus file: the first non-empty, non-`#` line.
fn trace_line(text: &str) -> &str {
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .expect("corpus file holds no trace line")
}

/// `name -> file content` for every `.replay` file on disk, sorted.
fn corpus_files() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/replays exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "replay") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            out.insert(name, text);
        }
    }
    assert!(!out.is_empty(), "corpus must not be empty");
    out
}

#[test]
fn every_committed_replay_reexecutes_and_honors_its_expectation() {
    for (name, text) in corpus_files() {
        let replay = Replay::parse(trace_line(&text))
            .unwrap_or_else(|e| panic!("{name}: {}", e.message));
        let outcome =
            check_replay(&replay).unwrap_or_else(|e| panic!("{name}: {e}"));
        match &replay.expect {
            Some(property) => {
                let v = outcome.violation.as_ref().expect("check_replay enforced this");
                assert_eq!(&v.property, property, "{name}");
            }
            None => assert!(outcome.violation.is_none(), "{name}"),
        }
    }
}

#[test]
fn manifest_ratchet_pins_every_trace() {
    let manifest =
        std::fs::read_to_string(corpus_dir().join("MANIFEST")).expect("MANIFEST exists");
    let mut pinned: BTreeMap<&str, u64> = BTreeMap::new();
    for line in manifest.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (digest, name) = line.split_once(' ').expect("MANIFEST line: `<digest> <file>`");
        let digest = u64::from_str_radix(digest, 16)
            .unwrap_or_else(|_| panic!("MANIFEST digest for {name} is not hex"));
        assert!(pinned.insert(name, digest).is_none(), "duplicate MANIFEST entry {name}");
    }

    let files = corpus_files();
    // Expected MANIFEST body, printed whole on any mismatch so appending
    // a new trace is a copy-paste.
    let expected: String = files
        .iter()
        .map(|(name, text)| format!("{:016x} {name}\n", fnv1a64(text.as_bytes())))
        .collect();
    for (name, text) in &files {
        let digest = fnv1a64(text.as_bytes());
        let pin = pinned.get(name.as_str()).unwrap_or_else(|| {
            panic!("{name} is not in MANIFEST; expected body:\n{expected}")
        });
        assert_eq!(
            *pin,
            digest,
            "{name}: content digest moved — committed traces are append-only; \
             expected body:\n{expected}"
        );
    }
    for name in pinned.keys() {
        assert!(
            files.contains_key(*name),
            "{name} pinned in MANIFEST but missing on disk — committed traces are append-only"
        );
    }
}
