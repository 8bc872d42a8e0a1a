//! The committed counterexample corpus under `tests/replays/`.
//!
//! Every `.replay` file re-executes against the real queues/controller
//! and must honor its `expect=` contract, so each counterexample the
//! checker ever minimized stays a live regression test. The `MANIFEST`
//! ratchet pins each trace's content digest, one way only: a trace can
//! be *appended* (add the file plus its MANIFEST line), but silently
//! altering or dropping a committed trace fails here. The corpus also
//! seeds the totality property of `Replay::parse`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use swque_core::fnv1a64;
use swque_core::replay::{Replay, REPLAY_MAGIC};
use swque_mc::check_replay;
use swque_rng::prop::check;

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
        let replay = Replay::parse(trace_line(&text)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let outcome = check_replay(&replay).unwrap_or_else(|e| panic!("{name}: {e}"));
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
    let manifest = std::fs::read_to_string(corpus_dir().join("MANIFEST")).expect("MANIFEST exists");
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
        let pin = pinned
            .get(name.as_str())
            .unwrap_or_else(|| panic!("{name} is not in MANIFEST; expected body:\n{expected}"));
        assert_eq!(
            *pin, digest,
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

/// Fragments the soup and the mutations draw from: the grammar's own
/// keys, event heads and separators, numbers at and past every integer
/// width the fields parse into, multi-byte characters (the event parser
/// slices after the first character), and stray whitespace.
const FRAGMENTS: &[&str] = &[
    REPLAY_MAGIC,
    "kind=",
    "cap=",
    "width=",
    "inject=",
    "expect=",
    "events=",
    "CIRC-PC",
    "SWQUE",
    "CTRL",
    "AGE-multiAM",
    "-",
    ",",
    ".",
    ":",
    "=",
    " ",
    "\t",
    "\n",
    "d",
    "w",
    "s",
    "q",
    "f",
    "p",
    "i",
    "e",
    "r",
    "0",
    "7",
    "65535",
    "65536",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+3",
    "é",
    "☃",
    "\u{0}",
    "",
];

/// `Replay::parse` is total: random byte soup and single-token mutations
/// of the committed traces each return `Ok` or a `ReplayParseError` that
/// names its cause and locates it inside the input, never a panic. The
/// parser makes one pass over its input, so every case finishing is the
/// no-hang half.
#[test]
fn replay_parse_is_total_on_soup_and_corpus_mutations() {
    let traces: Vec<String> =
        corpus_files().values().map(|text| trace_line(text).to_string()).collect();
    for trace in &traces {
        assert!(Replay::parse(trace).is_ok(), "unmutated trace must parse: {trace}");
    }
    check(2048, |g| {
        let input = if g.bool() {
            g.soup(FRAGMENTS)
        } else {
            let trace = &traces[g.gen_range(0..traces.len())];
            g.mutate(trace, FRAGMENTS)
        };
        if let Err(e) = Replay::parse(&input) {
            assert!(!e.message.is_empty(), "an error names its cause: {input:?}");
            assert!(
                e.offset <= input.len() && input.is_char_boundary(e.offset),
                "an error is located inside the input: {e} in {input:?}"
            );
        }
    });
}
