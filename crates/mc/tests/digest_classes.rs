//! The explorer deduplicates states by the 64-bit `key_digest` of their
//! key words, not by the words themselves. On every state the `--smoke`
//! matrix reaches, the two must partition alike: a breadth-first search
//! deduplicated by the exact words reaches as many states as `explore`
//! counts, and no two distinct word keys share a digest.
//!
//! No two smoke keys differ only in the high halves of their words, so a
//! digest that ignored those halves would partition them correctly too.
//! Each reached key is therefore also probed at one word (a position that
//! walks the key from state to state): flipping that word's high or low
//! half must move it to another class.

use std::collections::{BTreeMap, BTreeSet};

use swque_core::digest::key_digest;
use swque_core::IqKind;
use swque_mc::scope::{ctrl_depth, in_matrix, queue_depth};
use swque_mc::{explore, CtrlHarness, Harness, QueueHarness};

/// Walks every state within `depth` events of `root`, deduplicated by
/// exact key words, and checks the digest classes against the word
/// classes. Returns the states counted as `explore` counts them (those
/// reached within the bound).
fn check_classes<H: Harness>(root: &H, depth: u64, scope: &str) -> u64 {
    let mut words = Vec::new();
    root.state_key(&mut words);
    let mut by_digest = BTreeMap::from([(key_digest(&words), words.clone())]);
    let mut seen = BTreeSet::from([words.clone()]);
    let (mut level, mut states) = (vec![root.clone()], 1);
    for current_depth in 0..=depth {
        for state in std::mem::take(&mut level) {
            for event in state.enabled_events() {
                let mut next = state.clone();
                if let Err(v) = next.apply(event) {
                    panic!("{scope}: {} — {}", v.property, v.detail);
                }
                next.state_key(&mut words);
                if !seen.insert(words.clone()) {
                    continue;
                }
                let at = seen.len() % words.len();
                for flip in [u64::MAX << 32, u64::MAX >> 32] {
                    let mut neighbour = words.clone();
                    neighbour[at] ^= flip;
                    let (a, b) = (key_digest(&neighbour), key_digest(&words));
                    assert_ne!(a, b, "{scope}: word {at} of {words:?} ^ {flip:#x}");
                }
                if let Some(other) = by_digest.insert(key_digest(&words), words.clone()) {
                    panic!("{scope}: keys {other:?} and {words:?} share a digest");
                }
                if current_depth < depth {
                    states += 1;
                    level.push(next);
                }
            }
        }
    }
    states
}

#[test]
fn digest_classes_equal_key_word_classes_on_every_smoke_state() {
    for kind in IqKind::ALL {
        for capacity in [2, 3, 4] {
            if !in_matrix(true, kind, capacity) {
                continue;
            }
            let scope = format!("{} cap {capacity}", kind.label());
            let root = QueueHarness::new(kind, capacity, 2, None).expect("valid scope");
            let states = check_classes(&root, queue_depth(kind), &scope);
            assert_eq!(states, explore(&root, queue_depth(kind)).states, "{scope}");
        }
    }
    let root = CtrlHarness::new(None).expect("valid controller");
    assert_eq!(check_classes(&root, ctrl_depth(), "CTRL"), explore(&root, ctrl_depth()).states);
}
