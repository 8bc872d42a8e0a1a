//! Pins the state count and closure depth of every `--smoke` scope.
//!
//! The dedup key decides how many canonical states a scope has: a key
//! that drops architectural state merges distinct states (fewer states),
//! one that carries statistics splits equal ones (more states). Either
//! change moves these counts, so a key change that is meant to keep the
//! partition must leave this table as it is.

use swque_core::IqKind;
use swque_mc::scope::{ctrl_depth, in_matrix, queue_depth};
use swque_mc::{explore, CtrlHarness, QueueHarness};

/// `(kind, capacity, states, closure depth)` for every smoke queue scope,
/// width 2.
const QUEUE_PINS: [(IqKind, usize, u64, u64); 18] = [
    (IqKind::Shift, 2, 28, 5),
    (IqKind::Shift, 3, 120, 7),
    (IqKind::Circ, 2, 92, 8),
    (IqKind::Circ, 3, 971, 13),
    (IqKind::CircPpri, 2, 92, 8),
    (IqKind::CircPpri, 3, 971, 13),
    (IqKind::CircPc, 2, 105, 8),
    (IqKind::CircPc, 3, 1_440, 15),
    (IqKind::Rand, 2, 84, 8),
    (IqKind::Rand, 3, 1_204, 12),
    (IqKind::Age, 2, 84, 8),
    (IqKind::Age, 3, 1_204, 12),
    (IqKind::AgeMulti, 2, 84, 8),
    (IqKind::AgeMulti, 3, 1_204, 12),
    (IqKind::Swque, 2, 5_205, 62),
    (IqKind::SwqueMulti, 2, 5_205, 62),
    (IqKind::Rearrange, 2, 154, 9),
    (IqKind::Rearrange, 3, 2_168, 12),
];

/// The controller scope: states and closure depth.
const CTRL_PIN: (u64, u64) = (20, 18);

#[test]
fn pins_cover_exactly_the_smoke_matrix() {
    let mut smoke = Vec::new();
    for kind in IqKind::ALL {
        for capacity in [2, 3, 4] {
            if in_matrix(true, kind, capacity) {
                smoke.push((kind, capacity));
            }
        }
    }
    let mut pinned: Vec<(IqKind, usize)> = QUEUE_PINS.iter().map(|p| (p.0, p.1)).collect();
    let order = |k: &IqKind| IqKind::ALL.iter().position(|x| x == k);
    smoke.sort_by_key(|(k, c)| (order(k), *c));
    pinned.sort_by_key(|(k, c)| (order(k), *c));
    assert_eq!(smoke, pinned);
}

#[test]
fn every_smoke_scope_closes_with_its_pinned_count_and_depth() {
    for (kind, capacity, states, deepest) in QUEUE_PINS {
        let root = QueueHarness::new(kind, capacity, 2, None).expect("valid scope");
        let outcome = explore(&root, queue_depth(kind));
        let scope = format!("{} cap {capacity}", kind.label());
        assert!(outcome.violation.is_none(), "{scope}: {:?}", outcome.violation);
        assert!(outcome.closed(), "{scope}: frontier open");
        assert_eq!((outcome.states, outcome.deepest), (states, deepest), "{scope}");
    }
    let root = CtrlHarness::new(None).expect("valid controller");
    let outcome = explore(&root, ctrl_depth());
    assert!(outcome.violation.is_none() && outcome.closed(), "CTRL");
    assert_eq!((outcome.states, outcome.deepest), CTRL_PIN, "CTRL");
}
