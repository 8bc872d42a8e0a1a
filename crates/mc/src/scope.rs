//! The default scope matrix: which (kind, capacity) pairs a plain or
//! `--smoke` run of `swque-mc` explores, and the depth bound of each.

use swque_core::IqKind;

/// Per-kind depth ceilings. The explorer stops at the reachable-set
/// fixpoint, so a generous bound costs nothing once the space closes;
/// measured closure depths (EXPERIMENTS.md) are ≤ 22 events for the
/// single-structure kinds except AGE-multiAM at capacity 4 (27), and
/// 62–70 for the SWQUE organizations, whose controller walks a six-value
/// FLPI-threshold ladder (0.04 stepping down by 0.01 to an f64 epsilon,
/// then 0) before the space folds shut.
pub fn queue_depth(kind: IqKind) -> u64 {
    match kind {
        IqKind::Swque | IqKind::SwqueMulti => 80,
        IqKind::AgeMulti => 48,
        _ => 32,
    }
}

/// The controller's depth ceiling: it closes at depth 18, on the same
/// threshold ladder.
pub fn ctrl_depth() -> u64 {
    24
}

/// Whether (kind, capacity) belongs to the default matrix. Every kind
/// runs at capacities 2–3, and every kind but the SWQUE pair at
/// capacity 4: the SWQUE kinds multiply their queue space by the
/// controller ladder (EXPERIMENTS.md). `--smoke` keeps capacities 2–3
/// and drops the SWQUE kinds to capacity 2. Any excluded scope stays
/// reachable explicitly via `--kind`/`--capacity`/`--depth`.
pub fn in_matrix(smoke: bool, kind: IqKind, capacity: usize) -> bool {
    let swque = matches!(kind, IqKind::Swque | IqKind::SwqueMulti);
    match capacity {
        2 => true,
        3 => !(smoke && swque),
        4 => !smoke && !swque,
        _ => false,
    }
}
