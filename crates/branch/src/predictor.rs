//! Combined front-end predictor: gshare direction + BTB targets.

use crate::btb::Btb;
use crate::gshare::Gshare;

/// What kind of control-flow instruction is being predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// Conditional branch: direction from gshare, target from the BTB.
    Conditional,
    /// Direct unconditional jump or call: always taken; the target is known
    /// at decode, so target prediction cannot miss.
    DirectJump,
    /// Indirect jump (`jr`): always taken, target only from the BTB.
    IndirectJump,
}

/// The actual outcome of a branch, used for training and for checking the
/// prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the branch redirected control flow.
    pub taken: bool,
    /// Where it went if taken (the fall-through pc otherwise).
    pub target: u64,
}

/// A front-end prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target if taken. `None` means the front end has no target
    /// (BTB miss), which counts as a misprediction for taken branches.
    pub target: Option<u64>,
}

impl Prediction {
    /// Whether this prediction matches the real `outcome` for a branch whose
    /// decode-known target is `known_target` (direct jumps/branches encode
    /// their target, so only the direction can mispredict for them once
    /// decoded; indirect jumps rely on the BTB).
    pub fn correct(&self, kind: BranchKind, outcome: BranchOutcome) -> bool {
        if self.taken != outcome.taken {
            return false;
        }
        if !outcome.taken {
            return true;
        }
        match kind {
            // Direct control flow: target is available from the instruction
            // at decode; the BTB only accelerates fetch. Treat a direction
            // hit as a full hit (SimpleScalar models direct targets as
            // decode-resolvable).
            BranchKind::Conditional | BranchKind::DirectJump => true,
            BranchKind::IndirectJump => self.target == Some(outcome.target),
        }
    }
}

/// Configuration for [`BranchPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Global history length in bits.
    pub history_bits: u32,
    /// Number of PHT entries (power of two).
    pub pht_entries: usize,
    /// Number of BTB sets (power of two).
    pub btb_sets: usize,
    /// BTB associativity.
    pub btb_ways: usize,
}

impl Default for PredictorConfig {
    /// The paper's Table 2: 12-bit-history 4K-entry gshare, 2K-set 4-way BTB.
    fn default() -> PredictorConfig {
        PredictorConfig { history_bits: 12, pht_entries: 4096, btb_sets: 2048, btb_ways: 4 }
    }
}

/// Prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Branches predicted.
    pub predicted: u64,
    /// Mispredictions (direction or indirect-target).
    pub mispredicted: u64,
}

impl BranchStats {
    /// Counter difference `self - earlier` (for measurement windows that
    /// exclude warmup).
    pub fn delta(&self, earlier: &BranchStats) -> BranchStats {
        BranchStats {
            predicted: self.predicted.saturating_sub(earlier.predicted),
            mispredicted: self.mispredicted.saturating_sub(earlier.mispredicted),
        }
    }

    /// Misprediction rate in `[0, 1]`; zero when nothing was predicted.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.predicted as f64
        }
    }
}

/// The combined front-end branch predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    gshare: Gshare,
    btb: Btb,
    stats: BranchStats,
}

impl BranchPredictor {
    /// Creates a predictor from `config`.
    pub fn new(config: PredictorConfig) -> BranchPredictor {
        BranchPredictor {
            gshare: Gshare::new(config.history_bits, config.pht_entries),
            btb: Btb::new(config.btb_sets, config.btb_ways),
            stats: BranchStats::default(),
        }
    }

    /// Predicts the control-flow instruction at `pc`.
    pub fn predict(&mut self, pc: u64, kind: BranchKind) -> Prediction {
        let target = self.btb.lookup(pc);
        let taken = match kind {
            BranchKind::Conditional => self.gshare.predict(pc),
            BranchKind::DirectJump | BranchKind::IndirectJump => true,
        };
        Prediction { taken, target }
    }

    /// Trains the predictor with the real outcome and records whether the
    /// earlier `prediction` was correct. Returns `true` on a misprediction.
    pub fn update(
        &mut self,
        pc: u64,
        kind: BranchKind,
        prediction: Prediction,
        outcome: BranchOutcome,
    ) -> bool {
        if kind == BranchKind::Conditional {
            self.gshare.update(pc, outcome.taken);
        }
        if outcome.taken {
            self.btb.insert(pc, outcome.target);
        }
        let miss = !prediction.correct(kind, outcome);
        self.stats.predicted += 1;
        self.stats.mispredicted += miss as u64;
        miss
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }
}

impl Default for BranchPredictor {
    fn default() -> BranchPredictor {
        BranchPredictor::new(PredictorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_branch_converges_to_correct() {
        let mut bp = BranchPredictor::default();
        let outcome = BranchOutcome { taken: true, target: 0x10 };
        let mut last_miss = true;
        for _ in 0..16 {
            let p = bp.predict(0x40, BranchKind::Conditional);
            last_miss = bp.update(0x40, BranchKind::Conditional, p, outcome);
        }
        assert!(!last_miss, "trained loop branch should predict correctly");
    }

    #[test]
    fn indirect_jump_needs_btb_target() {
        let mut bp = BranchPredictor::default();
        let outcome = BranchOutcome { taken: true, target: 0x999 };
        let p = bp.predict(0x80, BranchKind::IndirectJump);
        assert!(p.taken && p.target.is_none());
        assert!(bp.update(0x80, BranchKind::IndirectJump, p, outcome), "cold jr mispredicts");
        let p2 = bp.predict(0x80, BranchKind::IndirectJump);
        assert_eq!(p2.target, Some(0x999));
        assert!(!bp.update(0x80, BranchKind::IndirectJump, p2, outcome));
    }

    #[test]
    fn indirect_jump_with_changing_target_mispredicts() {
        let mut bp = BranchPredictor::default();
        let o1 = BranchOutcome { taken: true, target: 0x100 };
        let o2 = BranchOutcome { taken: true, target: 0x200 };
        let p = bp.predict(0x80, BranchKind::IndirectJump);
        bp.update(0x80, BranchKind::IndirectJump, p, o1);
        let p = bp.predict(0x80, BranchKind::IndirectJump);
        assert!(bp.update(0x80, BranchKind::IndirectJump, p, o2), "target changed");
    }

    #[test]
    fn direct_jump_direction_is_always_taken() {
        let mut bp = BranchPredictor::default();
        let p = bp.predict(0x44, BranchKind::DirectJump);
        assert!(p.taken);
        let miss =
            bp.update(0x44, BranchKind::DirectJump, p, BranchOutcome { taken: true, target: 7 });
        assert!(!miss, "direct jumps resolve their target at decode");
    }

    #[test]
    fn stats_accumulate() {
        let mut bp = BranchPredictor::default();
        for i in 0..10 {
            let p = bp.predict(0x40, BranchKind::Conditional);
            bp.update(
                0x40,
                BranchKind::Conditional,
                p,
                BranchOutcome { taken: i % 2 == 0, target: 0x10 },
            );
        }
        assert_eq!(bp.stats().predicted, 10);
        assert!(bp.stats().mispredict_rate() > 0.0);
    }

    #[test]
    fn not_taken_correct_prediction_ignores_target() {
        let p = Prediction { taken: false, target: None };
        assert!(p.correct(BranchKind::Conditional, BranchOutcome { taken: false, target: 0xdead }));
    }
}
