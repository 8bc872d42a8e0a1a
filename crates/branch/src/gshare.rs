//! Gshare direction predictor.

/// A gshare predictor: global history XORed with the branch pc indexes a
/// table of 2-bit saturating counters.
///
/// Defaults mirror the paper's Table 2: 12-bit history, 4K-entry PHT.
#[derive(Debug, Clone)]
pub struct Gshare {
    history_bits: u32,
    history: u64,
    pht: Vec<u8>,
}

impl Gshare {
    /// Creates a gshare predictor with `history_bits` of global history and
    /// a PHT of `pht_entries` 2-bit counters (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `pht_entries` is not a power of two or `history_bits > 32`.
    pub fn new(history_bits: u32, pht_entries: usize) -> Gshare {
        assert!(pht_entries.is_power_of_two(), "PHT size must be a power of two");
        assert!(history_bits <= 32, "history length out of range");
        Gshare {
            history_bits,
            history: 0,
            // Weakly taken initial state: loops predict taken quickly.
            pht: vec![2; pht_entries],
        }
    }

    #[expect(clippy::cast_possible_truncation, reason = "masked below the table length, a usize")]
    fn index(&self, pc: u64) -> usize {
        let mask = (self.pht.len() - 1) as u64;
        ((pc ^ self.history) & mask) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.pht[self.index(pc)] >= 2
    }

    /// Trains the counter and shifts the outcome into global history.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.pht[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        let mask = (1u64 << self.history_bits) - 1;
        self.history = ((self.history << 1) | taken as u64) & mask;
    }

    /// Current global history register value (for tests/debugging).
    pub fn history(&self) -> u64 {
        self.history
    }
}

impl Default for Gshare {
    /// Table 2 parameters: 12-bit history, 4K-entry PHT.
    fn default() -> Gshare {
        Gshare::new(12, 4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_an_always_taken_branch() {
        let mut g = Gshare::default();
        for _ in 0..16 {
            g.update(0x400, true);
        }
        assert!(g.predict(0x400));
    }

    #[test]
    fn learns_an_always_not_taken_branch() {
        let mut g = Gshare::default();
        for _ in 0..16 {
            g.update(0x404, false);
        }
        assert!(!g.predict(0x404));
    }

    #[test]
    fn learns_an_alternating_pattern_through_history() {
        // T,N,T,N... is perfectly predictable with >= 1 bit of history once
        // each history context's counter saturates.
        let mut g = Gshare::new(12, 4096);
        let mut taken = true;
        for _ in 0..256 {
            let p = g.predict(0x40);
            let _ = p;
            g.update(0x40, taken);
            taken = !taken;
        }
        // Measure accuracy over the next 64 branches.
        let mut correct = 0;
        for _ in 0..64 {
            if g.predict(0x40) == taken {
                correct += 1;
            }
            g.update(0x40, taken);
            taken = !taken;
        }
        assert!(correct >= 60, "alternating branch should be near-perfect, got {correct}/64");
    }

    #[test]
    fn history_register_masks_to_width() {
        let mut g = Gshare::new(4, 16);
        for _ in 0..100 {
            g.update(0, true);
        }
        assert_eq!(g.history(), 0xF);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_pht_rejected() {
        let _ = Gshare::new(12, 1000);
    }
}
