//! Register renaming: speculative and committed map tables, free lists, and
//! the physical-register ready scoreboard.
//!
//! Recovery model: the core only ever performs *full* pipeline flushes
//! (SWQUE mode switches; branch mispredictions stall fetch instead of
//! fetching the wrong path), so recovery simply restores the speculative map
//! from the committed map and rebuilds the free lists.

use std::collections::VecDeque;

use swque_isa::{ArchReg, RegClass, NUM_ARCH_REGS};

use swque_core::Tag;

/// Rename state for both register classes.
#[derive(Debug, Clone)]
pub(crate) struct RenameState {
    phys_int: usize,
    /// Speculative map, indexed by [`ArchReg::flat_index`].
    map: Vec<Tag>,
    /// Committed (retirement) map.
    committed: Vec<Tag>,
    /// Ready bit per physical tag.
    ready: Vec<bool>,
    free_int: VecDeque<Tag>,
    free_fp: VecDeque<Tag>,
}

impl RenameState {
    /// Creates the initial state: architectural register `i` of each class
    /// maps to a distinct ready tag; the rest of the tags are free.
    ///
    /// # Panics
    ///
    /// Panics if either file has fewer physical than architectural
    /// registers, or more than `Tag` can index.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "every tag is below phys_int + phys_fp, which the assert bounds by Tag::MAX + 1"
    )]
    pub(crate) fn new(phys_int: usize, phys_fp: usize) -> RenameState {
        assert!(phys_int >= NUM_ARCH_REGS && phys_fp >= NUM_ARCH_REGS);
        assert!(phys_int + phys_fp <= Tag::MAX as usize + 1);
        let mut map = Vec::with_capacity(2 * NUM_ARCH_REGS);
        for i in 0..NUM_ARCH_REGS {
            map.push(i as Tag); // int arch i -> tag i
        }
        for i in 0..NUM_ARCH_REGS {
            map.push((phys_int + i) as Tag); // fp arch i -> tag phys_int+i
        }
        let committed = map.clone();
        let mut ready = vec![false; phys_int + phys_fp];
        for &t in &map {
            ready[t as usize] = true;
        }
        let free_int = (NUM_ARCH_REGS..phys_int).map(|t| t as Tag).collect();
        let free_fp = (phys_int + NUM_ARCH_REGS..phys_int + phys_fp).map(|t| t as Tag).collect();
        RenameState { phys_int, map, committed, ready, free_int, free_fp }
    }

    fn free_list(&mut self, class: RegClass) -> &mut VecDeque<Tag> {
        match class {
            RegClass::Int => &mut self.free_int,
            RegClass::Fp => &mut self.free_fp,
        }
    }

    /// Free physical registers available for `class`.
    pub(crate) fn free_count(&self, class: RegClass) -> usize {
        match class {
            RegClass::Int => self.free_int.len(),
            RegClass::Fp => self.free_fp.len(),
        }
    }

    /// Current speculative mapping of `reg`.
    pub(crate) fn lookup(&self, reg: ArchReg) -> Tag {
        self.map[reg.flat_index()]
    }

    /// Is the value of `tag` available?
    pub(crate) fn is_ready(&self, tag: Tag) -> bool {
        self.ready[tag as usize]
    }

    /// Marks `tag` ready (result written back).
    pub(crate) fn set_ready(&mut self, tag: Tag) {
        self.ready[tag as usize] = true;
    }

    /// Renames a source operand: returns `None` if the value is already
    /// available, otherwise the tag to wait on.
    pub(crate) fn rename_src(&self, reg: ArchReg) -> Option<Tag> {
        if reg.is_zero() {
            return None;
        }
        let tag = self.lookup(reg);
        if self.is_ready(tag) {
            None
        } else {
            Some(tag)
        }
    }

    /// Renames a destination: allocates a new (not-ready) tag, updates the
    /// speculative map, and returns `(new_tag, previous_tag)`. The previous
    /// tag is freed when the instruction commits.
    ///
    /// Returns `None` if the free list for the class is empty (dispatch must
    /// stall).
    pub(crate) fn rename_dst(&mut self, reg: ArchReg) -> Option<(Tag, Tag)> {
        let new = self.free_list(reg.class).pop_front()?;
        let old = self.map[reg.flat_index()];
        self.map[reg.flat_index()] = new;
        self.ready[new as usize] = false;
        Some((new, old))
    }

    /// Reverses a speculative [`rename_dst`](Self::rename_dst) during
    /// misprediction squash. Must be called in reverse dispatch order so
    /// nested renames of the same register unwind correctly.
    pub(crate) fn undo_dst(&mut self, reg: ArchReg, new: Tag, old: Tag) {
        debug_assert_eq!(self.map[reg.flat_index()], new, "squash order violation");
        self.map[reg.flat_index()] = old;
        self.free_list(reg.class).push_front(new);
    }

    /// Commits a destination rename: the committed map adopts `new` and the
    /// previously committed tag `old` returns to the free list.
    pub(crate) fn commit_dst(&mut self, reg: ArchReg, new: Tag, old: Tag) {
        debug_assert_eq!(self.committed[reg.flat_index()], old, "commit order violation");
        self.committed[reg.flat_index()] = new;
        let class = reg.class;
        self.free_list(class).push_back(old);
    }

    /// Full-flush recovery: the speculative map reverts to the committed
    /// map, committed values become ready, and every other tag is free.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "every tag is below phys_int + phys_fp, which `new` bounds by Tag::MAX + 1"
    )]
    pub(crate) fn recover(&mut self) {
        self.map.copy_from_slice(&self.committed);
        let mut live = vec![false; self.ready.len()];
        for &t in &self.committed {
            live[t as usize] = true;
            self.ready[t as usize] = true;
        }
        self.free_int.clear();
        self.free_fp.clear();
        for (t, &is_live) in live.iter().enumerate() {
            if !is_live {
                if t < self.phys_int {
                    self.free_int.push_back(t as Tag);
                } else {
                    self.free_fp.push_back(t as Tag);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::Reg;

    fn r(i: u8) -> ArchReg {
        ArchReg::int(i)
    }

    #[test]
    fn initial_state_is_ready_and_sized() {
        let s = RenameState::new(48, 40);
        assert_eq!(s.free_count(RegClass::Int), 16);
        assert_eq!(s.free_count(RegClass::Fp), 8);
        assert!(s.is_ready(s.lookup(r(5))));
        assert_eq!(s.rename_src(r(5)), None);
    }

    #[test]
    fn zero_register_is_always_ready() {
        let s = RenameState::new(48, 48);
        assert_eq!(s.rename_src(Reg::ZERO.into()), None);
    }

    #[test]
    fn dst_rename_creates_dependence_until_writeback() {
        let mut s = RenameState::new(48, 48);
        let (new, _old) = s.rename_dst(r(3)).unwrap();
        assert_eq!(s.rename_src(r(3)), Some(new), "consumer waits on the new tag");
        s.set_ready(new);
        assert_eq!(s.rename_src(r(3)), None);
    }

    #[test]
    fn commit_frees_previous_mapping() {
        let mut s = RenameState::new(48, 48);
        let before = s.free_count(RegClass::Int);
        let (new, old) = s.rename_dst(r(3)).unwrap();
        assert_eq!(s.free_count(RegClass::Int), before - 1);
        s.commit_dst(r(3), new, old);
        assert_eq!(s.free_count(RegClass::Int), before, "old tag recycled");
    }

    #[test]
    fn free_list_exhaustion_reports_none() {
        let mut s = RenameState::new(33, 32); // one free int tag
        assert!(s.rename_dst(r(1)).is_some());
        assert!(s.rename_dst(r(2)).is_none(), "no free tag left");
    }

    #[test]
    fn recover_restores_committed_view() {
        let mut s = RenameState::new(48, 48);
        // Commit one rename of r1, then speculate two more (uncommitted).
        let (n1, o1) = s.rename_dst(r(1)).unwrap();
        s.set_ready(n1);
        s.commit_dst(r(1), n1, o1);
        let (n2, _) = s.rename_dst(r(1)).unwrap();
        let (n3, _) = s.rename_dst(r(2)).unwrap();
        s.recover();
        assert_eq!(s.lookup(r(1)), n1, "speculative renames rolled back");
        assert_ne!(s.lookup(r(1)), n2);
        assert_ne!(s.lookup(r(2)), n3);
        assert!(s.is_ready(s.lookup(r(1))));
        // All non-live tags free again: 48 - 32 = 16 per class.
        assert_eq!(s.free_count(RegClass::Int), 16);
        assert_eq!(s.free_count(RegClass::Fp), 16);
    }

    #[test]
    fn fp_and_int_tags_do_not_collide() {
        let mut s = RenameState::new(64, 64);
        let (ni, _) = s.rename_dst(ArchReg::int(4)).unwrap();
        let (nf, _) = s.rename_dst(ArchReg::fp(4)).unwrap();
        assert_ne!(ni, nf);
        assert!((ni as usize) < 64);
        assert!((nf as usize) >= 64);
    }
}
