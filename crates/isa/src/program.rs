//! Executable programs: instruction text plus initial data image.

use crate::inst::Inst;
use crate::mem::{Segment, SparseMemory};

/// A complete program: instruction sequence and initial data segments.
///
/// Program counters are instruction indices (one instruction per pc). Data
/// segments are loaded into memory, in order, before execution begins;
/// their pages are shared with every memory loaded from them, so neither a
/// clone of the program nor an emulator built from it copies the image.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Instruction text, indexed by pc.
    pub insts: Vec<Inst>,
    /// Initial-data segments; a later one overwrites an earlier one where
    /// they overlap.
    pub data: Vec<Segment>,
    /// Entry pc.
    pub entry: u64,
}

impl Program {
    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Fetches the instruction at `pc`, if in range.
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        usize::try_from(pc).ok().and_then(|i| self.insts.get(i))
    }

    /// Builds the initial memory image from the data segments, applied in
    /// order. Every page a segment covers whole is shared with the segment,
    /// not copied; only the partly covered pages at a segment's ends are
    /// copied, so the image is the one `write_bytes` of each segment in
    /// turn would give.
    pub fn initial_memory(&self) -> SparseMemory {
        let mut mem = SparseMemory::new();
        for segment in &self.data {
            mem.load(segment);
        }
        mem
    }

    /// Byte address used for cache/branch-predictor indexing of `pc`.
    ///
    /// Instructions are treated as 4 bytes wide so that cache-line and BTB
    /// index arithmetic behaves like a real machine.
    pub fn byte_addr(pc: u64) -> u64 {
        pc << 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::op::Opcode;

    #[test]
    fn initial_memory_applies_segments() {
        let mut a = Assembler::new();
        a.data_bytes(0x1000, &[1, 2, 3]);
        a.data_u64s(0x2000, [7]);
        let mem = a.finish().unwrap().initial_memory();
        assert_eq!(mem.read_u8(0x1001), 2);
        assert_eq!(mem.read_u64(0x2000), 7);
    }

    #[test]
    fn later_segments_overwrite_earlier_ones() {
        let mut a = Assembler::new();
        a.data_bytes(0x0ffc, &[1; 8]);
        a.data_bytes(0x0ffe, &[2; 4]);
        a.data_bytes(0x1001, &[3]);
        let mem = a.finish().unwrap().initial_memory();
        let bytes: Vec<u8> = (0x0ffc..0x1004).map(|a| mem.read_u8(a)).collect();
        assert_eq!(bytes, [1, 1, 2, 2, 2, 3, 1, 1]);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn fetch_bounds() {
        let p = Program { insts: vec![Inst::bare(Opcode::Nop)], data: vec![], entry: 0 };
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn byte_addr_is_word_scaled() {
        assert_eq!(Program::byte_addr(0), 0);
        assert_eq!(Program::byte_addr(3), 12);
    }
}
