//! Opcodes and function-unit classes.

use std::fmt;

/// Function-unit classes, matching the paper's Table 2 execution resources
/// (3 iALU, 1 iMULT/DIV, 2 Ld/St, 2 FPU in the medium model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Integer ALU: add/sub/logic/shift/compare/branch resolution.
    IntAlu,
    /// Integer multiply/divide unit.
    IntMulDiv,
    /// Load/store (address generation + memory) port.
    LdSt,
    /// Floating-point unit.
    Fpu,
}

impl FuClass {
    /// All classes, in a fixed order (useful for per-class tables).
    pub const ALL: [FuClass; 4] =
        [FuClass::IntAlu, FuClass::IntMulDiv, FuClass::LdSt, FuClass::Fpu];

    /// Dense index of the class, `0..4`.
    pub fn index(self) -> usize {
        match self {
            FuClass::IntAlu => 0,
            FuClass::IntMulDiv => 1,
            FuClass::LdSt => 2,
            FuClass::Fpu => 3,
        }
    }
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuClass::IntAlu => write!(f, "iALU"),
            FuClass::IntMulDiv => write!(f, "iMULT/DIV"),
            FuClass::LdSt => write!(f, "Ld/St"),
            FuClass::Fpu => write!(f, "FPU"),
        }
    }
}

/// Instruction opcodes.
///
/// The operand conventions are documented per group on the variants; see
/// [`Inst`](crate::Inst) for how operands are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Opcode {
    // ---- integer ALU (dst, src1, src2) ----
    /// `dst = src1 + src2`
    Add,
    /// `dst = src1 - src2`
    Sub,
    /// `dst = src1 & src2`
    And,
    /// `dst = src1 | src2`
    Or,
    /// `dst = src1 ^ src2`
    Xor,
    /// `dst = src1 << (src2 & 63)`
    Sll,
    /// `dst = src1 >> (src2 & 63)` (logical)
    Srl,
    /// `dst = (src1 as i64) >> (src2 & 63)` (arithmetic)
    Sra,
    /// `dst = (src1 as i64) < (src2 as i64)`
    Slt,
    /// `dst = src1 < src2` (unsigned)
    Sltu,

    // ---- integer ALU immediate (dst, src1, imm) ----
    /// `dst = src1 + imm`
    AddI,
    /// `dst = src1 & imm`
    AndI,
    /// `dst = src1 | imm`
    OrI,
    /// `dst = src1 ^ imm`
    XorI,
    /// `dst = src1 << (imm & 63)`
    SllI,
    /// `dst = src1 >> (imm & 63)` (logical)
    SrlI,
    /// `dst = (src1 as i64) >> (imm & 63)` (arithmetic)
    SraI,
    /// `dst = (src1 as i64) < imm`
    SltI,
    /// `dst = imm` (load immediate; assembler alias `li`)
    Li,

    // ---- integer multiply / divide (dst, src1, src2) ----
    /// `dst = src1 * src2` (low 64 bits)
    Mul,
    /// `dst = (src1 as i64) / (src2 as i64)`; division by zero yields 0.
    Div,
    /// `dst = (src1 as i64) % (src2 as i64)`; modulo by zero yields 0.
    Rem,

    // ---- memory (load: dst, src1=base, imm=disp; store: src1=base, src2=value, imm=disp) ----
    /// Integer 64-bit load: `dst = mem[src1 + imm]`
    Ld,
    /// Integer 64-bit store: `mem[src1 + imm] = src2`
    St,
    /// FP 64-bit load: `fdst = mem[src1 + imm]`
    FLd,
    /// FP 64-bit store: `mem[src1 + imm] = fsrc2`
    FSt,

    // ---- floating point (dst, src1, src2; all f64) ----
    /// `fdst = fsrc1 + fsrc2`
    FAdd,
    /// `fdst = fsrc1 - fsrc2`
    FSub,
    /// `fdst = fsrc1 * fsrc2`
    FMul,
    /// `fdst = fsrc1 / fsrc2`
    FDiv,
    /// `fdst = sqrt(fsrc1)`
    FSqrt,
    /// `fdst = min(fsrc1, fsrc2)`
    FMin,
    /// `fdst = max(fsrc1, fsrc2)`
    FMax,
    /// `fdst = -fsrc1`
    FNeg,
    /// Integer-to-float convert: `fdst = src1 as f64` (int source register).
    ICvtF,
    /// Float-to-integer convert: `dst = fsrc1 as i64` (fp source register).
    FCvtI,
    /// FP compare less-than into an integer register: `dst = fsrc1 < fsrc2`.
    FCmpLt,

    // ---- control flow ----
    /// Branch if equal: `if src1 == src2 goto imm` (imm = target pc).
    Beq,
    /// Branch if not equal.
    Bne,
    /// Branch if signed less-than.
    Blt,
    /// Branch if signed greater-or-equal.
    Bge,
    /// Unconditional direct jump to `imm`.
    J,
    /// Jump-and-link: `dst = pc + 1; goto imm`. Used for calls.
    Jal,
    /// Indirect jump to the address in `src1`. Used for returns / dispatch.
    Jr,

    // ---- misc ----
    /// No operation.
    Nop,
    /// Stop the program.
    Halt,
}

impl Opcode {
    /// The function-unit class that executes this opcode.
    ///
    /// Branches and jumps resolve on the integer ALU, as in SimpleScalar.
    pub fn fu_class(self) -> FuClass {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | AddI | AndI | OrI
            | XorI | SllI | SrlI | SraI | SltI | Li | Beq | Bne | Blt | Bge | J | Jal | Jr
            | Nop | Halt | FCvtI | ICvtF | FCmpLt => FuClass::IntAlu,
            Mul | Div | Rem => FuClass::IntMulDiv,
            Ld | St | FLd | FSt => FuClass::LdSt,
            FAdd | FSub | FMul | FDiv | FSqrt | FMin | FMax | FNeg => FuClass::Fpu,
        }
    }

    /// Execution latency in cycles on its function unit.
    ///
    /// The L1D hit latency for loads (2 cycles in Table 2) is modelled by the
    /// memory system, not here; `Ld`/`FLd` report only their
    /// address-generation cycle.
    pub fn latency(self) -> u32 {
        use Opcode::*;
        match self {
            Mul => 3,
            Div | Rem => 20,
            FAdd | FSub | FMin | FMax | FNeg | ICvtF | FCvtI | FCmpLt => 4,
            FMul => 4,
            FDiv => 12,
            FSqrt => 24,
            _ => 1,
        }
    }

    /// True for conditional branches (`Beq`/`Bne`/`Blt`/`Bge`).
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge)
    }

    /// True for any control-flow instruction (conditional or not).
    pub fn is_control(self) -> bool {
        self.is_cond_branch() || matches!(self, Opcode::J | Opcode::Jal | Opcode::Jr)
    }

    /// True for loads (`Ld`/`FLd`).
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Ld | Opcode::FLd)
    }

    /// True for stores (`St`/`FSt`).
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::St | Opcode::FSt)
    }

    /// True if the opcode reads or writes memory.
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format!("{self:?}").to_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_class_partition() {
        assert_eq!(Opcode::Add.fu_class(), FuClass::IntAlu);
        assert_eq!(Opcode::Mul.fu_class(), FuClass::IntMulDiv);
        assert_eq!(Opcode::Ld.fu_class(), FuClass::LdSt);
        assert_eq!(Opcode::FSt.fu_class(), FuClass::LdSt);
        assert_eq!(Opcode::FAdd.fu_class(), FuClass::Fpu);
        assert_eq!(Opcode::Beq.fu_class(), FuClass::IntAlu);
    }

    #[test]
    fn latencies_are_positive_and_alu_is_single_cycle() {
        assert_eq!(Opcode::Add.latency(), 1);
        assert_eq!(Opcode::Beq.latency(), 1);
        assert!(Opcode::Div.latency() > Opcode::Mul.latency());
        assert!(Opcode::FDiv.latency() > Opcode::FMul.latency());
    }

    #[test]
    fn control_and_memory_predicates() {
        assert!(Opcode::Beq.is_cond_branch());
        assert!(!Opcode::J.is_cond_branch());
        assert!(Opcode::J.is_control());
        assert!(Opcode::Jr.is_control());
        assert!(Opcode::Ld.is_load() && !Opcode::Ld.is_store());
        assert!(Opcode::FSt.is_store() && Opcode::FSt.is_mem());
        assert!(!Opcode::Add.is_mem());
    }

    #[test]
    fn fu_class_index_is_dense() {
        for (i, c) in FuClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
