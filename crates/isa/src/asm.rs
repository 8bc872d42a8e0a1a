//! Assembler DSL for building [`Program`]s in Rust code.

use std::error::Error;
use std::fmt;

use crate::inst::Inst;
use crate::mem::Segment;
use crate::op::Opcode;
use crate::program::Program;
use crate::reg::{ArchReg, FReg, Reg};

/// Errors produced by [`Assembler::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A branch or jump referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
        }
    }
}

impl Error for AsmError {}

/// Incremental builder for [`Program`]s.
///
/// Supports forward label references: branch targets are recorded as fixups
/// and resolved in [`finish`](Assembler::finish).
///
/// ```
/// use swque_isa::{Assembler, Reg};
/// let mut a = Assembler::new();
/// a.li(Reg(1), 3);
/// a.label("spin");
/// a.addi(Reg(1), Reg(1), -1);
/// a.bne(Reg(1), Reg::ZERO, "spin");
/// a.halt();
/// let program = a.finish().unwrap();
/// assert_eq!(program.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    insts: Vec<Inst>,
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only: labels are probed by name, never iterated"
    )]
    labels: std::collections::HashMap<String, u64>,
    fixups: Vec<(usize, String)>,
    data: Vec<Segment>,
    duplicate: Option<String>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Current pc (index of the next instruction to be emitted).
    pub fn here(&self) -> u64 {
        self.insts.len() as u64
    }

    /// Defines `name` at the current pc.
    pub fn label(&mut self, name: &str) {
        if self.labels.insert(name.to_string(), self.here()).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name.to_string());
        }
    }

    /// Adds an initial-data segment of raw bytes at `base`. Like every
    /// `data_*` method, it writes the bytes straight into the segment's
    /// 4 KiB pages, which the program's memory images then share.
    pub fn data_bytes(&mut self, base: u64, bytes: &[u8]) {
        self.data.push(Segment::from_bytes(base, bytes));
    }

    /// Adds an initial-data segment of little-endian `u64` words at `base`.
    pub fn data_u64s(&mut self, base: u64, words: impl IntoIterator<Item = u64>) {
        self.data.push(Segment::from_u64s(base, words));
    }

    /// Adds an initial-data segment of `f64` values at `base`.
    pub fn data_f64s(&mut self, base: u64, values: impl IntoIterator<Item = f64>) {
        self.data_u64s(base, values.into_iter().map(f64::to_bits));
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    fn emit_branch(
        &mut self,
        op: Opcode,
        src1: Option<ArchReg>,
        src2: Option<ArchReg>,
        dst: Option<ArchReg>,
        target: &str,
    ) {
        let at = self.insts.len();
        self.insts.push(Inst { op, dst, src1, src2, imm: 0 });
        self.fixups.push((at, target.to_string()));
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UndefinedLabel`] if a fixup target was never
    /// defined and [`AsmError::DuplicateLabel`] if a label was defined twice.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        if let Some(name) = self.duplicate {
            return Err(AsmError::DuplicateLabel(name));
        }
        for (at, name) in &self.fixups {
            let target =
                *self.labels.get(name).ok_or_else(|| AsmError::UndefinedLabel(name.clone()))?;
            self.insts[*at].imm = target as i64;
        }
        Ok(Program { insts: self.insts, data: self.data, entry: 0 })
    }

    // ---- integer reg-reg ----

    /// `dst = a + b`
    pub fn add(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Add, dst, a, b);
    }
    /// `dst = a - b`
    pub fn sub(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Sub, dst, a, b);
    }
    /// `dst = a & b`
    pub fn and(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::And, dst, a, b);
    }
    /// `dst = a | b`
    pub fn or(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Or, dst, a, b);
    }
    /// `dst = a ^ b`
    pub fn xor(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Xor, dst, a, b);
    }
    /// `dst = a << b`
    pub fn sll(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Sll, dst, a, b);
    }
    /// `dst = a >> b` (logical)
    pub fn srl(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Srl, dst, a, b);
    }
    /// `dst = a >> b` (arithmetic)
    pub fn sra(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Sra, dst, a, b);
    }
    /// `dst = (a as i64) < (b as i64)`
    pub fn slt(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Slt, dst, a, b);
    }
    /// `dst = a < b` (unsigned)
    pub fn sltu(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Sltu, dst, a, b);
    }
    /// `dst = a * b`
    pub fn mul(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Mul, dst, a, b);
    }
    /// `dst = a / b` (signed; division by zero yields 0)
    pub fn div(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Div, dst, a, b);
    }
    /// `dst = a % b` (signed; modulo by zero yields 0)
    pub fn rem(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.rrr(Opcode::Rem, dst, a, b);
    }

    // ---- integer immediates ----

    /// `dst = a + imm`
    pub fn addi(&mut self, dst: Reg, a: Reg, imm: i64) {
        self.rri(Opcode::AddI, dst, a, imm);
    }
    /// `dst = a & imm`
    pub fn andi(&mut self, dst: Reg, a: Reg, imm: i64) {
        self.rri(Opcode::AndI, dst, a, imm);
    }
    /// `dst = a | imm`
    pub fn ori(&mut self, dst: Reg, a: Reg, imm: i64) {
        self.rri(Opcode::OrI, dst, a, imm);
    }
    /// `dst = a ^ imm`
    pub fn xori(&mut self, dst: Reg, a: Reg, imm: i64) {
        self.rri(Opcode::XorI, dst, a, imm);
    }
    /// `dst = a << imm`
    pub fn slli(&mut self, dst: Reg, a: Reg, imm: i64) {
        self.rri(Opcode::SllI, dst, a, imm);
    }
    /// `dst = a >> imm` (logical)
    pub fn srli(&mut self, dst: Reg, a: Reg, imm: i64) {
        self.rri(Opcode::SrlI, dst, a, imm);
    }
    /// `dst = a >> imm` (arithmetic)
    pub fn srai(&mut self, dst: Reg, a: Reg, imm: i64) {
        self.rri(Opcode::SraI, dst, a, imm);
    }
    /// `dst = (a as i64) < imm`
    pub fn slti(&mut self, dst: Reg, a: Reg, imm: i64) {
        self.rri(Opcode::SltI, dst, a, imm);
    }
    /// `dst = imm`
    pub fn li(&mut self, dst: Reg, imm: i64) {
        self.emit(Inst { op: Opcode::Li, dst: Some(dst.into()), src1: None, src2: None, imm });
    }
    /// `dst = a` (alias for `addi dst, a, 0`)
    pub fn mv(&mut self, dst: Reg, a: Reg) {
        self.addi(dst, a, 0);
    }

    // ---- memory ----

    /// `dst = mem[base + disp]`
    pub fn ld(&mut self, dst: Reg, base: Reg, disp: i64) {
        self.emit(Inst {
            op: Opcode::Ld,
            dst: Some(dst.into()),
            src1: Some(base.into()),
            src2: None,
            imm: disp,
        });
    }
    /// `mem[base + disp] = value`
    pub fn st(&mut self, value: Reg, base: Reg, disp: i64) {
        self.emit(Inst {
            op: Opcode::St,
            dst: None,
            src1: Some(base.into()),
            src2: Some(value.into()),
            imm: disp,
        });
    }
    /// `fdst = mem[base + disp]`
    pub fn fld(&mut self, dst: FReg, base: Reg, disp: i64) {
        self.emit(Inst {
            op: Opcode::FLd,
            dst: Some(dst.into()),
            src1: Some(base.into()),
            src2: None,
            imm: disp,
        });
    }
    /// `mem[base + disp] = fvalue`
    pub fn fst(&mut self, value: FReg, base: Reg, disp: i64) {
        self.emit(Inst {
            op: Opcode::FSt,
            dst: None,
            src1: Some(base.into()),
            src2: Some(value.into()),
            imm: disp,
        });
    }

    // ---- floating point ----

    /// `dst = a + b`
    pub fn fadd(&mut self, dst: FReg, a: FReg, b: FReg) {
        self.fff(Opcode::FAdd, dst, a, b);
    }
    /// `dst = a - b`
    pub fn fsub(&mut self, dst: FReg, a: FReg, b: FReg) {
        self.fff(Opcode::FSub, dst, a, b);
    }
    /// `dst = a * b`
    pub fn fmul(&mut self, dst: FReg, a: FReg, b: FReg) {
        self.fff(Opcode::FMul, dst, a, b);
    }
    /// `dst = a / b`
    pub fn fdiv(&mut self, dst: FReg, a: FReg, b: FReg) {
        self.fff(Opcode::FDiv, dst, a, b);
    }
    /// `dst = min(a, b)`
    pub fn fmin(&mut self, dst: FReg, a: FReg, b: FReg) {
        self.fff(Opcode::FMin, dst, a, b);
    }
    /// `dst = max(a, b)`
    pub fn fmax(&mut self, dst: FReg, a: FReg, b: FReg) {
        self.fff(Opcode::FMax, dst, a, b);
    }
    /// `dst = sqrt(a)`
    pub fn fsqrt(&mut self, dst: FReg, a: FReg) {
        self.emit(Inst {
            op: Opcode::FSqrt,
            dst: Some(dst.into()),
            src1: Some(a.into()),
            src2: None,
            imm: 0,
        });
    }
    /// `dst = -a`
    pub fn fneg(&mut self, dst: FReg, a: FReg) {
        self.emit(Inst {
            op: Opcode::FNeg,
            dst: Some(dst.into()),
            src1: Some(a.into()),
            src2: None,
            imm: 0,
        });
    }
    /// `fdst = a as f64` (int → fp convert)
    pub fn icvtf(&mut self, dst: FReg, a: Reg) {
        self.emit(Inst {
            op: Opcode::ICvtF,
            dst: Some(dst.into()),
            src1: Some(a.into()),
            src2: None,
            imm: 0,
        });
    }
    /// `dst = a as i64` (fp → int convert)
    pub fn fcvti(&mut self, dst: Reg, a: FReg) {
        self.emit(Inst {
            op: Opcode::FCvtI,
            dst: Some(dst.into()),
            src1: Some(a.into()),
            src2: None,
            imm: 0,
        });
    }
    /// `dst = (a < b) as u64` into an integer register
    pub fn fcmplt(&mut self, dst: Reg, a: FReg, b: FReg) {
        self.emit(Inst {
            op: Opcode::FCmpLt,
            dst: Some(dst.into()),
            src1: Some(a.into()),
            src2: Some(b.into()),
            imm: 0,
        });
    }

    // ---- control flow ----

    /// Branch to `target` if `a == b`.
    pub fn beq(&mut self, a: Reg, b: Reg, target: &str) {
        self.emit_branch(Opcode::Beq, Some(a.into()), Some(b.into()), None, target);
    }
    /// Branch to `target` if `a != b`.
    pub fn bne(&mut self, a: Reg, b: Reg, target: &str) {
        self.emit_branch(Opcode::Bne, Some(a.into()), Some(b.into()), None, target);
    }
    /// Branch to `target` if `a < b` (signed).
    pub fn blt(&mut self, a: Reg, b: Reg, target: &str) {
        self.emit_branch(Opcode::Blt, Some(a.into()), Some(b.into()), None, target);
    }
    /// Branch to `target` if `a >= b` (signed).
    pub fn bge(&mut self, a: Reg, b: Reg, target: &str) {
        self.emit_branch(Opcode::Bge, Some(a.into()), Some(b.into()), None, target);
    }
    /// Unconditional jump to `target`.
    pub fn j(&mut self, target: &str) {
        self.emit_branch(Opcode::J, None, None, None, target);
    }
    /// Call: `link = pc + 1; goto target`.
    pub fn jal(&mut self, link: Reg, target: &str) {
        self.emit_branch(Opcode::Jal, None, None, Some(link.into()), target);
    }
    /// Indirect jump to the address in `target` (used for returns).
    pub fn jr(&mut self, target: Reg) {
        self.emit(Inst {
            op: Opcode::Jr,
            dst: None,
            src1: Some(target.into()),
            src2: None,
            imm: 0,
        });
    }
    /// No-op.
    pub fn nop(&mut self) {
        self.emit(Inst::bare(Opcode::Nop));
    }
    /// Stop the program.
    pub fn halt(&mut self) {
        self.emit(Inst::bare(Opcode::Halt));
    }

    fn rrr(&mut self, op: Opcode, dst: Reg, a: Reg, b: Reg) {
        self.emit(Inst {
            op,
            dst: Some(dst.into()),
            src1: Some(a.into()),
            src2: Some(b.into()),
            imm: 0,
        });
    }

    fn rri(&mut self, op: Opcode, dst: Reg, a: Reg, imm: i64) {
        self.emit(Inst { op, dst: Some(dst.into()), src1: Some(a.into()), src2: None, imm });
    }

    fn fff(&mut self, op: Opcode, dst: FReg, a: FReg, b: FReg) {
        self.emit(Inst {
            op,
            dst: Some(dst.into()),
            src1: Some(a.into()),
            src2: Some(b.into()),
            imm: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Assembler::new();
        a.j("end"); // forward reference
        a.label("mid");
        a.nop();
        a.label("end");
        a.bne(Reg(1), Reg(2), "mid"); // backward reference
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(p.insts[0].imm, 2, "j target = pc of `end`");
        assert_eq!(p.insts[2].imm, 1, "bne target = pc of `mid`");
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Assembler::new();
        a.j("nowhere");
        assert_eq!(a.finish().unwrap_err(), AsmError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Assembler::new();
        a.label("x");
        a.nop();
        a.label("x");
        a.halt();
        assert_eq!(a.finish().unwrap_err(), AsmError::DuplicateLabel("x".into()));
    }

    #[test]
    fn data_segments_encoded_little_endian() {
        let mut a = Assembler::new();
        a.data_u64s(0x100, [0x01020304]);
        a.data_f64s(0x200, [1.5]);
        // Words that straddle a page boundary.
        a.data_u64s(0x1ffd, [u64::MAX - 1, 7]);
        a.halt();
        let p = a.finish().unwrap();
        let mem = p.initial_memory();
        assert_eq!(mem.read_u64(0x100), 0x01020304);
        assert_eq!(mem.read_f64(0x200), 1.5);
        assert_eq!((mem.read_u64(0x1ffd), mem.read_u64(0x2005)), (u64::MAX - 1, 7));
        assert_eq!(p.data[2].chunks().map(<[u8]>::len).collect::<Vec<_>>(), [3, 13]);
    }

    #[test]
    fn here_tracks_emission() {
        let mut a = Assembler::new();
        assert_eq!(a.here(), 0);
        a.nop();
        a.nop();
        assert_eq!(a.here(), 2);
    }
}
