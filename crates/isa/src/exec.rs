//! Shared instruction-execution semantics, used by both the architectural
//! [`Emulator`](crate::Emulator) and the wrong-path
//! [`ShadowEmulator`](crate::ShadowEmulator).

use crate::emu::MemAccess;
use crate::inst::Inst;
use crate::op::Opcode;
use crate::reg::{ArchReg, RegClass};

/// Register/memory access surface an execution engine must provide.
pub(crate) trait Machine {
    fn read_int(&self, index: u8) -> u64;
    fn write_int(&mut self, index: u8, value: u64);
    fn read_fp(&self, index: u8) -> f64;
    fn write_fp(&mut self, index: u8, value: f64);
    fn read_mem(&self, addr: u64) -> u64;
    fn write_mem(&mut self, addr: u64, value: u64);

    fn read(&self, r: ArchReg) -> u64 {
        match r.class {
            RegClass::Int => {
                if r.index == 0 {
                    0
                } else {
                    self.read_int(r.index)
                }
            }
            RegClass::Fp => self.read_fp(r.index).to_bits(),
        }
    }

    fn read_f(&self, r: ArchReg) -> f64 {
        match r.class {
            RegClass::Fp => self.read_fp(r.index),
            RegClass::Int => f64::from_bits(self.read(r)),
        }
    }

    fn write(&mut self, r: ArchReg, value: u64) {
        match r.class {
            RegClass::Int => {
                if r.index != 0 {
                    self.write_int(r.index, value);
                }
            }
            RegClass::Fp => self.write_fp(r.index, f64::from_bits(value)),
        }
    }

    fn write_f(&mut self, r: ArchReg, value: f64) {
        match r.class {
            RegClass::Fp => self.write_fp(r.index, value),
            RegClass::Int => self.write(r, value.to_bits()),
        }
    }
}

/// Unwraps an operand slot the decode table guarantees is populated for
/// this opcode class. Operand presence is fixed per opcode at assembly
/// time, so a miss here is a construction bug (caught by the golden-trace
/// tests), not a runtime condition — this is the module's one sanctioned
/// panic site.
///
/// # Panics
///
/// Panics if the slot is empty.
fn req(r: Option<ArchReg>, what: &str) -> ArchReg {
    match r {
        Some(reg) => reg,
        #[expect(
            clippy::panic,
            reason = "operand presence is fixed per opcode by the decode table; a miss is an assembler bug, not a runtime condition"
        )]
        None => panic!("missing operand: {what}"),
    }
}

/// The effect of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ExecOutcome {
    pub next_pc: u64,
    pub mem: Option<MemAccess>,
    pub halt: bool,
}

/// Executes `inst` at `pc` on `m`, returning control-flow and memory
/// effects. Register and memory state are updated in place.
pub(crate) fn execute_one<M: Machine>(m: &mut M, pc: u64, inst: &Inst) -> ExecOutcome {
    let mut next_pc = pc + 1;
    let mut mem_access = None;
    let mut halt = false;

    use Opcode::*;
    match inst.op {
        Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Mul | Div | Rem => {
            let a = m.read(req(inst.src1, "reg-reg op has src1"));
            let b = m.read(req(inst.src2, "reg-reg op has src2"));
            let v = int_alu(inst.op, a, b);
            m.write(req(inst.dst, "reg-reg op has dst"), v);
        }
        AddI | AndI | OrI | XorI | SllI | SrlI | SraI | SltI => {
            let a = m.read(req(inst.src1, "reg-imm op has src1"));
            let v = int_alu(imm_to_rr(inst.op), a, inst.imm as u64);
            m.write(req(inst.dst, "reg-imm op has dst"), v);
        }
        Li => {
            m.write(req(inst.dst, "li has dst"), inst.imm as u64);
        }
        Ld | FLd => {
            let base = m.read(req(inst.src1, "load has base"));
            let addr = base.wrapping_add(inst.imm as u64);
            mem_access = Some(MemAccess { addr, size: 8, is_store: false });
            let v = m.read_mem(addr);
            m.write(req(inst.dst, "load has dst"), v);
        }
        St | FSt => {
            let base = m.read(req(inst.src1, "store has base"));
            let addr = base.wrapping_add(inst.imm as u64);
            let v = m.read(req(inst.src2, "store has value"));
            mem_access = Some(MemAccess { addr, size: 8, is_store: true });
            m.write_mem(addr, v);
        }
        FAdd | FSub | FMul | FDiv | FMin | FMax => {
            let a = m.read_f(req(inst.src1, "fp op has src1"));
            let b = m.read_f(req(inst.src2, "fp op has src2"));
            let v = match inst.op {
                FAdd => a + b,
                FSub => a - b,
                FMul => a * b,
                FDiv => a / b,
                FMin => a.min(b),
                _ => a.max(b),
            };
            m.write_f(req(inst.dst, "fp op has dst"), v);
        }
        FSqrt => {
            let a = m.read_f(req(inst.src1, "fsqrt has src1"));
            m.write_f(req(inst.dst, "fsqrt has dst"), a.sqrt());
        }
        FNeg => {
            let a = m.read_f(req(inst.src1, "fneg has src1"));
            m.write_f(req(inst.dst, "fneg has dst"), -a);
        }
        ICvtF => {
            let a = m.read(req(inst.src1, "icvtf has src1")) as i64;
            m.write_f(req(inst.dst, "icvtf has dst"), a as f64);
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "fcvti is defined as Rust's saturating float-to-int conversion (NaN gives 0)"
        )]
        FCvtI => {
            let a = m.read_f(req(inst.src1, "fcvti has src1"));
            m.write(req(inst.dst, "fcvti has dst"), a as i64 as u64);
        }
        FCmpLt => {
            let a = m.read_f(req(inst.src1, "fcmplt has src1"));
            let b = m.read_f(req(inst.src2, "fcmplt has src2"));
            m.write(req(inst.dst, "fcmplt has dst"), (a < b) as u64);
        }
        Beq | Bne | Blt | Bge => {
            let a = m.read(req(inst.src1, "branch has src1"));
            let b = m.read(req(inst.src2, "branch has src2"));
            let take = match inst.op {
                Beq => a == b,
                Bne => a != b,
                Blt => (a as i64) < (b as i64),
                _ => (a as i64) >= (b as i64),
            };
            if take {
                next_pc = inst.imm as u64;
            }
        }
        J => next_pc = inst.imm as u64,
        Jal => {
            m.write(req(inst.dst, "jal has link dst"), pc + 1);
            next_pc = inst.imm as u64;
        }
        Jr => next_pc = m.read(req(inst.src1, "jr has target src")),
        Nop => {}
        Halt => {
            halt = true;
            next_pc = pc; // spin on halt
        }
    }

    ExecOutcome { next_pc, mem: mem_access, halt }
}

/// Maps an immediate-form ALU opcode to its register-register twin.
fn imm_to_rr(op: Opcode) -> Opcode {
    use Opcode::*;
    match op {
        AddI => Add,
        AndI => And,
        OrI => Or,
        XorI => Xor,
        SllI => Sll,
        SrlI => Srl,
        SraI => Sra,
        SltI => Slt,
        other => other,
    }
}

fn int_alu(op: Opcode, a: u64, b: u64) -> u64 {
    use Opcode::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Sll => a.wrapping_shl((b & 63) as u32),
        Srl => a.wrapping_shr((b & 63) as u32),
        Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        Slt => ((a as i64) < (b as i64)) as u64,
        Sltu => (a < b) as u64,
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                0
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        Rem => {
            if b == 0 {
                0
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        #[expect(
            clippy::unreachable,
            reason = "the caller matches on the ALU opcode class first; reaching this arm is a decode-table bug"
        )]
        _ => unreachable!("not an integer ALU op: {op:?}"),
    }
}
