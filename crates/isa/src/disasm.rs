//! Disassembler: turn a [`Program`] back into assembly text that
//! [`parse_program`](crate::parse_program) accepts — the inverse of the
//! text assembler, used to save generated kernels and to debug them.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::op::Opcode;
use crate::program::Program;

/// Renders `program` as parseable assembly text.
///
/// Branch/jump targets become labels `L<pc>`; data segments become `.data`
/// directives (byte-padded to whole words). The output round-trips:
/// parsing it yields a program with identical instructions and an
/// equivalent initial memory image.
///
/// # Example
///
/// ```
/// use swque_isa::{disassemble, parse_program, Assembler, Reg};
///
/// let mut a = Assembler::new();
/// a.li(Reg(1), 42);
/// a.halt();
/// let program = a.finish()?;
/// let text = disassemble(&program);
/// let reparsed = parse_program(&text)?;
/// assert_eq!(program.insts, reparsed.insts);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn disassemble(program: &Program) -> String {
    // Collect every control-flow target so it gets a label.
    let mut targets: BTreeSet<u64> = BTreeSet::new();
    for inst in &program.insts {
        match inst.op {
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge | Opcode::J | Opcode::Jal => {
                targets.insert(inst.imm as u64);
            }
            _ => {}
        }
    }

    let mut out = String::new();
    for segment in &program.data {
        let bytes: Vec<u8> = segment.chunks().flatten().copied().collect();
        // Pad to whole 8-byte words (the directive is word-granular).
        let mut words = Vec::with_capacity(bytes.len().div_ceil(8));
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            words.push(u64::from_le_bytes(w));
        }
        let _ = write!(out, ".data {:#x} u64", segment.base());
        for w in words {
            let _ = write!(out, " {w:#x}");
        }
        out.push('\n');
    }

    for (pc, inst) in program.insts.iter().enumerate() {
        if targets.contains(&(pc as u64)) {
            let _ = writeln!(out, "L{pc}:");
        }
        // A missing operand slot disassembles as `?` — a readable artifact
        // beats aborting a debugging aid.
        let r = |o: Option<crate::reg::ArchReg>| match o {
            Some(reg) => reg.to_string(),
            None => "?".to_string(),
        };
        let line = match inst.op {
            // Branches and jumps print label targets.
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge => {
                format!("{} {}, {}, L{}", inst.op, r(inst.src1), r(inst.src2), inst.imm)
            }
            Opcode::J => format!("j L{}", inst.imm),
            Opcode::Jal => format!("jal {}, L{}", r(inst.dst), inst.imm),
            Opcode::Jr => format!("jr {}", r(inst.src1)),
            // Loads: dst, base, disp.
            Opcode::Ld | Opcode::FLd => {
                format!("{} {}, {}, {}", inst.op, r(inst.dst), r(inst.src1), inst.imm)
            }
            // Stores: value, base, disp (the builder's operand order).
            Opcode::St | Opcode::FSt => {
                format!("{} {}, {}, {}", inst.op, r(inst.src2), r(inst.src1), inst.imm)
            }
            Opcode::Li => format!("li {}, {}", r(inst.dst), inst.imm),
            Opcode::Nop | Opcode::Halt => inst.op.to_string(),
            // Immediate ALU forms.
            Opcode::AddI
            | Opcode::AndI
            | Opcode::OrI
            | Opcode::XorI
            | Opcode::SllI
            | Opcode::SrlI
            | Opcode::SraI
            | Opcode::SltI => {
                format!("{} {}, {}, {}", inst.op, r(inst.dst), r(inst.src1), inst.imm)
            }
            // Two-operand register forms.
            Opcode::FSqrt | Opcode::FNeg | Opcode::ICvtF | Opcode::FCvtI => {
                format!("{} {}, {}", inst.op, r(inst.dst), r(inst.src1))
            }
            // Three-operand register forms.
            _ => format!("{} {}, {}, {}", inst.op, r(inst.dst), r(inst.src1), r(inst.src2)),
        };
        let _ = writeln!(out, "    {line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::parse::parse_program;
    use crate::reg::{FReg, Reg};

    fn round_trip(program: &Program) -> Program {
        let text = disassemble(program);
        parse_program(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"))
    }

    #[test]
    fn loop_round_trips_exactly() {
        let mut a = Assembler::new();
        a.li(Reg(1), 100);
        a.li(Reg(2), 0);
        a.label("loop");
        a.add(Reg(2), Reg(2), Reg(1));
        a.addi(Reg(1), Reg(1), -1);
        a.bne(Reg(1), Reg::ZERO, "loop");
        a.halt();
        let p = a.finish().unwrap();
        let q = round_trip(&p);
        assert_eq!(p.insts, q.insts);
    }

    #[test]
    fn memory_and_fp_forms_round_trip() {
        let mut a = Assembler::new();
        a.data_u64s(0x100, [1, 2, 3]);
        a.li(Reg(1), 0x100);
        a.ld(Reg(2), Reg(1), 8);
        a.st(Reg(2), Reg(1), 16);
        a.fld(FReg(1), Reg(1), 0);
        a.fmul(FReg(2), FReg(1), FReg(1));
        a.fsqrt(FReg(3), FReg(2));
        a.fcvti(Reg(3), FReg(3));
        a.fst(FReg(2), Reg(1), 24);
        a.jal(Reg(31), "func");
        a.halt();
        a.label("func");
        a.jr(Reg(31));
        let p = a.finish().unwrap();
        let q = round_trip(&p);
        assert_eq!(p.insts, q.insts);
        assert_eq!(p.initial_memory().read_u64(0x108), q.initial_memory().read_u64(0x108));
    }

    #[test]
    fn unaligned_data_padded_but_equivalent() {
        let mut a = Assembler::new();
        a.data_bytes(0x40, &[1, 2, 3, 4, 5]); // 5 bytes: padded to one word
        a.halt();
        let p = a.finish().unwrap();
        let q = round_trip(&p);
        let (pm, qm) = (p.initial_memory(), q.initial_memory());
        for off in 0..8 {
            assert_eq!(pm.read_u8(0x40 + off), qm.read_u8(0x40 + off));
        }
    }

    #[test]
    fn generated_suite_kernel_round_trips() {
        // A real generator-produced program with shuffled layout, many
        // labels and large data segments survives the round trip.
        use crate::emu::Emulator;
        let mut a = Assembler::new();
        a.data_u64s(0x1000, 0..256);
        a.li(Reg(1), 50);
        a.label("outer");
        for i in 0..10 {
            a.xori(Reg(2 + i % 6), Reg(1), i as i64);
        }
        a.andi(Reg(9), Reg(1), 1);
        a.beq(Reg(9), Reg::ZERO, "skip");
        a.addi(Reg(10), Reg(10), 1);
        a.label("skip");
        a.addi(Reg(1), Reg(1), -1);
        a.bne(Reg(1), Reg::ZERO, "outer");
        a.halt();
        let p = a.finish().unwrap();
        let q = round_trip(&p);
        assert_eq!(p.insts, q.insts);

        let mut e1 = Emulator::new(&p);
        let mut e2 = Emulator::new(&q);
        e1.run(100_000).unwrap();
        e2.run(100_000).unwrap();
        assert_eq!(e1.int_reg(Reg(10)), e2.int_reg(Reg(10)));
    }
}
