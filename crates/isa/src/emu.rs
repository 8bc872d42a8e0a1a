//! Functional emulator — the architectural oracle.

use std::error::Error;
use std::fmt;

use crate::exec::{execute_one, Machine};
use crate::inst::Inst;
use crate::mem::SparseMemory;

use crate::program::Program;
use crate::reg::{FReg, Reg};

/// A memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes (always 8 in this ISA).
    pub size: u8,
    /// True for stores.
    pub is_store: bool,
}

/// The architectural outcome of one instruction, consumed by the timing
/// simulator as its execute-at-fetch oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retired {
    /// The pc of the instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// The pc of the next instruction in program order.
    pub next_pc: u64,
    /// The memory access, if the instruction was a load or store.
    pub mem: Option<MemAccess>,
}

impl Retired {
    /// True if the instruction redirected control flow (taken branch/jump).
    pub fn taken(&self) -> bool {
        self.next_pc != self.pc + 1
    }
}

/// Emulator errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The pc ran off the end of the instruction text.
    PcOutOfRange(u64),
    /// The step budget in [`Emulator::run`] was exhausted before `Halt`.
    StepLimit(u64),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange(pc) => write!(f, "pc {pc} out of range"),
            EmuError::StepLimit(n) => write!(f, "step limit of {n} instructions exhausted"),
        }
    }
}

impl Error for EmuError {}

/// Functional interpreter for [`Program`]s.
///
/// Holds the program's instruction text and a paged memory loaded from its
/// data segments; the segments themselves are not kept, so an emulator holds
/// one copy of the data image. Executes one instruction per
/// [`step`](Emulator::step), maintaining the architectural register files
/// and memory. Loops forever if the program does; callers bound execution
/// with [`run`](Emulator::run) or by counting steps.
#[derive(Debug, Clone)]
pub struct Emulator {
    /// Instruction text, indexed by pc.
    insts: Vec<Inst>,
    iregs: [u64; 32],
    fregs: [f64; 32],
    mem: SparseMemory,
    pc: u64,
    halted: bool,
    retired: u64,
}

impl Emulator {
    /// Creates an emulator with the program's initial memory image, zeroed
    /// registers, and the pc at the entry point.
    pub fn new(program: &Program) -> Emulator {
        Emulator {
            mem: program.initial_memory(),
            insts: program.insts.clone(),
            iregs: [0; 32],
            fregs: [0.0; 32],
            pc: program.entry,
            halted: false,
            retired: 0,
        }
    }

    /// Current pc.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// True once a `Halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads an integer register.
    pub fn int_reg(&self, r: Reg) -> u64 {
        if r.0 == 0 {
            0
        } else {
            self.iregs[r.0 as usize]
        }
    }

    /// Reads a floating-point register.
    pub fn fp_reg(&self, r: FReg) -> f64 {
        self.fregs[r.0 as usize]
    }

    /// Writes an integer register (writes to `r0` are discarded).
    pub fn set_int_reg(&mut self, r: Reg, value: u64) {
        if r.0 != 0 {
            self.iregs[r.0 as usize] = value;
        }
    }

    /// Writes a floating-point register.
    pub fn set_fp_reg(&mut self, r: FReg, value: f64) {
        self.fregs[r.0 as usize] = value;
    }

    /// The instruction at `pc`, if it is inside the instruction text.
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        usize::try_from(pc).ok().and_then(|i| self.insts.get(i))
    }

    /// Immutable view of memory.
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    /// Wrong-path shadow execution starting at `start_pc`: copies the
    /// architectural registers and overlays memory writes, leaving the real
    /// architectural state untouched.
    pub fn shadow(&self, start_pc: u64) -> ShadowEmulator {
        ShadowEmulator {
            iregs: self.iregs,
            fregs: self.fregs,
            pc: start_pc,
            writes: Default::default(),
            halted: false,
        }
    }

    /// Executes one instruction and returns its architectural outcome.
    ///
    /// After `Halt` retires, further calls return the `Halt` outcome again
    /// without advancing (so a pipelined front end can keep "fetching" it
    /// harmlessly).
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::PcOutOfRange`] if the pc leaves the instruction
    /// text, which indicates a malformed program.
    pub fn step(&mut self) -> Result<Retired, EmuError> {
        let pc = self.pc;
        let inst = *self.fetch(pc).ok_or(EmuError::PcOutOfRange(pc))?;
        let outcome = execute_one(self, pc, &inst);
        if outcome.halt {
            self.halted = true;
        }
        if !self.halted {
            self.pc = outcome.next_pc;
            self.retired += 1;
        }
        Ok(Retired { pc, inst, next_pc: outcome.next_pc, mem: outcome.mem })
    }

    /// Runs until `Halt` or `max_steps` instructions, whichever first.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::StepLimit`] if the budget is exhausted and
    /// [`EmuError::PcOutOfRange`] for malformed programs.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, EmuError> {
        for _ in 0..max_steps {
            if self.halted {
                return Ok(self.retired);
            }
            self.step()?;
        }
        if self.halted {
            Ok(self.retired)
        } else {
            Err(EmuError::StepLimit(max_steps))
        }
    }
}


impl Machine for Emulator {
    fn read_int(&self, index: u8) -> u64 {
        self.iregs[index as usize]
    }
    fn write_int(&mut self, index: u8, value: u64) {
        self.iregs[index as usize] = value;
    }
    fn read_fp(&self, index: u8) -> f64 {
        self.fregs[index as usize]
    }
    fn write_fp(&mut self, index: u8, value: f64) {
        self.fregs[index as usize] = value;
    }
    fn read_mem(&self, addr: u64) -> u64 {
        self.mem.read_u64(addr)
    }
    fn write_mem(&mut self, addr: u64, value: u64) {
        self.mem.write_u64(addr, value);
    }
}

/// A lightweight wrong-path execution context.
///
/// Created by [`Emulator::shadow`] at a mispredicted branch: it copies the
/// register files, executes down the *predicted* (wrong) path, and buffers
/// memory writes in an overlay so the architectural memory is never
/// disturbed. The timing simulator uses the outcomes (addresses, targets)
/// of wrong-path instructions; when the branch resolves, the shadow is
/// simply dropped.
#[derive(Debug, Clone)]
pub struct ShadowEmulator {
    iregs: [u64; 32],
    fregs: [f64; 32],
    pc: u64,
    /// Byte-granular write overlay.
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only: the overlay is probed by address, never iterated"
    )]
    writes: std::collections::HashMap<u64, u8>,
    halted: bool,
}

/// Couples a shadow context with the base emulator it reads through.
struct ShadowView<'a> {
    shadow: &'a mut ShadowEmulator,
    base: &'a Emulator,
}

impl Machine for ShadowView<'_> {
    fn read_int(&self, index: u8) -> u64 {
        self.shadow.iregs[index as usize]
    }
    fn write_int(&mut self, index: u8, value: u64) {
        self.shadow.iregs[index as usize] = value;
    }
    fn read_fp(&self, index: u8) -> f64 {
        self.shadow.fregs[index as usize]
    }
    fn write_fp(&mut self, index: u8, value: f64) {
        self.shadow.fregs[index as usize] = value;
    }
    fn read_mem(&self, addr: u64) -> u64 {
        // One word read of the base image (one page probe, not eight),
        // then the overlay's bytes on top; an empty overlay is the common
        // case and costs no further lookups.
        let word = self.base.memory().read_u64(addr);
        if self.shadow.writes.is_empty() {
            return word;
        }
        let mut bytes = word.to_le_bytes();
        for (i, b) in bytes.iter_mut().enumerate() {
            if let Some(&v) = self.shadow.writes.get(&addr.wrapping_add(i as u64)) {
                *b = v;
            }
        }
        u64::from_le_bytes(bytes)
    }
    fn write_mem(&mut self, addr: u64, value: u64) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.shadow.writes.insert(addr.wrapping_add(i as u64), *b);
        }
    }
}

impl ShadowEmulator {
    /// Current wrong-path pc.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// True if the wrong path ran onto a `Halt` (fetch down this path must
    /// stop; the path will be squashed at branch resolution anyway).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Executes one wrong-path instruction against `base`'s instruction
    /// text and memory image.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::PcOutOfRange`] when the wrong path runs off the
    /// instruction text (the caller stops fetching down the path).
    pub fn step(&mut self, base: &Emulator) -> Result<Retired, EmuError> {
        let pc = self.pc;
        let inst = *base.fetch(pc).ok_or(EmuError::PcOutOfRange(pc))?;
        let outcome = {
            let mut view = ShadowView { shadow: self, base };
            execute_one(&mut view, pc, &inst)
        };
        if outcome.halt {
            self.halted = true;
        }
        if !self.halted {
            self.pc = outcome.next_pc;
        }
        Ok(Retired { pc, inst, next_pc: outcome.next_pc, mem: outcome.mem })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::op::Opcode;

    fn run_prog(f: impl FnOnce(&mut Assembler)) -> Emulator {
        let mut a = Assembler::new();
        f(&mut a);
        let p = a.finish().unwrap();
        let mut emu = Emulator::new(&p);
        emu.run(1_000_000).unwrap();
        emu
    }

    /// The byte-wise overlay read `ShadowView::read_mem` replaced: eight
    /// overlay probes, each falling back to one base byte.
    fn read_mem_bytewise(view: &ShadowView<'_>, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            let a = addr.wrapping_add(i as u64);
            *b = match view.shadow.writes.get(&a) {
                Some(&v) => v,
                None => view.base.memory().read_u8(a),
            };
        }
        u64::from_le_bytes(bytes)
    }

    #[test]
    fn shadow_word_reads_match_the_bytewise_overlay_read() {
        // Two resident pages around the 0x2000 boundary, a page that is
        // never touched above them, and the top of the address space.
        let mut a = Assembler::new();
        let pattern: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        a.data_bytes(0x2000 - 32, &pattern);
        a.data_bytes(u64::MAX - 3, &pattern[..4]);
        a.halt();
        let emu = Emulator::new(&a.finish().unwrap());
        let mut shadow = emu.shadow(0);
        let addrs: Vec<u64> = (0x2000 - 40..0x2000 + 40)
            .chain(0x3000 - 8..0x3000 + 8)
            .chain([u64::MAX - 7, u64::MAX - 3, u64::MAX])
            .collect();
        for overlay in [None, Some(0x2000 - 3), Some(0x1000), Some(u64::MAX - 1)] {
            if let Some(at) = overlay {
                ShadowView { shadow: &mut shadow, base: &emu }.write_mem(at, 0x0123_4567_89ab_cdef);
            }
            let view = ShadowView { shadow: &mut shadow, base: &emu };
            for &addr in &addrs {
                assert_eq!(
                    view.read_mem(addr),
                    read_mem_bytewise(&view, addr),
                    "addr {addr:#x}, overlay {overlay:x?}"
                );
            }
        }
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        let emu = run_prog(|a| {
            a.li(Reg(1), 100);
            a.li(Reg(2), 0);
            a.label("loop");
            a.add(Reg(2), Reg(2), Reg(1));
            a.addi(Reg(1), Reg(1), -1);
            a.bne(Reg(1), Reg::ZERO, "loop");
            a.halt();
        });
        assert_eq!(emu.int_reg(Reg(2)), 5050);
    }

    #[test]
    fn memory_round_trip_through_loads_and_stores() {
        let emu = run_prog(|a| {
            a.li(Reg(1), 0x1000);
            a.li(Reg(2), 42);
            a.st(Reg(2), Reg(1), 8);
            a.ld(Reg(3), Reg(1), 8);
            a.halt();
        });
        assert_eq!(emu.int_reg(Reg(3)), 42);
        assert_eq!(emu.memory().read_u64(0x1008), 42);
    }

    #[test]
    fn fp_pipeline_computes() {
        let emu = run_prog(|a| {
            a.data_f64s(0x100, &[2.0, 8.0]);
            a.li(Reg(1), 0x100);
            a.fld(FReg(1), Reg(1), 0);
            a.fld(FReg(2), Reg(1), 8);
            a.fmul(FReg(3), FReg(1), FReg(2)); // 16
            a.fsqrt(FReg(4), FReg(3)); // 4
            a.fcvti(Reg(2), FReg(4));
            a.halt();
        });
        assert_eq!(emu.int_reg(Reg(2)), 4);
        assert_eq!(emu.fp_reg(FReg(3)), 16.0);
    }

    #[test]
    fn call_and_return_via_jal_jr() {
        let emu = run_prog(|a| {
            a.jal(Reg(31), "func");
            a.li(Reg(2), 7); // executed after return
            a.halt();
            a.label("func");
            a.li(Reg(1), 5);
            a.jr(Reg(31));
        });
        assert_eq!(emu.int_reg(Reg(1)), 5);
        assert_eq!(emu.int_reg(Reg(2)), 7);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let emu = run_prog(|a| {
            a.li(Reg(1), 10);
            a.div(Reg(2), Reg(1), Reg::ZERO);
            a.rem(Reg(3), Reg(1), Reg::ZERO);
            a.halt();
        });
        assert_eq!(emu.int_reg(Reg(2)), 0);
        assert_eq!(emu.int_reg(Reg(3)), 0);
    }

    #[test]
    fn taken_flag_reflects_control_flow() {
        let mut a = Assembler::new();
        a.li(Reg(1), 1);
        a.beq(Reg(1), Reg::ZERO, "skip"); // not taken
        a.j("skip"); // taken, skips the nop
        a.nop();
        a.label("skip");
        a.halt();
        let p = a.finish().unwrap();
        let mut emu = Emulator::new(&p);
        emu.step().unwrap();
        let beq = emu.step().unwrap();
        assert!(!beq.taken());
        let j = emu.step().unwrap();
        assert!(j.taken());
        assert_eq!(j.next_pc, 4);
    }

    #[test]
    fn halt_is_sticky_and_repeatable() {
        let mut a = Assembler::new();
        a.halt();
        let p = a.finish().unwrap();
        let mut emu = Emulator::new(&p);
        let r1 = emu.step().unwrap();
        assert!(emu.halted());
        let r2 = emu.step().unwrap();
        assert_eq!(r1, r2, "halt outcome repeats without advancing");
        assert_eq!(emu.retired(), 0, "halt itself does not count as retired work");
    }

    #[test]
    fn step_limit_reported() {
        let mut a = Assembler::new();
        a.label("spin");
        a.j("spin");
        let p = a.finish().unwrap();
        let mut emu = Emulator::new(&p);
        assert_eq!(emu.run(10), Err(EmuError::StepLimit(10)));
    }

    #[test]
    fn pc_out_of_range_detected() {
        let mut a = Assembler::new();
        a.nop(); // falls off the end
        let p = a.finish().unwrap();
        let mut emu = Emulator::new(&p);
        emu.step().unwrap();
        assert_eq!(emu.step(), Err(EmuError::PcOutOfRange(1)));
    }

    #[test]
    fn writes_to_r0_are_discarded() {
        let emu = run_prog(|a| {
            a.li(Reg(0), 99);
            a.addi(Reg(1), Reg::ZERO, 3);
            a.halt();
        });
        assert_eq!(emu.int_reg(Reg::ZERO), 0);
        assert_eq!(emu.int_reg(Reg(1)), 3);
    }


    #[test]
    fn shadow_executes_without_touching_architectural_state() {
        let mut a = Assembler::new();
        a.li(Reg(1), 5);
        a.li(Reg(2), 0x1000);
        a.st(Reg(1), Reg(2), 0);
        a.halt();
        let p = a.finish().unwrap();
        let mut emu = Emulator::new(&p);
        emu.step().unwrap(); // r1 = 5
        // Shadow runs the remaining instructions (wrong-path style).
        let mut sh = emu.shadow(1);
        sh.step(&emu).unwrap(); // r2 = 0x1000 (shadow only)
        let st = sh.step(&emu).unwrap(); // shadow store
        assert_eq!(st.mem.unwrap().addr, 0x1000);
        assert_eq!(emu.int_reg(Reg(2)), 0, "architectural r2 unchanged");
        assert_eq!(emu.memory().read_u64(0x1000), 0, "architectural memory unchanged");
    }

    #[test]
    fn shadow_reads_through_to_base_memory_with_overlay() {
        let mut a = Assembler::new();
        a.data_u64s(0x100, &[42]);
        a.li(Reg(1), 0x100);
        a.ld(Reg(2), Reg(1), 0); // reads 42 through to base
        a.li(Reg(3), 7);
        a.st(Reg(3), Reg(1), 0); // shadow overlay write
        a.ld(Reg(4), Reg(1), 0); // reads 7 from overlay
        a.halt();
        let p = a.finish().unwrap();
        let emu = Emulator::new(&p);
        let mut sh = emu.shadow(0);
        for _ in 0..5 {
            sh.step(&emu).unwrap();
        }
        // Shadow observed its own store.
        let halt = sh.step(&emu).unwrap();
        assert_eq!(halt.inst.op, Opcode::Halt);
        assert!(sh.halted());
        assert_eq!(emu.memory().read_u64(0x100), 42);
    }

    #[test]
    fn shadow_pc_out_of_range_reported() {
        let mut a = Assembler::new();
        a.halt();
        let p = a.finish().unwrap();
        let emu = Emulator::new(&p);
        let mut sh = emu.shadow(99);
        assert_eq!(sh.step(&emu), Err(EmuError::PcOutOfRange(99)));
    }

    #[test]
    fn shift_and_compare_semantics() {
        let emu = run_prog(|a| {
            a.li(Reg(1), -8);
            a.srai(Reg(2), Reg(1), 1); // -4
            a.srli(Reg(3), Reg(1), 60); // high bits
            a.slti(Reg(4), Reg(1), 0); // 1
            a.sltu(Reg(5), Reg(1), Reg::ZERO); // -8 unsigned is huge: 0
            a.halt();
        });
        assert_eq!(emu.int_reg(Reg(2)) as i64, -4);
        assert_eq!(emu.int_reg(Reg(3)), 0xF);
        assert_eq!(emu.int_reg(Reg(4)), 1);
        assert_eq!(emu.int_reg(Reg(5)), 0);
    }
}
