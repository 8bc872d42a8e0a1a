//! A small synthetic 64-bit RISC instruction set used by the SWQUE
//! reproduction as its execution substrate.
//!
//! The paper evaluates SWQUE on a SimpleScalar-based simulator running
//! Alpha-ISA SPEC2017 binaries. Neither the binaries nor an Alpha toolchain
//! are available, so this crate provides the closest synthetic equivalent: a
//! classic load/store RISC with
//!
//! * 32 integer and 32 floating-point architectural registers
//!   (integer register 0 is hardwired to zero),
//! * fixed-latency integer/FP arithmetic grouped into the function-unit
//!   classes of the paper's Table 2 (iALU, iMULT/DIV, Ld/St, FPU),
//! * 64-bit loads and stores with base+displacement addressing,
//! * conditional branches, direct and indirect jumps, and a `Halt`.
//!
//! Programs are built with the [`Assembler`] DSL and executed functionally by
//! the [`Emulator`], which the timing simulator (`swque-cpu`) uses as an
//! execute-at-fetch oracle — the same structure as SimpleScalar's
//! `sim-outorder`.
//!
//! # Example
//!
//! ```
//! use swque_isa::{Assembler, Emulator, Reg};
//!
//! let mut a = Assembler::new();
//! a.li(Reg(1), 10); // counter
//! a.li(Reg(2), 0); // accumulator
//! a.label("loop");
//! a.add(Reg(2), Reg(2), Reg(1));
//! a.addi(Reg(1), Reg(1), -1);
//! a.bne(Reg(1), Reg::ZERO, "loop");
//! a.halt();
//! let program = a.finish().expect("labels resolve");
//!
//! let mut emu = Emulator::new(&program);
//! emu.run(1_000).expect("terminates");
//! assert_eq!(emu.int_reg(Reg(2)), 55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod disasm;
mod emu;
mod exec;
mod inst;
mod mem;
mod op;
mod parse;
mod program;
mod reg;

pub use asm::{AsmError, Assembler};
pub use disasm::disassemble;
pub use emu::{EmuError, Emulator, MemAccess, Retired, ShadowEmulator};
pub use inst::Inst;
pub use mem::{Segment, SparseMemory};
pub use op::{FuClass, Opcode};
pub use parse::{parse_program, ParseError};
pub use program::Program;
pub use reg::{ArchReg, FReg, Reg, RegClass, NUM_ARCH_REGS};
