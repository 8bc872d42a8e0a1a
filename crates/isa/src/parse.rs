//! Text assembler: parse the human-readable assembly syntax into a
//! [`Program`].
//!
//! The syntax mirrors what [`Inst`](crate::Inst)'s `Display` prints, plus
//! labels, comments and data directives:
//!
//! ```text
//! ; sum the numbers 1..=100
//! .data 0x1000 u64 0 0 0
//!     li r1, 100
//!     li r2, 0
//! loop:
//!     add r2, r2, r1
//!     addi r1, r1, -1
//!     bne r1, r0, loop
//!     st r2, r0, 0x1000
//!     halt
//! ```
//!
//! Operand order follows the builder methods in
//! [`Assembler`](crate::Assembler): destination first, loads are
//! `ld rd, rbase, disp`, stores are `st rvalue, rbase, disp`, branches are
//! `bne ra, rb, label`.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use crate::asm::Assembler;
use crate::program::Program;
use crate::reg::{FReg, Reg};

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

fn parse_int(line: usize, token: &str) -> Result<i64, ParseError> {
    let (neg, body) = match token.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    };
    match value {
        Ok(v) => Ok(if neg { -v } else { v }),
        Err(_) => err(line, format!("expected an integer, got `{token}`")),
    }
}

fn parse_reg(line: usize, token: &str) -> Result<Reg, ParseError> {
    let idx = token
        .strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| n < 32);
    match idx {
        Some(n) => Ok(Reg(n)),
        None => err(line, format!("expected an integer register r0..r31, got `{token}`")),
    }
}

fn parse_freg(line: usize, token: &str) -> Result<FReg, ParseError> {
    let idx = token
        .strip_prefix('f')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| n < 32);
    match idx {
        Some(n) => Ok(FReg(n)),
        None => err(line, format!("expected an FP register f0..f31, got `{token}`")),
    }
}

/// Parses assembly text into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for syntax errors,
/// unknown mnemonics, malformed operands, or unresolved/duplicate labels.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let mut a = Assembler::new();
    // Label definitions, and the line of each label's first reference, so
    // a label error names a line like every other error.
    let mut defined: BTreeSet<&str> = BTreeSet::new();
    let mut first_use: BTreeMap<&str, usize> = BTreeMap::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }

        // Label definitions (possibly followed by an instruction).
        let text = if let Some((label, rest)) = text.split_once(':') {
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return err(line, format!("malformed label `{label}`"));
            }
            if !defined.insert(label) {
                return err(line, format!("duplicate label `{label}`"));
            }
            a.label(label);
            let rest = rest.trim();
            if rest.is_empty() {
                continue;
            }
            rest
        } else {
            text
        };

        // Data directives: `.data <base> u64|f64 <values...>`.
        if let Some(rest) = text.strip_prefix(".data") {
            let mut parts = rest.split_whitespace();
            let base = parse_int(line, parts.next().unwrap_or(""))? as u64;
            match parts.next() {
                Some("u64") => {
                    let words: Result<Vec<u64>, _> =
                        parts.map(|t| parse_int(line, t).map(|v| v as u64)).collect();
                    a.data_u64s(base, &words?);
                }
                Some("f64") => {
                    let vals: Result<Vec<f64>, ParseError> = parts
                        .map(|t| {
                            t.parse::<f64>()
                                .map_err(|_| ParseError {
                                    line,
                                    message: format!("expected a float, got `{t}`"),
                                })
                        })
                        .collect();
                    a.data_f64s(base, &vals?);
                }
                other => return err(line, format!("expected u64 or f64, got `{other:?}`")),
            }
            continue;
        }

        // Instruction: mnemonic + comma-separated operands.
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> =
            if rest.is_empty() { Vec::new() } else { rest.split(',').map(str::trim).collect() };
        let want = |n: usize| -> Result<(), ParseError> {
            if ops.len() == n {
                Ok(())
            } else {
                err(line, format!("{mnemonic} takes {n} operands, got {}", ops.len()))
            }
        };
        let r = |i: usize| parse_reg(line, ops[i]);
        let f = |i: usize| parse_freg(line, ops[i]);
        let imm = |i: usize| parse_int(line, ops[i]);
        if matches!(mnemonic, "beq" | "bne" | "blt" | "bge" | "j" | "jal") {
            if let Some(&target) = ops.last() {
                first_use.entry(target).or_insert(line);
            }
        }

        match mnemonic {
            // integer reg-reg
            "add" => { want(3)?; a.add(r(0)?, r(1)?, r(2)?) }
            "sub" => { want(3)?; a.sub(r(0)?, r(1)?, r(2)?) }
            "and" => { want(3)?; a.and(r(0)?, r(1)?, r(2)?) }
            "or" => { want(3)?; a.or(r(0)?, r(1)?, r(2)?) }
            "xor" => { want(3)?; a.xor(r(0)?, r(1)?, r(2)?) }
            "sll" => { want(3)?; a.sll(r(0)?, r(1)?, r(2)?) }
            "srl" => { want(3)?; a.srl(r(0)?, r(1)?, r(2)?) }
            "sra" => { want(3)?; a.sra(r(0)?, r(1)?, r(2)?) }
            "slt" => { want(3)?; a.slt(r(0)?, r(1)?, r(2)?) }
            "sltu" => { want(3)?; a.sltu(r(0)?, r(1)?, r(2)?) }
            "mul" => { want(3)?; a.mul(r(0)?, r(1)?, r(2)?) }
            "div" => { want(3)?; a.div(r(0)?, r(1)?, r(2)?) }
            "rem" => { want(3)?; a.rem(r(0)?, r(1)?, r(2)?) }
            // integer immediates
            "addi" => { want(3)?; a.addi(r(0)?, r(1)?, imm(2)?) }
            "andi" => { want(3)?; a.andi(r(0)?, r(1)?, imm(2)?) }
            "ori" => { want(3)?; a.ori(r(0)?, r(1)?, imm(2)?) }
            "xori" => { want(3)?; a.xori(r(0)?, r(1)?, imm(2)?) }
            "slli" => { want(3)?; a.slli(r(0)?, r(1)?, imm(2)?) }
            "srli" => { want(3)?; a.srli(r(0)?, r(1)?, imm(2)?) }
            "srai" => { want(3)?; a.srai(r(0)?, r(1)?, imm(2)?) }
            "slti" => { want(3)?; a.slti(r(0)?, r(1)?, imm(2)?) }
            "li" => { want(2)?; a.li(r(0)?, imm(1)?) }
            "mv" => { want(2)?; a.mv(r(0)?, r(1)?) }
            // memory
            "ld" => { want(3)?; a.ld(r(0)?, r(1)?, imm(2)?) }
            "st" => { want(3)?; a.st(r(0)?, r(1)?, imm(2)?) }
            "fld" => { want(3)?; a.fld(f(0)?, r(1)?, imm(2)?) }
            "fst" => { want(3)?; a.fst(f(0)?, r(1)?, imm(2)?) }
            // floating point
            "fadd" => { want(3)?; a.fadd(f(0)?, f(1)?, f(2)?) }
            "fsub" => { want(3)?; a.fsub(f(0)?, f(1)?, f(2)?) }
            "fmul" => { want(3)?; a.fmul(f(0)?, f(1)?, f(2)?) }
            "fdiv" => { want(3)?; a.fdiv(f(0)?, f(1)?, f(2)?) }
            "fmin" => { want(3)?; a.fmin(f(0)?, f(1)?, f(2)?) }
            "fmax" => { want(3)?; a.fmax(f(0)?, f(1)?, f(2)?) }
            "fsqrt" => { want(2)?; a.fsqrt(f(0)?, f(1)?) }
            "fneg" => { want(2)?; a.fneg(f(0)?, f(1)?) }
            "icvtf" => { want(2)?; a.icvtf(f(0)?, r(1)?) }
            "fcvti" => { want(2)?; a.fcvti(r(0)?, f(1)?) }
            "fcmplt" => { want(3)?; a.fcmplt(r(0)?, f(1)?, f(2)?) }
            // control flow
            "beq" => { want(3)?; a.beq(r(0)?, r(1)?, ops[2]) }
            "bne" => { want(3)?; a.bne(r(0)?, r(1)?, ops[2]) }
            "blt" => { want(3)?; a.blt(r(0)?, r(1)?, ops[2]) }
            "bge" => { want(3)?; a.bge(r(0)?, r(1)?, ops[2]) }
            "j" => { want(1)?; a.j(ops[0]) }
            "jal" => { want(2)?; a.jal(r(0)?, ops[1]) }
            "jr" => { want(1)?; a.jr(r(0)?) }
            "nop" => { want(0)?; a.nop() }
            "halt" => { want(0)?; a.halt() }
            other => return err(line, format!("unknown mnemonic `{other}`")),
        }
    }
    if let Some((label, &line)) =
        first_use.iter().filter(|(label, _)| !defined.contains(*label)).min_by_key(|(_, &l)| l)
    {
        return err(line, format!("undefined label `{label}`"));
    }
    // Both label errors are caught above with their lines; the
    // assembler's own check is the backstop, placed at the last line.
    a.finish().map_err(|e| ParseError { line: source.lines().count(), message: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::Emulator;

    #[test]
    fn parses_and_runs_a_loop() {
        let program = parse_program(
            "; sum 1..=100
             li r1, 100
             li r2, 0
             loop:
             add r2, r2, r1
             addi r1, r1, -1
             bne r1, r0, loop
             halt",
        )
        .unwrap();
        let mut emu = Emulator::new(&program);
        emu.run(1_000_000).unwrap();
        assert_eq!(emu.int_reg(Reg(2)), 5050);
    }

    #[test]
    fn data_directives_and_fp() {
        let program = parse_program(
            ".data 0x100 f64 2.5 1.5
             .data 0x200 u64 0x10 32
             li r1, 0x100
             fld f1, r1, 0
             fld f2, r1, 8
             fmul f3, f1, f2
             fcvti r2, f3
             halt",
        )
        .unwrap();
        let mut emu = Emulator::new(&program);
        emu.run(1_000).unwrap();
        assert_eq!(emu.int_reg(Reg(2)), 3, "2.5 * 1.5 truncates to 3");
        assert_eq!(emu.memory().read_u64(0x208), 32);
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let program = parse_program("start: li r1, 7\n j start").unwrap();
        assert_eq!(program.len(), 2);
        assert_eq!(program.insts[1].imm, 0);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_program("nop\n bogus r1, r2").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = parse_program("add r1, r2").unwrap_err();
        assert!(e.message.contains("3 operands"));

        let e = parse_program("li r99, 5").unwrap_err();
        assert!(e.message.contains("r0..r31"));

        let e = parse_program("fadd f1, r2, f3").unwrap_err();
        assert!(e.message.contains("FP register"));

        let e = parse_program("li r1, twelve").unwrap_err();
        assert!(e.message.contains("integer"));
    }

    #[test]
    fn undefined_label_reported() {
        let e = parse_program("j nowhere\nhalt").unwrap_err();
        assert!(e.message.contains("nowhere"));
        assert_eq!(e.line, 1);
        // The first reference names the line, wherever the label is used.
        let e = parse_program("nop\nbne r1, r0, gone\nj gone\nhalt").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "undefined label `gone`"));
    }

    #[test]
    fn duplicate_label_reported_at_its_second_definition() {
        let e = parse_program("top: nop\nj top\ntop:\nhalt").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (3, "duplicate label `top`"));
    }

    #[test]
    fn negative_and_hex_immediates() {
        let program = parse_program("li r1, -0x10\n addi r2, r1, -5\n halt").unwrap();
        let mut emu = Emulator::new(&program);
        emu.run(100).unwrap();
        assert_eq!(emu.int_reg(Reg(2)) as i64, -21);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let program = parse_program("\n ; only a comment\n\n nop ; trailing\n halt").unwrap();
        assert_eq!(program.len(), 2);
    }
}
