//! Property tests for the ISA substrate: sparse memory, program images and
//! their copy-on-write forks vs a byte-map model, and emulator/shadow
//! agreement on straight-line code.
//!
//! Ported from `proptest` to the in-tree harness (`swque_rng::prop`);
//! each property keeps at least its original case count (128).
#![expect(
    clippy::disallowed_types,
    reason = "test models: the byte map and page set are probed and counted, never iterated"
)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use swque_rng::prop::{check, Gen};

use swque_isa::{disassemble, parse_program, Assembler, Emulator, Opcode, Reg, SparseMemory};

/// SparseMemory agrees with a plain byte map under interleaved u8/u64
/// writes and page-chunked `write_bytes` copies at arbitrary (including
/// page-straddling and `u64::MAX`-wrapping) addresses: word reads across
/// each written range and the resident page count match the model.
#[test]
fn sparse_memory_matches_byte_map() {
    check(128, |g| {
        let ops: Vec<(u8, u64, u64)> = g.vec(1..200, |g| {
            let kind = g.gen_range(0u8..4);
            let addr = if kind == 3 && g.bool() {
                // Within 8 KiB of the top, so long copies wrap to 0.
                u64::MAX - g.gen_range(0u64..2 * PAGE)
            } else {
                g.gen_range(0u64..4 * PAGE)
            };
            (kind, addr, g.u64())
        });
        let mut mem = SparseMemory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut pages: HashSet<u64> = HashSet::new();
        for (kind, addr, value) in ops {
            let written: Vec<u8> = match kind {
                0 => vec![value as u8],
                1 => value.to_le_bytes().to_vec(),
                _ => {
                    // Short copies (empty ones included) half the time.
                    let max = if g.bool() { 16 } else { 3 * PAGE as usize };
                    let len = g.gen_range(0..max + 1);
                    (0..len).map(|i| (value as usize).wrapping_add(i * 131) as u8).collect()
                }
            };
            match kind {
                0 => mem.write_u8(addr, written[0]),
                1 => mem.write_u64(addr, value),
                _ => mem.write_bytes(addr, &written),
            }
            for (i, b) in written.iter().enumerate() {
                model.insert(addr.wrapping_add(i as u64), *b);
                pages.insert(addr.wrapping_add(i as u64) / PAGE);
            }
            // Word reads at every 8-byte step across the written range
            // (at least one, at its start) and at its last byte.
            let last = written.len().saturating_sub(1) as u64;
            let probes = (0..=last).step_by(8).chain([last]);
            for at in probes.map(|i| addr.wrapping_add(i)) {
                let mut expect = [0u8; 8];
                for (i, e) in expect.iter_mut().enumerate() {
                    *e = model.get(&at.wrapping_add(i as u64)).copied().unwrap_or(0);
                }
                assert_eq!(mem.read_u64(at), u64::from_le_bytes(expect), "word at {at:#x}");
            }
            assert_eq!(mem.resident_pages(), pages.len());
        }
    });
}

const PAGE: u64 = 4096;

/// A byte-map model of a memory image: every byte ever written, and the
/// pages those bytes fall in.
#[derive(Debug, Clone, Default)]
struct Image {
    bytes: BTreeMap<u64, u8>,
    pages: BTreeSet<u64>,
}

impl Image {
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let at = addr.wrapping_add(i as u64);
            self.bytes.insert(at, b);
            self.pages.insert(at / PAGE);
        }
    }

    /// `mem` holds exactly this image: every byte of every page the model
    /// touched reads as modelled (zero where never written), and no other
    /// page is resident.
    fn assert_held_by(&self, mem: &SparseMemory, what: &str) {
        for &page in &self.pages {
            for at in (0..PAGE).map(|i| page * PAGE + i) {
                let want = self.bytes.get(&at).copied().unwrap_or(0);
                assert_eq!(mem.read_u8(at), want, "{what}: byte at {at:#x}");
            }
        }
        assert_eq!(mem.resident_pages(), self.pages.len(), "{what}: resident pages");
    }
}

/// A data segment of 0–3 pages, at an unaligned base near 0 or (one time
/// in four) wrapping past `u64::MAX`; a quarter of the bases and lengths
/// are page-aligned. No byte is zero, so a byte erased by a page's zero
/// padding always shows. Half the segments go through `data_u64s`.
/// Returns the segment's base and bytes.
fn add_segment(g: &mut Gen, a: &mut Assembler) -> (u64, Vec<u8>) {
    let base = match g.gen_range(0u8..4) {
        0 => u64::MAX - g.gen_range(0..2 * PAGE),
        1 => g.gen_range(0..4) * PAGE,
        _ => g.gen_range(0..4 * PAGE),
    };
    let len = if g.gen_range(0u8..4) == 0 {
        g.gen_range(0..4) * PAGE
    } else {
        g.gen_range(0..3 * PAGE + 1)
    };
    let seed = g.u64();
    let mut bytes: Vec<u8> =
        (0..len).map(|i| (i.wrapping_mul(131).wrapping_add(seed) as u8) | 1).collect();
    if g.bool() {
        a.data_bytes(base, &bytes);
    } else {
        bytes.truncate(bytes.len() / 8 * 8);
        let words = bytes.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap()));
        a.data_u64s(base, words);
    }
    (base, bytes)
}

/// A program's initial memory is the image its segments give when applied
/// in order, for overlapping, unaligned segments of up to three pages: a
/// whole page a segment shares must not hide the bytes around it.
#[test]
fn initial_memory_applies_overlapping_segments_in_order() {
    check(128, |g| {
        let mut a = Assembler::new();
        let mut image = Image::default();
        let mut segments = Vec::new();
        for _ in 0..g.gen_range(1..6) {
            let (base, bytes) = add_segment(g, &mut a);
            image.write(base, &bytes);
            segments.push((base, bytes));
        }
        a.halt();
        let program = a.finish().unwrap();
        image.assert_held_by(&program.initial_memory(), "initial memory");
        for (segment, (base, bytes)) in program.data.iter().zip(&segments) {
            assert_eq!(segment.base(), *base);
            assert!(segment.chunks().flatten().eq(bytes), "segment at {base:#x}: chunks differ");
        }
    });
}

/// Forks of a memory loaded from a program share its pages copy-on-write:
/// after a clone taken mid-sequence, writes interleaved on the two copies
/// each reach only their own copy, and the program's image stays as built.
#[test]
fn forked_memories_see_only_their_own_writes() {
    check(128, |g| {
        let mut a = Assembler::new();
        let mut built = Image::default();
        for _ in 0..g.gen_range(1..4) {
            let (base, bytes) = add_segment(g, &mut a);
            built.write(base, &bytes);
        }
        a.halt();
        let program = a.finish().unwrap();
        let mut mems = vec![program.initial_memory()];
        let mut images = vec![built.clone()];
        let ops = g.gen_range(1..40);
        let fork_at = g.gen_range(0..ops);
        for op in 0..ops {
            if op == fork_at {
                mems.push(mems[0].clone());
                images.push(images[0].clone());
            }
            let side = g.gen_range(0..mems.len());
            let addr = if g.bool() {
                u64::MAX - g.gen_range(0..2 * PAGE)
            } else {
                g.gen_range(0..7 * PAGE)
            };
            let value = g.u64();
            let written: Vec<u8> = match g.gen_range(0u8..3) {
                0 => {
                    mems[side].write_u8(addr, value as u8);
                    vec![value as u8]
                }
                1 => {
                    mems[side].write_u64(addr, value);
                    value.to_le_bytes().to_vec()
                }
                _ => {
                    let len = g.gen_range(0..2 * PAGE as usize + 1);
                    let bytes: Vec<u8> =
                        (0..len).map(|i| (value as usize).wrapping_add(i * 7) as u8).collect();
                    mems[side].write_bytes(addr, &bytes);
                    bytes
                }
            };
            images[side].write(addr, &written);
        }
        for (side, (mem, image)) in mems.iter().zip(&images).enumerate() {
            image.assert_held_by(mem, &format!("fork {side}"));
        }
        built.assert_held_by(&program.initial_memory(), "program image after the writes");
    });
}

/// The wrong-path shadow emulator computes exactly what the real
/// emulator computes when run over the same straight-line code — it
/// differs only in where results are stored.
#[test]
fn shadow_agrees_with_emulator_on_straight_line_code() {
    check(128, |g| {
        let vals: Vec<i32> = g.vec(4..20, |g| g.i32());
        let mut a = Assembler::new();
        for (i, v) in vals.iter().enumerate() {
            let dst = Reg(1 + (i % 8) as u8);
            let src = Reg(1 + ((i + 3) % 8) as u8);
            match i % 5 {
                0 => a.li(dst, *v as i64),
                1 => a.addi(dst, src, *v as i64),
                2 => a.xori(dst, src, *v as i64),
                3 => a.add(dst, src, Reg(1 + ((i + 5) % 8) as u8)),
                _ => a.slli(dst, src, (*v & 31) as i64),
            }
        }
        a.halt();
        let program = a.finish().unwrap();

        let mut emu = Emulator::new(&program);
        let reference = Emulator::new(&program);
        let mut shadow = reference.shadow(0);
        loop {
            let real = emu.step().unwrap();
            let shadowed = shadow.step(&reference).unwrap();
            assert_eq!(real.inst, shadowed.inst);
            assert_eq!(real.next_pc, shadowed.next_pc);
            if real.inst.op == Opcode::Halt {
                break;
            }
        }
    });
}

/// Disassemble → reparse is the identity on instructions, for random
/// straight-line + branchy programs.
#[test]
fn disassembly_round_trips() {
    check(128, |g| {
        let ops: Vec<(u8, i16)> = g.vec(1..60, |g| (g.u8(), g.i16()));
        let mut a = Assembler::new();
        let mut label = 0u32;
        for (op, imm) in &ops {
            let dst = Reg(1 + (op % 12));
            let src = Reg(1 + (op.wrapping_add(5) % 12));
            match op % 7 {
                0 => a.li(dst, *imm as i64),
                1 => a.add(dst, src, Reg(1)),
                2 => a.xori(dst, src, *imm as i64),
                3 => a.ld(dst, src, (*imm as i64) & !7),
                4 => a.st(dst, src, (*imm as i64) & !7),
                5 => {
                    let l = format!("p{label}");
                    label += 1;
                    a.beq(dst, src, &l);
                    a.nop();
                    a.label(&l);
                }
                _ => a.mul(dst, src, Reg(2)),
            }
        }
        a.halt();
        let p = a.finish().unwrap();
        let text = disassemble(&p);
        let q = parse_program(&text).expect("reparse");
        assert_eq!(p.insts, q.insts);
    });
}

/// Assembled programs are position-faithful: `here()` equals the
/// eventual instruction index of the next emitted instruction.
#[test]
fn assembler_here_is_consistent() {
    check(128, |g| {
        let n = g.gen_range(1usize..40);
        let mut a = Assembler::new();
        let mut marks = Vec::new();
        for i in 0..n {
            marks.push(a.here());
            a.addi(Reg(1), Reg(1), i as i64);
        }
        a.halt();
        let program = a.finish().unwrap();
        assert_eq!(program.len(), n + 1);
        for (i, m) in marks.iter().enumerate() {
            assert_eq!(*m, i as u64);
        }
    });
}

/// Well-formed programs the totality property mutates: the module-doc
/// loop, data directives of both kinds, and every label form.
const ASM_CORPUS: &[&str] = &[
    "; sum the numbers 1..=100\n.data 0x1000 u64 0 0 0\n    li r1, 100\n    li r2, 0\n\
     loop:\n    add r2, r2, r1\n    addi r1, r1, -1\n    bne r1, r0, loop\n\
     st r2, r0, 0x1000\n    halt\n",
    ".data 0x100 f64 2.5 1.5\n.data 0x200 u64 0x10 32\nli r1, 0x100\nfld f1, r1, 0\n\
     fld f2, r1, 8\nfmul f3, f1, f2\nfcvti r2, f3\nhalt\n",
    "start: li r1, 7\nj start\nfn: jal r31, start\njr r31\nbeq r1, r2, fn\nnop\nhalt\n",
];

/// Fragments the soup and the mutations draw from: mnemonics of every
/// operand shape, registers at and past both files' ends, labels,
/// directives, integers at and past `i64`'s range, and separators.
const ASM_FRAGMENTS: &[&str] = &[
    "add",
    "addi",
    "li",
    "ld",
    "st",
    "fld",
    "fadd",
    "fcvti",
    "bne",
    "j",
    "jal",
    "jr",
    "halt",
    "nop",
    ".data",
    "u64",
    "f64",
    "r0",
    "r31",
    "r32",
    "r255",
    "r256",
    "f1",
    "f32",
    "x",
    "loop",
    "loop:",
    ":",
    ",",
    ";",
    " ",
    "\t",
    "\n",
    "0",
    "-1",
    "0x",
    "0x10",
    "-0x8000000000000000",
    "9223372036854775807",
    "9223372036854775808",
    "1e999",
    "NaN",
    "-",
    "--5",
    "é",
    "\u{0}",
    "",
];

/// `parse_program` is total: random byte soup and single-token mutations
/// of the corpus each return a program or an error naming a line of the
/// input, never a panic. An undefined label used to be reported at line
/// 0; the mutation that found it is kept as a fixed case.
#[test]
fn parse_program_is_total_on_soup_and_corpus_mutations() {
    let e = parse_program("nop: li r1, 7\nj start\nhalt\n").unwrap_err();
    assert_eq!((e.line, e.message.as_str()), (2, "undefined label `start`"));
    let mut corpus: Vec<String> = ASM_CORPUS.iter().map(|s| s.to_string()).collect();
    for text in ASM_CORPUS {
        let program = parse_program(text).expect("unmutated corpus program must parse");
        corpus.push(disassemble(&program));
    }
    check(2048, |g| {
        let input = if g.bool() {
            g.soup(ASM_FRAGMENTS)
        } else {
            let text = &corpus[g.gen_range(0..corpus.len())];
            g.mutate(text, ASM_FRAGMENTS)
        };
        if let Err(e) = parse_program(&input) {
            let lines = input.lines().count();
            let line = e.line;
            assert!((1..=lines).contains(&line), "error at line {line} of {lines}: {input:?}");
            assert!(!e.message.is_empty(), "an error names its cause: {input:?}");
        }
    });
}
