//! Write your own kernel with the assembler DSL and run it through the
//! cycle-level core — then check the timing model never changes
//! architectural results by comparing against the pure functional emulator.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use swque::cpu::{Core, CoreConfig};
use swque::iq::IqKind;
use swque::isa::{Assembler, Emulator, FReg, Reg};

fn main() {
    // A little dot-product-with-threshold kernel.
    let n = 4096i64;
    let mut a = Assembler::new();
    a.data_f64s(0x10_0000, (0..n).map(|i| (i as f64).sin()));
    a.data_f64s(0x20_0000, (0..n).map(|i| (i as f64).cos()));

    a.li(Reg(1), n); // counter
    a.li(Reg(2), 0x10_0000); // x pointer
    a.li(Reg(3), 0x20_0000); // y pointer
    a.li(Reg(4), 0); // count of products > 0
    a.label("loop");
    a.fld(FReg(1), Reg(2), 0);
    a.fld(FReg(2), Reg(3), 0);
    a.fmul(FReg(3), FReg(1), FReg(2));
    a.fadd(FReg(4), FReg(4), FReg(3)); // accumulate dot product
    a.icvtf(FReg(5), Reg::ZERO); // 0.0
    a.fcmplt(Reg(5), FReg(5), FReg(3)); // product > 0 ?
    a.add(Reg(4), Reg(4), Reg(5));
    a.addi(Reg(2), Reg(2), 8);
    a.addi(Reg(3), Reg(3), 8);
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "loop");
    a.halt();
    let program = a.finish().expect("labels resolve");

    // Functional reference.
    let mut reference = Emulator::new(&program);
    reference.run(10_000_000).expect("terminates");

    // Timed execution on the full out-of-order core with SWQUE.
    let mut core = Core::new(CoreConfig::medium(), IqKind::Swque, &program);
    let result = core.run(u64::MAX);

    let dot = core.emulator().fp_reg(FReg(4));
    let positives = core.emulator().int_reg(Reg(4));
    assert_eq!(dot, reference.fp_reg(FReg(4)), "timing never changes results");
    assert_eq!(positives, reference.int_reg(Reg(4)));

    println!("dot(x, y)        = {dot:.6}");
    println!("positive products = {positives} of {n}");
    println!("cycles            = {}", result.cycles);
    println!("IPC               = {:.3}", result.ipc());
    println!("L1D hit rate      = {:.1}%", (1.0 - result.mem.l1d.miss_rate()) * 100.0);
    println!("\narchitectural state matches the functional emulator exactly.");
}
