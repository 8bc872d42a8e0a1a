//! Instruction mix, branch and memory behaviour of every suite kernel.

fn main() {
    swque_bench::experiments::shim("characterize", &swque_bench::Budget::from_env());
}
