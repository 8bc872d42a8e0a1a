//! Ablations of the SWQUE design choices the paper argues for in prose.

fn main() {
    swque_bench::experiments::shim("ablations", &swque_bench::Budget::from_env());
}
