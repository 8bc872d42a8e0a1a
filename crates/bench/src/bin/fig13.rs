//! Figure 13: relative size of each circuit in SWQUE (medium geometry).

fn main() {
    swque_bench::experiments::shim("fig13", &swque_bench::Budget::from_env());
}
