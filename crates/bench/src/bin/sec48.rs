//! Section 4.8: SWQUE's sensitivity to the mode-switch penalty (10 vs 40 cycles).

fn main() {
    swque_bench::experiments::shim("sec48", &swque_bench::Budget::from_env());
}
