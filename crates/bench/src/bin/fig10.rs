//! Figure 10: SWQUE's execution cycles by mode (CIRC-PC vs AGE), per program.

fn main() {
    swque_bench::experiments::shim("fig10", &swque_bench::Budget::from_env());
}
