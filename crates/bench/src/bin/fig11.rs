//! Figure 11: degradation vs SHIFT of CIRC-CONV, CIRC-PPRI and CIRC-PC.

fn main() {
    swque_bench::experiments::shim("fig11", &swque_bench::Budget::from_env());
}
