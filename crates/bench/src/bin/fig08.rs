//! Figure 8: IPC degradation of CIRC, RAND, AGE and SWQUE relative to SHIFT.

fn main() {
    swque_bench::experiments::shim("fig08", &swque_bench::Budget::from_env());
}
