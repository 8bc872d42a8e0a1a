//! Figure 12: IQ energy of SWQUE relative to the idealized shifting queue (I-SHIFT).

fn main() {
    swque_bench::experiments::shim("fig12", &swque_bench::Budget::from_env());
}
