//! Figure 14: SWQUE-1AM, AGE-multiAM and SWQUE-multiAM over single-matrix AGE.

fn main() {
    swque_bench::experiments::shim("fig14", &swque_bench::Budget::from_env());
}
