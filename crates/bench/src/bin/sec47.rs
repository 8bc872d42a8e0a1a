//! Section 4.7: delay analysis, the DTM's share of the IQ critical path.

fn main() {
    swque_bench::experiments::shim("sec47", &swque_bench::Budget::from_env());
}
