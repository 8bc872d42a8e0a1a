//! Table 6: SWQUE's added cost, and AGE given the same area as 150 entries instead.

fn main() {
    swque_bench::experiments::shim("tab06", &swque_bench::Budget::from_env());
}
