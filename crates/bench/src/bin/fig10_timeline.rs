//! Figure 10 as a time series: per-interval SWQUE mode strips from trace events.

fn main() {
    swque_bench::experiments::shim("fig10_timeline", &swque_bench::Budget::from_env());
}
