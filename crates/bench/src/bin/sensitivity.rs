//! Circuit-model scaling with IQ size: where the double tag access stops fitting.

fn main() {
    swque_bench::experiments::shim("sensitivity", &swque_bench::Budget::from_env());
}
