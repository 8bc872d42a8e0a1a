//! Tables 2–5 from the config structs and the density model; `tables table3` prints one.

fn main() {
    let part = std::env::args().nth(1);
    swque_bench::experiments::tables_shim(part.as_deref(), &swque_bench::Budget::from_env());
}
