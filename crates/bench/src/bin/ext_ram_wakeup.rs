//! Extension (the paper's §2.1 future work): SWQUE over a RAM-type wakeup.

fn main() {
    swque_bench::experiments::shim("ext_ram_wakeup", &swque_bench::Budget::from_env());
}
