//! Figure 9: per-program SWQUE speedup over AGE, medium and large models.

fn main() {
    swque_bench::experiments::shim("fig09", &swque_bench::Budget::from_env());
}
