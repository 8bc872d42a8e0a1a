//! Extension: the rearranging random queue of Sakai et al. (§5) vs AGE and SWQUE.

fn main() {
    swque_bench::experiments::shim("ext_rearrange", &swque_bench::Budget::from_env());
}
