//! Development aid: per-kernel IPC of every issue-queue scheme (not a paper figure).

fn main() {
    swque_bench::experiments::shim("tune", &swque_bench::Budget::from_env());
}
