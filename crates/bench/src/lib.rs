//! Experiment harness for the paper's evaluation (Section 4).
//!
//! Every figure and table is an entry of one registry, [`experiments`]:
//! the units it simulates (kernel × [`RunSpec`], traced or not) and a
//! render function for its text tables and [`Report`]. The binaries in
//! `src/bin/` named after the figures (`fig09`, `tab06`, `tables`, …) are
//! shims that run one entry; `all_experiments` runs the whole evaluation
//! in one process, simulating each distinct unit once. The library also
//! holds the shared machinery: budgets and run specs, the kernel-parallel
//! worker pool ([`run_units`]), result tables, structured JSON reports
//! (see [`output`]) and sweep campaigns (see [`sweep`]).
//!
//! # Environment knobs
//!
//! Every experiment binary reads its budget and output destination from the
//! environment once, in its `main` (also documented in the repository
//! README); the library takes them as arguments:
//!
//! * **`SWQUE_INSTS`** — measured dynamic instructions per run (default
//!   400 000; the paper samples 100 M). Read by [`Budget::from_env`].
//!   Raising it tightens every figure at a proportional time cost.
//! * **`SWQUE_WARMUP`** — warmup instructions excluded from measurement
//!   (default 300 000; the paper skips 16 B). Read by
//!   [`Budget::from_env`].
//! * **`SWQUE_JSON`** — when set, the binary *additionally* writes a
//!   structured JSON report (schema `swque-bench-v1`, see [`output`]) to
//!   this path. `all_experiments` treats the value as a directory and
//!   writes one `BENCH_<figure>.json` per registry entry. Read by
//!   [`output::json_path`].
//! * **`SWQUE_THREADS`** — worker-thread count for runs (default,
//!   and for `0`: the host's available parallelism; always clamped to the
//!   kernel count). A pure throughput knob: results are identical for any
//!   value, a property pinned by the `determinism` integration test. Read
//!   by [`harness::default_workers`].
//! * **`SWQUE_PROP_CASES`** — property-test cases per property (default
//!   64); consumed by the in-tree harness `swque_rng::prop`.
//! * **`SWQUE_PROP_SEED`** — base seed for property-test case generation,
//!   for deterministic replay of a failing case; also consumed by
//!   `swque_rng::prop`.
//!
//! The integer knobs (`SWQUE_INSTS`, `SWQUE_WARMUP`, `SWQUE_THREADS`, and
//! `neighbor`'s `SWQUE_NEIGHBOR_MAX`) go through [`harness::knob`]: an
//! unparsable value such as `SWQUE_INSTS=20k`, or one below the knob's
//! domain (`SWQUE_INSTS` must be at least 1, the others at least 0), exits
//! with status 2 and an error naming the variable, never a silent
//! fallback to the default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod output;
pub mod sweep;
pub mod table;

pub use harness::{
    default_workers, default_workers_with, geomean, run_kernel, run_kernel_traced, run_units,
    Budget, Outcome, ProcessorModel, RunSpec, Short, Unit, TRACE_CAPACITY,
};
pub use output::{json_path, Report, BENCH_SCHEMA};
pub use sweep::{
    merge_campaign, run_campaign, CampaignStatus, Manifest, WorkUnit, CAMPAIGN_SCHEMA,
    MANIFEST_SCHEMA, SHARD_SCHEMA,
};
pub use table::Table;
