//! # SWQUE — a mode switching issue queue with priority-correcting circular queue
//!
//! This crate is the facade of a full reproduction of *SWQUE: A Mode
//! Switching Issue Queue with Priority-Correcting Circular Queue* (Hideki
//! Ando, MICRO-52, 2019). It re-exports every subsystem so downstream users
//! can depend on a single crate:
//!
//! * [`isa`] — a small 64-bit RISC instruction set, assembler DSL, and
//!   functional emulator used as the execution oracle.
//! * [`branch`] — gshare + BTB branch prediction.
//! * [`mem`] — two-level cache hierarchy with MSHRs, a stream prefetcher and
//!   a bandwidth-limited DRAM model.
//! * [`iq`] — the paper's contribution: every issue-queue organization
//!   (SHIFT, CIRC, CIRC-PPRI, CIRC-PC, RAND, AGE, SWQUE).
//! * [`cpu`] — a cycle-level out-of-order superscalar core simulator.
//! * [`workloads`] — SPEC2017-like synthetic kernels.
//! * [`circuit`] — analytical area / delay / energy models of the IQ
//!   circuits.
//! * [`rng`] — the in-tree deterministic randomness substrate (pinned
//!   xoshiro256\*\* PRNG and property-test harness) that keeps
//!   the workspace dependency-free and every workload trace reproducible.
//! * [`trace`] — the observability layer: typed trace events (controller
//!   intervals, mode switches, per-interval IPC), a bounded ring-buffer
//!   recorder that is free when disabled, stream summaries, and the
//!   in-tree JSON reader/writer behind `SWQUE_JSON` structured output.
//!
//! To observe a run at interval granularity, attach a trace before
//! stepping the core:
//!
//! ```
//! use swque::cpu::{Core, CoreConfig};
//! use swque::iq::IqKind;
//! use swque::trace::{TraceHandle, TraceSummary};
//! use swque::workloads::suite;
//!
//! let program = suite::by_name("mcf_like").expect("known kernel").build();
//! let mut core = Core::new(CoreConfig::medium(), IqKind::Swque, &program);
//! let trace = TraceHandle::ring(4096);
//! core.attach_trace(&trace);
//! core.run(50_000);
//! let summary = TraceSummary::from_events(&trace.events(), trace.dropped());
//! assert_eq!(summary.mode_strip().len(), summary.intervals.len());
//! ```
//!
//! # Quickstart
//!
//! ```
//! use swque::cpu::{Core, CoreConfig};
//! use swque::iq::IqKind;
//! use swque::workloads::suite;
//!
//! let program = suite::by_name("deepsjeng_like").expect("known kernel").build();
//! let config = CoreConfig::medium();
//! let mut core = Core::new(config, IqKind::Swque, &program);
//! let result = core.run(50_000);
//! assert!(result.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use swque_branch as branch;
pub use swque_circuit as circuit;
pub use swque_core as iq;
pub use swque_cpu as cpu;
pub use swque_isa as isa;
pub use swque_mem as mem;
pub use swque_rng as rng;
pub use swque_trace as trace;
pub use swque_workloads as workloads;
