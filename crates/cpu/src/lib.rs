//! Cycle-level out-of-order superscalar core simulator — the SWQUE
//! reproduction's substitute for the paper's SimpleScalar-based simulator.
//!
//! The core executes programs written in the `swque-isa` instruction set
//! with any of the issue-queue organizations from `swque-core`, over the
//! `swque-mem` cache hierarchy and `swque-branch` predictors. Configurations
//! for the paper's medium (Table 2) and large (Table 4) processor models are
//! provided by [`CoreConfig::medium`] and [`CoreConfig::large`].
//!
//! # Example
//!
//! ```
//! use swque_cpu::{Core, CoreConfig};
//! use swque_core::IqKind;
//! use swque_isa::{Assembler, Reg};
//!
//! let mut a = Assembler::new();
//! a.li(Reg(1), 1000);
//! a.li(Reg(2), 0);
//! a.label("loop");
//! a.add(Reg(2), Reg(2), Reg(1));
//! a.addi(Reg(1), Reg(1), -1);
//! a.bne(Reg(1), Reg::ZERO, "loop");
//! a.halt();
//! let program = a.finish().unwrap();
//!
//! let mut core = Core::new(CoreConfig::medium(), IqKind::Age, &program);
//! let result = core.run(u64::MAX);
//! assert_eq!(core.emulator().int_reg(Reg(2)), 500_500);
//! assert!(result.ipc() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core;
mod events;
mod fu;
mod lsq;
mod multi;
mod rename;
mod result;
mod rob;
mod switching;

pub use crate::core::{Core, PipelineSnapshot};
pub use crate::multi::MultiCoreSim;
pub use config::CoreConfig;
pub use result::{CoreStats, InvariantViolation, SimResult};
