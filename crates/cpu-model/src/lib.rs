//! # cpu-model — host CPU and execution substrate
//!
//! Models the compute side of the evaluation platform in *"Mind the Gap"*
//! (HotNets '19): Xeon worker cores and Stingray ARM cores with cycle
//! accounting ([`CoreSpec`]), request execution contexts with
//! spawn/save/restore costs ([`ContextPool`]), the local-APIC preemption
//! timer in both its Linux and Dune cost modes ([`TimerMode`],
//! [`OneShotTimer`]), interrupt delivery paths ([`InterruptPath`]), and the
//! dual-socket host layout ([`Topology`]).
//!
//! All cycle numbers taken from the paper are documented at their
//! definition site with the section they come from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod core;
mod interrupt;
mod timer;
mod topology;

pub use crate::core::{Core, CoreId, CoreKind, CoreSpec};
pub use context::{ContextCosts, ContextOp, ContextPool, ContextPrices};
pub use interrupt::InterruptPath;
pub use timer::{OneShotTimer, TimerMode};
pub use topology::{Topology, CROSS_SOCKET_PENALTY};
