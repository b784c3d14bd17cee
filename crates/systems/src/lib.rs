//! # systems — full-system assemblies
//!
//! Each module wires the substrates (NIC model, CPU model, wire formats,
//! workload generation) and the `nicsched` dispatcher into one complete
//! simulated server behind the shared client front end in [`common`];
//! only the dispatch stage differs:
//!
//! * [`shinjuku`] — vanilla Shinjuku: host-resident networker + dispatcher
//!   hyperthreads, shared-memory queues, worker preemption (the paper's
//!   baseline in every figure). Its config runs the [`multi_shinjuku`]
//!   model with one dispatcher group.
//! * [`offload`] — Shinjuku-Offload: networking subsystem and the
//!   three-core dispatcher pipeline on SmartNIC ARM cores, packet-based
//!   worker communication, the §3.4.5 queuing optimization. Generic over
//!   [`nicsched::NicProfile`], so the same assembly runs the Stingray,
//!   the CXL variant, and the ideal line-rate NIC.
//! * [`baseline`] — the §2.1 run-to-completion systems: RSS (IX-style),
//!   RSS + work stealing (ZygOS-style), Flow Director (MICA-style), and
//!   Elastic RSS (§5.1(1)'s µs-scale core provisioning).
//! * [`rpcvalet`] — RPCValet-style NI-integrated hardware queue (§2.1):
//!   perfect balance, nanosecond dispatch, no preemption.
//! * [`multi_shinjuku`] — the one Shinjuku model, and with more than one
//!   group the §2.2(3) scale-out: independent Shinjuku groups behind
//!   RSS, with imbalance accounting.
//!
//! All systems exchange real Ethernet/IPv4/UDP frames on external hops
//! and are deterministic per seed.
//!
//! The entry point is the [`ServerSystem`] trait (see [`api`]):
//! `cfg.run(spec, ProbeConfig::disabled())` works uniformly across every
//! assembly, and `ProbeConfig::enabled()` attaches a per-stage
//! [`sim_core::StageReport`] to the returned metrics. Two side channels
//! have their own functions: [`baseline::run_with_elastic`] and
//! [`multi_shinjuku::run_with_imbalance`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod baseline;
pub mod common;
pub mod multi_shinjuku;
pub mod offload;
pub mod rpcvalet;
pub mod shinjuku;

pub use api::{ServerSystem, SystemConfig};
pub use common::{
    FeedbackGovernor, ResilienceConfig, ResponseOutcome, StalenessPolicy, TimeoutOutcome,
};
pub use sim_core::ProbeConfig;
