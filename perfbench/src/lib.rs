//! End-to-end and per-layer benchmark of the `mindgap` simulator.
//!
//! The binary (`src/main.rs`) drives the workloads; this library holds
//! what it measures with:
//!
//! * [`workloads`] — the three workloads and their reference digests;
//! * [`calib`] — the host-speed yardstick host times are normalized by;
//! * [`check`] — the simulated-output digest and the rep verdicts that
//!   make up `failed_ratio`;
//! * [`stats`] — medians, percentiles and the ten-beyond rule;
//! * [`trace`] — in-memory spans and self time from nested spans;
//! * [`layers`] — the per-layer replays and work counts.
//!
//! `README.md` beside this crate explains the workloads, the noise the
//! statistics are designed against, and which layer metric should move
//! which end-to-end metric on which workload.

#![forbid(unsafe_code)]

pub mod calib;
pub mod check;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;
