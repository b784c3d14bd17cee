//! # bench — performance harness
//!
//! Shared helpers for the `perf` binary (`src/bin/perf.rs`), which times
//! the event-queue shapes against the legacy heap and each assembly's
//! end-to-end throughput, and gates both against `BENCH_5.json`.

#![forbid(unsafe_code)]

use sim_core::SimDuration;
use workload::{ServiceDist, WorkloadSpec};

/// A short, deterministic workload point for benchmarking one simulation.
pub fn bench_spec(offered_rps: f64, dist: ServiceDist) -> WorkloadSpec {
    WorkloadSpec {
        offered_rps,
        dist,
        body_len: 64,
        warmup: SimDuration::from_millis(1),
        measure: SimDuration::from_millis(8),
        seed: 77,
    }
}
