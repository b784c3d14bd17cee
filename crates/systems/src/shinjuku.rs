//! Vanilla Shinjuku: centralized preemptive scheduling on the host
//! (Kaffes et al., NSDI '19 — the baseline the paper compares against).
//!
//! Vanilla Shinjuku is the one-group case of the shared Shinjuku model in
//! [`crate::multi_shinjuku`]: one networker+dispatcher core pair in front
//! of every worker. [`ShinjukuConfig`] runs that model with `groups: 1`
//! and, unlike the multi-dispatcher entry point, keeps the stale-feedback
//! fallback of its `ResilienceConfig`.

use nicsched::{params, PolicySpec};
use sim_core::SimDuration;

/// Configuration of a vanilla Shinjuku instance.
#[derive(Debug, Clone, Copy)]
pub struct ShinjukuConfig {
    /// Worker cores (the networker+dispatcher pair occupies one more
    /// physical core, which is why the paper's figures give Shinjuku one
    /// fewer worker than Shinjuku-Offload).
    pub workers: usize,
    /// Preemption time slice; `None` disables preemption.
    pub time_slice: Option<SimDuration>,
    /// Centralized queue policy (FCFS in the original system); a registry
    /// spec such as `PolicySpec::parse("srpt")`.
    pub policy: PolicySpec,
}

impl ShinjukuConfig {
    /// The paper's §4 configuration with the 10 µs slice.
    pub fn paper(workers: usize) -> ShinjukuConfig {
        ShinjukuConfig {
            workers,
            time_slice: Some(params::TIME_SLICE),
            policy: PolicySpec::FCFS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ServerSystem;
    use sim_core::{ProbeConfig, SimTime};
    use workload::{RunMetrics, ServiceDist, WorkloadSpec};

    fn run(spec: WorkloadSpec, cfg: ShinjukuConfig) -> RunMetrics {
        cfg.run(spec, ProbeConfig::disabled())
    }

    fn quick_spec(rps: f64, dist: ServiceDist) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: rps,
            dist,
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(20),
            seed: 42,
        }
    }

    #[test]
    fn light_load_completes_everything() {
        let spec = quick_spec(50_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(spec, ShinjukuConfig::paper(3));
        assert!(m.completed > 500);
        assert!(!m.saturated(0.05), "{}", m.row());
        assert_eq!(m.dropped, 0);
    }

    #[test]
    fn host_path_is_faster_than_nic_path_at_low_load() {
        // Without the 2.56us NIC round trips, host Shinjuku's unloaded
        // latency beats Shinjuku-Offload's.
        let spec = quick_spec(5_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let host = run(spec, ShinjukuConfig::paper(2));
        let offload = crate::offload::run_probed(
            spec,
            crate::offload::OffloadConfig::paper(2, 2),
            ProbeConfig::disabled(),
        );
        assert!(
            host.p50 < offload.p50,
            "host {} should undercut offload {} at low load",
            host.p50,
            offload.p50
        );
    }

    #[test]
    fn saturates_at_worker_capacity() {
        // 3 workers at 5us => 600k rps ceiling.
        let spec = quick_spec(900_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(
            spec,
            ShinjukuConfig {
                workers: 3,
                time_slice: None,
                ..ShinjukuConfig::paper(3)
            },
        );
        assert!(m.saturated(0.05), "{}", m.row());
        assert!(m.achieved_rps < 650_000.0, "achieved {:.0}", m.achieved_rps);
        // With one request in flight per worker, each completion costs a
        // dispatcher round trip of idle time — utilization saturates below
        // 100% (the §2.2 inter-thread communication overhead at work).
        assert!(
            m.worker_utilization > 0.75,
            "utilization {:.2}",
            m.worker_utilization
        );
    }

    #[test]
    fn dispatcher_caps_throughput_on_tiny_requests() {
        // 15 workers of 1us work could do 15M, but the dispatcher's 200ns
        // per request caps the system near 5M (§1) — the Figure 6 story.
        let spec = quick_spec(8_000_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let m = run(
            spec,
            ShinjukuConfig {
                workers: 15,
                time_slice: None,
                ..ShinjukuConfig::paper(15)
            },
        );
        assert!(
            m.achieved_rps < 5_500_000.0,
            "achieved {:.0}",
            m.achieved_rps
        );
        assert!(
            m.achieved_rps > 3_000_000.0,
            "achieved {:.0}",
            m.achieved_rps
        );
    }

    #[test]
    fn preemption_bounds_bimodal_tail() {
        let spec = quick_spec(400_000.0, ServiceDist::paper_bimodal());
        let with = run(spec, ShinjukuConfig::paper(4));
        let without = run(
            spec,
            ShinjukuConfig {
                workers: 4,
                time_slice: None,
                ..ShinjukuConfig::paper(4)
            },
        );
        assert!(with.preemptions > 0);
        assert!(
            with.p99 < without.p99,
            "preemption should cut the tail: with={} without={}",
            with.p99,
            without.p99
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = quick_spec(200_000.0, ServiceDist::paper_bimodal());
        let a = run(spec, ShinjukuConfig::paper(3));
        let b = run(spec, ShinjukuConfig::paper(3));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        let spec = quick_spec(200_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let res = crate::common::ResilienceConfig::loss_and_crash(1, SimTime::from_millis(10));
        let m = ShinjukuConfig::paper(4).run_resilient(spec, ProbeConfig::disabled(), res);
        let f = &m.faults;
        assert_eq!(f.unaccounted(), 0, "request ledger must close: {f:?}");
        assert!(f.in_pipe() >= 0, "attempt ledger went negative: {f:?}");
        assert!(f.in_pipe() < 200, "attempt residue too large: {f:?}");
        assert!(f.retries > 0, "1% loss must trigger retries");
        assert!(f.quarantines >= 1, "crashed worker must be quarantined");
        assert!(m.completed > 1000, "completed {}", m.completed);
        // Deterministic under faults.
        let m2 = ShinjukuConfig::paper(4).run_resilient(spec, ProbeConfig::disabled(), res);
        assert_eq!(m.faults, m2.faults);
        assert_eq!(m.p99, m2.p99);
    }
}
