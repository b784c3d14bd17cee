//! The unified run API: one trait over every server assembly.
//!
//! Historically each assembly exposed its own free `run(spec, XConfig)`
//! function, so sweep drivers and experiments had to be written per
//! system. [`ServerSystem`] replaces that with a single entry point —
//! any config type implements it, and [`SystemConfig`] names every
//! assembly in one enum for table-driven experiment code:
//!
//! ```
//! use sim_core::{ProbeConfig, SimDuration};
//! use systems::{ServerSystem, SystemConfig};
//! use systems::offload::OffloadConfig;
//! use workload::{ServiceDist, WorkloadSpec};
//!
//! let mut spec = WorkloadSpec::new(50_000.0, ServiceDist::Fixed(SimDuration::from_micros(2)));
//! spec.measure = SimDuration::from_millis(2);
//! let cfg = SystemConfig::Offload(OffloadConfig::paper(4, 4));
//! let m = cfg.run(spec, ProbeConfig::enabled());
//! assert!(m.stages.is_some(), "probing attaches a stage report");
//! ```

use sim_core::ProbeConfig;
use workload::{RunMetrics, WorkloadSpec};

use crate::baseline::BaselineConfig;
use crate::common::ResilienceConfig;
use crate::multi_shinjuku::MultiShinjukuConfig;
use crate::offload::OffloadConfig;
use crate::rpcvalet::RpcValetConfig;
use crate::shinjuku::ShinjukuConfig;

/// A complete simulated server that can execute a workload.
///
/// Implemented by every assembly's config type; `probe` selects how much
/// observability to pay for ([`ProbeConfig::disabled()`] is bit-identical
/// to the un-probed path).
pub trait ServerSystem {
    /// Short stable name for tables and CSV labels.
    fn name(&self) -> &'static str;

    /// Simulate `spec` on this system and report client-side metrics
    /// (plus a [`sim_core::StageReport`] when `probe` is enabled).
    fn run(&self, spec: WorkloadSpec, probe: ProbeConfig) -> RunMetrics {
        self.run_resilient(spec, probe, ResilienceConfig::default())
    }

    /// Simulate `spec` with fault injection, client retries, admission
    /// control and staleness fallback per `res`. With
    /// [`ResilienceConfig::default()`] this is bit-identical to [`run`]
    /// (same event order, same RNG streams).
    ///
    /// Each assembly honours the subset of `res` that is architecturally
    /// meaningful for it (e.g. baselines have no central dispatcher, so
    /// admission and staleness fallback are no-ops there); fault and
    /// retry settings apply everywhere.
    ///
    /// [`run`]: ServerSystem::run
    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics;
}

impl ServerSystem for OffloadConfig {
    fn name(&self) -> &'static str {
        "shinjuku-offload"
    }

    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics {
        crate::offload::run_resilient_probed(spec, *self, probe, res)
    }
}

impl ServerSystem for ShinjukuConfig {
    fn name(&self) -> &'static str {
        "shinjuku"
    }

    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics {
        // One dispatcher group over every worker; `res` passes through
        // unchanged, staleness fallback included.
        let cfg = MultiShinjukuConfig {
            groups: 1,
            workers_per_group: self.workers,
            time_slice: self.time_slice,
            policy: self.policy,
        };
        crate::multi_shinjuku::run_model(spec, cfg, probe, res).metrics
    }
}

impl ServerSystem for BaselineConfig {
    fn name(&self) -> &'static str {
        match self.kind {
            crate::baseline::BaselineKind::Rss => "rss",
            crate::baseline::BaselineKind::RssStealing => "rss-stealing",
            crate::baseline::BaselineKind::FlowDirector => "flow-director",
            crate::baseline::BaselineKind::ElasticRss => "elastic-rss",
        }
    }

    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics {
        crate::baseline::run_resilient_probed(spec, *self, probe, res)
    }
}

impl ServerSystem for RpcValetConfig {
    fn name(&self) -> &'static str {
        "rpcvalet"
    }

    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics {
        crate::rpcvalet::run_resilient_probed(spec, *self, probe, res)
    }
}

impl ServerSystem for MultiShinjukuConfig {
    fn name(&self) -> &'static str {
        "multi-shinjuku"
    }

    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics {
        crate::multi_shinjuku::run_resilient_probed(spec, *self, probe, res).metrics
    }
}

/// Every assembly in the repository, behind one name.
///
/// Lets experiment drivers hold heterogeneous systems in a single
/// `Vec<SystemConfig>` and sweep them uniformly.
#[derive(Debug, Clone, Copy)]
pub enum SystemConfig {
    /// Shinjuku-Offload: the paper's NIC-resident scheduler.
    Offload(OffloadConfig),
    /// Vanilla host Shinjuku.
    Shinjuku(ShinjukuConfig),
    /// A run-to-completion baseline (RSS / stealing / Flow Director /
    /// Elastic RSS).
    Baseline(BaselineConfig),
    /// RPCValet-style NI-integrated hardware queue.
    RpcValet(RpcValetConfig),
    /// Multi-dispatcher Shinjuku scale-out.
    MultiShinjuku(MultiShinjukuConfig),
}

impl ServerSystem for SystemConfig {
    fn name(&self) -> &'static str {
        match self {
            SystemConfig::Offload(c) => c.name(),
            SystemConfig::Shinjuku(c) => c.name(),
            SystemConfig::Baseline(c) => c.name(),
            SystemConfig::RpcValet(c) => c.name(),
            SystemConfig::MultiShinjuku(c) => c.name(),
        }
    }

    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics {
        match self {
            SystemConfig::Offload(c) => c.run_resilient(spec, probe, res),
            SystemConfig::Shinjuku(c) => c.run_resilient(spec, probe, res),
            SystemConfig::Baseline(c) => c.run_resilient(spec, probe, res),
            SystemConfig::RpcValet(c) => c.run_resilient(spec, probe, res),
            SystemConfig::MultiShinjuku(c) => c.run_resilient(spec, probe, res),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineKind;
    use nicsched::PolicySpec;
    use sim_core::SimDuration;
    use workload::ServiceDist;

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: 100_000.0,
            dist: ServiceDist::Fixed(SimDuration::from_micros(5)),
            body_len: 64,
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(5),
            seed: 42,
        }
    }

    fn all_systems() -> Vec<SystemConfig> {
        vec![
            SystemConfig::Offload(OffloadConfig::paper(4, 4)),
            SystemConfig::Shinjuku(ShinjukuConfig::paper(4)),
            SystemConfig::Baseline(BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            }),
            SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
            SystemConfig::MultiShinjuku(MultiShinjukuConfig {
                groups: 2,
                workers_per_group: 2,
                time_slice: None,
                policy: PolicySpec::FCFS,
            }),
        ]
    }

    #[test]
    fn every_assembly_runs_through_the_trait() {
        for sys in all_systems() {
            let m = sys.run(quick_spec(), ProbeConfig::disabled());
            assert!(
                m.completed > 100,
                "{} completed {}",
                sys.name(),
                m.completed
            );
            assert!(
                m.stages.is_none(),
                "{}: disabled probe attaches nothing",
                sys.name()
            );
        }
    }

    #[test]
    fn every_assembly_reports_stages_when_probed() {
        for sys in all_systems() {
            let m = sys.run(quick_spec(), ProbeConfig::enabled());
            let stages = m
                .stages
                .unwrap_or_else(|| panic!("{}: probed run must report stages", sys.name()));
            assert!(!stages.hops.is_empty(), "{}: no hops recorded", sys.name());
            assert!(
                !stages.stages.is_empty(),
                "{}: no stages recorded",
                sys.name()
            );
            assert!(
                stages.counter("client.sent") > 0 && stages.counter("client.responses") > 0,
                "{}: client counters missing",
                sys.name()
            );
            assert!(
                stages.chain_hops().count() > 0,
                "{}: request path hops missing",
                sys.name()
            );
        }
    }

    #[test]
    fn default_resilience_is_bit_identical_to_plain_run() {
        for sys in all_systems() {
            let plain = sys.run(quick_spec(), ProbeConfig::disabled());
            let res = sys.run_resilient(
                quick_spec(),
                ProbeConfig::disabled(),
                ResilienceConfig::default(),
            );
            assert_eq!(plain, res, "{}: inert faults perturbed the run", sys.name());
        }
    }

    #[test]
    fn every_assembly_closes_the_ledger_under_loss_and_crash() {
        use sim_core::SimTime;
        // Satellite: drop-accounting reconciliation across ALL assemblies —
        // 1% loss plus a mid-run worker crash, and every launched request
        // must still be accounted for.
        let res = ResilienceConfig::loss_and_crash(1, SimTime::ZERO + SimDuration::from_millis(3));
        for sys in all_systems() {
            let m = sys.run_resilient(quick_spec(), ProbeConfig::disabled(), res);
            let f = &m.faults;
            assert_eq!(
                f.unaccounted(),
                0,
                "{}: request ledger leaks: {f:?}",
                sys.name()
            );
            assert!(
                f.in_pipe() < 1200,
                "{}: attempt residue beyond pipeline: {f:?}",
                sys.name()
            );
            assert!(m.completed > 50, "{}: goodput collapsed", sys.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_systems().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }

    #[test]
    fn free_functions_match_the_trait() {
        let spec = quick_spec();
        let cfg = OffloadConfig::paper(4, 4);
        let free = crate::offload::run_probed(spec, cfg, ProbeConfig::disabled());
        let trait_run = cfg.run(spec, ProbeConfig::disabled());
        assert_eq!(
            free, trait_run,
            "free function and trait must agree exactly"
        );
    }

    #[test]
    fn equivalent_spec_strings_run_identically() {
        // Distinct spellings of the same policy (defaults spelled out,
        // durations in different units) are different interned handles
        // but must drive bit-identical runs through the registry.
        let pairs = [
            ("srpt", "srpt:gain=8,boost=200,floor=1us"),
            ("edf:deadline=50us", "edf:deadline=50000ns"),
            (
                "class-priority:cutoff=10us",
                "class-priority:cutoff=10000ns",
            ),
        ];
        for (a_str, b_str) in pairs {
            let a_spec = PolicySpec::parse(a_str).expect("valid spec");
            let b_spec = PolicySpec::parse(b_str).expect("valid spec");
            let mut cfg = ShinjukuConfig::paper(4);
            cfg.policy = a_spec;
            let a = cfg.run(quick_spec(), ProbeConfig::disabled());
            cfg.policy = b_spec;
            let b = cfg.run(quick_spec(), ProbeConfig::disabled());
            assert_eq!(a, b, "{a_str} vs {b_str}: runs must match");
        }
        // The same spelling (modulo whitespace) interns to the same
        // `Copy` handle, so configs compare equal.
        assert_eq!(
            PolicySpec::parse("fcfs").unwrap(),
            PolicySpec::parse(" fcfs ").unwrap()
        );
    }
}
