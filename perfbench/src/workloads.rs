//! The benchmark's workloads. Each is one fixed [`WorkloadSpec`] on one
//! assembly, run through [`ServerSystem::run_resilient`]; the seed comes
//! from the command line. `README.md` gives the full reason for each.

use nicsched::{PolicySpec, RecoveryPolicy};
use sim_core::{ProbeConfig, SimDuration, SimTime};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::multi_shinjuku::MultiShinjukuConfig;
use systems::offload::OffloadConfig;
use systems::{ResilienceConfig, ServerSystem, SystemConfig};
use workload::{RunMetrics, ServiceDist, WorkloadSpec};

/// Seed whose digests are recorded in [`Workload::reference`]; every run
/// replays one rep at this seed and compares.
pub const REF_SEED: u64 = 1;

/// The dispatcher a workload's assembly runs, for the `nicsched` replay.
#[derive(Clone, Copy, Debug)]
pub struct DispatcherShape {
    /// Queue policy.
    pub policy: PolicySpec,
    /// Workers behind one dispatcher.
    pub workers: usize,
    /// Outstanding-requests cap per worker.
    pub cap: u32,
    /// Stage-report counter of requests the dispatcher enqueued.
    pub enqueue: &'static str,
    /// Stage-report counter of preempted requests it re-queued.
    pub requeue: &'static str,
    /// Stage-report counter of worker heartbeats it absorbed.
    pub heartbeat: &'static str,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The assembly.
    pub system: SystemConfig,
    /// Poisson offered load, requests per simulated second.
    pub rps: f64,
    /// Service-time distribution.
    pub dist: ServiceDist,
    /// Simulated warmup.
    pub warmup: SimDuration,
    /// Simulated measurement window.
    pub measure: SimDuration,
    /// Whether the workload runs with probes on.
    pub probed: bool,
    /// Whether the workload injects 1% loss plus a worker-1 crash
    /// mid-measure, with retries, staleness fallback and NIC recovery on.
    pub faults: bool,
    /// Stage-report counters whose sum is the frames the run built (each
    /// crossing is one `FrameSpec::build` + one `ParsedFrame::parse`).
    pub frame_counters: &'static [&'static str],
    /// Stage-report counters of frames parsed a second time after their
    /// crossing (a request the NIC parsed to steer and the host parses
    /// again).
    pub reparse_counters: &'static [&'static str],
    /// Stage-report counter of frames steered by an RSS hash (`None` when
    /// the NIC steers by MAC only).
    pub steer_counter: Option<&'static str>,
    /// RSS queues of the NIC's steering table.
    pub rss_queues: u32,
    /// The central dispatcher, if the assembly has one.
    pub dispatcher: Option<DispatcherShape>,
    /// Simulated digest ([`crate::check::digest`]) at [`REF_SEED`].
    pub reference: u64,
}

impl Workload {
    /// The workload's spec at `seed`.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: self.rps,
            dist: self.dist,
            body_len: 64,
            warmup: self.warmup,
            measure: self.measure,
            seed,
        }
    }

    /// The same spec over an empty horizon (zero warmup, zero measure):
    /// what building the system costs before its first event.
    pub fn empty_spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            warmup: SimDuration::ZERO,
            measure: SimDuration::ZERO,
            ..self.spec(seed)
        }
    }

    /// Fault, retry and recovery settings.
    pub fn resilience(&self) -> ResilienceConfig {
        if self.faults {
            let crash_at = SimTime::ZERO + self.warmup + self.measure / 2;
            ResilienceConfig::loss_and_crash(1, crash_at)
                .with_recovery(RecoveryPolicy::paper_default())
        } else {
            ResilienceConfig::default()
        }
    }

    /// The workload's own probe setting.
    pub fn probe(&self) -> ProbeConfig {
        if self.probed {
            ProbeConfig::enabled()
        } else {
            ProbeConfig::disabled()
        }
    }

    /// One rep: a single `run_resilient` call.
    pub fn run(&self, spec: WorkloadSpec, probe: ProbeConfig, res: ResilienceConfig) -> RunMetrics {
        self.system.run_resilient(spec, probe, res)
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        // The paper's headline system and its most expensive assembly: every
        // dispatch and completion crosses NIC<->host as a real frame, so
        // net-wire and the nicsched dispatcher (10 us preemption requeues) do
        // most of the layer work.
        Workload {
            name: "offload_bimodal",
            system: SystemConfig::Offload(OffloadConfig::paper(4, 4)),
            rps: 300_000.0,
            dist: ServiceDist::paper_bimodal(),
            warmup: SimDuration::from_millis(5),
            measure: SimDuration::from_millis(50),
            probed: false,
            faults: false,
            frame_counters: &["nic.rx_frames", "tx.built", "rx.notifs", "client.responses"],
            reparse_counters: &["networker.parsed"],
            steer_counter: None,
            rss_queues: 0,
            dispatcher: Some(DispatcherShape {
                policy: PolicySpec::FCFS,
                workers: 4,
                cap: 4,
                enqueue: "qm.enqueue",
                requeue: "qm.preempt_requeue",
                heartbeat: "qm.heartbeat",
            }),
            reference: 0x7eb2bacf37ca14ba,
        },
        // The lean path: no nicsched, one frame each way, the most requests
        // per wall second. A dispatcher-only change must predict no change.
        Workload {
            name: "rss_fixed",
            system: SystemConfig::Baseline(BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            }),
            rps: 600_000.0,
            dist: ServiceDist::Fixed(SimDuration::from_micros(5)),
            warmup: SimDuration::from_millis(5),
            measure: SimDuration::from_millis(50),
            probed: false,
            faults: false,
            frame_counters: &["nic.rx_frames", "client.responses"],
            reparse_counters: &["worker.completed"],
            steer_counter: Some("nic.rx_frames"),
            rss_queues: 4,
            dispatcher: None,
            reference: 0x1d080425206ea8d5,
        },
        // The same layers exercised differently: the probe hot path, client
        // retries and staleness fallback, and 5 us heartbeats that outnumber
        // requests. Catches a clean-path gain that costs the instrumented or
        // resilient path.
        Workload {
            name: "multi_faults_probed",
            system: SystemConfig::MultiShinjuku(MultiShinjukuConfig::split(10, 2)),
            rps: 400_000.0,
            dist: ServiceDist::paper_bimodal(),
            warmup: SimDuration::from_millis(5),
            measure: SimDuration::from_millis(20),
            probed: true,
            faults: true,
            frame_counters: &["nic.rx_frames", "client.responses"],
            reparse_counters: &["networker.parsed"],
            steer_counter: Some("nic.rx_frames"),
            rss_queues: 2,
            dispatcher: Some(DispatcherShape {
                policy: PolicySpec::FCFS,
                workers: 4,
                cap: 1,
                enqueue: "disp.enqueue",
                requeue: "disp.preempt_requeue",
                heartbeat: "disp.heartbeat",
            }),
            reference: 0xea66dd91ea17de55,
        },
    ]
}
