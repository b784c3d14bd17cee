//! Run-to-completion baselines: the systems §2.1 surveys and §2.2 indicts.
//!
//! * **RSS / IX-style d-FCFS** — the NIC's Toeplitz hash spreads flows
//!   across per-core queues; each worker runs its queue to completion. No
//!   centralized view, no preemption: load imbalance and head-of-line
//!   blocking are structural.
//! * **ZygOS-style work stealing** — same steering, but an idle worker
//!   steals from the longest peer queue, paying a cross-core
//!   synchronization cost per steal.
//! * **MICA-style Flow Director** — exact-match rules pin each flow
//!   (client source port, standing in for MICA's key partition) to a
//!   specific core: EREW partitioning, still blind to load.
//!
//! All three share one assembly, differing only in NIC steering and the
//! stealing option — which is exactly the paper's framing: they delegate
//! scheduling to steering hardware and give up load awareness.

use bytes::Bytes;
use cpu_model::{ContextCosts, ContextPool, Core, CoreId, CoreSpec};
use net_wire::{MsgKind, MsgRepr, ParsedFrame};
use nic_model::{FlowDirector, FlowKey, IfaceId, NicDevice, QueueSteering, Rss};
use nicsched::params;
use sim_core::{Ctx, Model, ProbeConfig, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    mean_utilization, run, start_check, stretched, AddressPlan, Assembly, ClientEv, FrontEnd,
    FrontKeys, ResilienceConfig,
};

// Every probe name this assembly records, registered once per run.
sim_core::probe_keys! {
    mod key {
        CLIENT_NACKS = "client.nacks",
        CLIENT_RESPONSES = "client.responses",
        CLIENT_RETRIES = "client.retries",
        CLIENT_SENT = "client.sent",
        NIC_RX_FRAMES = "nic.rx_frames",
        PATH_0_CLIENT_SEND = "path.0_client_send",
        PATH_1_WORKER_START = "path.1_worker_start",
        PATH_2_WORKER_DONE = "path.2_worker_done",
        PATH_3_RESPONSE = "path.3_response",
        WIRE_REQ_LOST = "wire.req_lost",
        WIRE_RESP_LOST = "wire.resp_lost",
        WORKER = "worker",
        WORKER_COMPLETED = "worker.completed",
        WORKER_IDLE_GAP = "worker.idle_gap",
        WORKER_RING = "worker.ring",
        WORKER_STEALS = "worker.steals",
        WORKER_STRANDED = "worker.stranded",
    }
}

/// The client front end's keys in this assembly's probe-name table.
const FRONT_KEYS: FrontKeys = FrontKeys::new(key::NAMES, key::PATH_3_RESPONSE);

/// Elastic-RSS controller period: "provisions cores for applications on
/// the us scale" (§5.1(1)).
const ERSS_INTERVAL: SimDuration = SimDuration::from_micros(20);

/// Which baseline to assemble.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineKind {
    /// RSS steering, run-to-completion (IX-style d-FCFS).
    Rss,
    /// RSS steering plus ZygOS-style work stealing.
    RssStealing,
    /// Flow-Director exact-match steering (MICA-style EREW).
    FlowDirector,
    /// Elastic RSS (Rucker et al., APNet '19 — cited in §5.1(1)): RSS
    /// whose indirection table is rewritten at microsecond scale by a
    /// controller watching core utilization, provisioning just enough
    /// cores for the offered load.
    ElasticRss,
}

/// Configuration of a run-to-completion baseline.
#[derive(Clone, Copy, Debug)]
pub struct BaselineConfig {
    /// Worker cores, one RX queue each.
    pub workers: usize,
    /// Baseline flavour.
    pub kind: BaselineKind,
}

pub(crate) enum Ev {
    /// The client and its wires; a request frame reaches the NIC.
    Client(ClientEv),
    WorkerPoll(usize),
    WorkerRunEnd(usize),
    /// Elastic-RSS controller tick: re-provision the active core set.
    ErssTick,
}

struct Worker {
    core: Core,
    busy: bool,
    /// When the worker last went idle (for feedback-gap measurement).
    idle_since: Option<SimTime>,
}

pub(crate) struct Baseline {
    cfg: BaselineConfig,
    front: FrontEnd<Ev>,
    nic: NicDevice,
    iface: IfaceId,
    workers: Vec<Worker>,
    ctx_pool: ContextPool,
    ctx_costs: ContextCosts,
    host: CoreSpec,
    /// The message each busy worker is executing.
    pending: Vec<Option<MsgRepr>>,
    /// Elastic RSS: currently provisioned cores (prefix of the worker set).
    active: usize,
    /// Elastic RSS: busy time per worker at the last controller tick.
    last_busy: Vec<SimDuration>,
    /// Elastic RSS: time-weighted active-core count.
    active_tw: sim_core::stats::TimeWeighted,
    /// Work that died with a crashed worker (running or steered to it).
    stranded: u64,
}

impl Baseline {
    /// Elastic-RSS controller (§5.1(1)): observe utilization of the active
    /// cores over the last window and grow/shrink the provisioned set,
    /// then rewrite the indirection table — the operation a programmable
    /// NIC performs in hardware.
    fn erss_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        let window = ERSS_INTERVAL.as_secs_f64();
        let mut busy = 0.0;
        for (w, last) in self.last_busy.iter_mut().enumerate() {
            let total = self.workers[w].core.busy_time(now);
            busy += (total - *last).as_secs_f64();
            *last = total;
        }
        let util = busy / (window * self.active as f64);
        if util > 0.70 && self.active < self.cfg.workers {
            self.active += 1;
        } else if util < 0.35 && self.active > 1 {
            self.active -= 1;
        }
        self.active_tw.set(now, self.active as f64);
        let table: Vec<u32> = (0..128).map(|i| i % self.active as u32).collect();
        if let QueueSteering::Rss(rss) = &mut self.nic.iface_mut(self.iface).steering {
            rss.set_table(table);
        }
        if now < self.front.horizon {
            ctx.schedule_in(ERSS_INTERVAL, Ev::ErssTick);
        }
    }

    /// Pop work for worker `w`: own queue first, then (if stealing) the
    /// longest peer queue. Returns the frame and the steal overhead.
    fn take_work(&mut self, w: usize) -> Option<(Bytes, SimDuration)> {
        let iface = self.nic.iface_mut(self.iface);
        if let Some(frame) = iface.rx[w].pop() {
            return Some((frame.data, SimDuration::ZERO));
        }
        if self.cfg.kind != BaselineKind::RssStealing {
            return None;
        }
        // Steal from the longest peer queue.
        let victim = (0..iface.rx.len())
            .filter(|&q| q != w && !iface.rx[q].is_empty())
            .max_by_key(|&q| iface.rx[q].len())?;
        let frame = iface.rx[victim].pop()?;
        Some((frame.data, params::WORK_STEAL_COST))
    }

    fn worker_poll(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        if self.workers[w].busy || start_check(ctx, w, Ev::WorkerPoll(w)).is_some() {
            return;
        }
        let Some((data, steal_cost)) = self.take_work(w) else {
            self.workers[w].core.set_idle(ctx.now());
            ctx.probe().busy_i(key::WORKER, w, false);
            self.workers[w].idle_since.get_or_insert(ctx.now());
            return;
        };
        if steal_cost > SimDuration::ZERO {
            ctx.probe().count(key::WORKER_STEALS);
        }
        let Ok(parsed) = ParsedFrame::parse(&data) else {
            ctx.schedule_now(Ev::WorkerPoll(w));
            return;
        };
        if parsed.msg.kind != MsgKind::Request {
            ctx.schedule_now(Ev::WorkerPoll(w));
            return;
        }
        let msg = parsed.msg;
        if let Some(idle_at) = self.workers[w].idle_since.take() {
            let gap = ctx.now().saturating_duration_since(idle_at);
            ctx.probe().hop(key::WORKER_IDLE_GAP, gap);
        }
        ctx.probe().mark(msg.req_id, key::PATH_1_WORKER_START);
        ctx.probe().busy_i(key::WORKER, w, true);
        // Run-to-completion: the worker is its own networking subsystem.
        let overhead = steal_cost
            + params::HOST_NET_PER_PACKET
            + ContextPool::op_cost(self.ctx_pool.begin(msg.req_id), &self.ctx_costs, &self.host);
        let service = SimDuration::from_nanos(msg.service_ns);
        // A slowdown window stretches wall time for this execution.
        let wall = stretched(ctx, w, overhead + service);
        let worker = &mut self.workers[w];
        worker.busy = true;
        worker.core.set_busy(ctx.now());
        // Stash the response identity in the event via a rebuilt frame at
        // completion time; carry the parsed message through worker state
        // instead of re-parsing.
        self.pending[w] = Some(msg);
        ctx.schedule_in(wall, Ev::WorkerRunEnd(w));
    }

    fn finish(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        let msg = self.pending[w].take().expect("worker had work");
        let now = ctx.now();
        if ctx.faults().worker_crashed(w, now) {
            // Died mid-request: no response ever leaves this core.
            self.ctx_pool.discard(msg.req_id);
            self.stranded += 1;
            ctx.probe().count(key::WORKER_STRANDED);
            return;
        }
        ctx.probe().count(key::WORKER_COMPLETED);
        ctx.probe().mark(msg.req_id, key::PATH_2_WORKER_DONE);
        let resp = AddressPlan::to_client(
            AddressPlan::dispatcher_mac(),
            AddressPlan::worker_ep(w),
            msg.response(),
        );
        let built = ctx.now() + params::WORKER_TX_COST;
        let depart = built + self.nic.dma_latency;
        self.front.send_response(&resp, depart, ctx);
        self.ctx_pool.discard(msg.req_id);
        self.workers[w].busy = false;
        ctx.schedule_at(built, Ev::WorkerPoll(w));
    }
}

impl Model for Baseline {
    type Event = Ev;

    fn check_invariants(&self, now: SimTime, inv: &mut sim_core::InvariantChecker) {
        self.nic.check_invariants(now, inv);
        self.front.client.check_invariants(now, inv);
    }

    fn handle(&mut self, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        match event {
            Ev::Client(ev) => {
                let Some((bytes, parsed)) = self.front.handle(ev, ctx) else {
                    return;
                };
                if let Some(d) = self.nic.steer(&parsed) {
                    ctx.probe().count(key::NIC_RX_FRAMES);
                    let now = ctx.now();
                    if self.cfg.kind != BaselineKind::RssStealing
                        && ctx.faults().worker_crashed(d.queue, now)
                    {
                        // Hash-steered to a dead core with nobody to steal
                        // it: the request is stranded in silicon.
                        self.stranded += 1;
                        ctx.probe().count(key::WORKER_STRANDED);
                        return;
                    }
                    self.nic.iface_mut(d.iface).rx[d.queue].push(ctx.now(), bytes);
                    let depth = self.nic.iface(d.iface).rx[d.queue].len();
                    ctx.probe().depth_i(key::WORKER_RING, d.queue, depth);
                    if !self.workers[d.queue].busy {
                        ctx.schedule_now(Ev::WorkerPoll(d.queue));
                    } else if self.cfg.kind == BaselineKind::RssStealing {
                        // Any idle worker may steal the new arrival.
                        if let Some(idle) = (0..self.workers.len()).find(|&i| !self.workers[i].busy)
                        {
                            ctx.schedule_now(Ev::WorkerPoll(idle));
                        }
                    }
                }
            }
            Ev::WorkerPoll(w) => self.worker_poll(w, ctx),
            Ev::WorkerRunEnd(w) => self.finish(w, ctx),
            Ev::ErssTick => self.erss_tick(ctx),
        }
    }
}

// Baselines have no central dispatcher: admission and staleness-fallback
// settings in `res` are ignored (their per-worker rings already tail-drop,
// and hash steering is the fallback the governor would degrade *to*).
// NIC-side recovery (`res.recovery`) is likewise a no-op: with no
// dispatcher there is no lease table to expire and no central queue to
// re-dispatch from, so orphaned requests are recovered only by client
// retries, which is exactly the contrast the `recovery` experiment
// measures.
// simlint: allow(hook-conformance, reason=baselines have no dispatcher, so there is no lease table or detector to wire; recovery here is a documented no-op)
impl Assembly for Baseline {
    type Config = BaselineConfig;
    const PROBE_NAMES: &'static [&'static str] = key::NAMES;

    fn build(spec: WorkloadSpec, cfg: &BaselineConfig, res: ResilienceConfig) -> Baseline {
        let cfg = *cfg;
        let front = FrontEnd::new(spec, &res, None, FRONT_KEYS, Ev::Client);

        let steering = match cfg.kind {
            BaselineKind::Rss | BaselineKind::RssStealing | BaselineKind::ElasticRss => {
                QueueSteering::Rss(Rss::new(cfg.workers as u32))
            }
            BaselineKind::FlowDirector => {
                // Pin each client source port to a core: port p -> core
                // p % workers — MICA's key-partition steering.
                let mut table = FlowDirector::new(2048);
                for p in 0..1024u16 {
                    let mut src = AddressPlan::client_ep();
                    src.port = 7000 + p;
                    let key = FlowKey {
                        src,
                        dst: AddressPlan::dispatcher_ep(),
                    };
                    table.install(key, u32::from(p) % cfg.workers as u32);
                }
                QueueSteering::FlowDirector {
                    table,
                    fallback: Rss::new(cfg.workers as u32),
                }
            }
        };

        let mut nic = NicDevice::new(params::PCIE_DMA);
        let iface = nic.add_iface(AddressPlan::dispatcher_mac(), cfg.workers, 1024, steering);

        let t0 = SimTime::ZERO;
        let workers = (0..cfg.workers)
            .map(|w| Worker {
                core: Core::new(CoreId(w as u32), CoreSpec::host_x86(), t0),
                busy: false,
                idle_since: Some(t0),
            })
            .collect();

        Baseline {
            cfg,
            front,
            nic,
            iface,
            workers,
            ctx_pool: ContextPool::new(),
            ctx_costs: ContextCosts::default(),
            host: CoreSpec::host_x86(),
            pending: vec![None; cfg.workers],
            active: cfg.workers,
            last_busy: vec![SimDuration::ZERO; cfg.workers],
            active_tw: sim_core::stats::TimeWeighted::new(t0, cfg.workers as f64),
            stranded: 0,
        }
    }

    fn front(&self) -> &FrontEnd<Ev> {
        &self.front
    }

    fn startup(&self) -> Vec<(SimTime, Ev)> {
        match self.cfg.kind {
            BaselineKind::ElasticRss => vec![(SimTime::ZERO + ERSS_INTERVAL, Ev::ErssTick)],
            _ => Vec::new(),
        }
    }

    fn ledger(&self, horizon: SimTime, m: &mut RunMetrics) {
        m.worker_utilization = mean_utilization(self.workers.iter().map(|w| &w.core), horizon);
        m.faults.ring_dropped = self.nic.total_drops();
        m.faults.stranded = self.stranded;
    }
}

/// Run a baseline without faults or probes, also returning the
/// time-weighted mean number of provisioned cores (equal to `cfg.workers`
/// for the static kinds).
pub fn run_with_elastic(spec: WorkloadSpec, cfg: BaselineConfig) -> (RunMetrics, f64) {
    let (metrics, model) = run::<Baseline>(
        spec,
        &cfg,
        ProbeConfig::disabled(),
        ResilienceConfig::default(),
    );
    let active = match cfg.kind {
        BaselineKind::ElasticRss => model.active_tw.mean_until(spec.horizon()).max(1.0),
        _ => cfg.workers as f64,
    };
    (metrics, active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ServerSystem;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: BaselineConfig) -> RunMetrics {
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
    fn rss_light_load_is_fast_and_complete() {
        let spec = quick_spec(100_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            },
        );
        assert!(!m.saturated(0.05), "{}", m.row());
        // Run-to-completion has the fewest hops of any system: unloaded
        // latency should be small (single digit us + wire).
        assert!(m.p50 < SimDuration::from_micros(15), "p50 {}", m.p50);
    }

    #[test]
    fn rss_suffers_under_dispersion() {
        // The §2.2 story: without preemption, short requests get stuck
        // behind 100us requests; the p99 explodes relative to centralized
        // preemptive scheduling at the same load.
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        let rss = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            },
        );
        let shinjuku = crate::shinjuku::ShinjukuConfig::paper(4).run(spec, ProbeConfig::disabled());
        assert!(
            rss.p99 > shinjuku.p99 * 2,
            "rss p99 {} should dwarf shinjuku p99 {}",
            rss.p99,
            shinjuku.p99
        );
    }

    #[test]
    fn stealing_helps_imbalance() {
        let spec = quick_spec(500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let rss = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            },
        );
        let zygos = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::RssStealing,
            },
        );
        assert!(
            zygos.p99 <= rss.p99,
            "stealing should not hurt the tail: zygos {} vs rss {}",
            zygos.p99,
            rss.p99
        );
    }

    #[test]
    fn flow_director_pins_flows() {
        let spec = quick_spec(200_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::FlowDirector,
            },
        );
        assert!(m.completed > 1000);
        assert!(!m.saturated(0.05), "{}", m.row());
    }

    #[test]
    fn overload_saturates_and_drops() {
        let spec = quick_spec(1_500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            },
        );
        assert!(m.saturated(0.05), "{}", m.row());
        assert!(m.dropped > 0, "rings must overflow under overload");
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        for kind in [
            BaselineKind::Rss,
            BaselineKind::RssStealing,
            BaselineKind::FlowDirector,
        ] {
            let a = run(spec, BaselineConfig { workers: 3, kind });
            let b = run(spec, BaselineConfig { workers: 3, kind });
            assert_eq!(a.completed, b.completed, "{kind:?}");
            assert_eq!(a.p99, b.p99, "{kind:?}");
        }
    }
}

#[cfg(test)]
mod erss_tests {
    use super::*;
    use crate::api::ServerSystem;
    use workload::ServiceDist;

    fn quick_spec(rps: f64) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: rps,
            dist: ServiceDist::Fixed(SimDuration::from_micros(5)),
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(20),
            seed: 42,
        }
    }

    #[test]
    fn elastic_rss_provisions_fewer_cores_at_light_load() {
        let (light, active_light) = run_with_elastic(
            quick_spec(50_000.0),
            BaselineConfig {
                workers: 8,
                kind: BaselineKind::ElasticRss,
            },
        );
        let (_, active_heavy) = run_with_elastic(
            quick_spec(1_200_000.0),
            BaselineConfig {
                workers: 8,
                kind: BaselineKind::ElasticRss,
            },
        );
        assert!(!light.saturated(0.05), "{}", light.row());
        assert!(
            active_light < active_heavy,
            "provisioned cores must track load: {active_light:.1} vs {active_heavy:.1}"
        );
        assert!(
            active_light < 5.0,
            "50k x 5us needs ~1 core, got {active_light:.1}"
        );
        assert!(
            active_heavy > 6.0,
            "1.2M x 5us needs ~6+ cores, got {active_heavy:.1}"
        );
    }

    #[test]
    fn elastic_rss_still_serves_the_load() {
        let (m, _) = run_with_elastic(
            quick_spec(400_000.0),
            BaselineConfig {
                workers: 8,
                kind: BaselineKind::ElasticRss,
            },
        );
        assert!(!m.saturated(0.05), "{}", m.row());
        // Tail stays bounded: elasticity must not orphan queued work.
        assert!(m.p99 < SimDuration::from_millis(1), "p99 {}", m.p99);
    }

    #[test]
    fn static_kinds_report_full_provisioning() {
        let (_, active) = run_with_elastic(
            quick_spec(100_000.0),
            BaselineConfig {
                workers: 6,
                kind: BaselineKind::Rss,
            },
        );
        assert_eq!(active, 6.0);
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        let spec = quick_spec(300_000.0);
        let res = ResilienceConfig::loss_and_crash(1, SimTime::ZERO + SimDuration::from_millis(10));
        let run = |kind| {
            BaselineConfig { workers: 4, kind }.run_resilient(spec, ProbeConfig::disabled(), res)
        };
        for kind in [BaselineKind::Rss, BaselineKind::RssStealing] {
            let m = run(kind);
            let f = &m.faults;
            assert_eq!(f.unaccounted(), 0, "{kind:?}: request ledger leaks: {f:?}");
            assert!(
                f.in_pipe() < 1200,
                "{kind:?}: attempt residue beyond ring depth: {f:?}"
            );
            assert!(f.retries > 0, "{kind:?}: loss never triggered a retry");
            assert!(
                m.completed > 1_000,
                "{kind:?}: goodput collapsed: {}",
                m.row()
            );
        }
        // Without stealing, frames hashed to the dead core strand; with
        // stealing, peers rescue them.
        let rss = run(BaselineKind::Rss);
        let stealing = run(BaselineKind::RssStealing);
        assert!(rss.faults.stranded > 0, "no stranding at a dead core");
        assert!(
            stealing.faults.stranded < rss.faults.stranded,
            "stealing should rescue stranded work: {} vs {}",
            stealing.faults.stranded,
            rss.faults.stranded
        );
        // Determinism under faults.
        let a = run(BaselineKind::Rss);
        let b = run(BaselineKind::Rss);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.p99, b.p99);
    }

    #[test]
    fn elastic_rss_is_deterministic() {
        let cfg = BaselineConfig {
            workers: 8,
            kind: BaselineKind::ElasticRss,
        };
        let (a, aa) = run_with_elastic(quick_spec(300_000.0), cfg);
        let (b, bb) = run_with_elastic(quick_spec(300_000.0), cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
        assert_eq!(aa, bb);
    }
}
