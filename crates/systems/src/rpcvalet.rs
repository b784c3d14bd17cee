//! RPCValet-style NI-integrated scheduling (Daglis et al., ASPLOS '19 —
//! §2.1/§2.2 of the paper).
//!
//! RPCValet integrates a network interface *on each core* and maintains a
//! centralized task queue in hardware: "Due to this integration, the
//! system has fine-grained knowledge of the load on each core" (§2.1), so
//! it balances perfectly with nanosecond-scale dispatch and none of the
//! software dispatcher's throughput cap. What it lacks — the paper's
//! critique (§2.2(2)) — is preemption and configurability: a long request
//! still blocks its core.
//!
//! Model: requests arrive at a hardware global queue (dispatch cost a few
//! nanoseconds, NI-to-core delivery tens of nanoseconds, single request in
//! flight per core — RPCValet's design point), run to completion, respond
//! directly. The same [`nicsched::Dispatcher`] provides the queue
//! semantics, configured with cap 1; the "hardware" is a compute model
//! with near-zero stage costs.

use cpu_model::{ContextCosts, ContextPool, Core, CoreId, CoreSpec};
use net_wire::MsgKind;
use nicsched::{params, Dispatcher, Fcfs, LeastOutstanding, Task};
use sim_core::{Ctx, Model, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    dispatcher_ledger, mean_utilization, msg_task, start_check, stretched, task_msg, AddressPlan,
    Assembly, ClientEv, FrontEnd, FrontKeys, Halt, ResilienceConfig,
};

// Every probe name this assembly records, registered once per run.
sim_core::probe_keys! {
    mod key {
        CLIENT_NACKS = "client.nacks",
        CLIENT_RESPONSES = "client.responses",
        CLIENT_RETRIES = "client.retries",
        CLIENT_SENT = "client.sent",
        NI_QUEUE = "ni.queue",
        NI_REQUESTS = "ni.requests",
        PATH_0_CLIENT_SEND = "path.0_client_send",
        PATH_1_NI_DISPATCH = "path.1_ni_dispatch",
        PATH_2_WORKER_START = "path.2_worker_start",
        PATH_3_WORKER_DONE = "path.3_worker_done",
        PATH_4_RESPONSE = "path.4_response",
        RECOVERY_REDISPATCH = "recovery.redispatch",
        WIRE_REQ_LOST = "wire.req_lost",
        WIRE_RESP_LOST = "wire.resp_lost",
        WORKER = "worker",
        WORKER_COMPLETED = "worker.completed",
        WORKER_IDLE_GAP = "worker.idle_gap",
        WORKER_STRANDED = "worker.stranded",
        WORKER_ZOMBIE_DROPPED = "worker.zombie_dropped",
    }
}

/// The client front end's keys in this assembly's probe-name table.
const FRONT_KEYS: FrontKeys = FrontKeys::new(key::NAMES, key::PATH_4_RESPONSE);

/// Configuration of an RPCValet-style system.
#[derive(Debug, Clone, Copy)]
pub struct RpcValetConfig {
    /// Worker cores, each with an integrated NI.
    pub workers: usize,
}

/// Hardware dispatch decision cost: the NI's queue pop plus arbitration —
/// a couple of pipeline stages, not a CPU core (§2.1: the global queue is
/// implemented in hardware).
const HW_DISPATCH: SimDuration = SimDuration::from_nanos(8);

/// NI-to-core delivery: the payoff of integrating the NI with the core —
/// no PCIe crossing ("putting the NIC 'close' to the cores", §2.1).
const NI_TO_CORE: SimDuration = SimDuration::from_nanos(40);

pub(crate) enum Ev {
    /// The client and its wires; a request frame arrives at the
    /// integrated NI fabric.
    Client(ClientEv),
    /// The hardware queue issues a task to a core.
    Deliver(usize, Task),
    WorkerRunEnd(usize),
    /// The integrated NI's periodic failure-detector sweep (recovery
    /// only). Lease renewal is hardware-observed core liveness — no
    /// heartbeat frames cross a wire in this design.
    HealthTick,
}

struct Worker {
    core: Core,
    running: Option<Task>,
    /// When the worker last went idle (for feedback-gap measurement).
    idle_since: Option<SimTime>,
}

pub(crate) struct RpcValet {
    front: FrontEnd<Ev>,
    dispatcher: Dispatcher<Fcfs, LeastOutstanding>,
    workers: Vec<Worker>,
    ctx_pool: ContextPool,
    ctx_costs: ContextCosts,
    host: CoreSpec,
    /// Work that died with a crashed worker (running or delivered to it).
    stranded: u64,
}

impl RpcValet {
    fn emit(&mut self, assignments: Vec<nicsched::Assignment>, ctx: &mut Ctx<'_, Ev>) {
        for a in assignments {
            ctx.schedule_in(HW_DISPATCH + NI_TO_CORE, Ev::Deliver(a.worker, a.task));
        }
    }
}

impl Model for RpcValet {
    type Event = Ev;

    fn check_invariants(&self, now: SimTime, inv: &mut sim_core::InvariantChecker) {
        self.front.client.check_invariants(now, inv);
        // Cap-1 hardware dispatch: a worker running a task must not also
        // be marked idle, or the idle-gap accounting double-books time.
        for (w, worker) in self.workers.iter().enumerate() {
            if worker.running.is_some() && worker.idle_since.is_some() {
                inv.record(
                    now,
                    "worker-state",
                    format!("worker {w} runs a task but is still marked idle"),
                );
            }
        }
    }

    fn handle(&mut self, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        match event {
            Ev::Client(ev) => {
                let Some((_, parsed)) = self.front.handle(ev, ctx) else {
                    return;
                };
                if parsed.msg.kind != MsgKind::Request {
                    return;
                }
                let m = parsed.msg;
                ctx.probe().count(key::NI_REQUESTS);
                ctx.probe().mark(m.req_id, key::PATH_1_NI_DISPATCH);
                let task = msg_task(&m, ctx.now());
                let assignments = self.dispatcher.on_request(ctx.now(), task);
                let depth = self.dispatcher.queue_len();
                ctx.probe().depth(key::NI_QUEUE, depth);
                self.emit(assignments, ctx);
            }
            Ev::Deliver(w, task) => {
                if self.dispatcher.absorb_stale_delivery(w, task.req_id) {
                    // The lease on this copy was reclaimed while it sat in
                    // the NI fabric (e.g. across a stall): the queue already
                    // re-dispatched the request, so the hardware drops the
                    // zombie instead of double-running it.
                    self.ctx_pool.discard(task.req_id);
                    ctx.probe().count(key::WORKER_ZOMBIE_DROPPED);
                    return;
                }
                match start_check(ctx, w, Ev::Deliver(w, task)) {
                    None => {}
                    Some(Halt::Stalled) => return,
                    Some(Halt::Crashed) => {
                        // Delivered into a dead core. The hardware queue
                        // never sees a completion, so its cap-1 slot stays
                        // occupied and no further work lands here.
                        self.ctx_pool.discard(task.req_id);
                        self.stranded += 1;
                        ctx.probe().count(key::WORKER_STRANDED);
                        return;
                    }
                }
                debug_assert!(self.workers[w].running.is_none(), "cap-1 violated");
                if let Some(idle_at) = self.workers[w].idle_since.take() {
                    let gap = ctx.now().saturating_duration_since(idle_at);
                    ctx.probe().hop(key::WORKER_IDLE_GAP, gap);
                }
                ctx.probe().mark(task.req_id, key::PATH_2_WORKER_START);
                ctx.probe().busy_i(key::WORKER, w, true);
                let op = self.ctx_pool.begin(task.req_id);
                let overhead = ContextPool::op_cost(op, &self.ctx_costs, &self.host);
                let wall = stretched(ctx, w, overhead + task.remaining);
                let worker = &mut self.workers[w];
                worker.core.set_busy(ctx.now());
                worker.running = Some(task);
                ctx.schedule_in(wall, Ev::WorkerRunEnd(w));
            }
            Ev::WorkerRunEnd(w) => {
                let task = self.workers[w].running.take().expect("running");
                let now = ctx.now();
                if ctx.faults().worker_crashed(w, now) {
                    // Died mid-request: no response, no completion signal.
                    self.ctx_pool.discard(task.req_id);
                    self.stranded += 1;
                    ctx.probe().count(key::WORKER_STRANDED);
                    return;
                }
                ctx.probe().count(key::WORKER_COMPLETED);
                ctx.probe().mark(task.req_id, key::PATH_3_WORKER_DONE);
                ctx.probe().busy_i(key::WORKER, w, false);
                self.workers[w].idle_since = Some(now);
                let resp_built = now + params::WORKER_TX_COST;
                let resp = AddressPlan::to_client(
                    AddressPlan::dispatcher_mac(),
                    AddressPlan::worker_ep(w),
                    task_msg(MsgKind::Response, &task, 0, task.body_len),
                );
                // Integrated NI: the response departs without a PCIe hop.
                self.front.send_response(&resp, resp_built, ctx);
                self.ctx_pool.discard(task.req_id);
                self.workers[w].core.set_idle(resp_built);
                // The hardware queue reacts to the completion within the
                // NI fabric's delivery delay — the "fine-grained knowledge
                // of the load on each core" of §2.1.
                let assignments = self.dispatcher.on_done(now, w, task.req_id);
                self.emit(assignments, ctx);
            }
            Ev::HealthTick => {
                let now = ctx.now();
                if now >= self.front.horizon {
                    return;
                }
                let Some(policy) = self.dispatcher.health().map(|h| h.policy()) else {
                    return;
                };
                // The integrated NI reads core liveness directly off the
                // fabric: every core that is not crashed or stalled renews
                // its lease for free. Detection then falls entirely on the
                // cores the hardware cannot see making progress.
                let mut assignments = Vec::new();
                for w in 0..self.workers.len() {
                    if !ctx.faults().worker_down(w, now) {
                        assignments.extend(self.dispatcher.on_heartbeat(now, w));
                    }
                }
                let recovered = self.dispatcher.check_health(now);
                if !recovered.is_empty() {
                    ctx.probe().count(key::RECOVERY_REDISPATCH);
                }
                assignments.extend(recovered);
                self.emit(assignments, ctx);
                ctx.schedule_in(policy.heartbeat, Ev::HealthTick);
            }
        }
    }
}

// The integrated NI has per-nanosecond load knowledge, so the
// staleness-fallback settings in `res` are ignored (there is no stale
// feedback to degrade on), as is the admission policy (the hardware global
// queue is lossless).
impl Assembly for RpcValet {
    type Config = RpcValetConfig;
    const PROBE_NAMES: &'static [&'static str] = key::NAMES;

    fn build(spec: WorkloadSpec, cfg: &RpcValetConfig, res: ResilienceConfig) -> RpcValet {
        let front = FrontEnd::new(spec, &res, None, FRONT_KEYS, Ev::Client);
        let t0 = SimTime::ZERO;
        // One request in flight per core: RPCValet's N=1 design point,
        // which its paper shows is optimal for its hardware queue.
        let mut dispatcher = Dispatcher::new(cfg.workers, 1, Fcfs::new(), LeastOutstanding);
        if let Some(policy) = res.recovery {
            dispatcher.enable_recovery(policy);
        }
        RpcValet {
            dispatcher,
            front,
            workers: (0..cfg.workers)
                .map(|w| Worker {
                    core: Core::new(CoreId(w as u32), CoreSpec::host_x86(), t0),
                    running: None,
                    idle_since: Some(t0),
                })
                .collect(),
            ctx_pool: ContextPool::new(),
            ctx_costs: ContextCosts::default(),
            host: CoreSpec::host_x86(),
            stranded: 0,
        }
    }

    fn front(&self) -> &FrontEnd<Ev> {
        &self.front
    }

    fn startup(&self) -> Vec<(SimTime, Ev)> {
        match self.dispatcher.health() {
            Some(_) => vec![(SimTime::ZERO, Ev::HealthTick)],
            None => Vec::new(),
        }
    }

    fn ledger(&self, horizon: SimTime, m: &mut RunMetrics) {
        m.worker_utilization = mean_utilization(self.workers.iter().map(|w| &w.core), horizon);
        m.faults.stranded = self.stranded;
        dispatcher_ledger(&self.dispatcher, &mut m.faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ServerSystem;
    use sim_core::ProbeConfig;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: RpcValetConfig) -> RunMetrics {
        cfg.run(spec, ProbeConfig::disabled())
    }

    fn quick_spec(rps: f64, dist: ServiceDist) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: rps,
            dist,
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(15),
            seed: 42,
        }
    }

    #[test]
    fn hardware_queue_scales_past_the_software_dispatcher() {
        // The §2.1 claim: no 5M/s dispatcher cap. 16 workers of 1us work
        // run to the wire's limit (a 64B-body request occupies 172 wire
        // bytes, so 10GbE carries at most ~7.27M of them per second),
        // beating host Shinjuku's dispatcher-capped throughput.
        let spec = quick_spec(7_000_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let valet = run(spec, RpcValetConfig { workers: 16 });
        let shinjuku = crate::shinjuku::ShinjukuConfig {
            workers: 16,
            time_slice: None,
            policy: nicsched::PolicySpec::FCFS,
        }
        .run(spec, ProbeConfig::disabled());
        assert!(
            valet.achieved_rps > shinjuku.achieved_rps * 1.4,
            "hardware queue {:.1}M vs software dispatcher {:.1}M",
            valet.achieved_rps / 1e6,
            shinjuku.achieved_rps / 1e6
        );
        assert!(
            valet.achieved_rps > 6_500_000.0,
            "{:.0}",
            valet.achieved_rps
        );
    }

    #[test]
    fn ultra_low_latency_on_homogeneous_work() {
        // Centralized hardware queue at nanosecond dispatch: unloaded
        // latency beats every software design in the repository.
        let spec = quick_spec(100_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let valet = run(spec, RpcValetConfig { workers: 4 });
        let offload = crate::offload::OffloadConfig::paper(4, 4).run(spec, ProbeConfig::disabled());
        assert!(valet.p50 < offload.p50, "{} vs {}", valet.p50, offload.p50);
    }

    #[test]
    fn no_preemption_means_dispersion_hurts() {
        // The paper's §2.2(2) critique: RPCValet "demonstrate[s] high tail
        // latency for highly-variable request service time distributions".
        // Under a strongly dispersive mix (5% at 200us) near saturation,
        // c-FCFS without preemption parks short requests behind the longs;
        // the preemptive offload bounds them near the slice despite its
        // much costlier communication path.
        let dist = ServiceDist::Bimodal {
            p_long: 0.05,
            short: SimDuration::from_micros(2),
            long: SimDuration::from_micros(200),
        };
        let spec = quick_spec(280_000.0, dist); // rho ~ 0.83 on 4 workers
        let valet = run(spec, RpcValetConfig { workers: 4 });
        let offload = crate::offload::OffloadConfig::paper(4, 4).run(spec, ProbeConfig::disabled());
        assert!(
            valet.p99_short > offload.p99_short * 2,
            "short requests stuck behind 200us ones: valet {} vs offload {}",
            valet.p99_short,
            offload.p99_short
        );
    }

    #[test]
    fn perfect_balance_no_queueing_below_capacity() {
        let spec = quick_spec(500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(spec, RpcValetConfig { workers: 4 });
        assert!(!m.saturated(0.05), "{}", m.row());
        // Central queue + perfect knowledge: p99 stays near service time
        // plus the wire at moderate load.
        assert!(m.p99 < SimDuration::from_micros(40), "p99 {}", m.p99);
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        let res = ResilienceConfig::loss_and_crash(1, SimTime::ZERO + SimDuration::from_millis(10));
        let run =
            || RpcValetConfig { workers: 4 }.run_resilient(spec, ProbeConfig::disabled(), res);
        let m = run();
        let f = &m.faults;
        assert_eq!(f.unaccounted(), 0, "request ledger leaks: {f:?}");
        assert!(f.in_pipe() < 64, "attempt residue beyond pipeline: {f:?}");
        assert!(f.retries > 0, "loss never triggered a retry");
        // At most the in-flight task plus one queued delivery strand at the
        // dead core; the hardware queue stops feeding it after that.
        assert!(f.stranded >= 1 && f.stranded <= 2, "stranded {f:?}");
        assert!(m.completed > 1_000, "goodput collapsed: {}", m.row());
        let b = run();
        assert_eq!(m.faults, b.faults);
        assert_eq!(m.p99, b.p99);
    }

    #[test]
    fn deterministic() {
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        let a = run(spec, RpcValetConfig { workers: 4 });
        let b = run(spec, RpcValetConfig { workers: 4 });
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
    }
}
