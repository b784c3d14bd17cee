//! Shinjuku — the paper's host-resident baseline (Kaffes et al., NSDI
//! '19) — and its §2.2(3) multi-dispatcher scale-out, as one model.
//!
//! A dispatcher group is a networker and a dispatcher running as two
//! hyperthreads on one physical host core (§4.1), plus a private slice
//! of worker cores. Requests flow NIC → networker → dispatcher → worker
//! over shared-memory queues whose hop latency is the §2.2 "2 µs of
//! additional tail latency" cost; the dispatcher's 200 ns/request budget
//! is the §1 "5M requests per second" scaling limit. The scheduling
//! semantics — centralized queue, preemption at the slice, re-enqueue at
//! the tail — are the offloaded system's: both embed
//! [`nicsched::Dispatcher`]. Only placement and transport differ, which
//! is the paper's point.
//!
//! "The dispatcher can only scale to 5M requests … so multiple dispatchers
//! need to be instantiated. RSS can be used to route packets from the NIC
//! to different dispatchers, but this can again result in load imbalance.
//! Moreover, one physical core is dedicated to each dispatcher … 1/12 =
//! 8.33% of execution resources is wasted" (§2.2).
//!
//! This assembly partitions the server into `groups` independent Shinjuku
//! instances: the NIC RSS-hashes flows across the groups' networker
//! queues, and requests cannot cross groups — exactly the
//! imbalance-vs-scalability trade the paper describes. With `groups = 1`
//! this is vanilla Shinjuku, which is how
//! [`ShinjukuConfig`](crate::shinjuku::ShinjukuConfig) runs.
//!
//! The two configs differ in one rule, decided before the model is built:
//! vanilla Shinjuku honours the stale-feedback fallback in
//! [`ResilienceConfig`], giving each dispatcher a
//! [`FeedbackGovernor`](crate::FeedbackGovernor); `MultiShinjukuConfig`
//! clears it, so multi-dispatcher groups never fall back (see
//! [`crate::ServerSystem`]'s impls).

use std::collections::VecDeque;

use cpu_model::{ContextPool, Core, CoreId, CoreSpec, InterruptPath, OneShotTimer, TimerMode};
use net_wire::{MsgKind, ParsedFrame};
use nic_model::{IfaceId, NicDevice, QueueSteering, Rss};
use nicsched::{params, Assignment, Dispatcher, LeastOutstanding, PolicySpec, SchedPolicy, Task};
use sim_core::{Ctx, Model, ProbeConfig, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    dispatcher_ledger, mean_utilization, msg_task, run, start_check, stretched, task_msg,
    AddressPlan, Assembly, ClientEv, FrontEnd, FrontKeys, Liveness, ResilienceConfig, WorkerPrices,
};

// Every probe name this assembly records, registered once per run.
sim_core::probe_keys! {
    mod key {
        CLIENT_NACKS = "client.nacks",
        CLIENT_RESPONSES = "client.responses",
        CLIENT_RETRIES = "client.retries",
        CLIENT_SENT = "client.sent",
        DISP_ASSIGN = "disp.assign",
        DISP_DONE = "disp.done",
        DISP_ENQUEUE = "disp.enqueue",
        DISP_HEARTBEAT = "disp.heartbeat",
        DISP_NACK = "disp.nack",
        DISP_PREEMPT_REQUEUE = "disp.preempt_requeue",
        DISP_SHED = "disp.shed",
        DISPATCHER = "dispatcher",
        DISPATCHER_CENTRAL = "dispatcher.central",
        DISPATCHER_INBOX = "dispatcher.inbox",
        FALLBACK_SWITCH = "fallback.switch",
        NETWORKER = "networker",
        NETWORKER_PARSED = "networker.parsed",
        NETWORKER_RING = "networker.ring",
        NIC_RX_FRAMES = "nic.rx_frames",
        PATH_0_CLIENT_SEND = "path.0_client_send",
        PATH_1_HOST_NET = "path.1_host_net",
        PATH_2_DISPATCH = "path.2_dispatch",
        PATH_3_WORKER_START = "path.3_worker_start",
        PATH_4_WORKER_DONE = "path.4_worker_done",
        PATH_5_RESPONSE = "path.5_response",
        RECOVERY_REDISPATCH = "recovery.redispatch",
        WIRE_REQ_LOST = "wire.req_lost",
        WIRE_RESP_LOST = "wire.resp_lost",
        WORKER = "worker",
        WORKER_COMPLETED = "worker.completed",
        WORKER_DUP_KILLED = "worker.dup_killed",
        WORKER_INBOX = "worker.inbox",
        WORKER_PREEMPTED = "worker.preempted",
        WORKER_STRANDED = "worker.stranded",
    }
}

/// The client front end's keys in this assembly's probe-name table.
const FRONT_KEYS: FrontKeys = FrontKeys::new(key::NAMES, key::PATH_5_RESPONSE);

/// Configuration of a multi-dispatcher Shinjuku.
#[derive(Debug, Clone, Copy)]
pub struct MultiShinjukuConfig {
    /// Independent dispatcher groups (RSS spreads flows across them).
    pub groups: usize,
    /// Worker cores per group.
    pub workers_per_group: usize,
    /// Preemption time slice; `None` disables preemption.
    pub time_slice: Option<SimDuration>,
    /// Queue policy within each group (a policy spec).
    pub policy: PolicySpec,
}

impl MultiShinjukuConfig {
    /// Split `total_cores` into `groups` dispatchers plus equal worker
    /// slices (mirrors the paper's accounting: one physical core per
    /// dispatcher pair).
    pub fn split(total_cores: usize, groups: usize) -> MultiShinjukuConfig {
        assert!(
            groups >= 1 && total_cores > groups,
            "need cores left for workers"
        );
        MultiShinjukuConfig {
            groups,
            workers_per_group: (total_cores - groups) / groups,
            time_slice: Some(params::TIME_SLICE),
            policy: PolicySpec::FCFS,
        }
    }

    /// Fraction of the machine spent on dispatching rather than work —
    /// the §2.2 "8.33% wasted" figure for 1 dispatcher per 11 workers.
    pub fn dispatch_overhead_fraction(&self) -> f64 {
        self.groups as f64 / (self.groups * (1 + self.workers_per_group)) as f64
    }
}

/// Items crossing host shared memory into a group's dispatcher.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DispItem {
    NewTask(Task),
    /// (local worker index, request id)
    Done(usize, u64),
    /// (local worker index, the preempted task)
    Preempted(usize, Task),
    Emit(Assignment),
    /// A lease-renewal heartbeat from a group-local worker (recovery only).
    Heartbeat(usize),
}

pub(crate) enum Ev {
    /// The client and its wires; a request frame reaches the NIC.
    Client(ClientEv),
    NetworkerDone(usize),
    DispPush(usize, DispItem),
    DispDone(usize),
    /// (group, local worker index, task)
    WorkerTask(usize, usize, Task),
    WorkerPoll(usize, usize),
    /// (group, local worker index, timer generation)
    WorkerRunEnd(usize, usize, u64),
    /// A worker's periodic liveness heartbeat to its group dispatcher
    /// (group, local worker index; governor or recovery only).
    Heartbeat(usize, usize),
}

struct Worker {
    core: Core,
    timer: OneShotTimer,
    inbox: VecDeque<Task>,
    running: Option<(Task, SimDuration)>,
}

struct Group {
    networker_busy: bool,
    disp_queue: VecDeque<DispItem>,
    disp_busy: bool,
    dispatcher: Dispatcher<Box<dyn SchedPolicy>, LeastOutstanding>,
    workers: Vec<Worker>,
    /// Stale-feedback governor (vanilla Shinjuku with a fallback policy
    /// only) and lease heartbeats over this group's workers.
    liveness: Liveness,
    /// Requests admitted by this group (imbalance statistics).
    admitted: u64,
}

pub(crate) struct MultiShinjuku {
    cfg: MultiShinjukuConfig,
    front: FrontEnd<Ev>,
    nic: NicDevice,
    net_iface: IfaceId,
    groups: Vec<Group>,
    ctx_pool: ContextPool,
    /// Worker overheads under Dune-mapped slice timers, priced in `build`.
    prices: WorkerPrices,
    preemptions: u64,
    /// Work that died with a crashed worker (running or delivered to it).
    stranded: u64,
}

impl MultiShinjuku {
    fn start_networker(&mut self, g: usize, ctx: &mut Ctx<'_, Ev>) {
        if !self.groups[g].networker_busy && !self.nic.iface(self.net_iface).rx[g].is_empty() {
            self.groups[g].networker_busy = true;
            ctx.probe().busy_i(key::NETWORKER, g, true);
            ctx.schedule_in(params::HOST_NET_PER_PACKET, Ev::NetworkerDone(g));
        }
    }

    fn disp_item_cost(item: &DispItem) -> SimDuration {
        match item {
            DispItem::NewTask(_) => params::HOST_DISPATCH_ENQUEUE,
            DispItem::Done(..) | DispItem::Preempted(..) => params::HOST_DISPATCH_COMPLETE,
            DispItem::Emit(_) => params::HOST_DISPATCH_ASSIGN,
            // A heartbeat is a single timestamp store on the tracker: charge
            // it like a completion notification (queue-op scale).
            DispItem::Heartbeat(_) => params::HOST_DISPATCH_COMPLETE,
        }
    }

    fn start_dispatcher(&mut self, g: usize, ctx: &mut Ctx<'_, Ev>) {
        let group = &mut self.groups[g];
        if !group.disp_busy {
            if let Some(item) = group.disp_queue.front() {
                group.disp_busy = true;
                let cost = Self::disp_item_cost(item);
                ctx.probe().busy_i(key::DISPATCHER, g, true);
                ctx.schedule_in(cost, Ev::DispDone(g));
            }
        }
    }

    fn worker_poll(&mut self, g: usize, local: usize, ctx: &mut Ctx<'_, Ev>) {
        let global = g * self.cfg.workers_per_group + local;
        if self.groups[g].workers[local].running.is_some()
            || start_check(ctx, global, Ev::WorkerPoll(g, local)).is_some()
        {
            return;
        }
        let Some(task) = self.groups[g].workers[local].inbox.pop_front() else {
            self.groups[g].workers[local].core.set_idle(ctx.now());
            ctx.probe().busy_i(key::WORKER, global, false);
            return;
        };
        let depth = self.groups[g].workers[local].inbox.len();
        ctx.probe().mark(task.req_id, key::PATH_3_WORKER_START);
        ctx.probe().busy_i(key::WORKER, global, true);
        ctx.probe().depth_i(key::WORKER_INBOX, global, depth);
        let ctx_op = self.ctx_pool.begin(task.req_id);
        let mut overhead = self.prices.ctx.op(ctx_op);
        // Per-dispatch grants stamped by the group's policy survive the
        // shared-memory hop intact; `Inherit` reproduces the static timer.
        let run = match task.preempt.resolve(self.cfg.time_slice) {
            Some(slice) => {
                overhead += self.prices.timer_set;
                task.remaining.min(slice)
            }
            None => task.remaining,
        };
        let wall = stretched(ctx, global, overhead + run);
        let worker = &mut self.groups[g].workers[local];
        worker.core.set_busy(ctx.now());
        let end = ctx.now() + wall;
        let gen = worker.timer.arm(end);
        worker.running = Some((task, run));
        ctx.schedule_at(end, Ev::WorkerRunEnd(g, local, gen));
    }

    fn worker_run_end(&mut self, g: usize, local: usize, gen: u64, ctx: &mut Ctx<'_, Ev>) {
        if !self.groups[g].workers[local].timer.accept(gen) {
            return;
        }
        let (task, run) = self.groups[g].workers[local]
            .running
            .take()
            .expect("running");
        let (now, global) = (ctx.now(), g * self.cfg.workers_per_group + local);
        if ctx.faults().worker_crashed(global, now) {
            // Died mid-request: the task is stranded, no Done ever reaches
            // the group dispatcher, and its cap-1 slot stays occupied.
            self.ctx_pool.discard(task.req_id);
            self.stranded += 1;
            ctx.probe().count(key::WORKER_STRANDED);
            return;
        }
        if task.remaining <= run {
            ctx.probe().count(key::WORKER_COMPLETED);
            ctx.probe().mark(task.req_id, key::PATH_4_WORKER_DONE);
            let resp_built = now + params::WORKER_TX_COST;
            let resp = AddressPlan::to_client(
                AddressPlan::dispatcher_mac(),
                AddressPlan::worker_ep(global),
                task_msg(MsgKind::Response, &task, 0, task.body_len),
            );
            let depart = resp_built + self.nic.dma_latency;
            self.front.send_response(&resp, depart, ctx);
            self.ctx_pool.discard(task.req_id);
            ctx.schedule_in(
                params::HOST_QUEUE_HOP,
                Ev::DispPush(g, DispItem::Done(local, task.req_id)),
            );
            ctx.schedule_at(resp_built, Ev::WorkerPoll(g, local));
        } else {
            let after = task.after_preemption(run);
            if self.ctx_pool.is_saved(after.req_id) {
                // A retransmitted copy of this request is already suspended:
                // kill this copy and free the worker slot via Done.
                ctx.probe().count(key::WORKER_DUP_KILLED);
                let free_at = now + self.prices.interrupt_receive;
                ctx.schedule_at(
                    free_at + params::HOST_QUEUE_HOP,
                    Ev::DispPush(g, DispItem::Done(local, after.req_id)),
                );
                ctx.schedule_at(free_at, Ev::WorkerPoll(g, local));
                return;
            }
            self.preemptions += 1;
            ctx.probe().count(key::WORKER_PREEMPTED);
            self.ctx_pool.save(after.req_id);
            let free_at = now + self.prices.interrupt_receive + self.prices.ctx.save;
            ctx.schedule_at(
                free_at + params::HOST_QUEUE_HOP,
                Ev::DispPush(g, DispItem::Preempted(local, after)),
            );
            ctx.schedule_at(free_at, Ev::WorkerPoll(g, local));
        }
    }

    /// Imbalance across groups: max/mean admitted requests.
    fn imbalance(&self) -> f64 {
        let max = self.groups.iter().map(|g| g.admitted).max().unwrap_or(0) as f64;
        let mean =
            self.groups.iter().map(|g| g.admitted).sum::<u64>() as f64 / self.groups.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

impl Model for MultiShinjuku {
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
                    self.nic.iface_mut(d.iface).rx[d.queue].push(ctx.now(), bytes);
                    let depth = self.nic.iface(d.iface).rx[d.queue].len();
                    ctx.probe().depth_i(key::NETWORKER_RING, d.queue, depth);
                    self.start_networker(d.queue, ctx);
                }
            }
            Ev::NetworkerDone(g) => {
                self.groups[g].networker_busy = false;
                ctx.probe().busy_i(key::NETWORKER, g, false);
                ctx.probe().count(key::NETWORKER_PARSED);
                if let Some(frame) = self.nic.iface_mut(self.net_iface).rx[g].pop() {
                    if let Ok(parsed) = ParsedFrame::parse(&frame.data) {
                        if parsed.msg.kind == MsgKind::Request {
                            let m = parsed.msg;
                            ctx.probe().mark(m.req_id, key::PATH_1_HOST_NET);
                            let task = msg_task(&m, ctx.now());
                            ctx.schedule_in(
                                params::HOST_QUEUE_HOP,
                                Ev::DispPush(g, DispItem::NewTask(task)),
                            );
                        }
                    }
                }
                self.start_networker(g, ctx);
            }
            Ev::DispPush(g, item) => {
                self.groups[g].disp_queue.push_back(item);
                let depth = self.groups[g].disp_queue.len();
                ctx.probe().depth_i(key::DISPATCHER_INBOX, g, depth);
                self.start_dispatcher(g, ctx);
            }
            Ev::DispDone(g) => {
                self.groups[g].disp_busy = false;
                ctx.probe().busy_i(key::DISPATCHER, g, false);
                if let Some(item) = self.groups[g].disp_queue.pop_front() {
                    let now = ctx.now();
                    let assignments = match item {
                        DispItem::NewTask(task) => {
                            ctx.probe().mark(task.req_id, key::PATH_2_DISPATCH);
                            match self.groups[g].dispatcher.offer(now, task) {
                                nicsched::AdmitOutcome::Admitted(v) => {
                                    self.groups[g].admitted += 1;
                                    ctx.probe().count(key::DISP_ENQUEUE);
                                    v
                                }
                                nicsched::AdmitOutcome::Shed { nack } => {
                                    ctx.probe().count(key::DISP_SHED);
                                    if nack {
                                        ctx.probe().count(key::DISP_NACK);
                                        let depart = now + self.nic.dma_latency;
                                        self.front.send_nack(&task, depart, ctx);
                                    }
                                    Vec::new()
                                }
                            }
                        }
                        DispItem::Done(local_worker, req_id) => {
                            ctx.probe().count(key::DISP_DONE);
                            self.groups[g].dispatcher.on_done(now, local_worker, req_id)
                        }
                        DispItem::Preempted(local_worker, task) => {
                            ctx.probe().count(key::DISP_PREEMPT_REQUEUE);
                            ctx.probe().mark(task.req_id, key::PATH_2_DISPATCH);
                            self.groups[g]
                                .dispatcher
                                .on_preempted(now, local_worker, task)
                        }
                        DispItem::Emit(a) => {
                            ctx.probe().count(key::DISP_ASSIGN);
                            ctx.schedule_in(
                                params::HOST_QUEUE_HOP,
                                Ev::WorkerTask(g, a.worker, a.task),
                            );
                            Vec::new()
                        }
                        DispItem::Heartbeat(local_worker) => {
                            ctx.probe().count(key::DISP_HEARTBEAT);
                            self.groups[g].dispatcher.on_heartbeat(now, local_worker)
                        }
                    };
                    for a in assignments.into_iter().rev() {
                        self.groups[g].disp_queue.push_front(DispItem::Emit(a));
                    }
                    let central = self.groups[g].dispatcher.queue_len();
                    ctx.probe().depth_i(key::DISPATCHER_CENTRAL, g, central);
                }
                self.start_dispatcher(g, ctx);
            }
            Ev::WorkerTask(g, local, task) => {
                let global = g * self.cfg.workers_per_group + local;
                let now = ctx.now();
                if ctx.faults().worker_crashed(global, now) {
                    // Delivered into a dead core: stranded on arrival.
                    self.ctx_pool.discard(task.req_id);
                    self.stranded += 1;
                    ctx.probe().count(key::WORKER_STRANDED);
                    return;
                }
                let worker = &mut self.groups[g].workers[local];
                worker.inbox.push_back(task);
                ctx.probe()
                    .depth_i(key::WORKER_INBOX, global, worker.inbox.len());
                if worker.running.is_none() {
                    ctx.schedule_now(Ev::WorkerPoll(g, local));
                }
            }
            Ev::WorkerPoll(g, local) => self.worker_poll(g, local, ctx),
            Ev::WorkerRunEnd(g, local, gen) => self.worker_run_end(g, local, gen, ctx),
            Ev::Heartbeat(g, local) => {
                if ctx.now() >= self.front.horizon {
                    return;
                }
                let global = g * self.cfg.workers_per_group + local;
                let group = &mut self.groups[g];
                let busy = group.workers[local].running.is_some();
                // Lease renewal crosses host shared memory.
                let renew = |ctx: &mut Ctx<'_, Ev>, _| {
                    ctx.schedule_in(
                        params::HOST_QUEUE_HOP,
                        Ev::DispPush(g, DispItem::Heartbeat(local)),
                    );
                };
                let (assignments, next) = group.liveness.lease_tick(
                    ctx,
                    &mut group.dispatcher,
                    (local, global),
                    busy,
                    renew,
                );
                // Unparked work still pays the dispatcher's per-assignment
                // cost like any other emission.
                for a in assignments {
                    ctx.schedule_now(Ev::DispPush(g, DispItem::Emit(a)));
                }
                if let Some(interval) = next {
                    ctx.schedule_in(interval, Ev::Heartbeat(g, local));
                }
            }
        }
    }
}

impl Assembly for MultiShinjuku {
    type Config = MultiShinjukuConfig;
    const PROBE_NAMES: &'static [&'static str] = key::NAMES;

    fn build(spec: WorkloadSpec, cfg: &MultiShinjukuConfig, res: ResilienceConfig) -> Self {
        let cfg = *cfg;
        let front = FrontEnd::new(spec, &res, None, FRONT_KEYS, Ev::Client);

        let mut nic = NicDevice::new(params::PCIE_DMA);
        // One RX queue per dispatcher group, fed by RSS (§2.2).
        let net_iface = nic.add_iface(
            AddressPlan::dispatcher_mac(),
            cfg.groups,
            1024,
            QueueSteering::Rss(Rss::new(cfg.groups as u32)),
        );

        let t0 = SimTime::ZERO;
        let groups = (0..cfg.groups)
            .map(|g| Group {
                networker_busy: false,
                disp_queue: VecDeque::new(),
                disp_busy: false,
                dispatcher: {
                    let mut d = Dispatcher::new(
                        cfg.workers_per_group,
                        1,
                        cfg.policy.build(),
                        LeastOutstanding,
                    );
                    d.set_admission(res.admission);
                    if let Some(policy) = res.recovery {
                        d.enable_recovery(policy);
                    }
                    d
                },
                workers: (0..cfg.workers_per_group)
                    .map(|w| Worker {
                        core: Core::new(
                            CoreId((g * cfg.workers_per_group + w) as u32),
                            CoreSpec::host_x86(),
                            t0,
                        ),
                        timer: OneShotTimer::new(),
                        inbox: VecDeque::new(),
                        running: None,
                    })
                    .collect(),
                liveness: Liveness::new(
                    &res,
                    cfg.workers_per_group,
                    params::HOST_QUEUE_HOP,
                    (key::FALLBACK_SWITCH, key::RECOVERY_REDISPATCH),
                ),
                admitted: 0,
            })
            .collect();

        MultiShinjuku {
            cfg,
            front,
            nic,
            net_iface,
            groups,
            ctx_pool: ContextPool::new(),
            prices: WorkerPrices::new(InterruptPath::LocalTimer(TimerMode::DuneMapped)),
            preemptions: 0,
            stranded: 0,
        }
    }

    fn front(&self) -> &FrontEnd<Ev> {
        &self.front
    }

    fn startup(&self) -> Vec<(SimTime, Ev)> {
        let workers = 0..self.cfg.workers_per_group;
        let on = (0..self.groups.len()).filter(|&g| self.groups[g].liveness.is_on());
        on.flat_map(|g| {
            workers
                .clone()
                .map(move |l| (SimTime::ZERO, Ev::Heartbeat(g, l)))
        })
        .collect()
    }

    fn ledger(&self, horizon: SimTime, m: &mut RunMetrics) {
        let cores = self
            .groups
            .iter()
            .flat_map(|g| g.workers.iter().map(|w| &w.core));
        m.worker_utilization = mean_utilization(cores, horizon);
        m.preemptions = self.preemptions;
        let fm = &mut m.faults;
        fm.ring_dropped = self.nic.total_drops();
        fm.stranded = self.stranded;
        for group in &self.groups {
            dispatcher_ledger(&group.dispatcher, fm);
            group.liveness.ledger(horizon, fm);
        }
    }
}

/// Outcome of a multi-dispatcher run: standard metrics plus the group
/// imbalance ratio (max/mean requests per group; 1.0 = perfectly even).
#[derive(Debug, Clone)]
pub struct MultiRunMetrics {
    /// Standard run metrics.
    pub metrics: RunMetrics,
    /// Max/mean admitted requests across groups.
    pub imbalance: f64,
}

/// Run a multi-dispatcher Shinjuku without faults or probes, also
/// reporting the imbalance across its groups.
pub fn run_with_imbalance(spec: WorkloadSpec, cfg: MultiShinjukuConfig) -> MultiRunMetrics {
    let ((metrics, _), model) = run::<MultiShinjuku>(
        spec,
        &cfg,
        ProbeConfig::disabled(),
        ResilienceConfig::default(),
    );
    MultiRunMetrics {
        metrics,
        imbalance: model.imbalance(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ServerSystem;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: MultiShinjukuConfig) -> MultiRunMetrics {
        run_with_imbalance(spec, cfg)
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
    fn only_the_vanilla_entry_point_falls_back() {
        use crate::common::StalenessPolicy;
        use crate::shinjuku::ShinjukuConfig;
        use sim_core::FaultConfig;

        // A 3 ms feedback blackout: far past the 25 µs degrade threshold.
        let spec = quick_spec(300_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let res = ResilienceConfig {
            faults: FaultConfig::default()
                .with_blackout(SimTime::from_millis(5), SimTime::from_millis(8)),
            fallback: Some(StalenessPolicy::paper_default()),
            ..ResilienceConfig::default()
        };
        let vanilla = ShinjukuConfig::paper(4);
        let multi = MultiShinjukuConfig {
            groups: 1,
            workers_per_group: 4,
            time_slice: vanilla.time_slice,
            policy: vanilla.policy,
        };
        let run_both = |res: ResilienceConfig| {
            (
                vanilla.run_resilient(spec, ProbeConfig::disabled(), res),
                multi.run_resilient(spec, ProbeConfig::disabled(), res),
            )
        };

        let (v, m) = run_both(res);
        assert!(v.faults.fallback_ns > 0, "vanilla never fell back: {v:?}");
        assert_eq!(m.faults.fallback_ns, 0, "multi fell back: {m:?}");

        let (v, m) = run_both(ResilienceConfig {
            fallback: None,
            ..res
        });
        assert_eq!(v, m, "without a fallback policy the configs agree");
        assert!((run(spec, multi).imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_dispatchers_break_the_single_dispatcher_cap() {
        // 1us requests, far beyond one dispatcher's ~4-5M/s: with four
        // dispatcher groups the aggregate scales well past it.
        let spec = quick_spec(9_000_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let one = run(spec, MultiShinjukuConfig::split(32, 1));
        let four = run(spec, MultiShinjukuConfig::split(32, 4));
        assert!(
            four.metrics.achieved_rps > one.metrics.achieved_rps * 1.3,
            "4 dispatchers ({:.1}M) should outscale 1 ({:.1}M)",
            four.metrics.achieved_rps / 1e6,
            one.metrics.achieved_rps / 1e6
        );
    }

    #[test]
    fn rss_across_groups_creates_imbalance() {
        let spec = quick_spec(500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(spec, MultiShinjukuConfig::split(16, 4));
        assert!(
            m.imbalance > 1.0,
            "RSS group shares are never perfectly even"
        );
        assert!(
            m.imbalance < 2.0,
            "but not catastrophic at uniform flows: {}",
            m.imbalance
        );
    }

    #[test]
    fn dispatch_overhead_fraction_matches_paper_accounting() {
        // §2.2: 1 dispatcher + 11 workers -> 1/12 = 8.33% wasted.
        let cfg = MultiShinjukuConfig {
            groups: 1,
            workers_per_group: 11,
            time_slice: None,
            policy: PolicySpec::FCFS,
        };
        assert!((cfg.dispatch_overhead_fraction() - 1.0 / 12.0).abs() < 1e-9);
        // 4 groups of 11: still 8.33% of the machine.
        let cfg4 = MultiShinjukuConfig {
            groups: 4,
            workers_per_group: 11,
            time_slice: None,
            policy: PolicySpec::FCFS,
        };
        assert!((cfg4.dispatch_overhead_fraction() - 1.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cores left for workers")]
    fn split_needs_worker_cores() {
        let _ = MultiShinjukuConfig::split(4, 4);
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        let spec = quick_spec(400_000.0, ServiceDist::paper_bimodal());
        // Crash one worker of group 1 (global index = workers_per_group + 0).
        let res = ResilienceConfig::loss_and_crash(
            MultiShinjukuConfig::split(16, 2).workers_per_group,
            SimTime::ZERO + SimDuration::from_millis(10),
        );
        let run =
            || MultiShinjukuConfig::split(16, 2).run_resilient(spec, ProbeConfig::disabled(), res);
        let m = run();
        let f = &m.faults;
        assert_eq!(f.unaccounted(), 0, "request ledger leaks: {f:?}");
        assert!(f.in_pipe() < 200, "attempt residue beyond pipeline: {f:?}");
        assert!(f.retries > 0, "loss never triggered a retry");
        assert!(f.stranded >= 1, "crash stranded nothing: {f:?}");
        assert!(m.completed > 1_000, "goodput collapsed: {}", m.row());
        let b = run();
        assert_eq!(m.faults, b.faults);
        assert_eq!(m.p99, b.p99);
    }

    #[test]
    fn deterministic() {
        let spec = quick_spec(400_000.0, ServiceDist::paper_bimodal());
        let a = run(spec, MultiShinjukuConfig::split(16, 2));
        let b = run(spec, MultiShinjukuConfig::split(16, 2));
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.metrics.p99, b.metrics.p99);
        assert_eq!(a.imbalance, b.imbalance);
    }
}
