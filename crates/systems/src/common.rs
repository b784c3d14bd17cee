//! Plumbing shared by every system assembly: addressing conventions, the
//! open-loop client (with its reliability layer) and the client front end
//! that carries it over the wire, the resilience configuration every
//! assembly accepts, the stale-feedback governor and lease heartbeat, the
//! worker start checks, and the one runner behind [`crate::ServerSystem`].

use std::collections::VecDeque;

use bytes::Bytes;
use cpu_model::{ContextCosts, ContextPrices, Core, CoreSpec, InterruptPath};
use net_wire::{Endpoint, EthernetAddress, FrameSpec, Ipv4Address, MsgKind, MsgRepr, ParsedFrame};
use nic_model::Link;
use nicsched::{
    AdmissionPolicy, Assignment, CoreFeedback, CoreSelector, Dispatcher, FeedbackChannel,
    PreemptDecision, RecoveryPolicy, SchedPolicy, Task,
};
use sim_core::faults::FaultConfig;
use sim_core::{
    Ctx, Engine, EngineStats, FaultPlan, InvariantChecker, InvariantConfig, Model, Probe,
    ProbeConfig, ProbeKey, Rng, SimDuration, SimTime,
};
use workload::{
    ArrivalGen, ArrivalProcess, FaultMetrics, LatencyRecorder, ReqClass, RetryPolicy, RunMetrics,
    WorkloadSpec,
};

/// Seed salt for the fault plan's private random stream, so fault
/// decisions never perturb the workload's own streams.
pub const FAULT_SEED_SALT: u64 = 0x5EED_FA17;

/// When the dispatcher's view of workers goes stale enough to be dead
/// data, stop steering on it: degrade to RSS-style hashing, and
/// quarantine individual workers that have been silent even longer (a
/// crashed worker must not keep receiving work until its ring drops it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StalenessPolicy {
    /// Staleness beyond which the *majority-stale* dispatcher falls back
    /// to hashed selection.
    pub degrade_after: SimDuration,
    /// Per-worker staleness beyond which the worker is quarantined from
    /// selection entirely.
    pub quarantine_after: SimDuration,
    /// Interval between worker liveness heartbeats on the feedback path.
    pub heartbeat: SimDuration,
}

impl StalenessPolicy {
    /// Defaults scaled to the paper's 2.56 µs PCIe feedback gap: workers
    /// heartbeat every 5 µs, the dispatcher tolerates ~5 missed
    /// heartbeats before degrading and ~3× that before quarantining.
    pub fn paper_default() -> StalenessPolicy {
        StalenessPolicy {
            degrade_after: SimDuration::from_micros(25),
            quarantine_after: SimDuration::from_micros(75),
            heartbeat: SimDuration::from_micros(5),
        }
    }
}

/// Cross-assembly fault/reliability configuration, deliberately separate
/// from each assembly's own config struct: [`crate::ServerSystem::run`] is
/// [`crate::ServerSystem::run_resilient`] with `ResilienceConfig::default()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResilienceConfig {
    /// Timed fault events (loss, bursts, crashes, stalls, blackouts).
    pub faults: FaultConfig,
    /// Client-side timeout/retry policy (`None` = fire-and-forget).
    pub retry: Option<RetryPolicy>,
    /// Dispatcher admission policy (ignored by assemblies without a
    /// central dispatcher, where per-worker rings already tail-drop).
    pub admission: AdmissionPolicy,
    /// Stale-feedback fallback policy for informed dispatchers.
    pub fallback: Option<StalenessPolicy>,
    /// NIC-side failure detection and orphan re-dispatch: the dispatcher
    /// tracks per-worker leases and reclaims in-flight requests from
    /// suspected workers instead of waiting for the client's retry
    /// timeout. `None` keeps runs bit-identical to the pre-recovery path
    /// (no heartbeat frames, no health ticks).
    pub recovery: Option<nicsched::RecoveryPolicy>,
    /// Runtime invariant checking (the "invcheck" pass): engine
    /// causality/FIFO audits, per-event model self-audits, and end-of-run
    /// conservation checks. Enabled runs are bit-identical to plain runs
    /// and panic with a full violation report if any invariant breaks.
    pub invariants: InvariantConfig,
}

impl ResilienceConfig {
    /// Whether anything here deviates from the legacy fault-free path.
    pub fn is_active(&self) -> bool {
        !self.faults.is_none()
            || self.retry.is_some()
            || !self.admission.is_open()
            || self.fallback.is_some()
            || self.recovery.is_some()
    }

    /// The ISSUE-2 acceptance scenario: 1% wire loss plus a mid-run crash
    /// of `worker` at `at`, with retries and the staleness fallback on.
    pub fn loss_and_crash(worker: usize, at: SimTime) -> ResilienceConfig {
        ResilienceConfig {
            faults: FaultConfig::default()
                .with_wire_loss(0.01)
                .with_crash(worker, at),
            retry: Some(RetryPolicy::paper_default()),
            admission: AdmissionPolicy::Open,
            fallback: Some(StalenessPolicy::paper_default()),
            recovery: None,
            invariants: InvariantConfig::disabled(),
        }
    }

    /// This configuration with NIC-side failure recovery switched on.
    pub fn with_recovery(mut self, policy: nicsched::RecoveryPolicy) -> ResilienceConfig {
        self.recovery = Some(policy);
        self
    }

    /// This configuration with runtime invariant checking switched on.
    pub fn with_invariants(mut self) -> ResilienceConfig {
        self.invariants = InvariantConfig::enabled();
        self
    }
}

/// Build the engine-resident invariant checker for `res` (disabled unless
/// the config asks for the invcheck pass).
pub(crate) fn checker_for(res: &ResilienceConfig) -> InvariantChecker {
    InvariantChecker::new(res.invariants)
}

/// End-of-run conservation audit, shared by every assembly: the request
/// ledger must close (`launched = completed + abandoned + still-open`,
/// attempts itemised) and the client's bookkeeping must be self-consistent.
/// Then panic with the accumulated report if the run violated anything.
pub(crate) fn close_invariants(mut inv: InvariantChecker, at: SimTime, m: &RunMetrics) {
    if !inv.is_enabled() {
        return;
    }
    let f = &m.faults;
    if f.unaccounted() != 0 {
        inv.record(
            at,
            "ledger-conservation",
            format!("request ledger residue {}: {f:?}", f.unaccounted()),
        );
    }
    inv.check_bound(at, "client attempts vs launched", f.launched, f.attempts);
    inv.check_bound(at, "completions vs launches", f.completed_all, f.launched);
    inv.assert_clean();
}

/// The stale-feedback governor: watches per-worker report staleness
/// through a [`FeedbackChannel`] and drives the dispatcher's degraded /
/// quarantine switches. Owned by the informed assemblies; baselines are
/// already hash-steered and need none of this.
#[derive(Debug)]
pub struct FeedbackGovernor {
    channel: FeedbackChannel,
    policy: StalenessPolicy,
    degraded: bool,
    degraded_since: Option<SimTime>,
    quarantined: Vec<bool>,
    /// Informed→hashed transitions taken.
    pub switches: u64,
    /// Closed degraded intervals, accumulated nanoseconds.
    pub degraded_ns: u64,
    /// Quarantine events (workers excluded for silence).
    pub quarantines: u64,
}

impl FeedbackGovernor {
    /// A governor over `n_workers` workers whose feedback path has
    /// one-way `latency`.
    pub fn new(
        n_workers: usize,
        latency: SimDuration,
        policy: StalenessPolicy,
    ) -> FeedbackGovernor {
        FeedbackGovernor {
            channel: FeedbackChannel::new(n_workers, latency),
            policy,
            degraded: false,
            degraded_since: None,
            quarantined: vec![false; n_workers],
            switches: 0,
            degraded_ns: 0,
            quarantines: 0,
        }
    }

    /// The governor's staleness policy.
    pub fn policy(&self) -> StalenessPolicy {
        self.policy
    }

    /// Worker side: a liveness report at `now` (suppressed by the caller
    /// during blackouts, stalls and after crashes — that suppression is
    /// exactly what the governor detects).
    pub fn report(&mut self, now: SimTime, worker: usize, occupancy: u32, busy: bool) {
        self.channel.send(
            now,
            CoreFeedback {
                worker,
                occupancy,
                busy,
                reported_at: now,
            },
        );
    }

    /// Dispatcher side: re-evaluate staleness at `now` and push the
    /// resulting degrade/quarantine switches into `disp`. Workers that
    /// have never reported count as stale since the start of the run.
    pub fn evaluate<P: SchedPolicy, S: CoreSelector>(
        &mut self,
        now: SimTime,
        disp: &mut Dispatcher<P, S>,
    ) {
        let n = self.quarantined.len();
        let mut stale = 0usize;
        for w in 0..n {
            let age = self
                .channel
                .staleness(now, w)
                .unwrap_or_else(|| now.saturating_duration_since(SimTime::ZERO));
            if age > self.policy.degrade_after {
                stale += 1;
            }
            let quarantine = age > self.policy.quarantine_after;
            if quarantine != self.quarantined[w] {
                self.quarantined[w] = quarantine;
                if quarantine {
                    self.quarantines += 1;
                }
                disp.set_excluded(w, quarantine);
            }
        }
        let degraded = stale * 2 > n;
        if degraded != self.degraded {
            if degraded {
                self.switches += 1;
                self.degraded_since = Some(now);
            } else if let Some(since) = self.degraded_since.take() {
                self.degraded_ns += now.saturating_duration_since(since).as_nanos();
            }
            self.degraded = degraded;
            disp.set_degraded(degraded);
        }
    }

    /// Whether the governor currently holds the dispatcher degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Total nanoseconds spent degraded, closing any open interval at
    /// `now` (for end-of-run metrics).
    pub fn fallback_ns(&self, now: SimTime) -> u64 {
        self.degraded_ns
            + self
                .degraded_since
                .map(|s| now.saturating_duration_since(s).as_nanos())
                .unwrap_or(0)
    }
}

/// Deterministic MAC/IP addressing plan for a simulated testbed.
///
/// * client: `02:00:00:00:00:01` / 10.0.0.1
/// * dispatcher (NIC ARM or host networker): `02:00:00:00:01:00` / 10.0.1.0
/// * worker `i`'s SR-IOV VF: `02:00:00:00:02:<i>` / 10.0.2.`i`
#[derive(Debug, Clone, Copy)]
pub struct AddressPlan;

impl AddressPlan {
    /// Client NIC MAC.
    pub fn client_mac() -> EthernetAddress {
        EthernetAddress::new(0x02, 0, 0, 0, 0, 1)
    }

    /// Client UDP endpoint.
    pub fn client_ep() -> Endpoint {
        Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 7000)
    }

    /// Dispatcher-side interface MAC (the server's externally visible MAC).
    pub fn dispatcher_mac() -> EthernetAddress {
        EthernetAddress::new(0x02, 0, 0, 0, 1, 0)
    }

    /// Dispatcher UDP endpoint (the service address clients target).
    pub fn dispatcher_ep() -> Endpoint {
        Endpoint::new(Ipv4Address::new(10, 0, 1, 0), 6000)
    }

    /// Worker `i`'s virtual-function MAC (§3.4.2: one VF per worker).
    pub fn worker_mac(i: usize) -> EthernetAddress {
        assert!(i < 256, "worker index out of addressing range");
        EthernetAddress::new(0x02, 0, 0, 0, 2, i as u8)
    }

    /// Worker `i`'s UDP endpoint.
    pub fn worker_ep(i: usize) -> Endpoint {
        assert!(i < 256, "worker index out of addressing range");
        Endpoint::new(Ipv4Address::new(10, 0, 2, i as u8), 6000)
    }

    /// A frame from `src_mac`/`src` to the client.
    #[inline]
    pub(crate) fn to_client(src_mac: EthernetAddress, src: Endpoint, msg: MsgRepr) -> FrameSpec {
        FrameSpec {
            src_mac,
            dst_mac: AddressPlan::client_mac(),
            src,
            dst: AddressPlan::client_ep(),
            msg,
        }
    }
}

/// The task a wire message carries, arriving at `arrived_at`.
#[inline]
pub(crate) fn msg_task(msg: &MsgRepr, arrived_at: SimTime) -> Task {
    Task {
        req_id: msg.req_id,
        client_id: msg.client_id,
        service: SimDuration::from_nanos(msg.service_ns),
        remaining: SimDuration::from_nanos(msg.remaining_ns),
        sent_at: SimTime::from_nanos(msg.sent_at_ns),
        arrived_at,
        body_len: msg.body_len,
        preemptions: 0,
        // A policy's slice grant rides the Assign frame's grant byte.
        preempt: PreemptDecision::from_grant_code(msg.grant_code),
    }
}

/// The `kind` message about `task`, with `remaining_ns` and a
/// `body_len`-byte body and no slice grant.
#[inline]
pub(crate) fn task_msg(kind: MsgKind, task: &Task, remaining_ns: u64, body_len: u16) -> MsgRepr {
    MsgRepr {
        kind,
        req_id: task.req_id,
        client_id: task.client_id,
        service_ns: task.service.as_nanos(),
        remaining_ns,
        sent_at_ns: task.sent_at.as_nanos(),
        body_len,
        grant_code: 0,
    }
}

/// Just-in-time pacing state (§5.2's congestion-control co-design): the
/// NIC stamps its instantaneous scheduler load into departing responses;
/// the client throttles multiplicatively above `target_depth` and
/// recovers additively below it, so requests arrive "just in time for
/// processing" instead of piling into the centralized queue.
#[derive(Debug, Clone, Copy)]
pub struct JitPacing {
    /// Queue-depth setpoint the client aims to keep the server at.
    pub target_depth: u64,
    /// Current rate multiplier in `(0, 1]`.
    pub scale: f64,
}

impl JitPacing {
    /// Start at full rate with the given setpoint.
    pub fn new(target_depth: u64) -> JitPacing {
        JitPacing {
            target_depth,
            scale: 1.0,
        }
    }

    /// Absorb one load report.
    pub fn observe(&mut self, depth: u64) {
        if depth > self.target_depth {
            self.scale = (self.scale * 0.99).max(0.05);
        } else {
            self.scale = (self.scale + 0.002).min(1.0);
        }
    }
}

/// What became of a response frame arriving at the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseOutcome {
    /// First response for the request: latency recorded.
    Recorded,
    /// The request had already completed — a retransmission raced the
    /// original; suppressed.
    Duplicate,
    /// The client had already abandoned the request; the work was wasted.
    Orphaned,
    /// The client never issued this request id; ignored entirely (no
    /// latency sample, no counter).
    Unknown,
}

/// What a per-attempt timeout (or early NACK) resolves to.
#[derive(Clone, Debug, PartialEq)]
pub enum TimeoutOutcome {
    /// The attempt already resolved, or a newer attempt superseded it.
    Stale,
    /// Retransmit `frame` now and arm a fresh timeout.
    Retry {
        /// The rebuilt request frame (same request id, original send
        /// timestamp, so recorded latency spans the full ordeal).
        frame: FrameSpec,
        /// The new attempt number (1-based).
        attempt: u32,
        /// Timeout to arm for this attempt (backed off, capped).
        timeout: SimDuration,
    },
    /// Attempt budget exhausted: the request is abandoned.
    Abandoned,
}

/// Per-request reliability state.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    msg: MsgRepr,
    attempt: u32,
}

/// Where an issued request stands: one byte per request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Awaiting its first response (its state is in the open window).
    Open,
    /// Response recorded.
    Done,
    /// Abandoned after the attempt budget.
    GaveUp,
}

/// The mutilate-style open-loop client (§4): Poisson arrivals, synthetic
/// service times stamped into request frames, latency recording from
/// responses.
#[derive(Debug)]
pub struct Client {
    arrivals: ArrivalGen,
    service_rng: Rng,
    spec: WorkloadSpec,
    next_id: u64,
    /// Requests sent.
    pub sent: u64,
    /// Response latency recorder.
    pub recorder: LatencyRecorder,
    /// Client id stamped into requests.
    pub client_id: u32,
    /// When set, responses carry server-load feedback and the client
    /// paces itself (§5.2 co-design). `None` = pure open loop (§4).
    pub pacing: Option<JitPacing>,
    /// Timeout/retry policy; `None` = fire-and-forget (requests are still
    /// tracked so the run ledger closes).
    retry: Option<RetryPolicy>,
    /// The fate of every issued request, indexed by `req_id - 1` (ids are
    /// issued sequentially from 1).
    fate: Vec<Fate>,
    /// Reliability state of the ids `window_base..next_id`: slot `k`
    /// belongs to request `window_base + k` and is `None` once resolved.
    /// The front slot is always open (resolved slots are popped off it),
    /// so the window spans just the oldest open request onwards.
    window: VecDeque<Option<PendingReq>>,
    /// Request id of the window's front slot.
    window_base: u64,
    /// Requests awaiting their first response.
    open: u64,
    /// Requests whose response was recorded (including during warmup).
    done: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Timeouts that fired while their attempt was live.
    pub timeouts: u64,
    /// Suppressed duplicate responses.
    pub duplicates: u64,
    /// Responses that arrived after abandonment.
    pub orphaned: u64,
    /// Requests abandoned.
    pub abandoned: u64,
}

impl Client {
    /// Build a client for `spec`, forking its streams from `master`.
    pub fn new(spec: WorkloadSpec, master: &mut Rng) -> Client {
        Client {
            arrivals: ArrivalGen::new(
                ArrivalProcess::Poisson {
                    rate_rps: spec.offered_rps,
                },
                master.fork(),
            ),
            service_rng: master.fork(),
            spec,
            next_id: 1,
            sent: 0,
            recorder: LatencyRecorder::new(spec.warmup_until()),
            client_id: 1,
            pacing: None,
            retry: None,
            fate: Vec::new(),
            window: VecDeque::new(),
            window_base: 1,
            open: 0,
            done: 0,
            retries: 0,
            timeouts: 0,
            duplicates: 0,
            orphaned: 0,
            abandoned: 0,
        }
    }

    /// Arm the reliability layer: each request gets a per-attempt timeout
    /// and up to `policy.max_attempts` transmissions.
    pub fn enable_retries(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// The workload being generated.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Replace the arrival process (e.g. a bursty MMPP instead of the
    /// default Poisson at `spec.offered_rps`), keeping determinism by
    /// forking the stream from `master`.
    pub fn override_arrivals(&mut self, process: ArrivalProcess, master: &mut Rng) {
        self.arrivals = ArrivalGen::new(process, master.fork());
    }

    /// Gap until the first/next request (stretched by JIT pacing when
    /// enabled).
    pub fn next_gap(&mut self) -> SimDuration {
        let gap = self.arrivals.next_gap();
        match self.pacing {
            Some(p) => gap.mul_f64(1.0 / p.scale),
            None => gap,
        }
    }

    /// Emit the next request frame at `now`, addressed to the service.
    pub fn make_request(&mut self, now: SimTime) -> FrameSpec {
        let service = self.spec.dist.sample(&mut self.service_rng);
        let id = self.next_id;
        self.next_id += 1;
        self.sent += 1;
        let msg = MsgRepr::request(
            id,
            self.client_id,
            service.as_nanos(),
            now.as_nanos(),
            self.spec.body_len,
        );
        self.fate.push(Fate::Open);
        self.window.push_back(Some(PendingReq { msg, attempt: 1 }));
        self.open += 1;
        Client::request_frame(msg)
    }

    /// Index of `req_id` in the fate table, if the client issued it.
    fn fate_index(&self, req_id: u64) -> Option<usize> {
        let index = usize::try_from(req_id.checked_sub(1)?).ok()?;
        (index < self.fate.len()).then_some(index)
    }

    /// Offset of `req_id` in the open window (`None` below its front).
    fn slot(&self, req_id: u64) -> Option<usize> {
        usize::try_from(req_id.checked_sub(self.window_base)?).ok()
    }

    /// The open state of `req_id` (`None` once resolved or never issued).
    fn pending(&self, req_id: u64) -> Option<&PendingReq> {
        self.window.get(self.slot(req_id)?)?.as_ref()
    }

    /// Mutable open state of `req_id`.
    fn pending_mut(&mut self, req_id: u64) -> Option<&mut PendingReq> {
        let slot = self.slot(req_id)?;
        self.window.get_mut(slot)?.as_mut()
    }

    /// Resolve the open request `req_id` as `fate`, then pop every
    /// resolved slot off the window's front.
    fn resolve(&mut self, req_id: u64, fate: Fate) {
        self.fate[(req_id - 1) as usize] = fate;
        self.window[(req_id - self.window_base) as usize] = None;
        self.open -= 1;
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.window_base += 1;
        }
    }

    /// The timeout to arm right after transmitting `req_id` (`None` when
    /// reliability is off or the request already resolved). Returns the
    /// attempt number to stamp into the timeout event, so stale firings
    /// from superseded attempts can be ignored (the engine's
    /// generation-counter cancellation idiom).
    pub fn arm_timeout(&self, req_id: u64) -> Option<(u32, SimDuration)> {
        let policy = self.retry?;
        let pending = self.pending(req_id)?;
        Some((pending.attempt, policy.timeout_for(pending.attempt)))
    }

    /// The wire frame of request `msg`, for its first transmission and
    /// every retransmission alike (same id, service time and send
    /// timestamp — latency is measured from the *first* transmission).
    /// Source ports rotate with the request id so RSS-based systems see
    /// many flows (the paper's baselines need flow diversity to spread
    /// load at all), and each request's flow stays stable across retries.
    fn request_frame(msg: MsgRepr) -> FrameSpec {
        let mut src = AddressPlan::client_ep();
        // 1024 distinct source ports → plenty of flows for RSS.
        src.port = 7000 + (msg.req_id % 1024) as u16;
        FrameSpec {
            src_mac: AddressPlan::client_mac(),
            dst_mac: AddressPlan::dispatcher_mac(),
            src,
            dst: AddressPlan::dispatcher_ep(),
            msg,
        }
    }

    /// Resolve a live attempt that will never get a response: either
    /// retransmit (bumping the attempt) or abandon the request.
    fn expire(&mut self, req_id: u64) -> TimeoutOutcome {
        let Some(policy) = self.retry else {
            return TimeoutOutcome::Stale;
        };
        let Some(pending) = self.pending_mut(req_id) else {
            return TimeoutOutcome::Stale;
        };
        if !policy.may_retry(pending.attempt) {
            self.resolve(req_id, Fate::GaveUp);
            self.abandoned += 1;
            return TimeoutOutcome::Abandoned;
        }
        pending.attempt += 1;
        let attempt = pending.attempt;
        let msg = pending.msg;
        self.retries += 1;
        TimeoutOutcome::Retry {
            frame: Client::request_frame(msg),
            attempt,
            timeout: policy.timeout_for(attempt),
        }
    }

    /// A timeout armed for (`req_id`, `attempt`) fired at `now`.
    pub fn on_timeout(&mut self, _now: SimTime, req_id: u64, attempt: u32) -> TimeoutOutcome {
        match self.pending(req_id) {
            Some(p) if p.attempt == attempt => {}
            _ => return TimeoutOutcome::Stale, // resolved or superseded
        }
        self.timeouts += 1;
        self.expire(req_id)
    }

    /// An early NACK for `req_id` arrived at `now`: the dispatcher shed
    /// the current attempt, so resolve it immediately instead of waiting
    /// for the timeout.
    pub fn on_nack(&mut self, _now: SimTime, req_id: u64) -> TimeoutOutcome {
        if self.pending(req_id).is_none() {
            return TimeoutOutcome::Stale;
        }
        self.expire(req_id)
    }

    /// Absorb a response frame at `now`. In Response messages the
    /// `remaining_ns` field is repurposed as the NIC's load stamp (§5.2);
    /// when pacing is on, the client reacts to it. Duplicate responses
    /// (a retransmission raced the original) and orphans (the request was
    /// already abandoned) are counted and suppressed, never recorded. A
    /// response for an id the client never issued touches nothing.
    pub fn on_response(&mut self, now: SimTime, frame: &ParsedFrame) -> ResponseOutcome {
        let msg = frame.msg;
        let Some(index) = self.fate_index(msg.req_id) else {
            return ResponseOutcome::Unknown;
        };
        if let Some(p) = &mut self.pacing {
            p.observe(msg.remaining_ns);
        }
        match self.fate[index] {
            Fate::Done => {
                self.duplicates += 1;
                return ResponseOutcome::Duplicate;
            }
            Fate::GaveUp => {
                self.orphaned += 1;
                return ResponseOutcome::Orphaned;
            }
            Fate::Open => {}
        }
        self.resolve(msg.req_id, Fate::Done);
        self.done += 1;
        let service = SimDuration::from_nanos(msg.service_ns);
        let sent_at = SimTime::from_nanos(msg.sent_at_ns);
        let class = self.spec.class_of(service);
        self.recorder.record(now, sent_at, service, class);
        ResponseOutcome::Recorded
    }

    /// Audit client bookkeeping: the fate table holds one entry per
    /// request sent, and every sent request is completed, abandoned or
    /// still open, each term counted on its own. O(1), called per event
    /// on invcheck runs.
    pub fn check_invariants(&self, now: SimTime, inv: &mut InvariantChecker) {
        inv.check_conservation(
            now,
            "client fate table (entries = sent)",
            self.sent,
            self.fate.len() as u64,
        );
        inv.check_conservation(
            now,
            "client requests (sent = done + abandoned + open)",
            self.sent,
            self.done + self.abandoned + self.open,
        );
    }

    /// The client-side half of the fault ledger (assemblies overlay the
    /// model-side counters: link losses, ring drops, sheds, strandings).
    pub fn fault_metrics(&self) -> FaultMetrics {
        FaultMetrics {
            attempts: self.sent + self.retries,
            launched: self.sent,
            completed_all: self.done,
            retries: self.retries,
            timeouts: self.timeouts,
            duplicates: self.duplicates,
            orphaned: self.orphaned,
            abandoned: self.abandoned,
            open_at_horizon: self.open,
            ..FaultMetrics::default()
        }
    }
}

/// The client's half of [`RunMetrics`]: latency, throughput and the
/// client-side fault ledger. The runner adds the server's counts.
pub fn assemble_metrics(client: &Client) -> RunMetrics {
    let rec = &client.recorder;
    RunMetrics {
        offered_rps: client.spec().offered_rps,
        achieved_rps: rec.achieved_rps(),
        p50: rec.p50().unwrap_or(SimDuration::ZERO),
        p99: rec.p99().unwrap_or(SimDuration::ZERO),
        p999: rec.p999().unwrap_or(SimDuration::ZERO),
        p99_short: rec
            .class_histogram(ReqClass::Short)
            .p99()
            .map(SimDuration::from_nanos)
            .unwrap_or(SimDuration::ZERO),
        p99_long: rec
            .class_histogram(ReqClass::Long)
            .p99()
            .map(SimDuration::from_nanos)
            .unwrap_or(SimDuration::ZERO),
        mean: rec.mean().unwrap_or(SimDuration::ZERO),
        completed: rec.completed,
        dropped: 0,
        preemptions: 0,
        worker_utilization: 0.0,
        stages: None,
        faults: client.fault_metrics(),
    }
}

/// The key of `name` in an assembly's probe-name table, found at compile
/// time (a missing name fails the build), so the hot path records under
/// dense keys.
const fn key_of(names: &[&str], name: &str) -> ProbeKey {
    let mut i = 0;
    while i < names.len() {
        let (a, b) = (names[i].as_bytes(), name.as_bytes());
        let mut same = a.len() == b.len();
        let mut j = 0;
        while same && j < a.len() {
            same = a[j] == b[j];
            j += 1;
        }
        if same {
            return ProbeKey::new(i as u32);
        }
        i += 1;
    }
    panic!("probe name is not in the table");
}

/// Client-side events, which every assembly's event type wraps.
pub(crate) enum ClientEv {
    /// The client emits its next request.
    Send,
    /// A request frame from the client wire reaches the server.
    ToServer(Bytes),
    /// A response (or NACK) frame reaches the client.
    ToClient(Bytes),
    /// A client retransmit timer fires for one attempt of one request.
    Timeout {
        /// Request id the timer guards.
        req_id: u64,
        /// Attempt number the timer was armed for (stale if superseded).
        attempt: u32,
    },
}

/// The probe keys the front end records under.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrontKeys {
    sent: ProbeKey,
    sent_mark: ProbeKey,
    responses: ProbeKey,
    response_mark: ProbeKey,
    retries: ProbeKey,
    nacks: ProbeKey,
    req_lost: ProbeKey,
    resp_lost: ProbeKey,
}

impl FrontKeys {
    /// The front end's keys in an assembly's probe-name table; `response`
    /// is the key of the assembly's last request-path hop.
    pub(crate) const fn new(names: &[&str], response: ProbeKey) -> FrontKeys {
        FrontKeys {
            sent: key_of(names, "client.sent"),
            sent_mark: key_of(names, "path.0_client_send"),
            responses: key_of(names, "client.responses"),
            response_mark: response,
            retries: key_of(names, "client.retries"),
            nacks: key_of(names, "client.nacks"),
            req_lost: key_of(names, "wire.req_lost"),
            resp_lost: key_of(names, "wire.resp_lost"),
        }
    }
}

/// The client and its two wires: what every assembly puts in front of
/// its dispatch stage. It sends requests (and retransmissions) over the
/// possibly lossy client→server link, carries responses and NACKs back
/// over the server→client link, and counts the frames either link lost.
/// Its events are the assembly's events `E`, built by `wrap`.
#[derive(Debug)]
pub(crate) struct FrontEnd<E> {
    /// The open-loop client.
    pub(crate) client: Client,
    wrap: fn(ClientEv) -> E,
    /// Run horizon: the client stops sending here.
    pub(crate) horizon: SimTime,
    client_link: Link,
    server_link: Link,
    keys: FrontKeys,
    /// Request frames lost on the client→server wire (i.i.d. + burst).
    req_lost: u64,
    /// Response/NACK frames lost on the server→client wire.
    resp_lost: u64,
    /// Early NACK frames sent for shed requests.
    nacks: u64,
}

impl<E> FrontEnd<E> {
    /// The client for `spec` (with the `arrivals` override and `res`'s
    /// retry policy) and its links (lossy at `res.faults.wire_loss`),
    /// forking their streams from the seed in that order.
    pub(crate) fn new(
        spec: WorkloadSpec,
        res: &ResilienceConfig,
        arrivals: Option<ArrivalProcess>,
        keys: FrontKeys,
        wrap: fn(ClientEv) -> E,
    ) -> FrontEnd<E> {
        let mut master = Rng::new(spec.seed);
        let mut client = Client::new(spec, &mut master);
        if let Some(process) = arrivals {
            client.override_arrivals(process, &mut master);
        }
        if let Some(policy) = res.retry {
            client.enable_retries(policy);
        }
        let loss = res.faults.wire_loss;
        let (client_link, server_link) = if loss > 0.0 {
            (
                Link::ten_gbe().with_loss(loss, master.fork()),
                Link::ten_gbe().with_loss(loss, master.fork()),
            )
        } else {
            (Link::ten_gbe(), Link::ten_gbe())
        };
        FrontEnd {
            client,
            wrap,
            horizon: spec.horizon(),
            client_link,
            server_link,
            keys,
            req_lost: 0,
            resp_lost: 0,
            nacks: 0,
        }
    }

    /// Transmit a client→server frame over the request wire.
    #[inline]
    fn send_request(&mut self, spec: &FrameSpec, ctx: &mut Ctx<'_, E>) {
        let payload_len = spec.frame_len() - net_wire::ethernet::HEADER_LEN;
        let bytes = spec.build();
        let now = ctx.now();
        let arrive = match ctx.faults().burst_frame_lost(now) {
            true => None,
            false => self.client_link.transmit_lossy(now, payload_len),
        };
        match arrive {
            Some(at) => ctx.schedule_at(at, (self.wrap)(ClientEv::ToServer(bytes))),
            None => {
                self.req_lost += 1;
                ctx.probe().count(self.keys.req_lost);
            }
        }
    }

    /// Transmit a server→client frame (response or NACK) over the
    /// response wire, starting at `depart`.
    #[inline]
    pub(crate) fn send_response(
        &mut self,
        spec: &FrameSpec,
        depart: SimTime,
        ctx: &mut Ctx<'_, E>,
    ) {
        let payload_len = spec.frame_len() - net_wire::ethernet::HEADER_LEN;
        let bytes = spec.build();
        let arrive = match ctx.faults().burst_frame_lost(depart) {
            true => None,
            false => self.server_link.transmit_lossy(depart, payload_len),
        };
        match arrive {
            Some(at) => ctx.schedule_at(at, (self.wrap)(ClientEv::ToClient(bytes))),
            None => {
                self.resp_lost += 1;
                ctx.probe().count(self.keys.resp_lost);
            }
        }
    }

    /// Tell the client at once that the dispatcher shed `task`: an early
    /// NACK departing at `depart`.
    pub(crate) fn send_nack(&mut self, task: &Task, depart: SimTime, ctx: &mut Ctx<'_, E>) {
        self.nacks += 1;
        let spec = AddressPlan::to_client(
            AddressPlan::dispatcher_mac(),
            AddressPlan::dispatcher_ep(),
            task_msg(MsgKind::Nack, task, 0, 0),
        );
        self.send_response(&spec, depart, ctx);
    }

    /// Handle a client event. A request frame reaching the server is
    /// parsed and handed back for the assembly to take in (one that does
    /// not parse is dropped); everything else ends here.
    #[inline]
    pub(crate) fn handle(
        &mut self,
        ev: ClientEv,
        ctx: &mut Ctx<'_, E>,
    ) -> Option<(Bytes, ParsedFrame)> {
        match ev {
            ClientEv::Send => {
                if ctx.now() >= self.horizon {
                    return None;
                }
                let spec = self.client.make_request(ctx.now());
                let req_id = spec.msg.req_id;
                ctx.probe().count(self.keys.sent);
                ctx.probe().mark(req_id, self.keys.sent_mark);
                self.send_request(&spec, ctx);
                if let Some((attempt, timeout)) = self.client.arm_timeout(req_id) {
                    ctx.schedule_in(timeout, (self.wrap)(ClientEv::Timeout { req_id, attempt }));
                }
                let gap = self.client.next_gap();
                ctx.schedule_in(gap, (self.wrap)(ClientEv::Send));
            }
            ClientEv::ToServer(bytes) => {
                let parsed = ParsedFrame::parse(&bytes).ok()?;
                return Some((bytes, parsed));
            }
            ClientEv::ToClient(bytes) => {
                let Ok(parsed) = ParsedFrame::parse(&bytes) else {
                    return None;
                };
                let req_id = parsed.msg.req_id;
                if parsed.msg.kind == MsgKind::Nack {
                    ctx.probe().count(self.keys.nacks);
                    let outcome = self.client.on_nack(ctx.now(), req_id);
                    self.retry(req_id, outcome, ctx);
                } else {
                    ctx.probe().count(self.keys.responses);
                    ctx.probe().finish(req_id, self.keys.response_mark);
                    self.client.on_response(ctx.now(), &parsed);
                }
            }
            ClientEv::Timeout { req_id, attempt } => {
                let outcome = self.client.on_timeout(ctx.now(), req_id, attempt);
                self.retry(req_id, outcome, ctx);
            }
        }
        None
    }

    /// Retransmit `req_id` and arm its next timeout, if `outcome` says so.
    fn retry(&mut self, req_id: u64, outcome: TimeoutOutcome, ctx: &mut Ctx<'_, E>) {
        if let TimeoutOutcome::Retry {
            frame,
            attempt,
            timeout,
        } = outcome
        {
            ctx.probe().count(self.keys.retries);
            self.send_request(&frame, ctx);
            ctx.schedule_in(timeout, (self.wrap)(ClientEv::Timeout { req_id, attempt }));
        }
    }
}

/// What a dispatcher's heartbeat ticks drive: the stale-feedback governor
/// and the lease-based failure detector, each optional.
#[derive(Debug)]
pub(crate) struct Liveness {
    /// Stale-feedback governor over the dispatcher's workers.
    governor: Option<FeedbackGovernor>,
    /// NIC-side failure-detection policy; the dispatcher owns the lease
    /// tracker, this copy drives the heartbeat cadence.
    recovery: Option<RecoveryPolicy>,
    switch_key: ProbeKey,
    redispatch_key: ProbeKey,
}

impl Liveness {
    /// The governor (`res.fallback`, over `workers` reporting with one-way
    /// `latency`) and detector (`res.recovery`) of one dispatcher, counting
    /// fallback switches and re-dispatches under `keys`.
    pub(crate) fn new(
        res: &ResilienceConfig,
        workers: usize,
        latency: SimDuration,
        keys: (ProbeKey, ProbeKey),
    ) -> Liveness {
        Liveness {
            governor: res
                .fallback
                .map(|p| FeedbackGovernor::new(workers, latency, p)),
            recovery: res.recovery,
            switch_key: keys.0,
            redispatch_key: keys.1,
        }
    }

    /// Whether workers heartbeat at all.
    pub(crate) fn is_on(&self) -> bool {
        self.governor.is_some() || self.recovery.is_some()
    }

    /// One heartbeat of worker `local` of `disp` (`global` in the fault
    /// plan): report to the governor and let it re-evaluate staleness and
    /// kick the dispatcher; renew the worker's lease through `renew` (given
    /// its occupancy) unless it is silenced; expire leases and re-dispatch
    /// orphans. Returns the assignments to emit and the interval to the
    /// next tick.
    #[inline]
    pub(crate) fn lease_tick<P: SchedPolicy, S: CoreSelector, E>(
        &mut self,
        ctx: &mut Ctx<'_, E>,
        disp: &mut Dispatcher<P, S>,
        (local, global): (usize, usize),
        busy: bool,
        renew: impl FnOnce(&mut Ctx<'_, E>, u32),
    ) -> (Vec<Assignment>, Option<SimDuration>) {
        let now = ctx.now();
        let silenced = ctx.faults().worker_down(global, now) || ctx.faults().feedback_blackout(now);
        let occupancy = disp.outstanding(local);
        let mut assignments = Vec::new();
        let mut next = None;
        if let Some(gov) = self.governor.as_mut() {
            if !silenced {
                gov.report(now, local, occupancy, busy);
            }
            let was_degraded = gov.is_degraded();
            gov.evaluate(now, disp);
            if gov.is_degraded() != was_degraded {
                ctx.probe().count(self.switch_key);
            }
            assignments = disp.kick(now);
            next = Some(gov.policy().heartbeat);
        }
        if let Some(policy) = self.recovery {
            // A silenced worker (crashed, stalled, or blacked out) cannot
            // renew its lease.
            if !silenced {
                renew(ctx, occupancy);
            }
            // Expire leases and re-dispatch orphans on the same tick, so
            // detection shares the event queue with everything else.
            let recovered = disp.check_health(now);
            if !recovered.is_empty() {
                ctx.probe().count(self.redispatch_key);
            }
            assignments.extend(recovered);
            next = Some(next.map_or(policy.heartbeat, |n: SimDuration| n.min(policy.heartbeat)));
        }
        (assignments, next)
    }

    /// Add the governor's counts to the fault ledger.
    pub(crate) fn ledger(&self, horizon: SimTime, fm: &mut FaultMetrics) {
        if let Some(gov) = &self.governor {
            fm.fallback_switches += gov.switches;
            fm.fallback_ns += gov.fallback_ns(horizon);
            fm.quarantines += gov.quarantines;
        }
    }
}

/// Add a dispatcher's shed and recovery counts to the fault ledger.
pub(crate) fn dispatcher_ledger<P: SchedPolicy, S: CoreSelector>(
    disp: &Dispatcher<P, S>,
    fm: &mut FaultMetrics,
) {
    fm.shed += disp.stats.shed;
    if let Some(h) = disp.health() {
        fm.recovered += disp.stats.recovered;
        fm.recovery_duplicates += disp.stats.late_duplicates;
        fm.suspicions += h.stats.suspicions;
        fm.readmissions += h.stats.readmissions;
    }
}

/// Why a worker cannot start work now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Halt {
    /// Dead silicon: it never works again.
    Crashed,
    /// Stalled: `retry` is scheduled for when the stall ends.
    Stalled,
}

/// Check worker `w` (its fault-plan index) before it starts work.
#[inline]
pub(crate) fn start_check<E>(ctx: &mut Ctx<'_, E>, w: usize, retry: E) -> Option<Halt> {
    let now = ctx.now();
    if ctx.faults().worker_crashed(w, now) {
        return Some(Halt::Crashed);
    }
    if let Some(resume) = ctx.faults().worker_stalled_until(w, now) {
        ctx.schedule_at(resume, retry);
        return Some(Halt::Stalled);
    }
    None
}

/// A host worker's per-dispatch overheads, priced once when an assembly is
/// built: handlers add these durations and never convert cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WorkerPrices {
    /// Context spawn, restore and save.
    pub ctx: ContextPrices,
    /// Arming the worker-local slice timer; zero when preemption
    /// interrupts come from the NIC, which needs no worker-side arming.
    pub timer_set: SimDuration,
    /// Taking the preemption interrupt.
    pub interrupt_receive: SimDuration,
}

impl WorkerPrices {
    /// Prices on a host core whose preemption interrupts arrive over
    /// `interrupt`.
    pub fn new(interrupt: InterruptPath) -> WorkerPrices {
        let host = CoreSpec::host_x86();
        WorkerPrices {
            ctx: ContextCosts::default().priced(&host),
            timer_set: match interrupt {
                InterruptPath::LocalTimer(mode) => mode.set_cost(&host),
                _ => SimDuration::ZERO,
            },
            interrupt_receive: interrupt.receive_cost(&host),
        }
    }
}

/// Wall time worker `w` takes for `work` starting now: a slowdown window
/// (thermal throttling) stretches it while the useful work is unchanged.
#[inline]
pub(crate) fn stretched<E>(ctx: &mut Ctx<'_, E>, w: usize, work: SimDuration) -> SimDuration {
    let now = ctx.now();
    let slow = ctx.faults().worker_slowdown(w, now);
    if slow > 1.0 {
        work.mul_f64(slow)
    } else {
        work
    }
}

/// Mean utilization of `cores` over `[0, horizon)`.
pub(crate) fn mean_utilization<'a>(
    cores: impl Iterator<Item = &'a Core> + Clone,
    horizon: SimTime,
) -> f64 {
    let n = cores.clone().count();
    cores.map(|c| c.utilization(horizon)).sum::<f64>() / n as f64
}

/// One server design behind the shared client front end: how to build it,
/// what it schedules at start-up, and its part of the fault ledger.
pub(crate) trait Assembly: Model + Sized {
    /// The assembly's configuration.
    type Config;
    /// Every probe name the assembly records, registered once per run.
    const PROBE_NAMES: &'static [&'static str];

    /// Build the model for one run of `spec`.
    fn build(spec: WorkloadSpec, cfg: &Self::Config, res: ResilienceConfig) -> Self;

    /// The client front end.
    fn front(&self) -> &FrontEnd<Self::Event>;

    /// Events to schedule after the client's first send (heartbeats and
    /// controller ticks).
    fn startup(&self) -> Vec<(SimTime, Self::Event)>;

    /// Its part of the metrics at `horizon`: worker utilization,
    /// preemptions, and the fault-ledger counts the client cannot see
    /// (ring drops, stranding, shed, governor and recovery counts).
    fn ledger(&self, horizon: SimTime, m: &mut RunMetrics);
}

/// Run one assembly: build it, register its probe names, arm the
/// invariant checker and fault plan, seed the client, run to the horizon,
/// then assemble the metrics and close the invariants. Returns the
/// engine's counts beside the metrics, and the model too, for the side
/// channels a few experiments read.
pub(crate) fn run<A: Assembly>(
    spec: WorkloadSpec,
    cfg: &A::Config,
    probe: ProbeConfig,
    res: ResilienceConfig,
) -> ((RunMetrics, EngineStats), A) {
    let mut engine = Engine::new(A::build(spec, cfg, res));
    engine.set_probe(Probe::new(probe).register(A::PROBE_NAMES));
    engine.set_invariants(checker_for(&res));
    if res.is_active() {
        engine.set_faults(FaultPlan::new(res.faults, spec.seed ^ FAULT_SEED_SALT));
    }
    let send = (engine.model().front().wrap)(ClientEv::Send);
    engine.schedule_at(SimTime::ZERO, send);
    for (at, ev) in engine.model().startup() {
        engine.schedule_at(at, ev);
    }
    let horizon = spec.horizon();
    engine.run_until(horizon);
    let model = engine.model();
    let front = model.front();
    let mut metrics = assemble_metrics(&front.client);
    metrics.faults.req_link_lost = front.req_lost;
    metrics.faults.resp_link_lost = front.resp_lost;
    metrics.faults.nacks = front.nacks;
    model.ledger(horizon, &mut metrics);
    let fm = &metrics.faults;
    metrics.dropped = fm.ring_dropped + fm.link_lost() + fm.shed;
    if probe.enabled {
        metrics.stages = Some(engine.probe_mut().report(horizon));
    }
    close_invariants(engine.take_invariants(), horizon, &metrics);
    let stats = engine.stats();
    ((metrics, stats), engine.into_model())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use workload::ServiceDist;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new(100_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)))
    }

    #[test]
    fn addressing_is_unique() {
        let mut macs = std::collections::BTreeSet::new();
        macs.insert(AddressPlan::client_mac());
        macs.insert(AddressPlan::dispatcher_mac());
        for i in 0..16 {
            macs.insert(AddressPlan::worker_mac(i));
        }
        assert_eq!(macs.len(), 18, "all MACs distinct");
    }

    #[test]
    fn client_request_frames_parse_back() {
        let mut master = Rng::new(7);
        let mut client = Client::new(spec(), &mut master);
        let f = client.make_request(SimTime::from_micros(3));
        let parsed = ParsedFrame::parse(&f.build()).unwrap();
        assert_eq!(parsed.msg.req_id, 1);
        assert_eq!(parsed.msg.service_ns, 5_000);
        assert_eq!(parsed.msg.sent_at_ns, 3_000);
        assert_eq!(parsed.eth.dst_addr, AddressPlan::dispatcher_mac());
        assert_eq!(client.sent, 1);
    }

    #[test]
    fn request_ids_are_sequential_and_ports_rotate() {
        let mut master = Rng::new(7);
        let mut client = Client::new(spec(), &mut master);
        let a = client.make_request(SimTime::ZERO);
        let b = client.make_request(SimTime::ZERO);
        assert_eq!(a.msg.req_id + 1, b.msg.req_id);
        assert_ne!(a.src.port, b.src.port, "flows should differ for RSS");
    }

    #[test]
    fn response_round_trip_records_latency() {
        let mut master = Rng::new(9);
        let mut s = spec();
        s.warmup = SimDuration::ZERO;
        let mut client = Client::new(s, &mut master);
        let req = client.make_request(SimTime::from_micros(10));
        let resp_spec = FrameSpec {
            msg: req.msg.response(),
            ..req
        };
        let parsed = ParsedFrame::parse(&resp_spec.build()).unwrap();
        client.on_response(SimTime::from_micros(30), &parsed);
        assert_eq!(client.recorder.completed, 1);
        assert_eq!(client.recorder.p99(), Some(SimDuration::from_micros(20)));
    }

    #[test]
    fn retry_flow_retransmits_then_abandons() {
        let mut master = Rng::new(5);
        let mut client = Client::new(spec(), &mut master);
        let policy = RetryPolicy {
            timeout: SimDuration::from_micros(100),
            backoff: 2.0,
            max_timeout: SimDuration::from_micros(300),
            max_attempts: 3,
        };
        client.enable_retries(policy);
        let f = client.make_request(SimTime::ZERO);
        let id = f.msg.req_id;
        let (attempt, t) = client.arm_timeout(id).unwrap();
        assert_eq!((attempt, t), (1, SimDuration::from_micros(100)));
        // First timeout: retransmit with doubled timeout.
        let out = client.on_timeout(SimTime::from_micros(100), id, 1);
        let TimeoutOutcome::Retry {
            frame,
            attempt,
            timeout,
        } = out
        else {
            panic!("expected retry, got {out:?}");
        };
        assert_eq!(frame.msg, f.msg, "retransmit is byte-identical");
        assert_eq!(attempt, 2);
        assert_eq!(timeout, SimDuration::from_micros(200));
        // A stale firing of the superseded attempt is ignored.
        assert_eq!(
            client.on_timeout(SimTime::from_micros(150), id, 1),
            TimeoutOutcome::Stale
        );
        // Second timeout: third (= last) attempt.
        assert!(matches!(
            client.on_timeout(SimTime::from_micros(300), id, 2),
            TimeoutOutcome::Retry { attempt: 3, .. }
        ));
        // Third timeout: budget exhausted.
        assert_eq!(
            client.on_timeout(SimTime::from_micros(600), id, 3),
            TimeoutOutcome::Abandoned
        );
        assert_eq!(client.retries, 2);
        assert_eq!(client.timeouts, 3);
        assert_eq!(client.abandoned, 1);
        let fm = client.fault_metrics();
        assert_eq!(fm.attempts, 3);
        assert_eq!(fm.launched, 1);
        assert_eq!(fm.unaccounted(), 0, "abandonment closes the ledger");
    }

    #[test]
    fn duplicate_and_orphan_responses_are_suppressed() {
        let mut master = Rng::new(5);
        let mut s = spec();
        s.warmup = SimDuration::ZERO;
        let mut client = Client::new(s, &mut master);
        client.enable_retries(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::paper_default()
        });
        let req = client.make_request(SimTime::ZERO);
        let resp = ParsedFrame::parse(
            &FrameSpec {
                msg: req.msg.response(),
                ..req
            }
            .build(),
        )
        .unwrap();
        assert_eq!(
            client.on_response(SimTime::from_micros(10), &resp),
            ResponseOutcome::Recorded
        );
        assert_eq!(
            client.on_response(SimTime::from_micros(12), &resp),
            ResponseOutcome::Duplicate
        );
        assert_eq!(client.recorder.completed, 1, "recorded exactly once");
        // An abandoned request's late response is an orphan.
        let req2 = client.make_request(SimTime::ZERO);
        assert_eq!(
            client.on_timeout(SimTime::from_millis(1), req2.msg.req_id, 1),
            TimeoutOutcome::Abandoned
        );
        let resp2 = ParsedFrame::parse(
            &FrameSpec {
                msg: req2.msg.response(),
                ..req2
            }
            .build(),
        )
        .unwrap();
        assert_eq!(
            client.on_response(SimTime::from_millis(2), &resp2),
            ResponseOutcome::Orphaned
        );
        let fm = client.fault_metrics();
        assert_eq!(fm.duplicates, 1);
        assert_eq!(fm.orphaned, 1);
        assert_eq!(fm.unaccounted(), 0);
    }

    #[test]
    fn nack_triggers_immediate_retry() {
        let mut master = Rng::new(5);
        let mut client = Client::new(spec(), &mut master);
        client.enable_retries(RetryPolicy::paper_default());
        let f = client.make_request(SimTime::ZERO);
        let out = client.on_nack(SimTime::from_micros(5), f.msg.req_id);
        assert!(matches!(out, TimeoutOutcome::Retry { attempt: 2, .. }));
        assert_eq!(client.timeouts, 0, "a NACK is not a timeout");
        assert_eq!(client.retries, 1);
        assert_eq!(
            client.on_nack(SimTime::from_micros(5), 999),
            TimeoutOutcome::Stale
        );
    }

    #[test]
    fn governor_degrades_quarantines_and_recovers() {
        use nicsched::{Fcfs, LeastOutstanding};
        let us = SimTime::from_micros;
        let policy = StalenessPolicy {
            degrade_after: SimDuration::from_micros(25),
            quarantine_after: SimDuration::from_micros(75),
            heartbeat: SimDuration::from_micros(5),
        };
        let mut gov = FeedbackGovernor::new(2, SimDuration::from_micros(2), policy);
        let mut disp = Dispatcher::new(2, 1, Fcfs::new(), LeastOutstanding);
        // Both workers report early: healthy.
        gov.report(us(1), 0, 0, false);
        gov.report(us(1), 1, 0, false);
        gov.evaluate(us(5), &mut disp);
        assert!(!gov.is_degraded());
        // Worker 1 goes silent; worker 0 keeps reporting. Evaluate after the
        // 2 µs channel latency so the fresh report has actually landed.
        gov.report(us(30), 0, 0, false);
        gov.evaluate(us(33), &mut disp);
        assert!(!gov.is_degraded(), "one stale of two is not a majority");
        gov.report(us(80), 0, 0, false);
        gov.evaluate(us(83), &mut disp);
        assert!(disp.is_excluded(1), "silent worker quarantined");
        assert!(!disp.is_excluded(0));
        assert_eq!(gov.quarantines, 1);
        // Total blackout: both silent long enough -> hashed fallback.
        gov.evaluate(us(130), &mut disp);
        assert!(gov.is_degraded());
        assert!(disp.is_degraded());
        assert_eq!(gov.switches, 1);
        // Both resume reporting: fallback lifts, quarantine releases.
        gov.report(us(140), 0, 0, false);
        gov.report(us(140), 1, 0, false);
        gov.evaluate(us(143), &mut disp);
        assert!(!gov.is_degraded());
        assert!(!disp.is_excluded(1));
        assert_eq!(gov.fallback_ns(us(143)), gov.degraded_ns);
        assert!(gov.degraded_ns >= 13_000, "degraded 130->143us");
    }

    #[test]
    fn metrics_assembly() {
        let mut master = Rng::new(9);
        let mut s = spec();
        s.warmup = SimDuration::ZERO;
        let mut client = Client::new(s, &mut master);
        let req = client.make_request(SimTime::ZERO);
        let resp = ParsedFrame::parse(
            &FrameSpec {
                msg: req.msg.response(),
                ..req
            }
            .build(),
        )
        .unwrap();
        client.on_response(SimTime::from_micros(15), &resp);
        let m = assemble_metrics(&client);
        assert_eq!(m.completed, 1);
        assert_eq!(m.faults.launched, 1);
        assert_eq!(m.p99, SimDuration::from_micros(15));
    }

    #[test]
    fn responses_for_unissued_ids_touch_nothing() {
        let mut master = Rng::new(3);
        let mut s = spec();
        s.warmup = SimDuration::ZERO;
        let mut client = Client::new(s, &mut master);
        client.enable_retries(RetryPolicy::paper_default());
        let req = client.make_request(SimTime::ZERO);
        let mut resp = ParsedFrame::parse(
            &FrameSpec {
                msg: req.msg.response(),
                ..req
            }
            .build(),
        )
        .unwrap();
        let before = client.fault_metrics();
        for id in [0, client.next_id, u64::MAX] {
            resp.msg.req_id = id;
            assert_eq!(
                client.on_response(SimTime::from_micros(9), &resp),
                ResponseOutcome::Unknown,
                "id {id}"
            );
            assert_eq!(
                client.on_timeout(SimTime::ZERO, id, 1),
                TimeoutOutcome::Stale
            );
            assert_eq!(client.on_nack(SimTime::ZERO, id), TimeoutOutcome::Stale);
            assert_eq!(client.arm_timeout(id), None);
        }
        assert_eq!(client.recorder.completed, 0, "no latency sample");
        assert_eq!(client.fault_metrics(), before, "no counter moved");
        let mut inv = InvariantChecker::new(InvariantConfig::enabled());
        client.check_invariants(SimTime::ZERO, &mut inv);
        assert!(inv.violations().is_empty(), "{:?}", inv.violations());
        // The one issued request still resolves normally.
        resp.msg.req_id = req.msg.req_id;
        assert_eq!(
            client.on_response(SimTime::from_micros(9), &resp),
            ResponseOutcome::Recorded
        );
    }

    /// The client ledger as ordered maps keyed by request id — the shape
    /// the fate table and open window replaced. Driven in lockstep with
    /// [`Client`] by the differential test below.
    #[derive(Default)]
    struct MapLedger {
        retry: Option<RetryPolicy>,
        outstanding: BTreeMap<u64, PendingReq>,
        done: BTreeSet<u64>,
        gave_up: BTreeSet<u64>,
        fm: FaultMetrics,
    }

    impl MapLedger {
        fn send(&mut self, msg: MsgRepr) {
            self.fm.launched += 1;
            self.fm.attempts += 1;
            self.outstanding
                .insert(msg.req_id, PendingReq { msg, attempt: 1 });
        }

        fn arm_timeout(&self, id: u64) -> Option<(u32, SimDuration)> {
            let attempt = self.outstanding.get(&id)?.attempt;
            Some((attempt, self.retry?.timeout_for(attempt)))
        }

        fn expire(&mut self, id: u64) -> TimeoutOutcome {
            let (Some(policy), Some(p)) = (self.retry, self.outstanding.get_mut(&id)) else {
                return TimeoutOutcome::Stale;
            };
            if !policy.may_retry(p.attempt) {
                self.outstanding.remove(&id);
                self.gave_up.insert(id);
                self.fm.abandoned += 1;
                return TimeoutOutcome::Abandoned;
            }
            p.attempt += 1;
            self.fm.retries += 1;
            self.fm.attempts += 1;
            TimeoutOutcome::Retry {
                frame: Client::request_frame(p.msg),
                attempt: p.attempt,
                timeout: policy.timeout_for(p.attempt),
            }
        }

        fn on_timeout(&mut self, id: u64, attempt: u32) -> TimeoutOutcome {
            if self.outstanding.get(&id).map(|p| p.attempt) != Some(attempt) {
                return TimeoutOutcome::Stale;
            }
            self.fm.timeouts += 1;
            self.expire(id)
        }

        fn on_nack(&mut self, id: u64) -> TimeoutOutcome {
            if !self.outstanding.contains_key(&id) {
                return TimeoutOutcome::Stale;
            }
            self.expire(id)
        }

        fn on_response(&mut self, id: u64) -> ResponseOutcome {
            if self.done.contains(&id) {
                self.fm.duplicates += 1;
                return ResponseOutcome::Duplicate;
            }
            if self.gave_up.contains(&id) {
                self.fm.orphaned += 1;
                return ResponseOutcome::Orphaned;
            }
            self.done.insert(id);
            self.outstanding.remove(&id);
            ResponseOutcome::Recorded
        }

        fn fault_metrics(&self) -> FaultMetrics {
            FaultMetrics {
                completed_all: self.done.len() as u64,
                open_at_horizon: self.outstanding.len() as u64,
                ..self.fm
            }
        }
    }

    /// Seeded random traffic against both ledgers: out-of-order responses,
    /// duplicates and orphans, stale and superseded timeouts, NACKs for
    /// resolved ids. With `pin`, request 1 stays untouched for the first
    /// `pin` steps, so the open window can never pop its front while
    /// thousands of later ids resolve. Returns how often each response
    /// and timeout outcome occurred: the [`ResponseOutcome`] variants,
    /// then Stale, Retry and Abandoned.
    fn drive_both(seed: u64, retry: Option<RetryPolicy>, steps: u32, pin: u32) -> [u32; 7] {
        let mut master = Rng::new(seed);
        let mut rng = master.fork();
        let mut s = spec();
        s.warmup = SimDuration::ZERO;
        let mut client = Client::new(s, &mut master);
        let mut reference = MapLedger {
            retry,
            ..MapLedger::default()
        };
        if let Some(policy) = retry {
            client.enable_retries(policy);
        }
        let first = client.make_request(SimTime::ZERO);
        reference.send(first.msg);
        let mut template = ParsedFrame::parse(
            &FrameSpec {
                msg: first.msg.response(),
                ..first
            }
            .build(),
        )
        .unwrap();
        let mut issued = vec![first.msg];
        let mut seen = [0u32; 7];
        let mut inv = InvariantChecker::new(InvariantConfig::enabled());
        for step in 0..steps {
            if step == pin && pin > 0 {
                let resolved = reference.done.len() + reference.gave_up.len();
                assert!(resolved > 2_000, "only {resolved} later ids resolved");
                assert_eq!(client.window_base, 1, "request 1 holds the front");
                assert!(client.window.len() > 2_000);
            }
            let now = SimTime::from_micros(u64::from(step));
            if rng.chance(0.3) {
                let frame = client.make_request(now);
                reference.send(frame.msg);
                issued.push(frame.msg);
            } else {
                let n = issued.len() as u64;
                // Mostly recent ids (responses overtake each other), else
                // any id ever issued (late duplicates, orphans, stale
                // firings).
                let pick = if rng.chance(0.7) {
                    n - 1 - rng.next_below(n.min(16))
                } else {
                    rng.next_below(n)
                };
                let id = pick + 1;
                if id == 1 && step < pin {
                    continue;
                }
                match rng.next_below(10) {
                    0..=4 => {
                        template.msg = issued[pick as usize].response();
                        let got = client.on_response(now, &template);
                        assert_eq!(got, reference.on_response(id), "seed {seed} step {step}");
                        seen[got as usize] += 1;
                    }
                    5..=7 => {
                        // The live attempt half the time, else any attempt
                        // number: stale or superseded.
                        let live = reference.outstanding.get(&id).map(|p| p.attempt);
                        let attempt = match live {
                            Some(a) if rng.chance(0.5) => a,
                            _ => 1 + rng.next_below(4) as u32,
                        };
                        let got = client.on_timeout(now, id, attempt);
                        let want = reference.on_timeout(id, attempt);
                        assert_eq!(got, want, "seed {seed} step {step}");
                        seen[4 + timeout_tag(&got)] += 1;
                    }
                    8 => {
                        let got = client.on_nack(now, id);
                        assert_eq!(got, reference.on_nack(id), "seed {seed} step {step}");
                        seen[4 + timeout_tag(&got)] += 1;
                    }
                    _ => assert_eq!(client.arm_timeout(id), reference.arm_timeout(id)),
                }
            }
            assert_eq!(
                client.fault_metrics(),
                reference.fault_metrics(),
                "seed {seed} step {step}"
            );
            assert_eq!(client.recorder.completed, reference.done.len() as u64);
            client.check_invariants(now, &mut inv);
        }
        assert!(inv.violations().is_empty(), "{:?}", inv.violations());
        seen
    }

    /// Index of a timeout outcome's variant (Stale, Retry, Abandoned).
    fn timeout_tag(o: &TimeoutOutcome) -> usize {
        match o {
            TimeoutOutcome::Stale => 0,
            TimeoutOutcome::Retry { .. } => 1,
            TimeoutOutcome::Abandoned => 2,
        }
    }

    #[test]
    fn ledger_matches_the_ordered_map_reference() {
        let mut seen = [0u32; 7];
        for seed in 0..16 {
            let retry = match seed % 4 {
                0 => None,
                k => Some(RetryPolicy {
                    max_attempts: k as u32,
                    ..RetryPolicy::paper_default()
                }),
            };
            let pin = if seed % 2 == 0 { 12_000 } else { 0 };
            let counts = drive_both(seed, retry, 14_000, pin);
            seen.iter_mut().zip(counts).for_each(|(a, b)| *a += b);
        }
        // Every outcome but Unknown (never sent here) actually occurred.
        let [recorded, duplicate, orphaned, _, stale, retry, abandoned] = seen;
        for (what, n) in [
            ("recorded", recorded),
            ("duplicate", duplicate),
            ("orphaned", orphaned),
            ("stale", stale),
            ("retry", retry),
            ("abandoned", abandoned),
        ] {
            assert!(n > 100, "{what} occurred only {n} times");
        }
    }
}
