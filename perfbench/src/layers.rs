//! Per-layer replays: each layer's public function called from here with
//! workload-shaped inputs, timed in batches inside spans. Multiplied by
//! the work counts a probed rep reports, they give each layer's share of
//! a rep's wall time.

use std::collections::VecDeque;
use std::hint::black_box;

use net_wire::{FrameSpec, MsgRepr, ParsedFrame};
use nic_model::Rss;
use nicsched::{Dispatcher, LeastOutstanding, RecoveryPolicy, Task};
use sim_core::{
    Ctx, Engine, EventQueue, Model, Probe, ProbeConfig, ProbeHandle, Rng, SimDuration, SimTime,
    StageReport,
};
use systems::common::AddressPlan;
use workload::{ArrivalGen, ArrivalProcess, LatencyRecorder, WorkloadSpec};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{DispatcherShape, Workload};

/// Work one rep did, per layer, read from a probed rep's stage report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkCounts {
    /// Requests the client launched (`client.sent`); the per-request
    /// denominator.
    pub sent: f64,
    /// Frames built.
    pub frames: f64,
    /// Frames parsed: each built frame once, plus the re-parses.
    pub parses: f64,
    /// RSS steering decisions.
    pub steers: f64,
    /// Dispatcher enqueues (fresh and preempt-requeued).
    pub enqueues: f64,
    /// Preempted requests re-queued.
    pub requeues: f64,
    /// Heartbeats the dispatcher absorbed.
    pub heartbeats: f64,
    /// Completions the client recorded (`client.responses`).
    pub records: f64,
    /// Client retransmissions.
    pub retries: f64,
    /// Probe calls the report accounts for: counter increments, hop
    /// samples and busy transitions. Depth-gauge updates leave no count,
    /// so this is a lower bound. Zero when the workload runs unprobed.
    pub probe_calls: f64,
}

impl WorkCounts {
    /// Read the counts of workload `w` from a probed rep's report.
    pub fn from_report(w: &Workload, r: &StageReport) -> WorkCounts {
        let c = |name: &str| r.counter(name) as f64;
        let (enqueues, requeues, heartbeats) = w.dispatcher.map_or((0.0, 0.0, 0.0), |d| {
            (c(d.enqueue) + c(d.requeue), c(d.requeue), c(d.heartbeat))
        });
        let probe_calls = if w.probed {
            let counters: u64 = r.counters.iter().map(|(_, v)| v).sum();
            let hops: u64 = r.hops.iter().map(|h| h.count).sum();
            let busy: u64 = r.stages.iter().map(|s| s.busy_transitions).sum();
            (counters + hops + busy) as f64
        } else {
            0.0
        };
        let frames: f64 = w.frame_counters.iter().map(|n| c(n)).sum();
        WorkCounts {
            sent: c("client.sent"),
            frames,
            parses: frames + w.reparse_counters.iter().map(|n| c(n)).sum::<f64>(),
            steers: w.steer_counter.map_or(0.0, c),
            enqueues,
            requeues,
            heartbeats,
            records: c("client.responses"),
            retries: c("client.retries"),
            probe_calls,
        }
    }
}

/// Cost per call of each layer's public function, in nanoseconds. A
/// function the workload never calls is not replayed and reads 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCosts {
    /// `Engine::run` on a chain model, per event.
    pub engine_event: f64,
    /// `EventQueue` push or pop over a standing population, per op.
    pub queue_op: f64,
    /// `FrameSpec::build` at the workload's body length.
    pub build: f64,
    /// `ParsedFrame::parse` of such a frame.
    pub parse: f64,
    /// `Rss::steer` over the client's flows.
    pub steer: f64,
    /// `Dispatcher::on_request` + `on_done`, one cycle.
    pub decision: f64,
    /// `Dispatcher::on_heartbeat` with recovery on.
    pub heartbeat: f64,
    /// `ArrivalGen::next_gap` + `ServiceDist::sample`.
    pub arrival: f64,
    /// `LatencyRecorder::record`.
    pub record: f64,
    /// `ProbeHandle::count` over the workload's counter names.
    pub probe_call: f64,
}

/// A self-rescheduling event chain: the engine loop with a trivial
/// handler.
struct Chains {
    left: u64,
}

impl Model for Chains {
    type Event = u64;
    fn handle(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
        if self.left == 0 {
            ctx.stop();
            return;
        }
        self.left -= 1;
        let gap = 100 + ev.wrapping_mul(0x9E37_79B9) % 900;
        ctx.schedule_in(SimDuration::from_nanos(gap), ev.wrapping_add(1));
    }
}

/// The client's request frame for request `i` of `spec`.
fn request_frame(spec: &WorkloadSpec, i: u64, service: SimDuration) -> FrameSpec {
    let mut src = AddressPlan::client_ep();
    src.port = 7000 + (i % 1024) as u16;
    FrameSpec {
        src_mac: AddressPlan::client_mac(),
        dst_mac: AddressPlan::dispatcher_mac(),
        src,
        dst: AddressPlan::dispatcher_ep(),
        msg: MsgRepr::request(i, 0, service.as_nanos(), i * 1_000, spec.body_len),
    }
}

/// Replays of every layer one workload touches. Each [`Layers::batch`]
/// call times one batch per layer inside spans; batches are spread over
/// the traced run so they see the same host conditions as its reps, and
/// each cost is the median batch. A function the workload never calls is
/// not replayed and reads 0.
pub struct Layers {
    w: Workload,
    spec: WorkloadSpec,
    counts: WorkCounts,
    counter_names: Vec<&'static str>,
    services: Vec<SimDuration>,
    frames: Vec<Vec<u8>>,
    samples: [Vec<f64>; LAYERS],
}

const LAYERS: usize = 10;

impl Layers {
    /// Replays for workload `w` at `seed`, scaled by the work counts of a
    /// probed rep; `counter_names` are the probe counters that rep used.
    pub fn new(
        w: &Workload,
        seed: u64,
        counts: WorkCounts,
        counter_names: Vec<&'static str>,
    ) -> Layers {
        let spec = w.spec(seed);
        let mut rng = Rng::new(seed);
        let services: Vec<SimDuration> = (0..1024).map(|_| spec.dist.sample(&mut rng)).collect();
        let frames = (0..64u64)
            .map(|i| {
                request_frame(&spec, i, services[i as usize])
                    .build()
                    .to_vec()
            })
            .collect();
        Layers {
            w: *w,
            spec,
            counts,
            counter_names,
            services,
            frames,
            samples: Default::default(),
        }
    }

    /// Time one batch of `n` calls into every layer the workload uses,
    /// each inside a span under `parent`.
    pub fn batch(&mut self, tracer: &mut Tracer, trace: u64, parent: usize, n: u64) {
        let (w, spec, counts) = (&self.w, &self.spec, &self.counts);
        let services = &self.services;
        let mut time = |slot: usize, name: &'static str, run: &mut dyn FnMut() -> u64| {
            let (calls, ns) = tracer.span(trace, name, Some(parent), run);
            self.samples[slot].push(ns as f64 / calls.max(1) as f64);
        };
        time(0, "sim-core.engine", &mut || {
            let mut engine = Engine::new(Chains { left: n });
            for i in 0..64 {
                engine.schedule_at(SimTime::from_nanos(i), i);
            }
            engine.run();
            black_box(engine.events_processed())
        });
        time(1, "sim-core.queue", &mut || {
            let mut q: EventQueue<[u64; 4]> = EventQueue::new();
            for i in 0..1024u64 {
                q.push(SimTime::from_nanos(i * 997 % 100_000), [i; 4]);
            }
            for _ in 0..n {
                let (at, seq, ev) = q.pop().expect("standing population never drains");
                let gap = 100 + seq.wrapping_mul(0x9E37_79B9) % 100_000;
                q.push(at + SimDuration::from_nanos(gap), black_box(ev));
            }
            2 * n
        });
        if counts.frames > 0.0 {
            time(2, "net-wire.build", &mut || {
                for i in 0..n {
                    let f = request_frame(spec, i, services[i as usize % services.len()]);
                    black_box(black_box(f).build());
                }
                n
            });
            let frames = &self.frames;
            time(3, "net-wire.parse", &mut || {
                for i in 0..n {
                    let parsed = ParsedFrame::parse(black_box(&frames[i as usize % frames.len()]));
                    black_box(parsed.expect("well-formed frame"));
                }
                n
            });
        }
        if counts.steers > 0.0 {
            let rss = Rss::new(w.rss_queues);
            let (src, dst) = (AddressPlan::client_ep(), AddressPlan::dispatcher_ep());
            time(4, "nic-model.steer", &mut || {
                for i in 0..n {
                    let port = 7000 + (i % 1024) as u16;
                    black_box(rss.steer(src.addr.0, dst.addr.0, black_box(port), dst.port));
                }
                n
            });
        }
        if let Some(d) = w.dispatcher.filter(|_| counts.enqueues > 0.0) {
            time(5, "nicsched.decision", &mut || {
                decision_cycles(&d, services, n)
            });
        }
        if let Some(d) = w.dispatcher.filter(|_| counts.heartbeats > 0.0) {
            time(6, "nicsched.heartbeat", &mut || {
                let mut disp =
                    Dispatcher::new(d.workers, d.cap, d.policy.build(), LeastOutstanding);
                disp.enable_recovery(RecoveryPolicy::paper_default());
                let step = SimDuration::from_nanos(5_000 / d.workers as u64);
                let mut now = SimTime::ZERO;
                for i in 0..n {
                    now += step;
                    black_box(disp.on_heartbeat(now, i as usize % d.workers));
                }
                n
            });
        }
        if counts.sent > 0.0 {
            time(7, "workload.arrival", &mut || {
                let process = ArrivalProcess::Poisson {
                    rate_rps: spec.offered_rps,
                };
                let mut gen = ArrivalGen::new(process, Rng::new(spec.seed));
                let mut service_rng = Rng::new(spec.seed ^ 1);
                for _ in 0..n {
                    black_box(gen.next_gap());
                    black_box(spec.dist.sample(&mut service_rng));
                }
                n
            });
        }
        if counts.records > 0.0 {
            time(8, "workload.record", &mut || {
                let mut rec = LatencyRecorder::new(SimTime::ZERO);
                for i in 0..n {
                    let service = services[i as usize % services.len()];
                    let sent = SimTime::from_nanos(i * 1_000);
                    let done = sent + service + SimDuration::from_nanos(2_000 + i % 4_096);
                    rec.record(done, sent, service, spec.class_of(service));
                }
                black_box(rec.completed)
            });
        }
        let names = &self.counter_names;
        if counts.probe_calls > 0.0 && !names.is_empty() {
            time(9, "probe.count", &mut || {
                let mut probe = Probe::new(ProbeConfig::enabled());
                for i in 0..n {
                    let mut h = ProbeHandle::new(SimTime::from_nanos(i), Some(&mut probe));
                    h.count(names[i as usize % names.len()]);
                }
                black_box(probe.is_enabled());
                n
            });
        }
    }

    /// Batches timed per layer so far (the most any layer has).
    pub fn batches(&self) -> usize {
        self.samples.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Median cost per call of each layer over the batches so far.
    pub fn costs(&self) -> LayerCosts {
        let m = |slot: usize| {
            let s: &Vec<f64> = &self.samples[slot];
            if s.is_empty() {
                0.0
            } else {
                median(s)
            }
        };
        LayerCosts {
            engine_event: m(0),
            queue_op: m(1),
            build: m(2),
            parse: m(3),
            steer: m(4),
            decision: m(5),
            heartbeat: m(6),
            arrival: m(7),
            record: m(8),
            probe_call: m(9),
        }
    }
}

/// `n` dispatcher cycles over a standing population: each cycle offers one
/// request and completes the oldest in-flight one. Returns `n`.
fn decision_cycles(d: &DispatcherShape, services: &[SimDuration], n: u64) -> u64 {
    let mut disp = Dispatcher::new(d.workers, d.cap, d.policy.build(), LeastOutstanding);
    let mut in_flight: VecDeque<(usize, u64)> = VecDeque::new();
    let mut now = SimTime::ZERO;
    let task = |id: u64, now: SimTime| {
        let service = services[id as usize % services.len()];
        Task::new(id, 0, service, now, now, 64)
    };
    // Fill every slot and leave one request per worker queued.
    let standing = (d.workers * (d.cap as usize + 1)) as u64;
    for id in 0..standing {
        for a in disp.on_request(now, task(id, now)) {
            in_flight.push_back((a.worker, a.task.req_id));
        }
    }
    for i in 0..n {
        now += SimDuration::from_nanos(1_000);
        for a in disp.on_request(now, task(standing + i, now)) {
            in_flight.push_back((a.worker, a.task.req_id));
        }
        let (worker, req) = in_flight.pop_front().expect("slots are never all empty");
        for a in disp.on_done(now, worker, req) {
            in_flight.push_back((a.worker, a.task.req_id));
        }
    }
    black_box(disp.queue_len());
    n
}
