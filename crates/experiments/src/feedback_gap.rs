//! The titular experiment: how much does the *gap* — the latency of the
//! core-status feedback path — cost the scheduler?
//!
//! §2.3 argues that existing NIC offload frameworks lack exactly one
//! abstraction: fine-grained core feedback. §3.1's ideal SmartNIC has a
//! coherent-memory path for it; the Stingray's is a 2.56 µs packet. This
//! experiment isolates that variable with a minimal model: `W` workers,
//! fixed service times, and a zero-cost dispatcher that assigns each
//! arrival to the worker that looks least loaded *according to a
//! [`FeedbackChannel`] with configurable one-way latency*. Workers report
//! occupancy on every change. Everything else — arrival process, service
//! times, worker speed — is held constant, so any difference between
//! curves is purely the staleness of the scheduler's information.
//!
//! The expected shape: with nanosecond feedback the dispatcher balances
//! perfectly; as the gap approaches and passes the service time, arrivals
//! herd onto workers that *looked* idle a round-trip ago, manufacturing
//! imbalance and queueing that the hardware never required.

use nicsched::{CoreFeedback, FeedbackChannel};
use sim_core::stats::Histogram;
use sim_core::{Ctx, Engine, Model, Probe, ProbeConfig, Rng, SimDuration, SimTime};
use workload::{ArrivalGen, ArrivalProcess};

use crate::figures::Scale;

// Every probe name this model records, registered once per run.
sim_core::probe_keys! {
    mod key {
        FEEDBACK_IN_FLIGHT = "feedback.in_flight",
        FEEDBACK_STALENESS = "feedback.staleness",
        GAP_WORKER = "gap.worker",
    }
}

/// One row of the feedback-gap table.
#[derive(Debug, Clone)]
pub struct GapRow {
    /// Human label of the feedback path.
    pub path: &'static str,
    /// One-way feedback latency.
    pub latency: SimDuration,
    /// p99 sojourn of served tasks.
    pub p99: SimDuration,
    /// Mean sojourn.
    pub mean: SimDuration,
    /// Peak depth of any single worker queue (imbalance witness).
    pub peak_worker_queue: usize,
    /// Mean worst-case staleness of the dispatcher's view at decision
    /// time, measured by the probe layer (≥ the one-way latency).
    pub mean_staleness: SimDuration,
}

enum Ev {
    Arrive,
    WorkerDone(usize),
}

struct GapModel {
    arrivals: ArrivalGen,
    service: SimDuration,
    horizon: SimTime,
    channel: FeedbackChannel,
    /// True queue depth per worker (occupancy the dispatcher cannot see).
    depth: Vec<u32>,
    /// Sojourn start timestamps per worker, FIFO.
    queued_at: Vec<std::collections::VecDeque<SimTime>>,
    sojourn: Histogram,
    peak: usize,
}

impl GapModel {
    fn report(&mut self, now: SimTime, w: usize) {
        let occupancy = self.depth[w];
        self.channel.send(
            now,
            CoreFeedback {
                worker: w,
                occupancy,
                busy: occupancy > 0,
                reported_at: now,
            },
        );
    }

    /// The dispatcher's choice: least-loaded according to the *stale* view.
    fn choose(&mut self, now: SimTime) -> usize {
        let mut best = 0;
        let mut best_seen = u32::MAX;
        for w in 0..self.depth.len() {
            let seen = self.channel.view(now, w).map(|f| f.occupancy).unwrap_or(0);
            if seen < best_seen {
                best_seen = seen;
                best = w;
            }
        }
        best
    }
}

impl Model for GapModel {
    type Event = Ev;

    fn handle(&mut self, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        match event {
            Ev::Arrive => {
                if ctx.now() < self.horizon {
                    let gap = self.arrivals.next_gap();
                    ctx.schedule_in(gap, Ev::Arrive);
                }
                let w = self.choose(ctx.now());
                // The dispatcher just acted on its stale view: surface how
                // out-of-date that view was, and how much of the picture
                // is still in transit.
                let staleness = self.channel.worst_staleness(ctx.now());
                let undelivered = self.channel.in_flight();
                if let Some(s) = staleness {
                    ctx.probe().hop(key::FEEDBACK_STALENESS, s);
                }
                ctx.probe().depth(key::FEEDBACK_IN_FLIGHT, undelivered);
                self.depth[w] += 1;
                self.peak = self.peak.max(self.depth[w] as usize);
                ctx.probe()
                    .depth_i(key::GAP_WORKER, w, self.depth[w] as usize);
                self.queued_at[w].push_back(ctx.now());
                self.report(ctx.now(), w);
                if self.depth[w] == 1 {
                    ctx.schedule_in(self.service, Ev::WorkerDone(w));
                }
            }
            Ev::WorkerDone(w) => {
                let started = self.queued_at[w].pop_front().expect("queued task");
                self.sojourn
                    .record(ctx.now().duration_since(started).as_nanos());
                self.depth[w] -= 1;
                self.report(ctx.now(), w);
                if self.depth[w] > 0 {
                    ctx.schedule_in(self.service, Ev::WorkerDone(w));
                }
            }
        }
    }
}

/// Run the isolation experiment across the §3/§5 feedback paths.
pub fn run(scale: Scale) -> Vec<GapRow> {
    let paths: Vec<(&'static str, SimDuration)> = vec![
        (
            "coherent memory (ideal, ~120ns)",
            SimDuration::from_nanos(120),
        ),
        ("CXL-class link (~400ns)", SimDuration::from_nanos(400)),
        (
            "Stingray packet path (2.56us)",
            SimDuration::from_nanos(2_560),
        ),
        ("coarse feedback (10us)", SimDuration::from_micros(10)),
        ("very coarse feedback (50us)", SimDuration::from_micros(50)),
    ];
    let horizon = match scale {
        Scale::Quick => SimTime::from_millis(20),
        Scale::Full => SimTime::from_millis(200),
    };
    let workers = 8;
    let service = SimDuration::from_micros(2);
    // rho = 0.8 across 8 workers.
    let rate = 0.8 * workers as f64 / service.as_secs_f64();

    paths
        .into_iter()
        .map(|(path, latency)| {
            let mut model = GapModel {
                arrivals: ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: rate }, Rng::new(99)),
                service,
                horizon,
                channel: FeedbackChannel::new(workers, latency),
                depth: vec![0; workers],
                queued_at: vec![std::collections::VecDeque::new(); workers],
                sojourn: Histogram::latency(),
                peak: 0,
            };
            // Prime the dispatcher's view so `choose` has data.
            for w in 0..workers {
                model.report(SimTime::ZERO, w);
            }
            let mut engine = Engine::new(model);
            engine.set_probe(Probe::new(ProbeConfig::enabled()).register(key::NAMES));
            engine.schedule_at(SimTime::ZERO, Ev::Arrive);
            engine.run();
            let report = engine.probe_mut().report(horizon);
            let mean_staleness = report
                .hop("feedback.staleness")
                .map(|h| h.mean)
                .unwrap_or(SimDuration::ZERO);
            let m = engine.model();
            GapRow {
                path,
                latency,
                p99: SimDuration::from_nanos(m.sojourn.p99().unwrap_or(0)),
                mean: SimDuration::from_nanos(m.sojourn.mean() as u64),
                peak_worker_queue: m.peak,
                mean_staleness,
            }
        })
        .collect()
}

/// Render rows as an aligned table.
pub fn table(rows: &[GapRow]) -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "## feedback_gap — 8 workers, fixed 2us, rho 0.8: scheduling quality vs feedback latency\n",
    );
    let _ = writeln!(
        out,
        "{:<36} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "feedback path", "one-way", "mean", "p99", "peak q", "staleness"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<36} {:>10} {:>10} {:>10} {:>10} {:>12}",
            r.path,
            r.latency.to_string(),
            r.mean.to_string(),
            r.p99.to_string(),
            r.peak_worker_queue,
            r.mean_staleness.to_string()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_degrades_scheduling_monotonically_at_the_ends() {
        let rows = run(Scale::Quick);
        assert_eq!(rows.len(), 5);
        let coherent = &rows[0];
        let stingray = &rows[2];
        let coarse = &rows[4];
        // The gap costs tail latency: fresh info beats 2.56us beats 50us.
        assert!(
            coherent.p99 <= stingray.p99,
            "coherent {} vs stingray {}",
            coherent.p99,
            stingray.p99
        );
        assert!(
            stingray.p99 < coarse.p99,
            "stingray {} vs coarse {}",
            stingray.p99,
            coarse.p99
        );
        // And it manufactures imbalance (herding).
        assert!(coarse.peak_worker_queue > coherent.peak_worker_queue);
    }

    #[test]
    fn measured_staleness_is_bounded_below_by_the_path_latency() {
        for r in run(Scale::Quick) {
            assert!(
                r.mean_staleness >= r.latency,
                "{}: staleness {} below one-way latency {}",
                r.path,
                r.mean_staleness,
                r.latency
            );
        }
    }

    #[test]
    fn fresh_feedback_is_near_ideal() {
        let rows = run(Scale::Quick);
        // With ~120ns feedback on 2us services at rho 0.8, queueing is
        // mild: p99 within a small multiple of the service time.
        assert!(
            rows[0].p99 < SimDuration::from_micros(20),
            "near-ideal p99 {}",
            rows[0].p99
        );
    }

    #[test]
    fn table_renders() {
        let rows = run(Scale::Quick);
        let t = table(&rows);
        assert!(t.contains("feedback_gap"));
        assert!(t.contains("2.560us") || t.contains("2.56"));
    }
}
