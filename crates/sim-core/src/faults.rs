//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded oracle for timed fault events — link-loss
//! windows with Gilbert–Elliott bursts, worker stalls, slowdowns and
//! crashes, and feedback-channel blackouts — that any model can consult
//! through [`Ctx::faults`](crate::Ctx::faults), exactly the way the
//! observability [`Probe`](crate::probe::Probe) is reached through
//! `ctx.probe()`. The plan is built from a declarative [`FaultConfig`] and
//! a seed, so every fault decision (including the stochastic burst chain)
//! is a pure function of the run configuration: two runs with the same
//! seed see byte-identical fault sequences.
//!
//! The plan is *passive*: it never schedules events itself. Models ask it
//! questions at the moments that matter ("is this frame lost?", "is worker
//! 3 alive right now?") and react in their own event alphabet, which keeps
//! fault handling visible in each assembly instead of hidden in the
//! engine.

use crate::rng::Rng;
use crate::time::SimTime;

/// A window of bursty link loss driven by a two-state Gilbert–Elliott
/// chain: frames inside `[start, end)` walk a calm/burst Markov chain and
/// are dropped with `loss_in_burst` probability while the chain is in the
/// burst state. Outside the window the chain is reset to calm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossBurst {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Per-frame probability of entering the burst state from calm.
    pub p_enter: f64,
    /// Per-frame probability of leaving the burst state back to calm.
    pub p_exit: f64,
    /// Per-frame loss probability while the chain is bursting.
    pub loss_in_burst: f64,
}

/// A permanent worker failure: from `at` onward the worker neither polls,
/// completes, nor reports feedback. Work already queued on it is stranded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerCrash {
    /// Index of the crashing worker.
    pub worker: usize,
    /// Instant of the crash.
    pub at: SimTime,
}

/// A transient worker outage: within `[start, end)` the worker makes no
/// progress and sends no feedback, then resumes where it left off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallWindow {
    /// Index of the stalling worker.
    pub worker: usize,
    /// Stall start (inclusive).
    pub start: SimTime,
    /// Stall end (exclusive); the worker resumes at this instant.
    pub end: SimTime,
}

/// A window during which one worker runs `factor`× slower (e.g. thermal
/// throttling): service wall-clock time is multiplied, progress is not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowdownWindow {
    /// Index of the slowed worker.
    pub worker: usize,
    /// Slowdown start (inclusive).
    pub start: SimTime,
    /// Slowdown end (exclusive).
    pub end: SimTime,
    /// Wall-clock multiplier, `>= 1.0`.
    pub factor: f64,
}

/// A window during which the worker→dispatcher feedback path is dark:
/// feedback messages are suppressed, so the dispatcher steers on
/// increasingly stale state until its staleness fallback kicks in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blackout {
    /// Blackout start (inclusive).
    pub start: SimTime,
    /// Blackout end (exclusive).
    pub end: SimTime,
}

/// Maximum number of crash entries and of stall entries per
/// [`FaultConfig`]. Fixed capacity keeps the config `Copy`, which the
/// parallel sweep runners and the experiment grids rely on (configs are
/// passed by value into `par_map` closures).
pub const MAX_FAULT_EVENTS: usize = 16;

/// Declarative fault specification for one run. `Default` is fault-free;
/// every field composes independently, so a plan can combine e.g. 1% wire
/// loss with a mid-run crash and a feedback blackout. Crashes and stalls
/// are *lists* (up to [`MAX_FAULT_EVENTS`] each): call
/// [`with_crash`](FaultConfig::with_crash) /
/// [`with_stall`](FaultConfig::with_stall) repeatedly to build a fault
/// schedule such as a rolling stall storm.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Independent per-frame loss probability applied to every wire
    /// transmit (both directions), on top of any burst window.
    pub wire_loss: f64,
    /// Optional Gilbert–Elliott burst-loss window.
    pub burst: Option<LossBurst>,
    /// Permanent worker crashes, in insertion order.
    crashes: [Option<WorkerCrash>; MAX_FAULT_EVENTS],
    /// Transient worker stalls, in insertion order.
    stalls: [Option<StallWindow>; MAX_FAULT_EVENTS],
    /// Optional worker slowdown window.
    pub slowdown: Option<SlowdownWindow>,
    /// Optional feedback blackout window.
    pub blackout: Option<Blackout>,
}

impl FaultConfig {
    /// Whether this configuration injects any fault at all.
    pub fn is_none(&self) -> bool {
        self.wire_loss == 0.0
            && self.burst.is_none()
            && self.crashes.iter().all(Option::is_none)
            && self.stalls.iter().all(Option::is_none)
            && self.slowdown.is_none()
            && self.blackout.is_none()
    }

    /// The configured crashes, in insertion order.
    pub fn crashes(&self) -> impl Iterator<Item = WorkerCrash> + '_ {
        self.crashes.iter().copied().flatten()
    }

    /// The configured stalls, in insertion order.
    pub fn stalls(&self) -> impl Iterator<Item = StallWindow> + '_ {
        self.stalls.iter().copied().flatten()
    }

    /// Add independent per-frame wire loss.
    pub fn with_wire_loss(mut self, p: f64) -> FaultConfig {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.wire_loss = p;
        self
    }

    /// Add a permanent worker crash at `at`. May be called up to
    /// [`MAX_FAULT_EVENTS`] times to crash several workers on a schedule.
    pub fn with_crash(mut self, worker: usize, at: SimTime) -> FaultConfig {
        let slot = self
            .crashes
            .iter()
            .position(Option::is_none)
            .expect("crash schedule full");
        self.crashes[slot] = Some(WorkerCrash { worker, at });
        self
    }

    /// Add a transient worker stall over `[start, end)`. May be called up
    /// to [`MAX_FAULT_EVENTS`] times to build a stall storm.
    pub fn with_stall(mut self, worker: usize, start: SimTime, end: SimTime) -> FaultConfig {
        assert!(end > start, "empty stall window");
        let slot = self
            .stalls
            .iter()
            .position(Option::is_none)
            .expect("stall schedule full");
        self.stalls[slot] = Some(StallWindow { worker, start, end });
        self
    }

    /// Add a worker slowdown window.
    pub fn with_slowdown(
        mut self,
        worker: usize,
        start: SimTime,
        end: SimTime,
        factor: f64,
    ) -> FaultConfig {
        assert!(factor >= 1.0, "slowdown factor below 1 would speed up");
        self.slowdown = Some(SlowdownWindow {
            worker,
            start,
            end,
            factor,
        });
        self
    }

    /// Add a Gilbert–Elliott burst-loss window.
    pub fn with_burst(mut self, burst: LossBurst) -> FaultConfig {
        self.burst = Some(burst);
        self
    }

    /// Add a feedback blackout window.
    pub fn with_blackout(mut self, start: SimTime, end: SimTime) -> FaultConfig {
        assert!(end > start, "empty blackout window");
        self.blackout = Some(Blackout { start, end });
        self
    }
}

/// Counters the plan accumulates as it is consulted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames dropped by the burst chain.
    pub burst_lost: u64,
    /// Calm→burst transitions taken.
    pub burst_entries: u64,
}

/// The runtime fault oracle: a [`FaultConfig`] plus the seeded state of
/// its stochastic pieces. Lives inside the engine; models reach it through
/// [`Ctx::faults`](crate::Ctx::faults).
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// The earliest configured crash instant (`SimTime::MAX` if none).
    /// Before it no worker is crashed, so the per-event check answers
    /// without scanning the crash list.
    first_crash: SimTime,
    /// The earliest configured stall start (`SimTime::MAX` if none).
    first_stall: SimTime,
    rng: Rng,
    in_burst: bool,
    /// Counters accumulated while the plan is consulted.
    pub stats: FaultStats,
}

impl Default for FaultPlan {
    /// A fault-free plan (what every engine starts with).
    fn default() -> FaultPlan {
        FaultPlan::new(FaultConfig::default(), 0)
    }
}

impl FaultPlan {
    /// Build the runtime plan for `cfg`. All stochastic decisions draw
    /// from a stream derived from `seed` only, so the fault sequence is
    /// independent of the workload's own random streams.
    pub fn new(cfg: FaultConfig, seed: u64) -> FaultPlan {
        FaultPlan {
            first_crash: cfg.crashes().map(|c| c.at).min().unwrap_or(SimTime::MAX),
            first_stall: cfg.stalls().map(|s| s.start).min().unwrap_or(SimTime::MAX),
            cfg,
            rng: Rng::new(seed ^ 0xFA_17_5E_ED),
            in_burst: false,
            stats: FaultStats::default(),
        }
    }

    /// The configuration this plan executes.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether any fault is configured (lets hot paths skip the oracle).
    pub fn is_active(&self) -> bool {
        !self.cfg.is_none()
    }

    /// Per-frame burst-loss decision at `now`. Advances the
    /// Gilbert–Elliott chain one step when inside the window; resets it to
    /// calm outside. Independent `wire_loss` is *not* applied here — that
    /// rides on the link model's own `transmit_lossy` at the link layer.
    pub fn burst_frame_lost(&mut self, now: SimTime) -> bool {
        let Some(b) = self.cfg.burst else {
            return false;
        };
        if now < b.start || now >= b.end {
            self.in_burst = false;
            return false;
        }
        if self.in_burst {
            if self.rng.chance(b.p_exit) {
                self.in_burst = false;
            }
        } else if self.rng.chance(b.p_enter) {
            self.in_burst = true;
            self.stats.burst_entries += 1;
        }
        if self.in_burst && self.rng.chance(b.loss_in_burst) {
            self.stats.burst_lost += 1;
            return true;
        }
        false
    }

    /// Whether `worker` has crashed by `now`.
    pub fn worker_crashed(&self, worker: usize, now: SimTime) -> bool {
        now >= self.first_crash
            && self
                .cfg
                .crashes()
                .any(|c| c.worker == worker && now >= c.at)
    }

    /// The earliest configured crash, if any (legacy single-crash view).
    pub fn crash(&self) -> Option<WorkerCrash> {
        self.cfg.crashes().min_by_key(|c| c.at)
    }

    /// If `worker` is stalled at `now`, the latest instant any covering
    /// stall window ends (overlapping windows extend each other).
    pub fn worker_stalled_until(&self, worker: usize, now: SimTime) -> Option<SimTime> {
        if now < self.first_stall {
            return None;
        }
        self.cfg
            .stalls()
            .filter(|s| s.worker == worker && now >= s.start && now < s.end)
            .map(|s| s.end)
            .max()
    }

    /// Whether `worker` is unable to make progress at `now` (crashed or
    /// mid-stall).
    pub fn worker_down(&self, worker: usize, now: SimTime) -> bool {
        self.worker_crashed(worker, now) || self.worker_stalled_until(worker, now).is_some()
    }

    /// Wall-clock multiplier for work started by `worker` at `now`
    /// (`1.0` = full speed).
    pub fn worker_slowdown(&self, worker: usize, now: SimTime) -> f64 {
        match self.cfg.slowdown {
            Some(s) if s.worker == worker && now >= s.start && now < s.end => s.factor,
            _ => 1.0,
        }
    }

    /// Whether the feedback path is dark at `now`.
    pub fn feedback_blackout(&self, now: SimTime) -> bool {
        matches!(self.cfg.blackout, Some(b) if now >= b.start && now < b.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn default_plan_is_inert() {
        let mut p = FaultPlan::default();
        assert!(!p.is_active());
        assert!(!p.burst_frame_lost(us(5)));
        assert!(!p.worker_crashed(0, us(5)));
        assert!(!p.worker_down(3, us(5)));
        assert_eq!(p.worker_slowdown(0, us(5)), 1.0);
        assert!(!p.feedback_blackout(us(5)));
        assert_eq!(p.stats, FaultStats::default());
    }

    #[test]
    fn crash_is_permanent_and_per_worker() {
        let cfg = FaultConfig::default().with_crash(2, us(50));
        let p = FaultPlan::new(cfg, 1);
        assert!(!p.worker_crashed(2, us(49)));
        assert!(p.worker_crashed(2, us(50)));
        assert!(p.worker_crashed(2, us(5_000)));
        assert!(!p.worker_crashed(1, us(5_000)));
        assert!(p.worker_down(2, us(60)));
    }

    #[test]
    fn stall_window_recovers() {
        let cfg = FaultConfig::default().with_stall(1, us(10), us(20));
        let p = FaultPlan::new(cfg, 1);
        assert_eq!(p.worker_stalled_until(1, us(9)), None);
        assert_eq!(p.worker_stalled_until(1, us(10)), Some(us(20)));
        assert_eq!(p.worker_stalled_until(1, us(19)), Some(us(20)));
        assert_eq!(p.worker_stalled_until(1, us(20)), None);
        assert_eq!(p.worker_stalled_until(0, us(15)), None);
    }

    #[test]
    fn crash_and_stall_schedules_compose() {
        // Satellite: `FaultConfig` holds *lists* of crashes and stalls —
        // the builders stay source-compatible but may be chained.
        let cfg = FaultConfig::default()
            .with_crash(2, us(50))
            .with_crash(0, us(80))
            .with_stall(1, us(10), us(20))
            .with_stall(1, us(30), us(40))
            .with_stall(3, us(15), us(25));
        let p = FaultPlan::new(cfg, 1);
        assert!(p.worker_crashed(2, us(50)));
        assert!(!p.worker_crashed(0, us(79)));
        assert!(p.worker_crashed(0, us(80)));
        assert_eq!(p.crash().unwrap().worker, 2, "earliest crash wins");
        assert_eq!(p.worker_stalled_until(1, us(15)), Some(us(20)));
        assert_eq!(p.worker_stalled_until(1, us(25)), None);
        assert_eq!(p.worker_stalled_until(1, us(35)), Some(us(40)));
        assert_eq!(p.worker_stalled_until(3, us(20)), Some(us(25)));
        assert_eq!(cfg.crashes().count(), 2);
        assert_eq!(cfg.stalls().count(), 3);
        assert!(!cfg.is_none());
    }

    /// The earliest-crash and earliest-stall floors only skip scans that
    /// would find nothing: every answer equals the plain scan of the
    /// configured lists.
    #[test]
    fn floors_never_change_an_answer() {
        let mut r = Rng::new(9);
        for _ in 0..200 {
            let mut cfg = FaultConfig::default();
            for _ in 0..r.next_below(4) {
                cfg = cfg.with_crash(r.next_below(4) as usize, us(r.next_below(100)));
            }
            for _ in 0..r.next_below(4) {
                let start = r.next_below(100);
                cfg = cfg.with_stall(
                    r.next_below(4) as usize,
                    us(start),
                    us(start + 1 + r.next_below(30)),
                );
            }
            let p = FaultPlan::new(cfg, 1);
            for w in 0..4 {
                for t in 0..140 {
                    let now = us(t);
                    let crashed = cfg.crashes().any(|c| c.worker == w && now >= c.at);
                    let stalled = cfg
                        .stalls()
                        .filter(|s| s.worker == w && now >= s.start && now < s.end)
                        .map(|s| s.end)
                        .max();
                    assert_eq!(p.worker_crashed(w, now), crashed);
                    assert_eq!(p.worker_stalled_until(w, now), stalled);
                }
            }
        }
    }

    #[test]
    fn overlapping_stalls_extend_each_other() {
        let cfg = FaultConfig::default()
            .with_stall(0, us(10), us(20))
            .with_stall(0, us(15), us(30));
        let p = FaultPlan::new(cfg, 1);
        assert_eq!(p.worker_stalled_until(0, us(16)), Some(us(30)));
        assert_eq!(p.worker_stalled_until(0, us(12)), Some(us(20)));
    }

    #[test]
    fn slowdown_multiplier_applies_in_window() {
        let cfg = FaultConfig::default().with_slowdown(0, us(10), us(20), 3.0);
        let p = FaultPlan::new(cfg, 1);
        assert_eq!(p.worker_slowdown(0, us(15)), 3.0);
        assert_eq!(p.worker_slowdown(0, us(25)), 1.0);
        assert_eq!(p.worker_slowdown(1, us(15)), 1.0);
    }

    #[test]
    fn blackout_bounds() {
        let cfg = FaultConfig::default().with_blackout(us(5), us(8));
        let p = FaultPlan::new(cfg, 1);
        assert!(!p.feedback_blackout(us(4)));
        assert!(p.feedback_blackout(us(5)));
        assert!(p.feedback_blackout(us(7)));
        assert!(!p.feedback_blackout(us(8)));
    }

    #[test]
    fn burst_chain_only_loses_inside_window() {
        let burst = LossBurst {
            start: us(100),
            end: us(200),
            p_enter: 0.5,
            p_exit: 0.1,
            loss_in_burst: 1.0,
        };
        let cfg = FaultConfig::default().with_burst(burst);
        let mut p = FaultPlan::new(cfg, 7);
        for i in 0..100 {
            assert!(!p.burst_frame_lost(us(i)), "loss before window");
        }
        let in_window: u32 = (100..200).map(|i| p.burst_frame_lost(us(i)) as u32).sum();
        assert!(in_window > 0, "a hot chain must lose frames in-window");
        for i in 200..300 {
            assert!(!p.burst_frame_lost(us(i)), "loss after window");
        }
        assert_eq!(p.stats.burst_lost as u32, in_window);
        assert!(p.stats.burst_entries > 0);
    }

    #[test]
    fn burst_losses_cluster() {
        // With a sticky burst state, losses arrive in runs: the number of
        // distinct loss runs is far below the number of lost frames.
        let burst = LossBurst {
            start: SimTime::ZERO,
            end: us(100_000),
            p_enter: 0.01,
            p_exit: 0.05,
            loss_in_burst: 0.9,
        };
        let mut p = FaultPlan::new(FaultConfig::default().with_burst(burst), 11);
        let outcomes: Vec<bool> = (0..50_000)
            .map(|i| p.burst_frame_lost(SimTime::ZERO + SimDuration::from_nanos(i)))
            .collect();
        let lost = outcomes.iter().filter(|&&l| l).count();
        let runs = outcomes.windows(2).filter(|w| !w[0] && w[1]).count().max(1);
        assert!(lost > 1_000, "expected substantial loss, got {lost}");
        let mean_run = lost as f64 / runs as f64;
        assert!(mean_run > 2.0, "losses should cluster, mean run {mean_run}");
    }

    #[test]
    fn identical_seeds_give_identical_fault_streams() {
        let burst = LossBurst {
            start: SimTime::ZERO,
            end: us(1_000),
            p_enter: 0.2,
            p_exit: 0.2,
            loss_in_burst: 0.5,
        };
        let cfg = FaultConfig::default().with_burst(burst);
        let stream = |seed| {
            let mut p = FaultPlan::new(cfg, seed);
            (0..500)
                .map(|i| p.burst_frame_lost(us(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4), "different seeds should differ");
    }

    #[test]
    fn composed_config_reports_active() {
        let cfg = FaultConfig::default()
            .with_wire_loss(0.01)
            .with_crash(0, us(1));
        assert!(!cfg.is_none());
        assert!(FaultPlan::new(cfg, 1).is_active());
        assert!(FaultConfig::default().is_none());
    }
}
