//! Stage-level observability: counters, queue-depth gauges, per-hop
//! latency histograms, and an optional bounded per-request event trace.
//!
//! The paper's argument is about *where time goes* between a request
//! arriving at the NIC and a worker core running it — the feedback gap.
//! Aggregate latency percentiles cannot show that; this module makes every
//! pipeline stage individually measurable so the gap appears as a
//! quantified idle interval instead of folklore.
//!
//! # Design
//!
//! * A [`Probe`] lives inside the [`Engine`](crate::Engine) and is swapped
//!   into the [`Ctx`](crate::Ctx) for the duration of each event, so any
//!   [`Model`](crate::Model) can call `ctx.probe().count(key::QM_ENQUEUE)`
//!   without a change to its `handle` signature.
//! * Every recording method is a no-op returning immediately when the
//!   probe is disabled — a disabled run is behaviourally and numerically
//!   identical to a run compiled without any instrumentation.
//! * Names are registered once, up front: a model declares its table
//!   with [`probe_keys!`](crate::probe_keys), which pairs every
//!   `&'static str` name with a [`ProbeKey`] constant, and hands the
//!   table to [`Probe::register`]. Every recording call then indexes
//!   flat `Vec`s by key (plus an instance slot for per-worker gauges), so
//!   the hot path neither allocates nor compares strings. The report
//!   sorts by name, so its order is the same as if the state were kept
//!   in name-keyed ordered maps.
//!
//! # The mark chain
//!
//! Per-request latency is decomposed by *marking* a request each time it
//! crosses a stage boundary: [`ProbeHandle::mark`] records, under the
//! given hop name, the time elapsed since the request's previous mark.
//! Hop names in this chain use the [`CHAIN_PREFIX`] (`"path."`) so the
//! report can telescope them: summed over the chain, the per-hop means
//! reconcile with the client-observed sojourn time.

use std::collections::BTreeMap;
use std::fmt;

use crate::stats::{BusyTracker, Histogram, TimeWeighted};
use crate::{SimDuration, SimTime};

/// Hop-name prefix marking members of the per-request latency chain.
///
/// Hops recorded by [`ProbeHandle::mark`] / [`ProbeHandle::finish`] should
/// use names starting with this prefix; [`StageReport::chain_mean`] sums
/// exactly those hops.
pub const CHAIN_PREFIX: &str = "path.";

/// How much observability a run should pay for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Master switch. When `false` every probe call is a no-op and the
    /// run is bit-identical to an uninstrumented one.
    pub enabled: bool,
    /// Maximum number of [`TraceEvent`]s to retain (0 disables tracing).
    /// Events past the cap are counted but dropped, bounding memory.
    pub trace_capacity: usize,
}

impl ProbeConfig {
    /// No observability at all — the default for metric sweeps.
    pub const fn disabled() -> ProbeConfig {
        ProbeConfig {
            enabled: false,
            trace_capacity: 0,
        }
    }

    /// Counters, gauges and hop histograms, but no per-request trace.
    pub const fn enabled() -> ProbeConfig {
        ProbeConfig {
            enabled: true,
            trace_capacity: 0,
        }
    }

    /// Enable the per-request event trace, keeping at most `capacity`
    /// events (implies `enabled`).
    pub const fn with_trace(capacity: usize) -> ProbeConfig {
        ProbeConfig {
            enabled: true,
            trace_capacity: capacity,
        }
    }
}

impl Default for ProbeConfig {
    fn default() -> ProbeConfig {
        ProbeConfig::disabled()
    }
}

/// One row of the per-request event trace: request `req` reached `stage`
/// at virtual time `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the stage crossing.
    pub at: SimTime,
    /// Request id.
    pub req: u64,
    /// Stage (hop) name, e.g. `"path.nic_parse"`.
    pub stage: &'static str,
}

/// A registered probe name: its position in the table handed to
/// [`Probe::register`]. Declare keys with [`probe_keys!`](crate::probe_keys)
/// rather than by hand, so each key sits next to the name it indexes.
/// Recording under a key on an enabled probe that never registered its
/// table panics (index out of bounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeKey(u32);

impl ProbeKey {
    /// The key of entry `index` of the registered name table.
    pub const fn new(index: u32) -> ProbeKey {
        ProbeKey(index)
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Declare a model's probe-name table: a module holding `NAMES` (the
/// table to pass to [`Probe::register`]) and one [`ProbeKey`] constant
/// per name, numbered in declaration order.
///
/// ```
/// sim_core::probe_keys! {
///     mod key {
///         SENT = "client.sent",
///         RING = "worker.ring",
///     }
/// }
/// let probe = sim_core::Probe::new(sim_core::ProbeConfig::enabled()).register(key::NAMES);
/// assert_eq!(key::NAMES[1], "worker.ring");
/// # let _ = (probe, key::SENT, key::RING);
/// ```
#[macro_export]
macro_rules! probe_keys {
    ($vis:vis mod $module:ident { $($key:ident = $name:literal),+ $(,)? }) => {
        $vis mod $module {
            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            #[repr(u32)]
            enum Position {
                $($key),+
            }

            /// Every probe name of this model, in key order.
            pub const NAMES: &[&str] = &[$($name),+];

            $(
                #[doc = concat!("Probe key of `", $name, "`.")]
                pub const $key: $crate::ProbeKey = $crate::ProbeKey::new(Position::$key as u32);
            )+
        }
    };
}

/// A counter name accepted by [`ProbeHandle::count`]: a registered
/// [`ProbeKey`], or a bare `&'static str` resolved against the name table
/// (appended to it when unknown) for callers that have no table.
pub trait CounterName {
    /// The key this name records under in `probe`.
    fn key(self, probe: &mut Probe) -> ProbeKey;
}

impl CounterName for ProbeKey {
    #[inline]
    fn key(self, _probe: &mut Probe) -> ProbeKey {
        self
    }
}

impl CounterName for &'static str {
    fn key(self, probe: &mut Probe) -> ProbeKey {
        probe.resolve(self)
    }
}

/// A queue-depth gauge: time-weighted mean plus a duration-weighted
/// histogram (each depth value is weighted by how long it was held, so
/// `p99` answers "what depth did this queue sit at for the worst 1% of
/// time").
#[derive(Debug)]
struct DepthTrack {
    tw: TimeWeighted,
    hist: Histogram,
    last: u64,
    since: SimTime,
}

impl DepthTrack {
    fn new() -> DepthTrack {
        DepthTrack {
            tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            hist: Histogram::new(3),
            last: 0,
            since: SimTime::ZERO,
        }
    }

    fn set(&mut self, now: SimTime, depth: u64) {
        let held = now.saturating_duration_since(self.since).as_nanos();
        if held > 0 {
            self.hist.record_n(self.last, held);
        }
        self.tw.set(now, depth as f64);
        self.last = depth;
        self.since = now;
    }

    /// Account the final plateau up to `now` without changing the value.
    /// Clamped: a report horizon earlier than the last recorded event
    /// (e.g. an engine drained past its nominal horizon) is a no-op.
    fn flush(&mut self, now: SimTime) {
        let last = self.last;
        self.set(now.max(self.since), last);
    }
}

/// Instance slot of a gauge: 0 for the un-indexed gauge, `i + 1` for
/// instance `i`, so slot order matches `Option<u32>` order.
type Slot = usize;

/// Entry `slot` of a per-key instance vector, grown on demand.
fn instance<T>(slots: &mut Vec<Option<T>>, slot: Slot) -> &mut Option<T> {
    if slot >= slots.len() {
        slots.resize_with(slot + 1, || None);
    }
    &mut slots[slot]
}

/// The touched entries of a per-key vector with their names, in name order.
fn touched_by_name<'p, T>(
    names: &[&'static str],
    per_key: &'p [Option<T>],
) -> Vec<(&'static str, &'p T)> {
    let mut touched: Vec<_> = names
        .iter()
        .zip(per_key)
        .filter_map(|(name, entry)| Some((*name, entry.as_ref()?)))
        .collect();
    touched.sort_unstable_by_key(|(name, _)| *name);
    touched
}

/// The recording half of the observability layer. Owned by the engine;
/// models reach it through [`Ctx::probe`](crate::Ctx::probe).
///
/// Every per-key vector has one entry per registered name; `None` marks
/// an entry never touched, which the report leaves out.
#[derive(Debug, Default)]
pub struct Probe {
    cfg: ProbeConfig,
    /// The name table: a [`ProbeKey`] indexes this and every vector below.
    names: Vec<&'static str>,
    counters: Vec<Option<u64>>,
    hops: Vec<Option<Histogram>>,
    /// Per key, one gauge per instance [`Slot`].
    depths: Vec<Vec<Option<DepthTrack>>>,
    /// Per key, one busy tracker per instance [`Slot`].
    busy: Vec<Vec<Option<BusyTracker>>>,
    /// Per-request time of the most recent mark.
    // Ordered map so a report that ever walks the in-flight set (e.g. to
    // list stuck requests) does so in request-id order, not hasher order.
    inflight: BTreeMap<u64, SimTime>,
    trace: Vec<TraceEvent>,
    trace_dropped: u64,
}

impl Probe {
    /// A probe with the given configuration.
    pub fn new(cfg: ProbeConfig) -> Probe {
        Probe {
            cfg,
            ..Probe::default()
        }
    }

    /// Register the model's name table (see [`probe_keys!`](crate::probe_keys)):
    /// entry `i` becomes [`ProbeKey`] `i`. Call once, before recording.
    /// A no-op on a disabled probe, which then allocates nothing.
    #[must_use]
    pub fn register(mut self, names: &'static [&'static str]) -> Probe {
        if !self.cfg.enabled {
            return self;
        }
        debug_assert!(
            self.names.is_empty(),
            "probe names must be registered before any are resolved"
        );
        debug_assert!(
            names
                .iter()
                .enumerate()
                .all(|(i, n)| !names[..i].contains(n)),
            "a probe name is registered twice: {names:?}"
        );
        self.names.extend_from_slice(names);
        self.fit_names();
        self
    }

    /// Size every per-key vector to the name table.
    fn fit_names(&mut self) {
        let n = self.names.len();
        self.counters.resize(n, None);
        self.hops.resize_with(n, || None);
        self.depths.resize_with(n, Vec::new);
        self.busy.resize_with(n, Vec::new);
    }

    /// The key of `name`, appending it to the table when unknown.
    fn resolve(&mut self, name: &'static str) -> ProbeKey {
        let index = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.fit_names();
                self.names.len() - 1
            }
        };
        ProbeKey::new(index as u32)
    }

    /// Whether any recording happens at all.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configuration this probe was built with.
    pub fn config(&self) -> ProbeConfig {
        self.cfg
    }

    #[inline]
    fn count_n(&mut self, key: ProbeKey, n: u64) {
        *self.counters[key.index()].get_or_insert(0) += n;
    }

    #[inline]
    fn hop(&mut self, key: ProbeKey, dt: SimDuration) {
        self.hops[key.index()]
            .get_or_insert_with(Histogram::latency)
            .record(dt.as_nanos());
    }

    #[inline]
    fn depth(&mut self, key: ProbeKey, slot: Slot, now: SimTime, depth: u64) {
        instance(&mut self.depths[key.index()], slot)
            .get_or_insert_with(DepthTrack::new)
            .set(now, depth);
    }

    #[inline]
    fn busy(&mut self, key: ProbeKey, slot: Slot, now: SimTime, busy: bool) {
        let tracker = instance(&mut self.busy[key.index()], slot)
            .get_or_insert_with(|| BusyTracker::new(SimTime::ZERO));
        if busy {
            tracker.set_busy(now);
        } else {
            tracker.set_idle(now);
        }
    }

    fn trace_event(&mut self, now: SimTime, req: u64, key: ProbeKey) {
        if self.cfg.trace_capacity == 0 {
            return;
        }
        if self.trace.len() < self.cfg.trace_capacity {
            self.trace.push(TraceEvent {
                at: now,
                req,
                stage: self.names[key.index()],
            });
        } else {
            self.trace_dropped += 1;
        }
    }

    fn mark(&mut self, now: SimTime, req: u64, key: ProbeKey) {
        self.trace_event(now, req, key);
        if let Some(prev) = self.inflight.insert(req, now) {
            self.hop(key, now.saturating_duration_since(prev));
        }
    }

    fn finish(&mut self, now: SimTime, req: u64, key: ProbeKey) {
        self.trace_event(now, req, key);
        if let Some(prev) = self.inflight.remove(&req) {
            self.hop(key, now.saturating_duration_since(prev));
        }
    }

    /// Condense everything recorded so far into a [`StageReport`].
    ///
    /// `now` closes all open gauge/busy intervals (normally the run
    /// horizon). The trace buffer is drained into the report.
    pub fn report(&mut self, now: SimTime) -> StageReport {
        let window = now.saturating_duration_since(SimTime::ZERO);
        // Every touched (name, slot) pair; names are unique, so this sorts
        // like the `(name, Option<u32>)` keys it encodes.
        let mut gauges: Vec<(&'static str, Slot, usize)> = Vec::new();
        for (k, name) in self.names.iter().enumerate() {
            let (depths, busy) = (&self.depths[k], &self.busy[k]);
            for slot in 0..depths.len().max(busy.len()) {
                let touched = depths.get(slot).is_some_and(Option::is_some)
                    || busy.get(slot).is_some_and(Option::is_some);
                if touched {
                    gauges.push((name, slot, k));
                }
            }
        }
        gauges.sort_unstable();
        let stages = gauges
            .into_iter()
            .map(|(name, slot, k)| {
                let (utilization, transitions) = self.busy[k]
                    .get(slot)
                    .and_then(Option::as_ref)
                    .map(|b| (b.utilization(now), b.transitions()))
                    .unwrap_or((0.0, 0));
                let (mean_depth, p99_depth, peak_depth) = self.depths[k]
                    .get_mut(slot)
                    .and_then(Option::as_mut)
                    .map(|d| {
                        d.flush(now);
                        (d.tw.mean_until(now), d.hist.p99().unwrap_or(0), d.tw.peak())
                    })
                    .unwrap_or((0.0, 0, 0.0));
                StageStat {
                    name: match slot {
                        0 => name.to_string(),
                        _ => format!("{name}[{}]", slot - 1),
                    },
                    utilization,
                    busy_transitions: transitions,
                    mean_depth,
                    p99_depth,
                    peak_depth,
                }
            })
            .collect();
        let hops = touched_by_name(&self.names, &self.hops)
            .into_iter()
            .map(|(name, h)| HopStat {
                name: name.to_string(),
                count: h.count(),
                mean: SimDuration::from_nanos_f64(h.mean()),
                p50: SimDuration::from_nanos(h.p50().unwrap_or(0)),
                p99: SimDuration::from_nanos(h.p99().unwrap_or(0)),
                max: SimDuration::from_nanos(h.max().unwrap_or(0)),
            })
            .collect();
        let counters = touched_by_name(&self.names, &self.counters)
            .into_iter()
            .map(|(name, v)| (name.to_string(), *v))
            .collect();
        let mut trace = std::mem::take(&mut self.trace);
        trace.sort_by_key(|e| (e.at, e.req));
        StageReport {
            window,
            stages,
            hops,
            counters,
            trace,
            trace_dropped: self.trace_dropped,
            in_flight: self.inflight.len() as u64,
        }
    }
}

/// The per-event recording surface handed to models by
/// [`Ctx::probe`](crate::Ctx::probe). Every method is a no-op when the
/// probe is disabled.
pub struct ProbeHandle<'a> {
    now: SimTime,
    probe: Option<&'a mut Probe>,
}

impl<'a> ProbeHandle<'a> {
    /// A handle at virtual time `now`. `None` means recording is off.
    pub fn new(now: SimTime, probe: Option<&'a mut Probe>) -> ProbeHandle<'a> {
        ProbeHandle { now, probe }
    }

    /// Whether recording is live (lets callers skip expensive derivation
    /// of values that would only feed the probe).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.probe.is_some()
    }

    /// Increment counter `name` by one. A registered [`ProbeKey`] is an
    /// index; a `&'static str` costs a linear search of the name table
    /// (see [`CounterName`]).
    #[inline]
    pub fn count(&mut self, name: impl CounterName) {
        if let Some(p) = self.probe.as_deref_mut() {
            let key = name.key(p);
            p.count_n(key, 1);
        }
    }

    /// Increment counter `key` by `n`.
    #[inline]
    pub fn count_n(&mut self, key: ProbeKey, n: u64) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.count_n(key, n);
        }
    }

    /// Record one latency sample for hop `key`.
    #[inline]
    pub fn hop(&mut self, key: ProbeKey, dt: SimDuration) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.hop(key, dt);
        }
    }

    /// Record the instantaneous depth of queue `key`.
    #[inline]
    pub fn depth(&mut self, key: ProbeKey, depth: usize) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.depth(key, 0, self.now, depth as u64);
        }
    }

    /// Record the depth of instance `index` of queue `key`
    /// (e.g. worker 3's VF ring: `depth_i(key::WORKER_RING, 3, n)`).
    #[inline]
    pub fn depth_i(&mut self, key: ProbeKey, index: usize, depth: usize) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.depth(key, index + 1, self.now, depth as u64);
        }
    }

    /// Record stage `key` entering (`true`) or leaving (`false`) its
    /// busy state. Transitions are idempotent.
    #[inline]
    pub fn busy(&mut self, key: ProbeKey, busy: bool) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.busy(key, 0, self.now, busy);
        }
    }

    /// Per-instance variant of [`busy`](Self::busy).
    #[inline]
    pub fn busy_i(&mut self, key: ProbeKey, index: usize, busy: bool) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.busy(key, index + 1, self.now, busy);
        }
    }

    /// Mark request `req` crossing into `stage`, recording the time since
    /// its previous mark as one sample of hop `stage`. The first mark of
    /// a request starts its chain without recording a hop.
    #[inline]
    pub fn mark(&mut self, req: u64, stage: ProbeKey) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.mark(self.now, req, stage);
        }
    }

    /// Final mark of a request's chain; records the last hop and forgets
    /// the request.
    #[inline]
    pub fn finish(&mut self, req: u64, stage: ProbeKey) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.finish(self.now, req, stage);
        }
    }
}

/// Per-stage occupancy statistics over a run.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStat {
    /// Stage name (instance index rendered as `name[i]`).
    pub name: String,
    /// Fraction of the run the stage was busy.
    pub utilization: f64,
    /// Number of busy/idle transitions (a proxy for wake-up frequency).
    pub busy_transitions: u64,
    /// Time-weighted mean queue depth.
    pub mean_depth: f64,
    /// Depth the queue sat at (or above) during the worst 1% of time.
    pub p99_depth: u64,
    /// Peak instantaneous depth.
    pub peak_depth: f64,
}

/// Latency distribution of one hop (one inter-mark interval or one
/// explicitly-recorded duration).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopStat {
    /// Hop name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Mean latency.
    pub mean: SimDuration,
    /// Median latency.
    pub p50: SimDuration,
    /// 99th-percentile latency.
    pub p99: SimDuration,
    /// Worst observed latency.
    pub max: SimDuration,
}

/// Everything the probe layer learned about one run, attached to
/// `RunMetrics` when probing is enabled.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StageReport {
    /// Length of the observation window (run horizon).
    pub window: SimDuration,
    /// Per-stage occupancy, sorted by name.
    pub stages: Vec<StageStat>,
    /// Per-hop latency, sorted by name.
    pub hops: Vec<HopStat>,
    /// Named event counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-request event trace (empty unless `trace_capacity > 0`).
    pub trace: Vec<TraceEvent>,
    /// Trace events dropped after the capacity was reached.
    pub trace_dropped: u64,
    /// Requests whose mark chain was still open at the horizon.
    pub in_flight: u64,
}

impl StageReport {
    /// Look up a counter by name (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Look up a hop by name.
    pub fn hop(&self, name: &str) -> Option<&HopStat> {
        self.hops.iter().find(|h| h.name == name)
    }

    /// Look up a stage by rendered name (`"qm"`, `"worker.ring[3]"`).
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The hops forming the per-request latency chain, in name order
    /// (chain hops are conventionally numbered: `path.0_...`).
    pub fn chain_hops(&self) -> impl Iterator<Item = &HopStat> {
        self.hops
            .iter()
            .filter(|h| h.name.starts_with(CHAIN_PREFIX))
    }

    /// Sum of mean latencies over the chain hops. When every request
    /// traverses the same chain this telescopes to the mean end-to-end
    /// sojourn time, reconciling the stage breakdown against the
    /// client-observed latency.
    pub fn chain_mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.chain_hops().map(|h| h.mean.as_nanos()).sum())
    }
}

impl fmt::Display for StageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stage report over {} window", self.window)?;
        if !self.stages.is_empty() {
            writeln!(
                f,
                "  {:<24} {:>6} {:>7} {:>10} {:>9} {:>9}",
                "stage", "util", "wakeups", "mean_depth", "p99_depth", "peak"
            )?;
            for s in &self.stages {
                writeln!(
                    f,
                    "  {:<24} {:>5.1}% {:>7} {:>10.3} {:>9} {:>9.0}",
                    s.name,
                    s.utilization * 100.0,
                    s.busy_transitions,
                    s.mean_depth,
                    s.p99_depth,
                    s.peak_depth
                )?;
            }
        }
        if !self.hops.is_empty() {
            writeln!(
                f,
                "  {:<24} {:>9} {:>10} {:>10} {:>10} {:>10}",
                "hop", "count", "mean", "p50", "p99", "max"
            )?;
            for h in &self.hops {
                writeln!(
                    f,
                    "  {:<24} {:>9} {:>10} {:>10} {:>10} {:>10}",
                    h.name,
                    h.count,
                    h.mean.to_string(),
                    h.p50.to_string(),
                    h.p99.to_string(),
                    h.max.to_string()
                )?;
            }
            writeln!(f, "  chain sum (mean): {}", self.chain_mean())?;
        }
        for (name, v) in &self.counters {
            writeln!(f, "  counter {name} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::probe_keys! {
        mod key {
            A = "a",
            B = "b",
            Q = "q",
            NET = "net",
            WORKER = "worker",
            WORKER_RING = "worker.ring",
            NET_FRAMES = "net.frames",
            PATH_0_SEND = "path.0_send",
            PATH_1_PARSE = "path.1_parse",
            PATH_2_RUN = "path.2_run",
            PATH_3_DONE = "path.3_done",
        }
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    fn probe(cfg: ProbeConfig) -> Probe {
        Probe::new(cfg).register(key::NAMES)
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = probe(ProbeConfig::disabled());
        {
            let mut h = ProbeHandle::new(us(1), None);
            assert!(!h.enabled());
            h.count(key::A);
            h.count("x");
            h.mark(1, key::PATH_0_SEND);
            h.depth(key::Q, 5);
        }
        let r = p.report(us(10));
        assert!(r.stages.is_empty());
        assert!(r.hops.is_empty());
        assert!(r.counters.is_empty());
    }

    #[test]
    fn register_on_a_disabled_probe_allocates_nothing() {
        let p = probe(ProbeConfig::disabled());
        assert_eq!(p.names.capacity(), 0);
        assert_eq!(p.counters.capacity(), 0);
        assert_eq!(p.hops.capacity(), 0);
        assert_eq!(p.depths.capacity(), 0);
        assert_eq!(p.busy.capacity(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut p = probe(ProbeConfig::enabled());
        {
            let mut h = ProbeHandle::new(us(0), Some(&mut p));
            h.count(key::A);
            h.count_n(key::A, 2);
            h.count(key::B);
            h.count_n(key::Q, 0);
        }
        let r = p.report(us(1));
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("b"), 1);
        assert_eq!(r.counter("missing"), 0);
        assert!(
            r.counters.iter().any(|(n, v)| n == "q" && *v == 0),
            "a zero increment still creates its counter: {:?}",
            r.counters
        );
        assert!(!r.counters.iter().any(|(n, _)| n == "net"), "untouched");
    }

    #[test]
    fn named_count_lands_in_the_registered_counter() {
        let mut p = probe(ProbeConfig::enabled());
        {
            let mut h = ProbeHandle::new(us(0), Some(&mut p));
            h.count(key::NET_FRAMES);
            h.count("net.frames");
        }
        assert_eq!(p.names.len(), key::NAMES.len(), "no second slot");
        let r = p.report(us(1));
        assert_eq!(r.counters, vec![("net.frames".to_string(), 2)]);
    }

    #[test]
    fn unregistered_name_is_appended_and_reported() {
        let mut p = probe(ProbeConfig::enabled());
        {
            let mut h = ProbeHandle::new(us(0), Some(&mut p));
            h.count("zz.late");
            h.count("aa.late");
            h.count("zz.late");
            h.count(key::B);
        }
        assert_eq!(p.names.len(), key::NAMES.len() + 2);
        let r = p.report(us(1));
        let names: Vec<_> = r.counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        assert_eq!(names, vec![("aa.late", 1), ("b", 1), ("zz.late", 2)]);
    }

    #[test]
    fn unregistered_probe_resolves_names_on_first_use() {
        let mut p = Probe::new(ProbeConfig::enabled());
        ProbeHandle::new(us(0), Some(&mut p)).count("only");
        assert_eq!(p.report(us(1)).counter("only"), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_is_rejected() {
        let _ = Probe::new(ProbeConfig::enabled()).register(&["a", "b", "a"]);
    }

    #[test]
    fn mark_chain_telescopes_to_sojourn() {
        let mut p = probe(ProbeConfig::enabled());
        // Request 7: send at 10us, parse at 12us, run at 15us, done at 20us.
        ProbeHandle::new(us(10), Some(&mut p)).mark(7, key::PATH_0_SEND);
        ProbeHandle::new(us(12), Some(&mut p)).mark(7, key::PATH_1_PARSE);
        ProbeHandle::new(us(15), Some(&mut p)).mark(7, key::PATH_2_RUN);
        ProbeHandle::new(us(20), Some(&mut p)).finish(7, key::PATH_3_DONE);
        let r = p.report(us(20));
        // First mark records no hop; the three following hops sum to the
        // 10us sojourn.
        assert_eq!(r.hop("path.0_send"), None);
        assert_eq!(
            r.hop("path.1_parse").unwrap().mean,
            SimDuration::from_micros(2)
        );
        assert_eq!(r.chain_mean(), SimDuration::from_micros(10));
        assert_eq!(r.in_flight, 0);
    }

    #[test]
    fn depth_gauge_time_weights() {
        let mut p = probe(ProbeConfig::enabled());
        ProbeHandle::new(us(0), Some(&mut p)).depth(key::Q, 0);
        ProbeHandle::new(us(2), Some(&mut p)).depth(key::Q, 4);
        ProbeHandle::new(us(8), Some(&mut p)).depth(key::Q, 1);
        let r = p.report(us(10));
        let s = r.stage("q").unwrap();
        // (0*2 + 4*6 + 1*2) / 10 = 2.6
        assert!((s.mean_depth - 2.6).abs() < 1e-9, "mean {}", s.mean_depth);
        assert_eq!(s.peak_depth, 4.0);
        // Depth 4 held for 6 of 10 us: p99 over time is 4.
        assert_eq!(s.p99_depth, 4);
    }

    #[test]
    fn busy_tracker_reports_utilization() {
        let mut p = probe(ProbeConfig::enabled());
        ProbeHandle::new(us(2), Some(&mut p)).busy(key::NET, true);
        ProbeHandle::new(us(7), Some(&mut p)).busy(key::NET, false);
        let r = p.report(us(10));
        let s = r.stage("net").unwrap();
        assert!((s.utilization - 0.5).abs() < 1e-9);
        assert_eq!(s.busy_transitions, 2, "one rise and one fall");
    }

    #[test]
    fn instances_render_with_index() {
        let mut p = probe(ProbeConfig::enabled());
        ProbeHandle::new(us(1), Some(&mut p)).depth_i(key::WORKER_RING, 3, 2);
        ProbeHandle::new(us(1), Some(&mut p)).busy_i(key::WORKER, 0, true);
        let r = p.report(us(2));
        assert!(r.stage("worker.ring[3]").is_some());
        assert!(r.stage("worker[0]").is_some());
    }

    #[test]
    fn instance_slots_grow_on_demand() {
        let mut p = probe(ProbeConfig::enabled());
        ProbeHandle::new(us(1), Some(&mut p)).depth_i(key::WORKER_RING, 2, 1);
        assert_eq!(p.depths[key::WORKER_RING.index()].len(), 4, "slots 0..=3");
        ProbeHandle::new(us(1), Some(&mut p)).depth_i(key::WORKER_RING, 11, 1);
        assert_eq!(p.depths[key::WORKER_RING.index()].len(), 13);
        let r = p.report(us(2));
        let names: Vec<_> = r.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["worker.ring[2]", "worker.ring[11]"],
            "numeric instance order"
        );
    }

    #[test]
    fn plain_gauge_sorts_before_instance_zero() {
        let mut p = probe(ProbeConfig::enabled());
        ProbeHandle::new(us(1), Some(&mut p)).busy_i(key::WORKER, 1, true);
        ProbeHandle::new(us(1), Some(&mut p)).busy_i(key::WORKER, 0, true);
        ProbeHandle::new(us(1), Some(&mut p)).depth(key::WORKER, 3);
        ProbeHandle::new(us(1), Some(&mut p)).depth(key::Q, 3);
        let r = p.report(us(2));
        let names: Vec<_> = r.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["q", "worker", "worker[0]", "worker[1]"]);
    }

    #[test]
    fn trace_is_bounded_and_ordered() {
        let mut p = probe(ProbeConfig::with_trace(3));
        ProbeHandle::new(us(3), Some(&mut p)).mark(2, key::PATH_1_PARSE);
        ProbeHandle::new(us(1), Some(&mut p)).mark(1, key::PATH_0_SEND);
        ProbeHandle::new(us(4), Some(&mut p)).mark(3, key::PATH_2_RUN);
        ProbeHandle::new(us(5), Some(&mut p)).mark(4, key::PATH_3_DONE);
        let r = p.report(us(10));
        assert_eq!(r.trace.len(), 3);
        assert_eq!(r.trace_dropped, 1);
        assert_eq!(r.trace[0].req, 1, "sorted by time");
        assert_eq!(r.trace[0].stage, "path.0_send");
        assert!(r.trace.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn report_renders_as_table() {
        let mut p = probe(ProbeConfig::enabled());
        ProbeHandle::new(us(1), Some(&mut p)).count(key::NET_FRAMES);
        ProbeHandle::new(us(1), Some(&mut p)).mark(1, key::PATH_0_SEND);
        ProbeHandle::new(us(2), Some(&mut p)).finish(1, key::PATH_1_PARSE);
        let text = p.report(us(2)).to_string();
        assert!(text.contains("net.frames"));
        assert!(text.contains("path.1_parse"));
        assert!(text.contains("chain sum"));
    }
}
