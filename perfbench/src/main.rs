//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!            [--handicap K] [--trace-out DIR]`
//!
//! Runs one workload as a closed loop of reps from a single thread (a rep
//! is one `ServerSystem::run_resilient` call; the next starts when the last
//! returns) and prints every metric by name with its unit and sample
//! count, then one JSON object as the last line of stdout.
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off. Each
//!   rep is bracketed by the calibration kernel of `calib.rs`, and host
//!   times are divided by the host factor it measures.
//! * `--trace 1` is the separate traced run: it replays each layer's
//!   public functions inside spans, reads work counts from a probed rep,
//!   and reports the per-layer metrics and the tracing overhead; spans go
//!   to `--trace-out` as JSON.
//! * `--handicap K` times K reps and credits one: an injected slowdown
//!   used to prove the comparison gate fails.
//!
//! A rep whose digest differs is reported as `# failed rep: digest
//! 0x... (want 0x...)`; after a change meant to alter simulated results,
//! the seed-1 canary's line gives the new reference for `workloads.rs`.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::calib;
use perfbench::check::{digest, judge, Failure, Tally};
use perfbench::layers::{Layers, WorkCounts};
use perfbench::stats::{beyond, median, percentile, ratio, samples_for};
use perfbench::trace::{self_time_by_name, trace_id, Tracer};
use perfbench::workloads::{self, Workload, REF_SEED};
use sim_core::ProbeConfig;
use workload::RunMetrics;

/// A run stops starting reps after this long even if it has not reached
/// the p90 sample count, so that it always exits within three minutes.
const HARD_STOP: Duration = Duration::from_secs(150);

/// Calls per layer-replay batch.
const REPLAY_CALLS: u64 = 20_000;

/// Timed empty-horizon builds after each rep (after one untimed build that
/// absorbs the cold start a freshly freed rep leaves behind).
const SETUP_BLOCK: usize = 8;

/// Percentile every end-to-end host time is read at: the highest with at
/// least ten of a run's 100+ reps beyond it. Normalized by the host factor,
/// a rep still runs ~1.2x faster in the host's fast phase than in its slow
/// one, so a run's median lands in either mode depending on the phases it
/// caught; nearly every run spends a tenth of its reps in the slow phase,
/// so p90 reads the slow mode steadily (README.md, "Noise").
const TAIL: f64 = 90.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    handicap: u32,
    trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: REF_SEED,
        seconds: 10,
        trace: false,
        handicap: 1,
        trace_out: PathBuf::from(".bench_build/perfbench-traces"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--handicap" => a.handicap = value.parse().map_err(|e| bad(&e))?,
            "--trace-out" => a.trace_out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.handicap == 0 || a.seconds == 0 {
        return Err("--handicap and --seconds must be positive".into());
    }
    Ok(a)
}

/// Run `f`, turning a panic into `None`.
fn guarded(f: impl FnOnce() -> RunMetrics) -> Option<RunMetrics> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Run `f` and return its result with its wall time in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The result object, printed as the last line of stdout.
struct Report {
    lines: String,
    metrics: Vec<(&'static str, f64, &'static str)>,
    tally: Tally,
    correct: bool,
}

impl Report {
    fn new(tally: Tally) -> Report {
        Report {
            lines: String::new(),
            metrics: Vec::new(),
            tally,
            correct: true,
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        let _ = writeln!(self.lines, "{name:<30} {value:>16.6} {unit:<10} {note}");
        self.metrics.push((name, value, unit));
    }

    fn print(&self) {
        print!("{}", self.lines);
        for f in &self.tally.first_failures {
            match f {
                Failure::DigestMismatch { got, want } => {
                    println!("# failed rep: digest 0x{got:016x} (want 0x{want:016x})");
                }
                _ => println!("# failed rep: {f:?}"),
            }
        }
        let correct = self.correct && self.tally.failed == 0;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.attempted, self.tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The checks every run starts with: a rep at the reference seed must
/// reproduce the recorded digest, and an invariant-checked rep at the
/// run's seed (engine causality, model self-audits, ledger conservation;
/// observation-only, so bit-identical) fixes the digest every later rep
/// must reproduce. Returns that digest.
fn reference_checks(w: &Workload, seed: u64, tally: &mut Tally) -> u64 {
    let (probe, res) = (w.probe(), w.resilience());
    let canary = guarded(|| w.run(w.spec(REF_SEED), probe, res));
    tally.add(judge(canary.as_ref(), w.reference));
    let checked = guarded(|| w.run(w.spec(seed), probe, res.with_invariants()));
    let reference = checked.as_ref().map_or(0, digest);
    tally.add(judge(checked.as_ref(), reference));
    reference
}

fn end_to_end(w: &Workload, a: &Args) -> Report {
    let mut tally = Tally::default();
    let reference = reference_checks(w, a.seed, &mut tally);
    let (probe, res) = (w.probe(), w.resilience());
    let (spec, empty) = (w.spec(a.seed), w.empty_spec(a.seed));
    let min_reps = samples_for(TAIL);
    let budget = Duration::from_secs(a.seconds);
    // Raw and host-normalized (reference-host seconds) samples.
    let (mut raw, mut walls, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut completed = 0;
    let start = Instant::now();
    while (walls.len() < min_reps || start.elapsed() < budget) && start.elapsed() < HARD_STOP {
        let before = calib::measure();
        let (last, wall) = timed(|| {
            let mut last = None;
            for _ in 0..a.handicap {
                last = guarded(|| w.run(spec, probe, res));
            }
            last
        });
        tally.add(judge(last.as_ref(), reference));
        if let Some(m) = last {
            completed = m.completed;
        }
        if guarded(|| w.run(empty, probe, res)).is_none() {
            tally.add(Some(Failure::Panicked));
        }
        let mut block = [0.0; SETUP_BLOCK];
        for setup in &mut block {
            let built;
            (built, *setup) = timed(|| guarded(|| w.run(empty, probe, res)));
            if built.is_none() {
                tally.add(Some(Failure::Panicked));
            }
        }
        let factor = calib::host_factor(before, calib::measure());
        raw.push(wall);
        walls.push(wall / factor);
        setups.extend(block.iter().map(|s| s / factor));
    }
    let n = walls.len();
    let rep_tail = percentile(&walls, TAIL);
    let walls_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let failed_ratio = tally.failed_ratio();
    let (attempted, failed) = (tally.attempted, tally.failed);
    let mut r = Report::new(tally);
    let _ = writeln!(
        r.lines,
        "# {} seed {} | {} reps in {:.1} s | {} simulated completions per rep | host times in reference-host seconds",
        w.name,
        a.seed,
        n,
        start.elapsed().as_secs_f64(),
        completed
    );
    r.metric(
        "sim_req_per_s",
        completed as f64 / rep_tail,
        "1/s",
        &format!(
            "completions / p90 rep wall, n={n} reps; at the median {:.0}, raw median {:.0}",
            completed as f64 / median(&walls),
            completed as f64 / median(&raw)
        ),
    );
    r.metric(
        "rep_ms.p90",
        percentile(&walls_ms, TAIL),
        "ms",
        &format!(
            "n={n} reps, {} beyond; median {:.3} ms; raw p90 {:.3} ms",
            beyond(TAIL, n),
            median(&walls_ms),
            percentile(&raw, TAIL) * 1e3
        ),
    );
    r.metric(
        "setup_s",
        percentile(&setups, TAIL),
        "s",
        &format!(
            "p90 empty-horizon build+run, n={} samples; median {:.3e} s",
            setups.len(),
            median(&setups)
        ),
    );
    match peak_rss_mib() {
        Some(mib) => r.metric("peak_rss_mib", mib, "MiB", "VmHWM of this process, n=1"),
        None => r.correct = false,
    }
    let _ = writeln!(
        r.lines,
        "{:<30} {failed_ratio:>16.6} {:<10} {failed} of {attempted} reps (digest, ledger, panic)",
        "failed_ratio", "ratio"
    );
    if n < min_reps {
        let _ = writeln!(r.lines, "# fewer than {min_reps} reps: p90 unsupported");
        r.correct = false;
    }
    r
}

fn traced(w: &Workload, wi: usize, a: &Args) -> Report {
    let mut tally = Tally::default();
    let reference = reference_checks(w, a.seed, &mut tally);
    let (probe, res) = (w.probe(), w.resilience());
    let spec = w.spec(a.seed);
    let mut tracer = Tracer::default();

    // Work counts come from a probed rep of the same spec; probes only
    // observe, so its simulated digest must match.
    let probed = guarded(|| w.run(spec, ProbeConfig::enabled(), res));
    tally.add(judge(probed.as_ref(), reference));
    let report = probed.and_then(|m| m.stages).unwrap_or_default();
    let counts = WorkCounts::from_report(w, &report);
    let names: Vec<&'static str> = report
        .counters
        .iter()
        .map(|(k, _)| &*Box::leak(k.clone().into_boxed_str()))
        .collect();

    let mut layers = Layers::new(w, a.seed, counts, names);

    // Reps untraced and traced alternately (and unprobed, for a probed
    // workload), each round followed by one replay batch per layer, until
    // the time is up.
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let (mut plain, mut spanned, mut unprobed) = (Vec::new(), Vec::new(), Vec::new());
    let mut rep = 0u32;
    while (plain.len() < 5 || start.elapsed() < budget) && start.elapsed() < HARD_STOP {
        let (m, wall) = timed(|| guarded(|| w.run(spec, probe, res)));
        tally.add(judge(m.as_ref(), reference));
        plain.push(wall);
        let id = tracer.begin(trace_id(wi, rep), "run_resilient", None);
        let m = guarded(|| w.run(spec, probe, res));
        spanned.push(tracer.end(id) as f64 * 1e-9);
        tally.add(judge(m.as_ref(), reference));
        if w.probed {
            let (m, wall) = timed(|| guarded(|| w.run(spec, ProbeConfig::disabled(), res)));
            tally.add(judge(m.as_ref(), reference));
            unprobed.push(wall);
        }
        let layers_trace = trace_id(wi, u32::MAX - rep);
        let root = tracer.begin(layers_trace, "layers", None);
        layers.batch(&mut tracer, layers_trace, root, REPLAY_CALLS);
        tracer.end(root);
        rep += 1;
    }
    let c = layers.costs();
    let rep_ns = median(&plain) * 1e9;
    let share = |ns_per_rep: f64| ns_per_rep / rep_ns;
    let wire = share(c.build * counts.frames + c.parse * counts.parses);
    let nic = share(c.steer * counts.steers);
    let sched = share(c.decision * counts.enqueues + c.heartbeat * counts.heartbeats);
    let wl = share(c.arrival * counts.sent + c.record * counts.records);
    let probe_share = share(c.probe_call * counts.probe_calls);
    let probe_overhead = if w.probed {
        median(&plain) / median(&unprobed)
    } else {
        0.0
    };

    let mut r = Report::new(tally);
    let _ = writeln!(
        r.lines,
        "# {} seed {} traced | {} reps per arm | median rep {:.2} ms | {} requests sent per rep",
        w.name,
        a.seed,
        plain.len(),
        rep_ns * 1e-6,
        counts.sent
    );
    let calls = format!(
        "median of {} batches of {REPLAY_CALLS} calls",
        layers.batches()
    );
    r.metric("sim-core.engine.ns_per_event", c.engine_event, "ns", &calls);
    r.metric("sim-core.queue.ns_per_op", c.queue_op, "ns", &calls);
    r.metric("net-wire.build_ns", c.build, "ns", &calls);
    r.metric("net-wire.parse_ns", c.parse, "ns", &calls);
    r.metric(
        "net-wire.frames_per_req",
        ratio(counts.frames, counts.sent),
        "frames/req",
        "probed rep",
    );
    r.metric(
        "net-wire.share",
        wire,
        "share",
        "(build x frames + parse x parses) / rep wall",
    );
    r.metric("nic-model.steer_ns", c.steer, "ns", &calls);
    r.metric(
        "nic-model.steers_per_req",
        ratio(counts.steers, counts.sent),
        "steers/req",
        "probed rep",
    );
    r.metric("nic-model.share", nic, "share", "steer x steers / rep wall");
    r.metric("nicsched.decision_ns", c.decision, "ns", &calls);
    r.metric("nicsched.heartbeat_ns", c.heartbeat, "ns", &calls);
    r.metric(
        "nicsched.share",
        sched,
        "share",
        "(decision x enqueues + heartbeat x heartbeats) / rep wall",
    );
    r.metric(
        "nicsched.requeue_ratio",
        ratio(counts.requeues, counts.enqueues),
        "ratio",
        "preempt requeues / enqueues",
    );
    r.metric(
        "nicsched.heartbeats_per_req",
        ratio(counts.heartbeats, counts.sent),
        "hb/req",
        "probed rep",
    );
    r.metric("workload.arrival_ns", c.arrival, "ns", &calls);
    r.metric("workload.record_ns", c.record, "ns", &calls);
    r.metric(
        "workload.retry_ratio",
        ratio(counts.retries, counts.sent),
        "ratio",
        "retries / sent",
    );
    r.metric(
        "workload.share",
        wl,
        "share",
        "(arrival x sent + record x responses) / rep wall",
    );
    r.metric("probe.call_ns", c.probe_call, "ns", &calls);
    r.metric(
        "probe.calls_per_req",
        ratio(counts.probe_calls, counts.sent),
        "calls/req",
        "counters+hops+busy transitions (lower bound)",
    );
    r.metric(
        "probe.share",
        probe_share,
        "share",
        "call x calls / rep wall",
    );
    r.metric(
        "probe.overhead",
        probe_overhead,
        "x",
        &format!("probed / unprobed median rep wall, n={}", unprobed.len()),
    );
    r.metric(
        "systems.residual_share",
        1.0 - wire - nic - sched - wl - probe_share,
        "share",
        "1 - layer shares: model handlers + engine loop",
    );
    r.metric(
        "trace.overhead_ms",
        (median(&spanned) - median(&plain)) * 1e3,
        "ms",
        &format!("traced - untraced median rep wall, n={rep} each"),
    );

    let _ = writeln!(r.lines, "# self time per span name:");
    for (name, ns) in self_time_by_name(tracer.spans()) {
        let _ = writeln!(r.lines, "#   {name:<24} {:>12.3} ms", ns as f64 * 1e-6);
    }
    let path = a.trace_out.join(format!("{}-seed{}.json", w.name, a.seed));
    let written = std::fs::create_dir_all(&a.trace_out)
        .and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => {
            let _ = writeln!(
                r.lines,
                "# {} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            r.correct = false;
        }
    }
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let all = workloads::all();
    let Some((wi, w)) = all
        .iter()
        .enumerate()
        .find(|(_, w)| w.name == args.workload)
    else {
        let names: Vec<_> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let report = if args.trace {
        traced(w, wi, &args)
    } else {
        end_to_end(w, &args)
    };
    report.print();
    ExitCode::SUCCESS
}
