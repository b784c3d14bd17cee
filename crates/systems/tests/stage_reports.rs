//! Golden stage reports: the probe layer's complete output for every
//! assembly, pinned byte for byte.
//!
//! Each assembly runs twice at a fixed seed with a 64-event trace: once
//! clean through [`ServerSystem::run`], once under 1% wire loss, a
//! mid-run worker crash and NIC-side recovery (so the retry, loss and
//! re-dispatch counters fire too). The rendered [`StageReport`]s — the
//! `Display` table, every stage and hop at full precision, and the trace
//! rows — must equal `tests/fixtures/stage_reports/<assembly>.expected`.
//! A difference, a missing golden file and an orphan golden file all
//! fail. On a difference the rendered output is written to
//! `<target>/tmp/stage_reports/<assembly>.actual` to diff against the golden.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use nicsched::{PolicySpec, RecoveryPolicy};
use sim_core::{ProbeConfig, SimDuration, SimTime, StageReport};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::multi_shinjuku::MultiShinjukuConfig;
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ResilienceConfig, ServerSystem, SystemConfig};
use workload::{ServiceDist, WorkloadSpec};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stage_reports")
}

/// Every assembly, keyed by its golden file's stem.
fn assemblies() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("offload", SystemConfig::Offload(OffloadConfig::paper(4, 4))),
        ("shinjuku", SystemConfig::Shinjuku(ShinjukuConfig::paper(4))),
        (
            "baseline",
            SystemConfig::Baseline(BaselineConfig {
                workers: 4,
                kind: BaselineKind::RssStealing,
            }),
        ),
        (
            "rpcvalet",
            SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
        ),
        (
            "multi_shinjuku",
            SystemConfig::MultiShinjuku(MultiShinjukuConfig {
                groups: 2,
                workers_per_group: 2,
                time_slice: Some(SimDuration::from_micros(10)),
                policy: PolicySpec::FCFS,
            }),
        ),
    ]
}

/// The paper's bimodal mix at ~55% load over a 3.5 ms horizon.
fn spec() -> WorkloadSpec {
    WorkloadSpec {
        offered_rps: 400_000.0,
        dist: ServiceDist::paper_bimodal(),
        body_len: 64,
        warmup: SimDuration::from_micros(500),
        measure: SimDuration::from_millis(3),
        seed: 1,
    }
}

fn faulted() -> ResilienceConfig {
    let crash_at = SimTime::ZERO + SimDuration::from_millis(2);
    ResilienceConfig::loss_and_crash(1, crash_at).with_recovery(RecoveryPolicy::paper_default())
}

fn render(out: &mut String, title: &str, r: &StageReport) {
    writeln!(out, "## {title}").unwrap();
    write!(out, "{r}").unwrap();
    for s in &r.stages {
        writeln!(
            out,
            "  exact stage {} util={:?} wakeups={} mean_depth={:?} p99_depth={} peak={:?}",
            s.name, s.utilization, s.busy_transitions, s.mean_depth, s.p99_depth, s.peak_depth
        )
        .unwrap();
    }
    for h in &r.hops {
        writeln!(
            out,
            "  exact hop {} count={} mean={} p50={} p99={} max={}",
            h.name,
            h.count,
            h.mean.as_nanos(),
            h.p50.as_nanos(),
            h.p99.as_nanos(),
            h.max.as_nanos()
        )
        .unwrap();
    }
    writeln!(out, "  in_flight = {}", r.in_flight).unwrap();
    writeln!(out, "  trace_dropped = {}", r.trace_dropped).unwrap();
    for e in &r.trace {
        writeln!(
            out,
            "  trace {:>10}ns req {:>5} {}",
            e.at.as_nanos(),
            e.req,
            e.stage
        )
        .unwrap();
    }
}

fn rendered(sys: &SystemConfig) -> String {
    let probe = ProbeConfig::with_trace(64);
    let mut out = String::new();
    let clean = sys.run(spec(), probe);
    render(
        &mut out,
        "clean",
        clean.stages.as_ref().expect("probed run reports stages"),
    );
    let lossy = sys.run_resilient(spec(), probe, faulted());
    render(
        &mut out,
        "loss+crash+recovery",
        lossy.stages.as_ref().expect("probed run reports stages"),
    );
    out
}

fn golden_stems() -> BTreeSet<String> {
    fs::read_dir(golden_dir())
        .expect("golden dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "expected"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn every_assembly_matches_its_golden_stage_report() {
    let systems = assemblies();
    let names: BTreeSet<String> = systems.iter().map(|(n, _)| n.to_string()).collect();
    let goldens = golden_stems();
    assert_eq!(
        names.difference(&goldens).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "assemblies without a golden .expected file"
    );
    assert_eq!(
        goldens.difference(&names).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "golden .expected files without an assembly"
    );
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stage_reports");
    let mut diffs = Vec::new();
    for (name, sys) in &systems {
        let got = rendered(sys);
        let want =
            fs::read_to_string(golden_dir().join(format!("{name}.expected"))).expect("golden file");
        if got != want {
            fs::create_dir_all(&actual_dir).expect("create the actual-output dir");
            let actual = actual_dir.join(format!("{name}.actual"));
            fs::write(&actual, &got).expect("write actual");
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map_or(got.lines().count().min(want.lines().count()), |i| i);
            diffs.push(format!(
                "{name}: first difference at line {}; rendered output in {}",
                line + 1,
                actual.display()
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "stage report drift:\n{}",
        diffs.join("\n")
    );
}
