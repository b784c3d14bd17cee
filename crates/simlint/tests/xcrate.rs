//! Cross-crate corpus: mini-workspaces under `tests/fixtures/xcrate/`
//! exercising the interprocedural engine end to end — call chains
//! across two and three crates, SCC cycles, impl-method resolution, and
//! waiver scoping of cross-file findings.

use std::path::{Path, PathBuf};

use simlint::lint_workspace;
use simlint::report::Report;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/xcrate")
        .join(name)
}

fn outcome(name: &str) -> Report {
    lint_workspace(&fixture(name)).expect("lint fixture")
}

/// Findings of one rule, as (file, line, message).
fn of_rule(out: &Report, rule: &str) -> Vec<(String, usize, String)> {
    out.findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.file.clone(), f.line, f.message.clone()))
        .collect()
}

#[test]
fn chain2_cross_crate_flow_is_found_with_source_attached() {
    let out = outcome("chain2");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(taint.len(), 1, "{taint:?}");
    let (file, line, msg) = &taint[0];
    assert_eq!(file, "crates/engine/src/lib.rs");
    assert_eq!(*line, 5, "sink line");
    assert!(msg.contains("unordered container"), "{msg}");
    assert!(msg.contains("via `pick()`"), "{msg}");
    assert!(msg.contains("event-queue sink `.schedule(..)`"), "{msg}");
    assert!(msg.contains("(source at crates/gen/src/lib.rs:4)"), "{msg}");
}

#[test]
fn chain3_flow_resolves_through_a_wrapper_crate() {
    let out = outcome("chain3");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(taint.len(), 1, "{taint:?}");
    let (file, _, msg) = &taint[0];
    assert_eq!(file, "crates/engine/src/lib.rs");
    assert!(msg.contains("via `relay()`"), "{msg}");
    assert!(msg.contains("(source at crates/gen/src/lib.rs:4)"), "{msg}");
}

#[test]
fn scc_cycle_terminates_and_the_flow_still_resolves() {
    let out = outcome("scc");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(taint.len(), 1, "{taint:?}");
    let (file, _, msg) = &taint[0];
    assert_eq!(file, "crates/engine/src/lib.rs");
    assert!(msg.contains("via `ping()`"), "{msg}");
    assert!(msg.contains("(source at crates/gen/src/lib.rs:"), "{msg}");
}

#[test]
fn method_call_resolves_to_a_foreign_impl() {
    let out = outcome("method_chain");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(taint.len(), 1, "{taint:?}");
    let (file, _, msg) = &taint[0];
    assert_eq!(file, "crates/engine/src/lib.rs");
    assert!(msg.contains("via `order()`"), "{msg}");
    assert!(
        msg.contains("(source at crates/sampler/src/lib.rs:"),
        "{msg}"
    );
}

#[test]
fn ordered_containers_carry_no_flow() {
    let out = outcome("clean_chain");
    assert!(of_rule(&out, "determinism-taint").is_empty());
}

#[test]
fn sink_line_waiver_suppresses_and_source_waiver_is_credited() {
    let out = outcome("waiver_sink");
    assert!(
        of_rule(&out, "determinism-taint").is_empty(),
        "suppressed at sink"
    );
    // Neither the sink-side nor the source-side waiver may rot.
    assert!(
        of_rule(&out, "stale-waiver").is_empty(),
        "{:?}",
        out.findings
    );
}

#[test]
fn source_only_waiver_does_not_suppress_but_is_not_stale() {
    let out = outcome("waiver_source_only");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(
        taint.len(),
        1,
        "cross-file findings are waivable at the sink only: {taint:?}"
    );
    assert_eq!(taint[0].0, "crates/engine/src/lib.rs");
    assert!(
        of_rule(&out, "stale-waiver").is_empty(),
        "{:?}",
        out.findings
    );
}
