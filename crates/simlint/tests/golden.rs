//! Golden findings for the single-file fixture corpus.
//!
//! Each `tests/fixtures/corpus/<name>.rs` has a `<name>.expected` beside
//! it listing the fixture's *complete* post-waiver finding set, one
//! `<line> <rule>` per line. Every fixture is run through the per-file
//! pipeline ([`collect_file_facts`] then [`FileFacts::finalize`]) as if
//! it lived in a model-layer crate (`crates/systems/src/<name>`), so a
//! regression that adds or drops a finding anywhere in a fixture fails
//! loudly. A fixture without a golden file, or a golden file without a
//! fixture, fails too.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use simlint::collect_file_facts;
use simlint::graph::Layer;
use simlint::interproc::FileFacts;
use simlint::rules::tokens::FileCtx;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus")
}

/// The fixture's facts as a model-layer file with the given ledger fields.
fn facts(name: &str, ledger_fields: &[String]) -> FileFacts {
    let path = corpus_dir().join(name);
    let source =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let rel = format!("crates/systems/src/{name}");
    collect_file_facts(
        FileCtx::new(Layer::Model, &rel),
        &rel,
        "systems",
        &source,
        ledger_fields,
        &[],
        false,
    )
}

fn stems(ext: &str) -> BTreeSet<String> {
    fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn every_fixture_matches_its_golden_findings() {
    let fixtures = stems("rs");
    let goldens = stems("expected");
    assert!(fixtures.len() >= 20, "corpus shrank: {fixtures:?}");
    assert_eq!(
        fixtures.difference(&goldens).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "fixtures without a golden .expected file"
    );
    assert_eq!(
        goldens.difference(&fixtures).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "golden .expected files without a fixture"
    );
    let mut diffs = Vec::new();
    for stem in &fixtures {
        let got: String = facts(&format!("{stem}.rs"), &[])
            .finalize(Vec::new(), &[])
            .findings
            .iter()
            .map(|f| format!("{} {}\n", f.line, f.rule))
            .collect();
        let want =
            fs::read_to_string(corpus_dir().join(format!("{stem}.expected"))).expect("golden file");
        if got != want {
            diffs.push(format!("{stem}:\n  want: {want:?}\n  got:  {got:?}"));
        }
    }
    assert!(diffs.is_empty(), "golden drift:\n{}", diffs.join("\n"));
}

#[test]
fn missing_hooks_are_named_in_the_message() {
    let fs = facts("hook_missing_hooks.rs", &[])
        .finalize(Vec::new(), &[])
        .findings;
    assert_eq!(fs.len(), 1, "{fs:?}");
    for hook in ["worker_down", "worker_up", "feedback"] {
        assert!(fs[0].message.contains(hook), "{:?}", fs[0].message);
    }
}

#[test]
fn paired_ledger_field_has_both_sides() {
    let f = facts("ledger_paired.rs", &["reclaimed".to_string()]);
    let (field, sites) = &f.ledger[0];
    assert_eq!(field, "reclaimed");
    assert_eq!(sites.debits, vec![10]);
    assert_eq!(sites.credits, vec![13]);
}

#[test]
fn unpaired_ledger_field_exposes_the_lone_debit() {
    let f = facts("ledger_unpaired.rs", &["reclaimed".to_string()]);
    let (field, sites) = &f.ledger[0];
    assert_eq!(field, "reclaimed");
    assert_eq!(sites.debits, vec![10]);
    assert_eq!(
        sites.credits,
        Vec::<usize>::new(),
        "the firing condition lint_workspace reports"
    );
}
