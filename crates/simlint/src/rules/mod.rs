//! The rule registry — the single source of truth for every rule simlint
//! knows, and the modules that implement them.
//!
//! Everything that *describes* a rule derives from [`TABLE`]: the
//! `--list-rules` and `--explain` CLI output, the generated markdown
//! table in `RULES.md` (included into the crate docs and mirrored in the
//! repository README between `<!-- simlint-rules:begin/end -->`
//! markers), and the set of names a waiver may reference. A test
//! (`tests/docs_sync.rs`) renders [`TABLE`] to markdown and fails if
//! `RULES.md` or the README drifted.

pub mod semantic;
pub mod tokens;
pub mod waivers;

/// One rule's description, scope, and remediation text.
#[derive(Debug, Clone, Copy)]
pub struct RuleSpec {
    /// Stable rule name, as used in findings and waivers.
    pub name: &'static str,
    /// Where the rule applies, in one phrase.
    pub scope: &'static str,
    /// What trips it, in one phrase (markdown).
    pub fires_on: &'static str,
    /// The longer story for `--explain`: why the hazard matters and what
    /// to do instead.
    pub detail: &'static str,
    /// Whether a source-level `allow(...)` waiver may suppress it.
    pub waivable: bool,
}

/// Every rule simlint knows, in listing order.
pub const TABLE: &[RuleSpec] = &[
    RuleSpec {
        name: "unordered",
        scope: "core + model crates",
        fires_on: "`HashMap` / `HashSet`, including aliased imports",
        detail: "Hash containers iterate in hasher order, which is randomized \
                 per process: any iteration that feeds simulation state or \
                 output breaks bit-for-bit reproducibility. Use BTreeMap / \
                 BTreeSet. The token pass resolves `use … as` aliases, so \
                 `use std::collections::HashMap as Fast;` still fires, and a \
                 local type that merely shares the name does not.",
        waivable: true,
    },
    RuleSpec {
        name: "wall-clock",
        scope: "everywhere but harness `src/bin/`; test-only code exempt",
        fires_on: "`Instant`, `SystemTime`, `UNIX_EPOCH` (alias-aware)",
        detail: "The wall clock differs across runs and machines; simulated \
                 time must come from the engine clock. Harness binaries \
                 (`crates/*/src/bin/` of a `harness`-layer crate) time real \
                 builds and are exempt, as is `#[cfg(test)]`-gated code and \
                 `tests/` directories, where timing assertions cannot touch \
                 model state.",
        waivable: true,
    },
    RuleSpec {
        name: "ambient-rng",
        scope: "everywhere but harness `src/bin/`",
        fires_on: "`thread_rng`, `rand::random`, `from_entropy`, `OsRng`",
        detail: "Ambient entropy makes two identically-seeded runs diverge. \
                 All randomness must come from seeded sim_core::Rng streams, \
                 in tests included — a flaky seed is a flaky test.",
        waivable: true,
    },
    RuleSpec {
        name: "host-thread",
        scope: "every crate whose layer is not `harness`",
        fires_on: "`std::thread` (alias-aware), `thread::spawn` / `scope`",
        detail: "One simulation is one deterministic sequential event loop; \
                 OS threads inside a model would race it. Only crates whose \
                 manifest declares `[package.metadata.simlint] layer = \
                 \"harness\"` (experiments, bench) may fan *independent* \
                 simulations across threads. The allowed set is read from \
                 crate metadata, not a hand-maintained path list.",
        waivable: true,
    },
    RuleSpec {
        name: "float-sort",
        scope: "everywhere",
        fires_on: "`sort_by*` whose arguments contain `partial_cmp`",
        detail: "Float sorts via partial_cmp panic on NaN and invite \
                 platform-dependent totalization; sort on integer keys \
                 (nanoseconds) instead. The token pass matches the whole \
                 argument list, so splitting the closure across lines no \
                 longer hides it.",
        waivable: true,
    },
    RuleSpec {
        name: "time-float-cast",
        scope: "core + model crates, non-test code",
        fires_on: "bare `as` casts between u64 time and floats",
        detail: "A bare `as` cast between nanosecond counts and floats loses \
                 precision silently. Go through SimDuration's *_f64 \
                 constructors/accessors, which round explicitly at one \
                 audited boundary.",
        waivable: true,
    },
    RuleSpec {
        name: "unsafe-code",
        scope: "everywhere",
        fires_on: "the `unsafe` keyword",
        detail: "The workspace promises #![forbid(unsafe_code)] everywhere; \
                 the simulation has no business touching raw memory.",
        waivable: true,
    },
    RuleSpec {
        name: "missing-forbid",
        scope: "every crate root",
        fires_on: "`src/lib.rs` without `#![forbid(unsafe_code)]`",
        detail: "Every crate root must carry the forbid attribute so the \
                 guarantee survives even if the Cargo-level lint table is \
                 edited away.",
        waivable: false,
    },
    RuleSpec {
        name: "layer-violation",
        scope: "crate manifests (the workspace dependency graph)",
        fires_on: "an edge that breaks the architecture DAG, missing \
                   `layer` metadata, or an unknown metadata key",
        detail: "Each crate declares its architectural layer in \
                 `[package.metadata.simlint]`: core (sim-core) depends on no \
                 internal crate; model crates may depend on core + model; \
                 harness crates (experiments, bench) on anything below; the \
                 root app on all of those; the tool layer (simlint) stands \
                 alone. Model crates can never depend on harness crates, the \
                 graph must stay acyclic, and every crate must declare a \
                 layer. The metadata table knows four keys (`layer`, \
                 `time_boundary`, `ledger`, `sched_sinks`); any other key is \
                 a finding, so a typo or a leftover cannot switch analysis \
                 off silently. Manifest findings cannot be waived in source.",
        waivable: false,
    },
    RuleSpec {
        name: "bad-waiver",
        scope: "everywhere",
        fires_on: "a malformed waiver: missing `reason=`, unknown or \
                   unwaivable rule, `lines=0`",
        detail: "Every exception must say why it is sound. `allow(rule, \
                 reason=…)` covers its line and the next; `allow-block(rule, \
                 lines=N, reason=…)` covers its line and the next N (N ≥ 1). \
                 Waivers naming bad-waiver, stale-waiver, layer-violation or \
                 missing-forbid are themselves findings.",
        waivable: false,
    },
    RuleSpec {
        name: "stale-waiver",
        scope: "everywhere",
        fires_on: "a waiver whose rule never fires on its covered lines",
        detail: "A waiver that suppresses nothing is debt pretending to be \
                 documentation: the hazard it excused is gone, so the waiver \
                 must go too. This is what lets the waiver ledger only \
                 shrink — the baseline gate (`--compare`) rejects growth, \
                 and stale-waiver rejects leftovers.",
        waivable: false,
    },
    RuleSpec {
        name: "determinism-taint",
        scope: "core + model crates, non-test code",
        fires_on: "a nondeterministic value flowing into an \
                   ordering-sensitive sink",
        detail: "The dataflow pass tracks values from nondeterminism \
                 sources — iteration over unordered containers, \
                 pointer/address casts (ASLR), float-keyed comparisons, \
                 unseeded RNG — through let bindings, assignments, for/if-let \
                 patterns, and function returns, into sinks where ordering \
                 escapes into simulation state or output: comparator sorts, \
                 event-queue schedule calls, inserts into ordered or \
                 queue-shaped receivers, and probe/CSV emission. The pass is \
                 interprocedural across the whole workspace: a \
                 cross-file, cross-crate call graph with SCC condensation and \
                 bottom-up summaries resolves taint through any call chain \
                 (`use`-aliased paths and impl methods included), and a \
                 cross-file finding names its source site and is waivable at \
                 the *sink* line only — the source-side waiver is credited so \
                 it does not rot into stale-waiver. Unlike the token rules \
                 this flags *flows*, not mentions: a HashMap used only for \
                 membership tests is fine; its keys() feeding a sort key is \
                 not.",
        waivable: true,
    },
    RuleSpec {
        name: "hook-conformance",
        scope: "model crates, non-test code",
        fires_on: "an `impl SchedPolicy` leaning on default no-op failure \
                   hooks, or a resilient assembly or its runner missing its \
                   wiring",
        detail: "SchedPolicy's `worker_down` / `worker_up` / `feedback` \
                 default to no-ops, so a policy can silently ignore failure \
                 signals and keep dispatching to dead workers. Every impl \
                 must define all three — an explicit empty body documents \
                 the decision — or carry a waiver saying why not. A file \
                 with an `impl Assembly` must wire a failure-detection \
                 entry point (`check_health`, or the shared `lease_tick`), \
                 and the generic runner (a `fn` whose signature names \
                 `Assembly`) must itself call `checker_for` and \
                 `close_invariants`. Files defining a standalone resilient \
                 entry point (`fn run_resilient_probed`) must wire both \
                 invariant checking and a detection entry point \
                 (`check_health` / heartbeat). Waive a gap with a reason.",
        waivable: true,
    },
    RuleSpec {
        name: "shard-isolation",
        scope: "core + model crates, non-test code",
        fires_on: "`static` items with interior mutability, `static mut`, \
                   `thread_local!`, `Rc`-shaped struct fields",
        detail: "The planned intra-run sharding work partitions model state \
                 across workers; any process-global mutable state (statics \
                 holding Mutex/RefCell/Cell/atomics, `static mut`, \
                 thread-local storage) or non-Send shared ownership (`Rc` \
                 fields) would couple shards invisibly and break the \
                 partition proof. This rule is the machine-checked \
                 precondition: model state must reach code through `&mut \
                 self`, never through ambient globals.",
        waivable: true,
    },
    RuleSpec {
        name: "ledger-pairing",
        scope: "crates declaring `ledger = [\"field\", …]` metadata",
        fires_on: "a declared exactly-once ledger field with debits but no \
                   credits (or vice versa), or never touched at all",
        detail: "Recovery correctness rests on exactly-once ledgers: every \
                 increment (debit) of a declared field must have a matching \
                 decrement/removal site (credit) somewhere in the crate, \
                 else retries double-count or leak. Declare the audited \
                 fields in `[package.metadata.simlint] ledger = [\"name\"]`; \
                 the pass finds `+=`/`insert` debits and `-=`/`remove`/\
                 `clear` credits, following `get_mut` aliases within a \
                 function. Manifest-declared obligations cannot be waived \
                 at a source site.",
        waivable: false,
    },
];

/// Every rule name, in listing order (derived from [`TABLE`]).
pub const RULES: &[&str] = &[
    "unordered",
    "wall-clock",
    "ambient-rng",
    "host-thread",
    "float-sort",
    "time-float-cast",
    "unsafe-code",
    "missing-forbid",
    "layer-violation",
    "bad-waiver",
    "stale-waiver",
    "determinism-taint",
    "hook-conformance",
    "shard-isolation",
    "ledger-pairing",
];

/// Look up one rule's spec by name.
pub fn spec(name: &str) -> Option<&'static RuleSpec> {
    TABLE.iter().find(|r| r.name == name)
}

/// True when `name` is a rule that a source-level waiver may suppress.
pub fn waivable(name: &str) -> bool {
    spec(name).is_some_and(|r| r.waivable)
}

/// Render the rule table as the markdown checked into `RULES.md` and the
/// README. One source of truth: this function.
pub fn render_rules_table() -> String {
    let mut out = String::from("| rule | scope | fires on |\n|------|-------|----------|\n");
    for r in TABLE {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            r.name,
            r.scope,
            r.fires_on.replace('\n', " ")
        ));
    }
    out
}

/// Render the full `RULES.md` document body.
pub fn render_rules_doc() -> String {
    let mut out = String::from(
        "## Rules\n\nGenerated from `simlint::rules::TABLE` — edit the table, \
         not this file, then run `cargo run -p simlint -- --write-rules-doc`.\n\n",
    );
    out.push_str(&render_rules_table());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_list_matches_table() {
        let from_table: Vec<&str> = TABLE.iter().map(|r| r.name).collect();
        assert_eq!(RULES, from_table.as_slice());
    }

    #[test]
    fn every_rule_explains_itself() {
        for r in TABLE {
            assert!(!r.detail.is_empty(), "{} has no detail", r.name);
            assert!(spec(r.name).is_some());
        }
    }

    #[test]
    fn meta_rules_are_not_waivable() {
        for name in [
            "bad-waiver",
            "stale-waiver",
            "layer-violation",
            "missing-forbid",
        ] {
            assert!(!waivable(name), "{name} must not be waivable");
        }
        assert!(waivable("unordered"));
    }
}
