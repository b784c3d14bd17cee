//! Item-graph semantic rules: hook-conformance, shard-isolation, and
//! ledger-pairing.
//!
//! These rules need structure the token pass cannot see — which `fn`s an
//! `impl` defines, what type a `static` holds, where a struct field is
//! debited and credited — so they run on [`crate::items::FileItems`]
//! (and, for ledger-pairing, on per-crate aggregation done by the
//! caller). Scope filtering (layer, `#[cfg(test)]` extents) is the
//! caller's job; everything here is per-file and layer-blind.

use std::collections::BTreeSet;

use crate::dataflow::{binding_split, split_statements};
use crate::items::FileItems;
use crate::lexer::{TokKind, Token};

/// A candidate finding: (1-based line, message). The caller attaches the
/// rule name, file path, and scope filtering.
pub type Candidate = (usize, String);

/// The three failure hooks every `SchedPolicy` impl must define.
const POLICY_HOOKS: &[&str] = &["worker_down", "worker_up", "feedback"];

/// Identifiers proving a resilient assembly wired invariant checking.
const INVARIANT_WIRING: &[&str] = &["checker_for", "close_invariants"];

/// Identifiers proving a resilient assembly wired failure detection.
const DETECTION_WIRING: &[&str] = &["check_health", "on_heartbeat", "heartbeat"];

/// Identifiers proving an `impl Assembly` wired failure detection: the
/// dispatcher's health sweep, called directly or through the shared lease
/// tick.
const ASSEMBLY_DETECTION: &[&str] = &["check_health", "lease_tick"];

/// Type identifiers that make a `static` interior-mutable.
pub(crate) const INTERIOR_MUTABLE: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "Lazy",
];

/// Hook-conformance: `impl SchedPolicy` blocks leaning on default no-op
/// failure hooks, and resilient assemblies and their runner missing
/// invariant/recovery wiring.
pub fn hook_conformance(toks: &[Token], items: &FileItems) -> Vec<Candidate> {
    let mut out = Vec::new();
    let file_idents: BTreeSet<&str> = toks.iter().filter_map(|t| t.kind.ident()).collect();
    for im in &items.impls {
        if im.trait_name.as_deref() == Some("Assembly")
            && !ASSEMBLY_DETECTION.iter().any(|d| file_idents.contains(d))
        {
            out.push((
                im.line,
                format!(
                    "impl Assembly for `{}` does not wire a failure-detection \
                     entry point (`check_health` / `lease_tick`); its runs \
                     cannot notice worker death",
                    im.type_name
                ),
            ));
        }
        if im.trait_name.as_deref() != Some("SchedPolicy") {
            continue;
        }
        let missing: Vec<&str> = POLICY_HOOKS
            .iter()
            .copied()
            .filter(|h| !im.fns.iter().any(|f| f == h))
            .collect();
        if !missing.is_empty() {
            out.push((
                im.line,
                format!(
                    "impl SchedPolicy for `{}` relies on default no-op failure \
                     hooks for `{}`; define them explicitly (an empty body \
                     documents the decision) or waive with a reason",
                    im.type_name,
                    missing.join("`, `")
                ),
            ));
        }
    }
    // The generic runner (a `fn` whose signature names `Assembly`) must
    // arm and close the invariant checker in its own body: every
    // assembly's run goes through it.
    for f in &items.fns {
        let sig = &toks[f.sig.0..f.sig.1];
        if !sig.iter().any(|t| t.kind.ident() == Some("Assembly")) {
            continue;
        }
        let body: BTreeSet<&str> = toks[f.body.0..f.body.1]
            .iter()
            .filter_map(|t| t.kind.ident())
            .collect();
        let gaps: Vec<String> = INVARIANT_WIRING
            .iter()
            .filter(|need| !body.contains(*need))
            .map(|need| format!("`{need}`"))
            .collect();
        if !gaps.is_empty() {
            out.push((
                f.line,
                format!(
                    "assembly runner `{}` does not call {}; no run would \
                     be audited for divergence",
                    f.name,
                    gaps.join(", ")
                ),
            ));
        }
    }
    // A file assembling a resilient system must wire invariants and a
    // failure-detection entry point somewhere in the file.
    for f in &items.fns {
        if f.name != "run_resilient_probed" {
            continue;
        }
        let mut gaps = Vec::new();
        for need in INVARIANT_WIRING {
            if !file_idents.contains(need) {
                gaps.push(format!("`{need}`"));
            }
        }
        if !DETECTION_WIRING.iter().any(|d| file_idents.contains(d)) {
            gaps.push("a failure-detection entry point (`check_health` / heartbeat)".into());
        }
        if !gaps.is_empty() {
            out.push((
                f.line,
                format!(
                    "resilient assembly `run_resilient_probed` does not wire {}; \
                     a probed run without them cannot detect divergence or \
                     worker death",
                    gaps.join(", ")
                ),
            ));
        }
    }
    out.sort();
    out
}

/// Shard-isolation: process-global mutable state and non-`Send`-shaped
/// sharing that would couple future shards invisibly.
pub fn shard_isolation(items: &FileItems) -> Vec<Candidate> {
    let mut out = Vec::new();
    for st in &items.statics {
        if st.mutable {
            out.push((
                st.line,
                format!(
                    "`static mut {}` is process-global mutable state; shards \
                     must not share ambient globals — thread state through \
                     `&mut self`",
                    st.name
                ),
            ));
            continue;
        }
        let interior = st
            .type_idents
            .iter()
            .find(|t| INTERIOR_MUTABLE.contains(&t.as_str()) || t.starts_with("Atomic"));
        if let Some(ty) = interior {
            out.push((
                st.line,
                format!(
                    "static `{}` holds interior-mutable `{ty}`; process-global \
                     mutable state breaks the shard-isolation precondition — \
                     thread state through `&mut self`",
                    st.name
                ),
            ));
        }
    }
    for m in &items.macros {
        if m.name == "thread_local" {
            out.push((
                m.line,
                "`thread_local!` state is invisible to the shard partitioner; \
                 model state must live in the partitioned object graph"
                    .to_string(),
            ));
        }
    }
    for st in &items.structs {
        for f in &st.fields {
            if f.type_idents.iter().any(|t| t == "Rc") {
                out.push((
                    f.line,
                    format!(
                        "field `{}.{}` holds `Rc`-shaped shared ownership, \
                         which is not Send; shards cannot move it across the \
                         partition boundary — use owned state or indices",
                        st.name, f.name
                    ),
                ));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Debit/credit sites of one declared ledger field within one file.
#[derive(Debug, Default, Clone)]
pub struct LedgerSites {
    /// Lines where the field is debited (`+=`, `.insert(`).
    pub debits: Vec<usize>,
    /// Lines where the field is credited (`-=`, `.remove(`, `.clear(`).
    pub credits: Vec<usize>,
}

/// Find debit/credit sites of each declared `fields` entry in this file.
/// Follows `get_mut` aliases within a function body: `if let Some(c) =
/// self.field.get_mut(..)` makes later `*c -= 1` a credit of `field`.
pub fn ledger_sites(toks: &[Token], items: &FileItems, fields: &[String]) -> Vec<LedgerSites> {
    let mut out = vec![LedgerSites::default(); fields.len()];
    for f in &items.fns {
        let stmts = split_statements(toks, f.body.0, f.body.1);
        // alias name → index into `fields`
        let mut aliases: Vec<(String, usize)> = Vec::new();
        for &(s, e) in &stmts {
            let stmt = &toks[s..e];
            if stmt.is_empty() {
                continue;
            }
            // New aliases: a binding whose rhs is `field.get_mut(..)` or
            // `field.entry(..)`.
            if let Some((lhs, rhs_at)) = binding_split(stmt) {
                let rhs = &stmt[rhs_at..];
                for (fi, field) in fields.iter().enumerate() {
                    let aliased = rhs.windows(3).any(|w| {
                        w[0].kind.ident() == Some(field.as_str())
                            && w[1].kind == TokKind::Punct('.')
                            && matches!(w[2].kind.ident(), Some("get_mut" | "entry"))
                    });
                    if aliased {
                        for name in &lhs {
                            aliases.push((name.clone(), fi));
                        }
                    }
                }
            }
            for (fi, field) in fields.iter().enumerate() {
                let names: Vec<&str> = std::iter::once(field.as_str())
                    .chain(
                        aliases
                            .iter()
                            .filter(|(_, i)| *i == fi)
                            .map(|(n, _)| n.as_str()),
                    )
                    .collect();
                let mentions = stmt
                    .iter()
                    .any(|t| t.kind.ident().is_some_and(|s| names.contains(&s)));
                if !mentions {
                    continue;
                }
                let line = stmt[0].line;
                if has_compound(stmt, '+') || has_field_method(stmt, field, &["insert"]) {
                    out[fi].debits.push(line);
                }
                if has_compound(stmt, '-')
                    || has_field_method(stmt, field, &["remove", "clear", "take"])
                {
                    out[fi].credits.push(line);
                }
            }
        }
    }
    for s in &mut out {
        s.debits.sort_unstable();
        s.debits.dedup();
        s.credits.sort_unstable();
        s.credits.dedup();
    }
    out
}

/// `op=` appears as adjacent tokens anywhere in the statement.
fn has_compound(stmt: &[Token], op: char) -> bool {
    stmt.windows(2)
        .any(|w| w[0].kind == TokKind::Punct(op) && w[1].kind == TokKind::Punct('='))
}

/// `field.method(` for any of `methods`.
fn has_field_method(stmt: &[Token], field: &str, methods: &[&str]) -> bool {
    stmt.windows(4).any(|w| {
        w[0].kind.ident() == Some(field)
            && w[1].kind == TokKind::Punct('.')
            && w[2].kind.ident().is_some_and(|m| methods.contains(&m))
            && w[3].kind == TokKind::Punct('(')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn over(src: &str) -> (Vec<Token>, FileItems) {
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        (lexed.tokens, items)
    }

    #[test]
    fn policy_impl_missing_hooks_fires_once_with_all_names() {
        let src = "\
impl SchedPolicy for Fcfs {
    fn init(&mut self) {}
    fn worker_down(&mut self, now: SimTime, w: usize) {}
}
";
        let (toks, items) = over(src);
        let out = hook_conformance(&toks, &items);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].0, 1);
        assert!(out[0].1.contains("`worker_up`, `feedback`"), "{}", out[0].1);
    }

    #[test]
    fn conformant_policy_impl_is_clean() {
        let src = "\
impl SchedPolicy for Srpt {
    fn feedback(&mut self, now: SimTime, ev: &FeedbackEvent) {}
    fn worker_down(&mut self, now: SimTime, w: usize) {}
    fn worker_up(&mut self, now: SimTime, w: usize) {}
}
";
        let (toks, items) = over(src);
        assert!(hook_conformance(&toks, &items).is_empty());
    }

    #[test]
    fn bare_resilient_assembly_fires() {
        let src = "\
fn run_resilient_probed(cfg: &Config) -> Summary {
    run_plain(cfg)
}
";
        let (toks, items) = over(src);
        let out = hook_conformance(&toks, &items);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].1.contains("checker_for"), "{}", out[0].1);
    }

    #[test]
    fn wired_resilient_assembly_is_clean() {
        let src = "\
fn run_resilient_probed(cfg: &Config) -> Summary {
    let checker = checker_for(cfg);
    detector.check_health(now);
    checker.close_invariants();
    summary
}
";
        let (toks, items) = over(src);
        assert!(hook_conformance(&toks, &items).is_empty());
    }

    #[test]
    fn unwired_assembly_impl_fires_and_wired_ones_do_not() {
        let bare = "\
impl Assembly for Bare {
    fn build(spec: Spec) -> Bare { Bare::new(spec) }
}
";
        let (toks, items) = over(bare);
        let out = hook_conformance(&toks, &items);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].1.contains("`Bare`"), "{}", out[0].1);
        for wiring in [
            "self.liveness.lease_tick(ctx)",
            "self.dispatcher.check_health(now)",
        ] {
            let src = format!("impl Assembly for Wired {{}}\nfn tick() {{ {wiring}; }}\n");
            let (toks, items) = over(&src);
            assert!(hook_conformance(&toks, &items).is_empty(), "{wiring}");
        }
    }

    #[test]
    fn runner_must_close_invariants_in_its_own_body() {
        // Helpers defined beside the runner do not count: the runner
        // itself must call them.
        let src = "\
fn checker_for(res: &Res) -> Checker { Checker::new(res) }
fn close_invariants(inv: Checker) {}
fn run<A: Assembly>(cfg: &A::Config) -> Metrics {
    let inv = checker_for(cfg);
    A::build(cfg).run()
}
";
        let (toks, items) = over(src);
        let out = hook_conformance(&toks, &items);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].0, 3);
        assert!(out[0].1.contains("`close_invariants`"), "{}", out[0].1);
        let wired = src.replace("A::build(cfg).run()", "close_invariants(inv)");
        let (toks, items) = over(&wired);
        assert!(hook_conformance(&toks, &items).is_empty());
    }

    #[test]
    fn global_mutable_statics_fire_and_plain_ones_do_not() {
        let src = "\
static LIMIT: u64 = 8;
static NAME: &'static str = \"x\";
static HITS: AtomicU64 = AtomicU64::new(0);
static mut RAW: u64 = 0;
static REG: Mutex<Vec<u64>> = Mutex::new(Vec::new());
thread_local! { static TLS: Cell<u64> = Cell::new(0); }
";
        let (_, items) = over(src);
        let out = shard_isolation(&items);
        let lines: Vec<usize> = out.iter().map(|c| c.0).collect();
        // AtomicU64, static mut, Mutex, thread_local! (and its inner
        // Cell static) — but not LIMIT or NAME.
        assert!(lines.contains(&3) && lines.contains(&4) && lines.contains(&5));
        assert!(lines.contains(&6));
        assert!(!lines.contains(&1) && !lines.contains(&2), "{out:?}");
    }

    #[test]
    fn rc_fields_fire_and_owned_fields_do_not() {
        let src = "\
struct Shared {
    cache: Rc<RefCell<u64>>,
    owned: BTreeMap<u64, u64>,
}
";
        let (_, items) = over(src);
        let out = shard_isolation(&items);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].1.contains("Shared.cache"), "{}", out[0].1);
    }

    #[test]
    fn ledger_debits_and_credits_are_paired_through_aliases() {
        let src = "\
impl Dispatcher {
    fn issue(&mut self, key: u64) {
        *self.reclaimed.entry(key).or_insert(0) += 1;
        self.in_flight.insert(key, 1);
    }
    fn settle(&mut self, key: u64) {
        if let Some(c) = self.reclaimed.get_mut(&key) {
            *c -= 1;
        }
        self.in_flight.remove(&key);
    }
}
";
        let (toks, items) = over(src);
        let fields = vec!["reclaimed".to_string(), "in_flight".to_string()];
        let sites = ledger_sites(&toks, &items, &fields);
        assert!(!sites[0].debits.is_empty(), "{sites:?}");
        assert!(!sites[0].credits.is_empty(), "{sites:?}");
        assert!(!sites[1].debits.is_empty(), "{sites:?}");
        assert!(!sites[1].credits.is_empty(), "{sites:?}");
    }

    #[test]
    fn unmatched_debit_has_no_credit_site() {
        let src = "\
impl Dispatcher {
    fn issue(&mut self, key: u64) {
        *self.leaked.entry(key).or_insert(0) += 1;
    }
}
";
        let (toks, items) = over(src);
        let fields = vec!["leaked".to_string()];
        let sites = ledger_sites(&toks, &items, &fields);
        assert!(!sites[0].debits.is_empty());
        assert!(sites[0].credits.is_empty(), "{sites:?}");
    }
}
