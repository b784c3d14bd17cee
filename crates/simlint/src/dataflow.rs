//! Forward determinism-taint analysis, intraprocedural with same-file
//! call summaries.
//!
//! The token pass flags *mentions* of nondeterminism (`HashMap` in a
//! type, `Instant::now()` in model code). This pass flags *flows*: a
//! nondeterministic value produced at a source reaching an
//! ordering-sensitive sink within one function body. Sources:
//!
//! * iteration over an unordered container (`HashMap`/`HashSet` locals,
//!   fields, or parameters — `.iter()`, `.keys()`, `.drain()`, or a
//!   bare `for x in map`),
//! * pointer/address casts (`as *const`, `.as_ptr()`, `addr_of!`) —
//!   addresses vary run to run under ASLR,
//! * float-keyed comparisons (`partial_cmp`, `total_cmp`) — NaN-order
//!   hazards in keys,
//! * unseeded RNG (`thread_rng`, `from_entropy`, `OsRng`,
//!   `rand::random`).
//!
//! Taint propagates through `let` bindings, assignments, `for`/`if let`
//! patterns, and same-file function returns (summaries iterated to a
//! small fixpoint). Sinks:
//!
//! * comparator-driven ordering (`sort_by*`, `binary_search_by*`),
//! * event-queue scheduling (`schedule`, `schedule_at`, `schedule_in`,
//!   `schedule_now`),
//! * inserts/pushes into ordered or queue-shaped receivers (`BTreeMap`
//!   key construction, `push` on a heap/queue/events receiver),
//! * probe/CSV emission (`record`/`emit`/`observe` methods, `writeln!`
//!   and friends).
//!
//! This is a lint, not a verifier: it is flow-insensitive within a
//! statement, field-insensitive beyond name matching, and its precision
//! contract is pinned by the fixture corpus, exactly like the token
//! rules.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::FileItems;
use crate::lexer::{TokKind, Token};

/// One taint flow: a source reaching a sink.
#[derive(Debug, Clone)]
pub struct TaintFinding {
    /// 1-based line of the sink statement.
    pub line: usize,
    /// Human-readable source → sink description.
    pub message: String,
}

const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet", "IndexMap"];
const ORDERED_TYPES: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap", "VecDeque"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];
const SORT_SINKS: &[&str] = &[
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search_by",
    "binary_search_by_key",
];
const SCHED_SINKS: &[&str] = &["schedule", "schedule_at", "schedule_in", "schedule_now"];
const PUSH_SINKS: &[&str] = &["push", "push_back", "push_front", "insert"];
const EMIT_SINKS: &[&str] = &["record", "emit", "observe", "probe"];
const EMIT_MACROS: &[&str] = &["writeln", "write", "println", "print", "eprintln", "format"];
const RNG_SOURCES: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// Analyze every function body in the file; return taint flows.
/// `extra_sched` extends [`SCHED_SINKS`] with crate-declared scheduling
/// entry points (`sched_sinks` manifest metadata) — a crate that grows
/// its own queue lanes names them there and they become sinks here.
pub fn analyze_taint(
    toks: &[Token],
    items: &FileItems,
    extra_sched: &[String],
) -> Vec<TaintFinding> {
    // Struct fields seed container shape knowledge file-wide.
    let mut field_unordered: BTreeSet<String> = BTreeSet::new();
    let mut field_ordered: BTreeSet<String> = BTreeSet::new();
    for st in &items.structs {
        for f in &st.fields {
            if f.type_idents
                .iter()
                .any(|t| UNORDERED_TYPES.contains(&t.as_str()))
            {
                field_unordered.insert(f.name.clone());
            }
            if f.type_idents
                .iter()
                .any(|t| ORDERED_TYPES.contains(&t.as_str()))
            {
                field_ordered.insert(f.name.clone());
            }
        }
    }

    // Same-file call summaries: fn name → origin label of its tainted
    // return, iterated to a small fixpoint so helper chains resolve.
    let mut summaries: BTreeMap<String, String> = BTreeMap::new();
    for _round in 0..4 {
        let mut changed = false;
        for f in &items.fns {
            if summaries.contains_key(&f.name) {
                continue;
            }
            let (_, ret) = scan_fn(
                toks,
                f.body,
                &field_unordered,
                &field_ordered,
                &summaries,
                extra_sched,
            );
            if let Some(origin) = ret {
                summaries.insert(f.name.clone(), origin);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    for f in &items.fns {
        let (findings, _) = scan_fn(
            toks,
            f.body,
            &field_unordered,
            &field_ordered,
            &summaries,
            extra_sched,
        );
        for tf in findings {
            if seen.insert((tf.line, tf.message.clone())) {
                out.push(tf);
            }
        }
    }
    out.sort_by_key(|f| f.line);
    out
}

/// Scan one function body: returns (sink findings, tainted-return origin).
fn scan_fn(
    toks: &[Token],
    body: (usize, usize),
    field_unordered: &BTreeSet<String>,
    field_ordered: &BTreeSet<String>,
    summaries: &BTreeMap<String, String>,
    extra_sched: &[String],
) -> (Vec<TaintFinding>, Option<String>) {
    let stmts = split_statements(toks, body.0, body.1);
    let mut tainted: BTreeMap<String, String> = BTreeMap::new();
    let mut unordered: BTreeSet<String> = field_unordered.clone();
    let mut ordered: BTreeSet<String> = field_ordered.clone();
    let mut findings = Vec::new();
    let mut ret_origin: Option<String> = None;

    // Two forward passes: loop bodies can use bindings that are only
    // re-tainted on a later statement of the same body.
    for pass in 0..2 {
        let emit = pass == 1;
        for &(s, e) in &stmts {
            let stmt = &toks[s..e];
            if stmt.is_empty() {
                continue;
            }
            let origin = stmt_taint(stmt, &tainted, &unordered, summaries);

            // Propagation: bind lhs names when the statement binds.
            if let Some((lhs, rhs_at)) = binding_split(stmt) {
                let rhs = &stmt[rhs_at..];
                let rhs_origin = stmt_taint(rhs, &tainted, &unordered, summaries);
                // Shape flows through type annotations too (`let m2:
                // &HashMap<..> = m;`), so scan the whole statement.
                let rhs_unordered = stmt.iter().any(|t| {
                    t.kind
                        .ident()
                        .is_some_and(|s| UNORDERED_TYPES.contains(&s) || unordered.contains(s))
                });
                let rhs_ordered = stmt.iter().any(|t| {
                    t.kind
                        .ident()
                        .is_some_and(|s| ORDERED_TYPES.contains(&s) || ordered.contains(s))
                });
                for name in lhs {
                    if let Some(o) = &rhs_origin {
                        tainted.insert(name.clone(), o.clone());
                    }
                    if rhs_unordered && rhs_origin.is_none() {
                        // Alias of a container, not yet an iterated value.
                        unordered.insert(name.clone());
                    }
                    if rhs_ordered {
                        ordered.insert(name.clone());
                    }
                }
            }

            if !emit {
                continue;
            }
            let Some(origin) = origin else {
                continue;
            };
            let line = stmt[0].line;
            for sink in stmt_sinks(stmt, &ordered, extra_sched) {
                findings.push(TaintFinding {
                    line,
                    message: format!("{origin} flows into {sink}"),
                });
            }
            if stmt.iter().any(|t| t.kind.ident() == Some("return")) {
                ret_origin.get_or_insert(origin.clone());
            }
        }
        // Tail expression: the last fragment taints the return value.
        if let Some(&(s, e)) = stmts.last() {
            if let Some(o) = stmt_taint(&toks[s..e], &tainted, &unordered, summaries) {
                ret_origin.get_or_insert(o);
            }
        }
    }
    (findings, ret_origin)
}

/// Split a body token range into statement fragments at `;`, `{`, `}`
/// (any depth — blocks become their own fragment sequence).
pub(crate) fn split_statements(toks: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut s = start;
    let stop = end.min(toks.len());
    for (k, t) in toks.iter().enumerate().take(stop).skip(start) {
        if matches!(t.kind, TokKind::Punct(';' | '{' | '}')) {
            if k > s {
                out.push((s, k));
            }
            s = k + 1;
        }
    }
    if end.min(toks.len()) > s {
        out.push((s, end.min(toks.len())));
    }
    out
}

/// If the statement binds names (`let`, `for … in`, assignment), return
/// (bound lowercase-initial names, token index where the rhs starts).
pub(crate) fn binding_split(stmt: &[Token]) -> Option<(Vec<String>, usize)> {
    // `for PAT in EXPR`
    if let Some(fp) = stmt.iter().position(|t| t.kind.ident() == Some("for")) {
        if let Some(ip) = stmt[fp..].iter().position(|t| t.kind.ident() == Some("in")) {
            let names = pattern_names(&stmt[fp + 1..fp + ip]);
            if !names.is_empty() {
                return Some((names, fp + ip + 1));
            }
        }
    }
    // `let PAT = EXPR` (covers `if let` / `while let`)
    if let Some(lp) = stmt.iter().position(|t| t.kind.ident() == Some("let")) {
        if let Some(eq) = assign_pos(stmt, lp + 1) {
            let names = pattern_names(&stmt[lp + 1..eq]);
            if !names.is_empty() {
                return Some((names, eq + 1));
            }
        }
        return None;
    }
    // Plain or compound assignment.
    if let Some(eq) = assign_pos(stmt, 0) {
        let names = pattern_names(&stmt[..eq]);
        if !names.is_empty() {
            return Some((names, eq + 1));
        }
    }
    None
}

/// Index of the first standalone `=` (not `==`, `=>`, `<=`, comparison)
/// at or after `from`; compound assignments (`+=` etc.) count, with the
/// index of the `=` itself returned. The lexer emits `>` and `=` as
/// separate tokens, so `Vec<u64> = …` would read as `>=` without angle
/// tracking: a `>` that closes an open generic list is not a comparison.
fn assign_pos(stmt: &[Token], from: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut gt_closed_generic = false;
    for k in from..stmt.len() {
        match &stmt[k].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => {
                let arrow = k > 0 && stmt[k - 1].kind == TokKind::Punct('-');
                gt_closed_generic = false;
                if !arrow && angle > 0 {
                    angle -= 1;
                    gt_closed_generic = true;
                }
            }
            TokKind::Punct('=') => {
                let next = stmt.get(k + 1).map(|t| &t.kind);
                if next == Some(&TokKind::Punct('=')) || next == Some(&TokKind::Punct('>')) {
                    continue;
                }
                if k > from {
                    if let TokKind::Punct(p) = stmt[k - 1].kind {
                        match p {
                            '=' | '<' | '!' => continue,
                            '>' if !gt_closed_generic => continue,
                            // `+=`, `-=`, … assign to an existing binding.
                            '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' => return Some(k),
                            _ => {}
                        }
                    }
                }
                return Some(k);
            }
            _ => {}
        }
    }
    None
}

/// Lowercase-initial identifiers in a binding pattern (skips keywords,
/// type names, and primitive-typed annotations do no harm).
fn pattern_names(pat: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for t in pat {
        if let Some(s) = t.kind.ident() {
            if matches!(s, "mut" | "ref" | "let" | "if" | "while" | "self" | "_") {
                continue;
            }
            // Primitive type names show up in annotations (`let v: Vec<u64>`)
            // and must not become phantom bindings.
            if matches!(
                s,
                "u8" | "u16"
                    | "u32"
                    | "u64"
                    | "u128"
                    | "usize"
                    | "i8"
                    | "i16"
                    | "i32"
                    | "i64"
                    | "i128"
                    | "isize"
                    | "f32"
                    | "f64"
                    | "bool"
                    | "char"
                    | "str"
                    | "dyn"
            ) {
                continue;
            }
            if s.starts_with(|c: char| c.is_lowercase() || c == '_') {
                out.push(s.to_string());
            }
        }
    }
    out
}

/// Does this expression fragment carry taint? Returns the origin label.
fn stmt_taint(
    stmt: &[Token],
    tainted: &BTreeMap<String, String>,
    unordered: &BTreeSet<String>,
    summaries: &BTreeMap<String, String>,
) -> Option<String> {
    for (k, t) in stmt.iter().enumerate() {
        let Some(s) = t.kind.ident() else {
            // `addr_of!` path handled via ident below; nothing here.
            continue;
        };
        // Pointer/address casts.
        if s == "as"
            && stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('*'))
            && matches!(
                stmt.get(k + 2).and_then(|t| t.kind.ident()),
                Some("const" | "mut")
            )
        {
            return Some("address-cast value".to_string());
        }
        if matches!(s, "as_ptr" | "as_mut_ptr" | "addr_of" | "addr_of_mut") {
            return Some("address-cast value".to_string());
        }
        // Float-keyed comparisons.
        if matches!(s, "partial_cmp" | "total_cmp") {
            return Some("float-keyed comparison".to_string());
        }
        // Unseeded RNG.
        if RNG_SOURCES.contains(&s) {
            return Some(format!("unseeded RNG (`{s}`)"));
        }
        if s == "random"
            && k >= 3
            && stmt[k - 1].kind == TokKind::Punct(':')
            && stmt[k - 2].kind == TokKind::Punct(':')
            && stmt[k - 3].kind.ident() == Some("rand")
        {
            return Some("unseeded RNG (`rand::random`)".to_string());
        }
        // Iteration over an unordered container local/field: either an
        // iter-family method on it, or it as the subject of `for … in`.
        if unordered.contains(s) {
            let method_after = stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('.'))
                && stmt
                    .get(k + 2)
                    .and_then(|t| t.kind.ident())
                    .is_some_and(|m| ITER_METHODS.contains(&m));
            let for_subject = k > 0
                && stmt[..k]
                    .iter()
                    .rev()
                    .find_map(|t| t.kind.ident())
                    .is_some_and(|p| p == "in");
            if method_after || for_subject {
                return Some(format!("iteration over unordered container `{s}`"));
            }
        }
        // Tainted local referenced.
        if let Some(origin) = tainted.get(s) {
            return Some(origin.clone());
        }
        // Call of a same-file fn with a tainted return.
        if let Some(origin) = summaries.get(s) {
            if stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('(')) {
                return Some(format!("{origin} (via `{s}()`)"));
            }
        }
    }
    None
}

/// Ordering-sensitive sinks present in this statement.
fn stmt_sinks(stmt: &[Token], ordered: &BTreeSet<String>, extra_sched: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for (k, t) in stmt.iter().enumerate() {
        let Some(s) = t.kind.ident() else { continue };
        let is_method = k > 0 && stmt[k - 1].kind == TokKind::Punct('.');
        if is_method && SORT_SINKS.contains(&s) {
            out.push(format!("comparator sink `.{s}(..)`"));
        }
        if is_method && (SCHED_SINKS.contains(&s) || extra_sched.iter().any(|x| x == s)) {
            out.push(format!("event-queue sink `.{s}(..)`"));
        }
        if is_method && EMIT_SINKS.contains(&s) {
            out.push(format!("probe/CSV emission sink `.{s}(..)`"));
        }
        if is_method && PUSH_SINKS.contains(&s) {
            // Receiver shape: `recv.push(..)` — the ident before the dot.
            if let Some(recv) = stmt[..k - 1].iter().rev().find_map(|t| t.kind.ident()) {
                let name = recv.to_ascii_lowercase();
                let queue_shaped = ["queue", "events", "heap", "ready", "pending"]
                    .iter()
                    .any(|q| name.contains(q));
                if queue_shaped || ordered.contains(recv) {
                    out.push(format!("ordered-insert sink `{recv}.{s}(..)`"));
                }
            }
        }
        if EMIT_MACROS.contains(&s)
            && stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('!'))
        {
            out.push(format!("probe/CSV emission sink `{s}!(..)`"));
        }
    }
    out.sort();
    out.dedup();
    out
}

// ---------------------------------------------------------------------------
// Per-function taint facts for the workspace pass
// ---------------------------------------------------------------------------
//
// The pass above resolves same-file helper calls with an in-file
// summary fixpoint and reports every flow it can see within the file.
// The collector below feeds the workspace-level interprocedural engine
// ([`crate::interproc`]): per function, which calls it makes, which
// call-carried values reach which sinks, and which origins its return
// value may carry. Nothing here looks at other functions; the facts are
// resolved globally against the whole-workspace call graph.

/// One taint origin as recorded in per-function facts.
///
/// `call: None` is a local source (`label` is the per-file origin label,
/// `line` its source line). `call: Some(name)` is a value obtained from
/// a call to `name`, tainted iff the resolved callee's summary is — the
/// interprocedural engine decides that, not this file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginFact {
    /// Callee name for call-carried origins; `None` for local sources.
    pub call: Option<String>,
    /// Per-file-pass origin label (empty for call-carried origins).
    pub label: String,
    /// 1-based line of the originating token.
    pub line: usize,
}

/// An ordering-sensitive sink statement that consumes at least one
/// call-carried value. (Sinks fed only by local sources are fully
/// handled by the per-file pass and are not recorded here.)
#[derive(Debug, Clone)]
pub struct SinkFact {
    /// 1-based line of the sink statement.
    pub line: usize,
    /// Per-file-pass sink label (`event-queue sink `.push(..)``, …).
    pub label: String,
    /// Callee names whose return values reach this sink.
    pub callees: Vec<String>,
}

/// One call site, for the workspace call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    /// The called function's name (last path segment).
    pub name: String,
    /// True for method-call syntax (`recv.name(..)`).
    pub method: bool,
    /// Leading `::` path segments (`gen::pick(..)` → `["gen"]`,
    /// `Gen::pick(..)` → `["Gen"]`); empty for a plain call.
    pub path: Vec<String>,
}

/// The taint-relevant facts of one function body.
#[derive(Debug, Clone, Default)]
pub struct FnTaintFacts {
    /// Sinks consuming call-carried values.
    pub sinks: Vec<SinkFact>,
    /// Origins the return value may carry, in per-file-pass priority order.
    pub ret: Vec<OriginFact>,
    /// Distinct call sites in the body.
    pub calls: Vec<CallFact>,
}

const VAR_ORIGIN_CAP: usize = 6;
const STMT_ORIGIN_CAP: usize = 12;

/// Collect per-function taint facts for every function in the file,
/// parallel to `items.fns`.
pub fn collect_fn_facts(
    toks: &[Token],
    items: &FileItems,
    extra_sched: &[String],
) -> Vec<FnTaintFacts> {
    let mut field_unordered: BTreeSet<String> = BTreeSet::new();
    let mut field_ordered: BTreeSet<String> = BTreeSet::new();
    for st in &items.structs {
        for f in &st.fields {
            if f.type_idents
                .iter()
                .any(|t| UNORDERED_TYPES.contains(&t.as_str()))
            {
                field_unordered.insert(f.name.clone());
            }
            if f.type_idents
                .iter()
                .any(|t| ORDERED_TYPES.contains(&t.as_str()))
            {
                field_ordered.insert(f.name.clone());
            }
        }
    }
    items
        .fns
        .iter()
        .map(|f| {
            // Parameters typed as containers seed shape knowledge too:
            // interprocedural helpers take their maps as arguments
            // instead of aliasing them through an annotated `let`.
            let (param_un, param_ord) = param_shapes(toks, f.sig);
            let mut un = field_unordered.clone();
            un.extend(param_un);
            let mut ord = field_ordered.clone();
            ord.extend(param_ord);
            let (sinks, ret) = scan_fn_facts(toks, f.body, &un, &ord, extra_sched);
            FnTaintFacts {
                sinks,
                ret,
                calls: collect_calls(toks, f.body),
            }
        })
        .collect()
}

/// Parameters in `sig` whose type annotation names an unordered or
/// ordered container: each container-type token is walked back to the
/// `name:` annotation that owns it. Path separators (`::`) are skipped;
/// hitting a `(`, `)`, or `,` first means the token is not inside a
/// parameter annotation (e.g. a return type) and is ignored.
fn param_shapes(toks: &[Token], sig: (usize, usize)) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut un = BTreeSet::new();
    let mut ord = BTreeSet::new();
    let sig_toks = &toks[sig.0.min(toks.len())..sig.1.min(toks.len())];
    for (k, t) in sig_toks.iter().enumerate() {
        let Some(s) = t.kind.ident() else { continue };
        let is_un = UNORDERED_TYPES.contains(&s);
        let is_ord = ORDERED_TYPES.contains(&s);
        if !is_un && !is_ord {
            continue;
        }
        let mut i = k;
        let name = loop {
            if i == 0 {
                break None;
            }
            i -= 1;
            match &sig_toks[i].kind {
                TokKind::Punct(':') => {
                    if i > 0 && sig_toks[i - 1].kind == TokKind::Punct(':') {
                        i -= 1; // path separator, keep walking
                        continue;
                    }
                    break sig_toks[..i]
                        .last()
                        .and_then(|t| t.kind.ident())
                        .filter(|n| n.starts_with(|c: char| c.is_lowercase() || c == '_'))
                        .map(str::to_string);
                }
                TokKind::Punct('(' | ')' | ',') => break None,
                _ => {}
            }
        };
        if let Some(n) = name {
            if is_un {
                un.insert(n.clone());
            }
            if is_ord {
                ord.insert(n);
            }
        }
    }
    (un, ord)
}

/// The per-function-facts analogue of [`scan_fn`]: same two-pass statement walk and the
/// same propagation shape, but origins are multi-valued and calls are
/// recorded unresolved instead of being looked up in same-file
/// summaries.
fn scan_fn_facts(
    toks: &[Token],
    body: (usize, usize),
    field_unordered: &BTreeSet<String>,
    field_ordered: &BTreeSet<String>,
    extra_sched: &[String],
) -> (Vec<SinkFact>, Vec<OriginFact>) {
    let stmts = split_statements(toks, body.0, body.1);
    let mut tainted: BTreeMap<String, Vec<OriginFact>> = BTreeMap::new();
    let mut unordered: BTreeSet<String> = field_unordered.clone();
    let mut ordered: BTreeSet<String> = field_ordered.clone();
    let mut sinks: Vec<SinkFact> = Vec::new();
    let mut ret: Vec<OriginFact> = Vec::new();
    let push_ret = |ret: &mut Vec<OriginFact>, os: &[OriginFact]| {
        for o in os {
            if ret.len() < STMT_ORIGIN_CAP && !ret.contains(o) {
                ret.push(o.clone());
            }
        }
    };

    for pass in 0..2 {
        let emit = pass == 1;
        for &(s, e) in &stmts {
            let stmt = &toks[s..e];
            if stmt.is_empty() {
                continue;
            }
            let origins = stmt_origins(stmt, &tainted, &unordered);

            if let Some((lhs, rhs_at)) = binding_split(stmt) {
                let rhs = &stmt[rhs_at..];
                let rhs_origins = stmt_origins(rhs, &tainted, &unordered);
                let rhs_unordered = stmt.iter().any(|t| {
                    t.kind
                        .ident()
                        .is_some_and(|s| UNORDERED_TYPES.contains(&s) || unordered.contains(s))
                });
                let rhs_ordered = stmt.iter().any(|t| {
                    t.kind
                        .ident()
                        .is_some_and(|s| ORDERED_TYPES.contains(&s) || ordered.contains(s))
                });
                let has_local = rhs_origins.iter().any(|o| o.call.is_none());
                for name in lhs {
                    if !rhs_origins.is_empty() {
                        let mut v = rhs_origins.clone();
                        v.truncate(VAR_ORIGIN_CAP);
                        tainted.insert(name.clone(), v);
                    }
                    if rhs_unordered && !has_local {
                        unordered.insert(name.clone());
                    }
                    if rhs_ordered {
                        ordered.insert(name.clone());
                    }
                }
            }

            if !emit {
                continue;
            }
            let callees: Vec<String> = {
                let mut names: Vec<String> =
                    origins.iter().filter_map(|o| o.call.clone()).collect();
                names.dedup();
                names
            };
            if !callees.is_empty() {
                let line = stmt[0].line;
                for label in stmt_sinks(stmt, &ordered, extra_sched) {
                    sinks.push(SinkFact {
                        line,
                        label,
                        callees: callees.clone(),
                    });
                }
            }
            if stmt.iter().any(|t| t.kind.ident() == Some("return")) {
                push_ret(&mut ret, &origins);
            }
        }
        if let Some(&(s, e)) = stmts.last() {
            let os = stmt_origins(&toks[s..e], &tainted, &unordered);
            push_ret(&mut ret, &os);
        }
    }
    (sinks, ret)
}

/// Every origin a statement fragment carries, in token order — the per-file
/// single-origin check (`stmt_taint`) generalized to collect all of
/// them, with unresolved calls as first-class origins.
fn stmt_origins(
    stmt: &[Token],
    tainted: &BTreeMap<String, Vec<OriginFact>>,
    unordered: &BTreeSet<String>,
) -> Vec<OriginFact> {
    let mut out: Vec<OriginFact> = Vec::new();
    let push = |out: &mut Vec<OriginFact>, o: OriginFact| {
        if out.len() < STMT_ORIGIN_CAP && !out.contains(&o) {
            out.push(o);
        }
    };
    for (k, t) in stmt.iter().enumerate() {
        let Some(s) = t.kind.ident() else { continue };
        let line = t.line;
        let local = |label: String| OriginFact {
            call: None,
            label,
            line,
        };
        if s == "as"
            && stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('*'))
            && matches!(
                stmt.get(k + 2).and_then(|t| t.kind.ident()),
                Some("const" | "mut")
            )
        {
            push(&mut out, local("address-cast value".to_string()));
            continue;
        }
        if matches!(s, "as_ptr" | "as_mut_ptr" | "addr_of" | "addr_of_mut") {
            push(&mut out, local("address-cast value".to_string()));
            continue;
        }
        if matches!(s, "partial_cmp" | "total_cmp") {
            push(&mut out, local("float-keyed comparison".to_string()));
            continue;
        }
        if RNG_SOURCES.contains(&s) {
            push(&mut out, local(format!("unseeded RNG (`{s}`)")));
            continue;
        }
        if s == "random"
            && k >= 3
            && stmt[k - 1].kind == TokKind::Punct(':')
            && stmt[k - 2].kind == TokKind::Punct(':')
            && stmt[k - 3].kind.ident() == Some("rand")
        {
            push(&mut out, local("unseeded RNG (`rand::random`)".to_string()));
            continue;
        }
        if unordered.contains(s) {
            let method_after = stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('.'))
                && stmt
                    .get(k + 2)
                    .and_then(|t| t.kind.ident())
                    .is_some_and(|m| ITER_METHODS.contains(&m));
            let for_subject = k > 0
                && stmt[..k]
                    .iter()
                    .rev()
                    .find_map(|t| t.kind.ident())
                    .is_some_and(|p| p == "in");
            if method_after || for_subject {
                push(
                    &mut out,
                    local(format!("iteration over unordered container `{s}`")),
                );
            }
        }
        if let Some(origins) = tainted.get(s) {
            for o in origins {
                push(&mut out, o.clone());
            }
        }
        if is_call_name(s) && stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('(')) {
            push(
                &mut out,
                OriginFact {
                    call: Some(s.to_string()),
                    label: String::new(),
                    line,
                },
            );
        }
    }
    out
}

/// Is this identifier plausibly a callable name? Lowercase-initial and
/// not a control-flow keyword (which can precede `(` syntactically).
fn is_call_name(s: &str) -> bool {
    if !s.starts_with(|c: char| c.is_lowercase() || c == '_') {
        return false;
    }
    !matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "in"
            | "as"
            | "move"
            | "let"
            | "fn"
            | "else"
            | "unsafe"
            | "await"
            | "ref"
            | "mut"
            | "impl"
            | "dyn"
            | "where"
            | "use"
            | "pub"
            | "mod"
            | "const"
            | "static"
            | "enum"
            | "struct"
            | "trait"
            | "type"
            | "self"
    )
}

/// Distinct call sites in a body: `name(..)`, `recv.name(..)`, and
/// path-qualified `a::b::name(..)` forms. Macros (`name!(..)`) and
/// uppercase constructors (`Variant(..)`) are not calls.
pub fn collect_calls(toks: &[Token], body: (usize, usize)) -> Vec<CallFact> {
    let mut out: Vec<CallFact> = Vec::new();
    let end = body.1.min(toks.len());
    for k in body.0..end {
        let Some(s) = toks[k].kind.ident() else {
            continue;
        };
        if !is_call_name(s) {
            continue;
        }
        if toks.get(k + 1).map(|t| &t.kind) != Some(&TokKind::Punct('(')) {
            continue;
        }
        let method = k > 0 && toks[k - 1].kind == TokKind::Punct('.');
        let mut path: Vec<String> = Vec::new();
        if !method {
            // Walk backward through `seg ::` pairs.
            let mut j = k;
            while j >= 3
                && toks[j - 1].kind == TokKind::Punct(':')
                && toks[j - 2].kind == TokKind::Punct(':')
            {
                match toks[j - 3].kind.ident() {
                    Some(seg) => {
                        path.insert(0, seg.to_string());
                        j -= 3;
                    }
                    None => break,
                }
            }
        }
        let cf = CallFact {
            name: s.to_string(),
            method,
            path,
        };
        if !out.contains(&cf) {
            out.push(cf);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn taint(src: &str) -> Vec<TaintFinding> {
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        analyze_taint(&lexed.tokens, &items, &[])
    }

    #[test]
    fn declared_sched_sinks_extend_the_builtin_family() {
        let src = "\
fn arm(q: &mut EventQueue<u64>, m: &HashMap<u64, u64>) {
    let m2: &HashMap<u64, u64> = m;
    let first: u64 = m2.keys().copied().next().unwrap_or(0);
    q.push_handle(SimTime::from_nanos(first), first);
}
";
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        // Not a sink by default...
        assert!(analyze_taint(&lexed.tokens, &items, &[]).is_empty());
        // ...but declared via manifest metadata, the same flow fires.
        let flows = analyze_taint(&lexed.tokens, &items, &["push_handle".to_string()]);
        assert_eq!(flows.len(), 1);
        assert!(
            flows[0]
                .message
                .contains("event-queue sink `.push_handle(..)`"),
            "unexpected message: {}",
            flows[0].message
        );
    }

    #[test]
    fn hashmap_iteration_reaching_sort_fires() {
        let src = "\
fn order(m: &HashMap<u64, u64>) -> Vec<u64> {
    let m2: &HashMap<u64, u64> = m;
    let mut v: Vec<u64> = m2.keys().copied().collect();
    v.sort_by(|a, b| a.cmp(b));
    v
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("unordered container"), "{fs:?}");
        assert!(fs[0].message.contains("comparator sink"), "{fs:?}");
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let src = "\
fn order(m: &BTreeMap<u64, u64>) -> Vec<u64> {
    let m2: &BTreeMap<u64, u64> = m;
    let mut v: Vec<u64> = m2.keys().copied().collect();
    v.sort_by(|a, b| a.cmp(b));
    v
}
";
        assert!(taint(src).is_empty());
    }

    #[test]
    fn address_cast_into_schedule_fires() {
        let src = "\
fn go(&mut self, task: &Task) {
    let key = task as *const Task as usize;
    self.eq.schedule(SimTime::ZERO, key as u64);
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("address-cast"), "{fs:?}");
        assert!(fs[0].message.contains("event-queue sink"), "{fs:?}");
    }

    #[test]
    fn taint_through_same_file_helper_return() {
        let src = "\
fn pick(m: &HashMap<u64, u64>) -> u64 {
    let m2: &HashMap<u64, u64> = m;
    let first = m2.keys().next();
    first.copied().unwrap_or(0)
}
fn drive(&mut self) {
    let k = pick(&self.live);
    self.events.push(k);
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("via `pick()`"), "{fs:?}");
        assert!(fs[0].message.contains("ordered-insert sink"), "{fs:?}");
    }

    #[test]
    fn unordered_struct_field_for_loop_into_emit_fires() {
        let src = "\
struct Reg { live: HashMap<u64, u64> }
impl Reg {
    fn dump(&self, out: &mut String) {
        for k in self.live.keys() {
            writeln!(out, \"{}\", k).unwrap();
        }
    }
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("`live`"), "{fs:?}");
        assert!(fs[0].message.contains("writeln!"), "{fs:?}");
    }

    #[test]
    fn untainted_sinks_do_not_fire() {
        let src = "\
fn go(&mut self, t: SimTime, id: u64) {
    self.eq.schedule(t, id);
    let mut v = vec![3u64, 1, 2];
    v.sort_by(|a, b| a.cmp(b));
}
";
        assert!(taint(src).is_empty());
    }

    #[test]
    fn rng_into_sort_key_fires() {
        let src = "\
fn shuffle(v: &mut Vec<u64>) {
    let mut rng = thread_rng();
    v.sort_by_key(|_| rng.gen::<u64>());
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("unseeded RNG"), "{fs:?}");
    }
}
