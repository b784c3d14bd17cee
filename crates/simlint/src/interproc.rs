//! Workspace-level interprocedural analysis: the cross-file, cross-crate
//! call graph, SCC condensation, and bottom-up taint summaries.
//!
//! The per-file dataflow pass resolves helper calls with a *same-file*
//! summary fixpoint; everything beyond one file is invisible to it. This
//! module lifts that to the workspace. The per-file half is
//! [`FileFacts`]: a pure function of one file's source, holding the
//! pre-waiver lint candidates and the file's waivers alongside its call
//! and taint facts. The global half is [`Workspace`]: an index over every
//! file's facts that
//!
//! 1. resolves each [`CallFact`] to candidate definitions — same-file
//!    first, then through `use`-alias bindings, then by name within the
//!    owning crate; method calls resolve to every workspace `impl` fn of
//!    that name, and `Type::method` forms narrow to impls of `Type`;
//! 2. condenses the call graph into SCCs (iterative Tarjan) and computes
//!    bottom-up per-function taint summaries in callees-first order,
//!    iterating each SCC to a fixpoint (a summary is never overwritten
//!    once resolved, so cycles terminate);
//! 3. emits interprocedural determinism-taint findings for sinks fed by
//!    call-carried values, with the *source* location attached when the
//!    chain crosses files.
//!
//! Resolution is deliberately over-approximate (a lint, not a linker):
//! an unresolvable call simply has no edges, and a name collision adds
//! edges. Both err toward *more* reachability, which is the conservative
//! direction for taint.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::{CallFact, FnTaintFacts};
use crate::rules::semantic::LedgerSites;
use crate::rules::tokens::Analysis;
use crate::rules::waivers::WaiverSet;
use crate::Finding;

/// One function with its interprocedural facts.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Owning `impl` type name for methods (`impl Dispatcher` →
    /// `Some("Dispatcher")`); `None` for free functions.
    pub impl_type: Option<String>,
    /// Taint facts of the body.
    pub taint: FnTaintFacts,
}

/// Everything the global passes need from one file — a pure function of
/// the file's source plus its crate's manifest metadata.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub rel: String,
    /// Owning crate name.
    pub crate_name: String,
    /// Pre-waiver candidates from the per-file passes (token rules,
    /// semantic rules, same-file taint).
    pub candidates: Vec<Finding>,
    /// The file's waivers, applied once at finalize time.
    pub waivers: WaiverSet,
    /// Per declared ledger field: this file's non-test sites.
    pub ledger: Vec<(String, LedgerSites)>,
    /// `use`-alias bindings: visible name → full path segments.
    pub bindings: BTreeMap<String, Vec<String>>,
    /// Per-function facts, in file order.
    pub fns: Vec<FnFact>,
    /// True when interprocedural taint findings may be emitted for this
    /// file (core/model layer, not a tests dir).
    pub taint_scope: bool,
    /// File contains `#![forbid(unsafe_code)]` (the missing-forbid input
    /// for crate roots).
    pub has_forbid: bool,
}

impl FileFacts {
    /// Finalize the file: merge the interprocedural findings routed to it
    /// (deduplicated by (line, message) against the same-file chains the
    /// per-file taint pass already reported), credit the source-side
    /// waivers of cross-file flows at `credits`, and apply the waivers
    /// once across every rule family.
    pub fn finalize(self, extra: Vec<Finding>, credits: &[usize]) -> Analysis {
        let mut candidates = self.candidates;
        let mut seen: BTreeSet<(usize, String)> = candidates
            .iter()
            .map(|c| (c.line, c.message.clone()))
            .collect();
        for f in extra {
            if seen.insert((f.line, f.message.clone())) {
                candidates.push(f);
            }
        }
        let mut wset = self.waivers;
        for &line in credits {
            wset.credit(line, "determinism-taint");
        }
        crate::rules::tokens::finalize(&self.rel, candidates, wset)
    }
}

/// A function's identity in the workspace: (file index, fn index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    /// Index into the workspace's file list.
    pub file: usize,
    /// Index into that file's [`FileFacts::fns`].
    pub idx: usize,
}

/// A resolved taint summary: the origin a function's return value
/// carries, with the chain-root source location for cross-file
/// reporting.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Per-file-pass origin label, `(via ..)` clauses included.
    pub label: String,
    /// File index of the chain-root local source.
    pub file: usize,
    /// 1-based line of the chain-root local source.
    pub line: usize,
}

/// One interprocedural determinism-taint finding, pre-formatting.
#[derive(Debug, Clone)]
pub struct InterFinding {
    /// File index of the sink.
    pub file: usize,
    /// 1-based sink line.
    pub line: usize,
    /// `{origin} flows into {sink}` in the per-file pass's message format.
    pub message: String,
    /// `(file index, line)` of the local source when it lives in a
    /// different file than the sink.
    pub source: Option<(usize, usize)>,
}

/// The workspace call-graph index over every file's facts.
pub struct Workspace<'a> {
    /// The indexed files.
    pub files: &'a [FileFacts],
    /// Normalized (`-` → `_`) crate name → canonical crate name.
    crate_norm: BTreeMap<String, String>,
    /// (crate name, fn name) → definitions.
    by_crate: BTreeMap<(String, String), Vec<FnRef>>,
    /// Method name → impl-owned definitions, workspace-wide.
    methods: BTreeMap<String, Vec<FnRef>>,
    /// (impl type name, fn name) → definitions.
    by_type: BTreeMap<(String, String), Vec<FnRef>>,
}

impl<'a> Workspace<'a> {
    /// Build the index.
    pub fn new(files: &'a [FileFacts]) -> Workspace<'a> {
        let mut ws = Workspace {
            files,
            crate_norm: BTreeMap::new(),
            by_crate: BTreeMap::new(),
            methods: BTreeMap::new(),
            by_type: BTreeMap::new(),
        };
        for (fi, f) in files.iter().enumerate() {
            ws.crate_norm
                .insert(f.crate_name.replace('-', "_"), f.crate_name.clone());
            for (xi, fun) in f.fns.iter().enumerate() {
                let r = FnRef { file: fi, idx: xi };
                ws.by_crate
                    .entry((f.crate_name.clone(), fun.name.clone()))
                    .or_default()
                    .push(r);
                if let Some(ty) = &fun.impl_type {
                    ws.methods.entry(fun.name.clone()).or_default().push(r);
                    ws.by_type
                        .entry((ty.clone(), fun.name.clone()))
                        .or_default()
                        .push(r);
                }
            }
        }
        ws
    }

    fn crate_from_seg(&self, seg: &str, own: &str) -> String {
        match seg {
            "crate" | "self" | "super" => own.to_string(),
            _ => self
                .crate_norm
                .get(&seg.replace('-', "_"))
                .cloned()
                .unwrap_or_else(|| own.to_string()),
        }
    }

    fn same_file(&self, file: usize, name: &str) -> Vec<FnRef> {
        self.files[file]
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name)
            .map(|(idx, _)| FnRef { file, idx })
            .collect()
    }

    /// Resolve a call site in `file` to candidate definitions.
    pub fn resolve(&self, file: usize, call: &CallFact) -> Vec<FnRef> {
        let facts = &self.files[file];
        let own = facts.crate_name.as_str();
        let mut out: Vec<FnRef>;
        if call.method {
            // `recv.m(..)`: any same-file fn named m (the per-file contract),
            // plus every workspace impl-owned fn of that name.
            out = self.same_file(file, &call.name);
            if let Some(v) = self.methods.get(&call.name) {
                out.extend(v.iter().copied());
            }
        } else if let Some(seg) = call.path.last() {
            // Resolve a leading alias on the qualifier.
            let seg = facts
                .bindings
                .get(seg)
                .and_then(|p| p.last())
                .map(String::as_str)
                .unwrap_or(seg);
            if seg.starts_with(|c: char| c.is_ascii_uppercase()) {
                // `Type::m(..)`.
                out = self
                    .by_type
                    .get(&(seg.to_string(), call.name.clone()))
                    .cloned()
                    .unwrap_or_default();
            } else {
                // Module path: the first segment picks the crate.
                let first = call.path.first().map(String::as_str).unwrap_or(seg);
                let first = facts
                    .bindings
                    .get(first)
                    .and_then(|p| p.first())
                    .map(String::as_str)
                    .unwrap_or(first);
                let krate = self.crate_from_seg(first, own);
                out = self
                    .by_crate
                    .get(&(krate, call.name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
        } else {
            // Plain `name(..)`: same file, then the `use` binding, then
            // same crate by name.
            out = self.same_file(file, &call.name);
            if out.is_empty() {
                if let Some(path) = facts.bindings.get(&call.name) {
                    if let (Some(first), Some(last)) = (path.first(), path.last()) {
                        let krate = self.crate_from_seg(first, own);
                        out = self
                            .by_crate
                            .get(&(krate, last.clone()))
                            .cloned()
                            .unwrap_or_default();
                    }
                }
            }
            if out.is_empty() {
                out = self
                    .by_crate
                    .get(&(own.to_string(), call.name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// The call graph: every function as a node, the node index of each
    /// [`FnRef`], and adjacency (node index → callee node indices).
    fn call_graph(&self) -> (Vec<FnRef>, BTreeMap<FnRef, usize>, Vec<Vec<usize>>) {
        let nodes: Vec<FnRef> = self
            .files
            .iter()
            .enumerate()
            .flat_map(|(file, f)| (0..f.fns.len()).map(move |idx| FnRef { file, idx }))
            .collect();
        let index: BTreeMap<FnRef, usize> =
            nodes.iter().enumerate().map(|(i, r)| (*r, i)).collect();
        let adj = nodes
            .iter()
            .map(|r| {
                let calls = &self.files[r.file].fns[r.idx].taint.calls;
                let mut outs: Vec<usize> = calls
                    .iter()
                    .flat_map(|c| self.resolve(r.file, c))
                    .filter_map(|t| index.get(&t).copied())
                    .collect();
                outs.sort_unstable();
                outs.dedup();
                outs
            })
            .collect();
        (nodes, index, adj)
    }

    /// Bottom-up taint summaries for every function, keyed the same way
    /// as [`FileFacts::fns`] (outer: file index, inner: fn index).
    ///
    /// SCCs are processed callees-first; within an SCC the resolution
    /// iterates to a fixpoint. A function's summary is its *first*
    /// return origin that resolves live — a local source always does, a
    /// call-carried origin does once its callee has a summary — and a
    /// summary is never overwritten, which both matches the per-file
    /// first-origin contract and guarantees termination on cycles.
    pub fn summaries(&self) -> Vec<Vec<Option<Summary>>> {
        let (nodes, index, adj) = self.call_graph();
        let sccs = tarjan_sccs(&adj);
        let mut sums: Vec<Option<Summary>> = vec![None; nodes.len()];
        for scc in &sccs {
            // Fixpoint within the SCC (singletons converge in one pass).
            for _round in 0..scc.len().max(1) {
                let mut changed = false;
                for &ni in scc {
                    if sums[ni].is_some() {
                        continue;
                    }
                    let r = nodes[ni];
                    let fun = &self.files[r.file].fns[r.idx];
                    for o in &fun.taint.ret {
                        let resolved = match &o.call {
                            None => Some(Summary {
                                label: o.label.clone(),
                                file: r.file,
                                line: o.line,
                            }),
                            Some(callee) => fun
                                .taint
                                .calls
                                .iter()
                                .find(|c| c.name == *callee)
                                .map(|c| self.resolve(r.file, c))
                                .unwrap_or_default()
                                .iter()
                                .find_map(|t| index.get(t).and_then(|&ti| sums[ti].clone()))
                                .map(|s| Summary {
                                    label: format!("{} (via `{}()`)", s.label, callee),
                                    file: s.file,
                                    line: s.line,
                                }),
                        };
                        if let Some(s) = resolved {
                            sums[ni] = Some(s);
                            changed = true;
                            break;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        // Re-key by (file, fn).
        let mut out: Vec<Vec<Option<Summary>>> =
            self.files.iter().map(|f| vec![None; f.fns.len()]).collect();
        for (ni, r) in nodes.iter().enumerate() {
            out[r.file][r.idx] = sums[ni].take();
        }
        out
    }

    /// Interprocedural determinism-taint findings: every sink fed by a
    /// call whose resolved summary is tainted, in files where taint
    /// findings are in scope. Same-file chains the per-file pass already
    /// reports produce byte-identical messages here and are deduplicated
    /// by the caller.
    pub fn interproc_findings(&self, sums: &[Vec<Option<Summary>>]) -> Vec<InterFinding> {
        let mut out = Vec::new();
        for (fi, f) in self.files.iter().enumerate() {
            if !f.taint_scope {
                continue;
            }
            for fun in &f.fns {
                for sink in &fun.taint.sinks {
                    let hit = sink.callees.iter().find_map(|callee| {
                        fun.taint
                            .calls
                            .iter()
                            .find(|c| c.name == *callee)
                            .map(|c| self.resolve(fi, c))
                            .unwrap_or_default()
                            .iter()
                            .find_map(|t| sums[t.file][t.idx].clone())
                            .map(|s| (callee, s))
                    });
                    if let Some((callee, s)) = hit {
                        out.push(InterFinding {
                            file: fi,
                            line: sink.line,
                            message: format!(
                                "{} (via `{}()`) flows into {}",
                                s.label, callee, sink.label
                            ),
                            source: (s.file != fi).then_some((s.file, s.line)),
                        });
                    }
                }
            }
        }
        out
    }
}

/// Iterative Tarjan SCC. Returns components in completion order, which
/// is callees-first — exactly the order bottom-up summary resolution
/// wants.
pub fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // (node, next child position) — the explicit DFS frame.
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{collect_fn_facts, OriginFact, SinkFact};
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn facts_for(crate_name: &str, rel: &str, src: &str) -> FileFacts {
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        let taint = collect_fn_facts(&lexed.tokens, &items, &[]);
        let fns = items
            .fns
            .iter()
            .zip(taint)
            .map(|(f, t)| FnFact {
                name: f.name.clone(),
                line: f.line,
                impl_type: f.owner.map(|o| items.impls[o].type_name.clone()),
                taint: t,
            })
            .collect();
        FileFacts {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            bindings: crate::rules::tokens::collect_bindings(&lexed.tokens),
            fns,
            taint_scope: true,
            ..FileFacts::default()
        }
    }

    #[test]
    fn tarjan_orders_callees_first() {
        // 0 → 1 → 2, cycle {3,4} → 2.
        let adj = vec![vec![1], vec![2], vec![], vec![4, 2], vec![3]];
        let sccs = tarjan_sccs(&adj);
        let pos = |n: usize| sccs.iter().position(|c| c.contains(&n)).unwrap();
        assert!(pos(2) < pos(1) && pos(1) < pos(0));
        assert_eq!(sccs[pos(3)], vec![3, 4]);
    }

    #[test]
    fn cross_crate_summary_resolves_through_use_binding() {
        let a = facts_for(
            "gen",
            "crates/gen/src/lib.rs",
            "pub fn pick(m: &HashMap<u32, u32>) -> Vec<u32> {\n    let order: Vec<u32> = m.keys().copied().collect();\n    order\n}\n",
        );
        let b = facts_for(
            "engine",
            "crates/engine/src/lib.rs",
            "use gen::pick;\nfn drive(m: &HashMap<u32, u32>, q: &mut Queue) {\n    let order = pick(m);\n    q.schedule(order);\n}\n",
        );
        let files = vec![a, b];
        let ws = Workspace::new(&files);
        let sums = ws.summaries();
        assert!(
            sums[0][0]
                .as_ref()
                .is_some_and(|s| s.label.contains("unordered container `m`")),
            "{sums:?}"
        );
        let found = ws.interproc_findings(&sums);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("(via `pick()`)"),
            "{}",
            found[0].message
        );
        assert_eq!(found[0].source, Some((0, 2)), "{found:?}");
    }

    #[test]
    fn method_calls_resolve_to_workspace_impls() {
        let a = facts_for(
            "model",
            "crates/model/src/lib.rs",
            "impl Sampler {\n    pub fn order(&self) -> Vec<u32> {\n        let v: Vec<u32> = self.map.keys().copied().collect();\n        v\n    }\n}\nstruct Sampler { map: HashMap<u32, u32> }\n",
        );
        let b = facts_for(
            "engine",
            "crates/engine/src/lib.rs",
            "fn drive(s: &Sampler, q: &mut Q) {\n    let order = s.order();\n    q.schedule_at(order);\n}\n",
        );
        let files = vec![a, b];
        let ws = Workspace::new(&files);
        let found = ws.interproc_findings(&ws.summaries());
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("via `order()`"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn scc_cycles_terminate_and_still_resolve() {
        let a = facts_for(
            "m",
            "crates/m/src/lib.rs",
            "fn ping(n: u32, m: &HashMap<u32, u32>) -> Vec<u32> {\n    if n == 0 {\n        let base: Vec<u32> = m.keys().copied().collect();\n        return base;\n    }\n    pong(n - 1, m)\n}\nfn pong(n: u32, m: &HashMap<u32, u32>) -> Vec<u32> {\n    ping(n, m)\n}\n",
        );
        let files = vec![a];
        let ws = Workspace::new(&files);
        let sums = ws.summaries();
        assert!(sums[0][0].is_some(), "{sums:?}");
        assert!(sums[0][1].is_some(), "{sums:?}");
    }

    #[test]
    fn sink_facts_record_call_carried_values() {
        let src = "fn drive(q: &mut Q) {\n    let order = helper();\n    q.schedule(order);\n}\nfn helper() -> Vec<u32> { Vec::new() }\n";
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        let taint = collect_fn_facts(&lexed.tokens, &items, &[]);
        let sinks: &[SinkFact] = &taint[0].sinks;
        assert_eq!(sinks.len(), 1, "{sinks:?}");
        // The collection over-approximates (the sink method itself is
        // recorded too — it resolves to nothing and is harmless); what
        // matters is that the value-carrying call is present.
        assert!(
            sinks[0].callees.contains(&"helper".to_string()),
            "{sinks:?}"
        );
        // A clean helper must not leak a *local* origin — call-carried
        // candidates (`Vec::new`) resolve to no summary and stay inert.
        let ret: &[OriginFact] = &taint[1].ret;
        assert!(ret.iter().all(|o| o.call.is_some()), "{ret:?}");
    }
}
