//! In-memory spans, recorded from the benchmark's own code around calls
//! into the simulator's layers and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one workload rep (or of one workload's
/// layer replays) share a `trace` id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Trace id shared by every span of one rep or replay pass.
    pub trace: u64,
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (equals `start_ns` while
    /// the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Trace id for rep `rep` of workload number `workload`.
pub fn trace_id(workload: usize, rep: u32) -> u64 {
    ((workload as u64 + 1) << 32) | u64::from(rep)
}

/// Collects spans in memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, trace: u64, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        trace: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(trace, name, parent);
        let r = f();
        (r, self.end(id))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"trace\": \"{:016x}\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.trace,
                s.id,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once, children
/// clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace: trace_id(0, 0),
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) has children a [10,30) and b [40,90); b has a child
        // c [50,60). Root self = 100 - 20 - 50; b self = 50 - 10.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 40, 90),
            span(3, Some(2), "c", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 50),
            span(2, Some(0), "a", 30, 70),
            span(3, Some(0), "b", 90, 120),
        ];
        // Covered: [10,70) and [90,100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["a"], 80);
        assert_eq!(by_name["root"], 30);
    }

    #[test]
    fn tracer_nests_and_serializes() {
        let mut t = Tracer::default();
        let root = t.begin(trace_id(2, 7), "rep", None);
        let ((), _) = t.span(trace_id(2, 7), "child", Some(root), || {});
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = t.to_json();
        assert!(json.contains("\"trace\": \"0000000300000007\""));
        assert!(json.contains("\"parent\": 0"));
    }
}
