//! Spans and counts recorded around the benchmark's calls into covern.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the span that
//! caused it, and a group id shared by every span of one delta or request.
//! Spans stay in memory and are written out once, when the run ends. A
//! layer's self time is its spans' duration minus the part of each span
//! that its child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (`NONE` when tracing is off).
pub type SpanId = usize;

/// The id handed out by a disabled tracer.
pub const NONE: SpanId = usize::MAX;

/// One recorded span; times in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, for example `core.prop4`.
    pub name: String,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin (`start` until the span is closed).
    pub end: u64,
    /// The causing span, if any.
    pub parent: Option<SpanId>,
    /// Shared by all spans of one delta or request.
    pub group: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&self, name: &str, parent: SpanId, group: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now();
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name: name.to_owned(),
            start: now,
            end: now,
            parent: (parent != NONE).then_some(parent),
            group,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.now();
        self.spans.lock().expect("span list lock")[id].end = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &str, parent: SpanId, group: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, group);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of a closed span in ns (0 when tracing is off).
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        if id == NONE {
            return 0;
        }
        let s = &self.spans.lock().expect("span list lock")[id];
        s.end - s.start
    }

    /// The spans recorded from `root` on, re-indexed so that `root` is
    /// span 0 (parents recorded before `root` are dropped).
    pub fn spans_since(&self, root: SpanId) -> Vec<Span> {
        if root == NONE {
            return Vec::new();
        }
        let spans = self.spans.lock().expect("span list lock");
        spans[root..]
            .iter()
            .map(|s| Span { parent: s.parent.and_then(|p| p.checked_sub(root)), ..s.clone() })
            .collect()
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Self time of every span, in ns: its duration minus the union of its
/// children's intervals, each clipped to the span. Children that overlap
/// (run in parallel) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Sum of self times per span name, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += t;
    }
    out
}

/// The sum check of one span tree: the self times of the root and every
/// descendant must add up to the root's duration. Returns the absolute
/// difference in ns (0 for a well-nested tree whose children do not
/// overlap one another).
pub fn tree_sum_error(spans: &[Span], root: SpanId) -> u64 {
    let selfs = self_times(spans);
    let mut total = 0u64;
    for (i, self_ns) in selfs.iter().enumerate() {
        let mut cur = Some(i);
        while let Some(c) = cur {
            if c == root {
                total += self_ns;
                break;
            }
            cur = spans[c].parent;
        }
    }
    let dur = spans[root].end - spans[root].start;
    total.abs_diff(dur)
}

/// Writes spans, self times and the counts read at the same boundaries as
/// one JSON document.
pub fn export_json(spans: &[Span], counts: &BTreeMap<String, f64>) -> String {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"spans\":[");
    for (i, (s, t)) in spans.iter().zip(&selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"group\":{},\"self_ns\":{t}}}",
            s.name,
            s.start,
            s.end,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.group,
        ));
    }
    out.push_str("],\"self_ns_by_name\":{");
    for (i, (name, t)) in self_time_by_name(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{t}"));
    }
    out.push_str("},\"counts\":{");
    for (i, (name, v)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name: name.into(), start, end, parent, group: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0, 100) with children [10, 30) and [50, 60): self = 70.
        let spans = vec![
            span("core.chain", 0, 100, None),
            span("core.prop1", 10, 30, Some(0)),
            span("core.prop4", 50, 60, Some(0)),
            span("absint.reach", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
        assert_eq!(tree_sum_error(&spans, 0), 0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["core.chain"], 70);
        assert_eq!(by_name["absint.reach"], 8);
    }

    #[test]
    fn overlapping_and_escaping_children_count_once() {
        // Parallel children [10, 40) and [20, 50) cover 40 ns; a child that
        // runs past its parent's end is clipped at it.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
        // Self times 50 + 30 + 30 + 30 exceed the root's 100 ns by the
        // 20 ns overlap plus the 20 ns that escaped; the check reports it.
        assert_eq!(tree_sum_error(&spans, 0), 40);
    }

    #[test]
    fn spans_since_rebases_parents() {
        let t = Tracer::new(true);
        let before = t.begin("core.open", NONE, 0);
        t.end(before);
        let root = t.begin("core.chain", NONE, 1);
        t.span("core.prop4", root, 1, || ());
        t.end(root);
        let tree = t.spans_since(root);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].parent, None);
        assert_eq!(tree[1].parent, Some(0));
        assert_eq!(t.duration_ns(root), tree[0].end - tree[0].start);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("core.full", NONE, 1, || 42);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
        assert_eq!(t.duration_ns(NONE), 0);
    }

    #[test]
    fn enabled_tracer_nests_and_exports() {
        let t = Tracer::new(true);
        let root = t.begin("core.chain", NONE, 7);
        t.span("core.prop1", root, 7, || std::hint::black_box(1 + 1));
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(tree_sum_error(&spans, 0), 0);
        let counts = BTreeMap::from([("x".to_owned(), 1.5)]);
        let json = export_json(&spans, &counts);
        assert!(json.contains("\"name\":\"core.prop1\""));
        assert!(json.contains("\"x\":1.5"));
    }
}
