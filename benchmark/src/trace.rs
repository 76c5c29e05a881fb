//! Spans around the calls the harness makes into the crates.
//!
//! The benchmark measures every layer from outside, so a span is one call
//! into a crate's public function (or the harness's own bookkeeping around
//! such calls). Spans stay in memory and are written out when the workload
//! ends; a layer's busy time is its spans' *self* time.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The harness call this span belongs to; spans of one call share it.
    pub call_id: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts read at the same boundary (`Metrics`, `EncodingStats`, …).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when on, records them as spans.
///
/// Timing is always taken (two clock reads per call) so the traced and the
/// untraced pass run the same code; only the recording differs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    call_id: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            call_id: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new harness call: spans recorded from here share an id.
    pub fn next_call(&mut self) {
        self.call_id += 1;
    }

    /// Runs `f` as a span called `name`; returns its result and duration.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        if !self.on {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_nanos() as u64);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            call_id: self.call_id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(idx);
        let r = f(self);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[idx as usize].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// Attaches counts to the span that opened last — the leaf span that
    /// has just closed, when called right after it.
    pub fn annotate(&mut self, counts: &[(&'static str, u64)]) {
        if let Some(s) = self.spans.last_mut() {
            s.counts.extend_from_slice(counts);
        }
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened beyond `depth`, after a panic unwound
    /// through them.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        for idx in self.open.drain(depth..) {
            self.spans[idx as usize].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops recorded spans (a repeated set-up keeps only its last spans).
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (spans
/// merged from two threads do) and may stick out of the parent; covered
/// time is the union of the children's intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub spans: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Totals by span name, and summed counts by `(span name, count name)`.
#[derive(Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    pub counts: BTreeMap<(&'static str, &'static str), u64>,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        let mut out = Summary::default();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let t = out.by_name.entry(s.name).or_default();
            t.spans += 1;
            t.dur_ns += s.dur_ns();
            t.self_ns += self_ns;
            for &(k, v) in &s.counts {
                *out.counts.entry((s.name, k)).or_default() += v;
            }
        }
        out
    }

    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    pub fn count(&self, span: &str, key: &str) -> u64 {
        self.counts.get(&(span, key)).copied().unwrap_or(0)
    }
}

/// One JSON line per span: `{name, workload, call_id, parent, start_ns,
/// end_ns, counts}`; `parent` is the line index of the enclosing span.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Json::obj([
            ("name", Json::str(s.name)),
            ("workload", Json::str(workload)),
            ("call_id", Json::Num(s.call_id as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "counts",
                Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Num(v as f64)))),
            ),
        ]);
        out.push_str(&line.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            call_id: 1,
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // call [0,100] ⊃ run [10,70] ⊃ inner [20,30]; call ⊃ check [70,90].
        let spans = [
            span("call", None, 0, 100),
            span("run", Some(0), 10, 70),
            span("inner", Some(1), 20, 30),
            span("check", Some(0), 70, 90),
        ];
        // The grandchild is charged to `run`, not to `call` a second time.
        assert_eq!(self_times(&spans), vec![20, 50, 10, 20]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children [10,50] and [30,80] cover [10,80] = 70, not 40 + 50;
        // [60,70] lies inside that union; [90,130] is clipped to [90,100].
        let spans = [
            span("parent", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 80),
            span("c", Some(0), 60, 70),
            span("d", Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_records_nesting_call_ids_and_counts() {
        let mut tr = Tracer::new(true);
        tr.next_call();
        let (v, outer_ns) = tr.span("outer", |tr| {
            let (x, _) = tr.span("inner", |_| 41);
            tr.annotate(&[("messages", 7)]);
            x + 1
        });
        assert_eq!(v, 42);
        tr.next_call();
        tr.span("second", |_| ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].call_id), ("outer", None, 1));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].call_id),
            ("inner", Some(0), 1)
        );
        assert_eq!((s[2].name, s[2].parent, s[2].call_id), ("second", None, 2));
        assert_eq!(s[1].counts, vec![("messages", 7)]);
        assert_eq!(s[0].dur_ns(), outer_ns);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let sum = Summary::of(s);
        assert_eq!(sum.get("inner").spans, 1);
        assert_eq!(sum.count("inner", "messages"), 7);
        assert_eq!(sum.get("absent"), NameTotals::default());
    }

    #[test]
    fn unwinding_closes_the_spans_a_panic_left_open() {
        let mut tr = Tracer::new(true);
        let depth = tr.depth();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("outer", |tr| tr.span("inner", |_| panic!("boom")).0)
                .0
        }));
        assert!(caught.is_err());
        assert_eq!(tr.depth(), 2);
        tr.unwind_to(depth);
        assert_eq!(tr.depth(), 0);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        // The next span is a root again.
        tr.span("after", |_| ());
        assert_eq!(tr.spans()[2].parent, None);
    }

    #[test]
    fn tracer_off_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, _) = tr.span("outer", |tr| tr.span("inner", |_| 5).0);
        tr.annotate(&[("ignored", 1)]);
        assert_eq!(v, 5);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_parsable_line_per_span() {
        let mut s = span("run", Some(0), 5, 9);
        s.counts.push(("messages", 3));
        let text = to_jsonl("sim_hot", &[span("call", None, 0, 10), s]);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("workload").and_then(Json::as_str),
            Some("sim_hot")
        );
        assert_eq!(second.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            second
                .get("counts")
                .and_then(|c| c.get("messages"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
