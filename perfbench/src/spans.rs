//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (ns since the recorder was
//! created), the span that was open when it began (its parent), and the
//! workload. Spans stay in memory while the benchmark runs and are written
//! out as JSON lines when it ends. A span's *self time* is its duration
//! minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans when enabled; a disabled recorder keeps nothing and only
/// pays a branch per call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span, tagged with `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i64));
            let line = Json::obj([
                ("id", Json::Int(i as i64)),
                ("name", Json::str(&s.name)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                ("parent", parent),
                ("workload", Json::str(workload)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span, ns, in span order: its duration minus the
/// union of its children's intervals clipped to its own.
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
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, seconds, for the spans whose ancestors
/// include span `root` (the spans of one round or one set-up).
pub fn self_seconds_under(spans: &[Span], root: usize) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if descends_from(spans, i, root) {
            *out.entry(s.name.clone()).or_insert(0.0) += selfs[i] as f64 / 1e9;
        }
    }
    out
}

fn descends_from(spans: &[Span], mut i: usize, root: usize) -> bool {
    while let Some(p) = spans[i].parent {
        if p == root {
            return true;
        }
        i = p;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("construct", 10, 20, Some(0)),
            span("run", 20, 90, Some(0)),
            span("inner", 30, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 50, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            // Runs past the parent's end: only 190..200 is covered.
            span("c", 190, 230, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn self_seconds_sum_by_name_below_a_root() {
        let spans = vec![
            span("round", 0, 4_000_000_000, None),
            span("run", 0, 1_000_000_000, Some(0)),
            span("run", 1_000_000_000, 3_000_000_000, Some(0)),
            span("other-round", 5_000_000_000, 6_000_000_000, None),
            span("run", 5_000_000_000, 6_000_000_000, Some(3)),
        ];
        let t = self_seconds_under(&spans, 0);
        assert_eq!(t.get("run"), Some(&3.0));
        assert_eq!(
            t.get("round"),
            None,
            "the root itself is not below the root"
        );
        assert_eq!(self_seconds_under(&spans, 3).get("run"), Some(&1.0));
    }

    #[test]
    fn recorder_nests_and_disables() {
        let mut r = Recorder::new(true);
        r.span("outer", |r| r.span("inner", |_| ()));
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        let line = r.to_jsonl("w");
        assert_eq!(line.lines().count(), 2);
        assert!(line.contains("\"parent\":0") && line.contains("\"workload\":\"w\""));

        let mut off = Recorder::new(false);
        off.span("outer", |r| r.span("inner", |_| ()));
        assert!(off.spans().is_empty());
    }
}
