//! Spans recorded from outside the library, around calls into a layer.
//!
//! A [`Tracer`] is also the benchmark's stopwatch: `begin`/`end` always
//! return the elapsed time, and additionally keep a [`Span`] when tracing
//! is on. An untraced run therefore pays two clock reads per timed
//! region and nothing else.

use crate::json::Json;
use std::time::Instant;

/// Step id of spans that belong to set-up rather than to a step.
pub const SETUP_STEP: i64 = -1;

/// One timed call into a layer. Spans of one step share `workload` and
/// `step`; `parent` is the span that was open when this one began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub workload: &'static str,
    pub step: i64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A count taken at a span boundary (bytes exchanged, allocations, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    pub workload: &'static str,
    pub step: i64,
    pub name: &'static str,
    pub value: f64,
}

/// Handle of a region opened by [`Tracer::begin`].
#[must_use = "pass to Tracer::end to close the region"]
pub struct Open {
    start: Instant,
    span: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    step: i64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    pub counters: Vec<Counter>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        // Reserved up front so that recording a span inside a timed
        // region does not grow the vector there.
        let cap = if enabled { 1 << 14 } else { 0 };
        Self {
            enabled,
            origin: Instant::now(),
            workload: "",
            step: SETUP_STEP,
            open: Vec::new(),
            spans: Vec::with_capacity(cap),
            counters: Vec::with_capacity(cap),
        }
    }

    /// Sets the workload and step that spans opened from now on carry.
    pub fn context(&mut self, workload: &'static str, step: i64) {
        self.workload = workload;
        self.step = step;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let span = self.enabled.then(|| {
            let id = self.spans.len();
            let at = (start - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                workload: self.workload,
                step: self.step,
                name,
                start_ns: at,
                end_ns: at,
            });
            self.open.push(id);
            id
        });
        Open { start, span }
    }

    /// Closes the region and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(id) = open.span {
            self.spans[id].end_ns = self.spans[id].start_ns + elapsed.as_nanos() as u64;
            // Regions close innermost-first; anything still above `id`
            // was abandoned by an early return and closes with it.
            while self.open.pop().is_some_and(|top| top != id) {}
        }
        elapsed.as_secs_f64()
    }

    /// Times `f` as one region.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push(Counter {
                workload: self.workload,
                step: self.step,
                name,
                value,
            });
        }
    }

    /// Durations in milliseconds of the spans called `name` in
    /// `workload`, from step `first_step` on.
    pub fn step_ms(&self, workload: &str, name: &str, first_step: i64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name && s.step >= first_step)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The whole trace as one JSON document, one span per line.
    pub fn to_json(&self) -> String {
        let own = self_times(&self.spans);
        let mut out = String::from("{\"spans\":[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let row = Json::obj([
                ("id", Json::UInt(s.id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("workload", Json::str(s.workload)),
                ("step", Json::Num(s.step as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                ("self_ns", Json::UInt(self_ns)),
            ]);
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!("{row}{sep}\n"));
        }
        out.push_str("],\"counters\":[\n");
        for (i, c) in self.counters.iter().enumerate() {
            let row = Json::obj([
                ("workload", Json::str(c.workload)),
                ("step", Json::Num(c.step as f64)),
                ("name", Json::str(c.name)),
                ("value", Json::Num(c.value)),
            ]);
            let sep = if i + 1 < self.counters.len() { "," } else { "" };
            out.push_str(&format!("{row}{sep}\n"));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            workload: "w",
            step: 0,
            name: "n",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_nested_and_disjoint_children() {
        let spans = [
            span(0, None, 0, 100),
            // Two disjoint children of the root ...
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            // ... a grandchild, which the root must not subtract again ...
            span(3, Some(2), 60, 70),
            // ... and a childless root.
            span(4, None, 200, 250),
        ];
        assert_eq!(self_times(&spans), [40, 20, 30, 10, 50]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160),
            // Hangs out of the parent: only 190..200 is inside.
            span(3, Some(0), 190, 260),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_links_parents_and_is_silent_when_off() {
        let mut t = Tracer::new(true);
        t.context("w", 3);
        let outer = t.begin("outer");
        let ((), inner_s) = t.time("inner", || ());
        let outer_s = t.end(outer);
        t.count("bytes", 12.0);
        assert!(outer_s >= inner_s);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!((t.spans[1].workload, t.spans[1].step), ("w", 3));
        assert!(t.spans[1].start_ns >= t.spans[0].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.step_ms("w", "inner", 3).len(), 1);
        assert!(t.step_ms("w", "inner", 4).is_empty());
        let doc = t.to_json();
        assert!(doc.contains("\"name\":\"inner\"") && doc.contains("\"name\":\"bytes\""));

        let mut off = Tracer::new(false);
        let ((), s) = off.time("x", || ());
        off.count("bytes", 1.0);
        assert!(s >= 0.0 && off.spans.is_empty() && off.counters.is_empty());
    }
}
