//! Timing of the benchmark's calls into the planner, and the span record of
//! the traced run.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::time`], which measures it from outside with a monotonic clock.
//! When tracing is on, the call is also recorded as a span: name, start,
//! end, parent span (the innermost span open when it started) and round
//! id. Spans stay in memory until [`Tracer::write_jsonl`] writes them out
//! at the end of the run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The benchmark's only clock read.
pub fn now() -> Instant {
    // sqpr::allow(ambient-nondeterminism): measuring wall time is the benchmark's purpose; no reading reaches a planner input
    Instant::now()
}

/// One recorded call. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    round: Cell<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            t0: now(),
            enabled,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            round: Cell::new(0),
        }
    }

    /// Tags the spans recorded from now on with `round`.
    pub fn set_round(&self, round: u32) {
        self.round.set(round);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f`, returning its result and its wall time in milliseconds.
    /// Records a span named `name` when tracing is on.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            let started = now();
            let out = f();
            return (out, started.elapsed().as_secs_f64() * 1e3);
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start: 0,
                end: 0,
                parent,
                round: self.round.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start = start;
        spans[id].end = end;
        (out, (end - start) as f64 / 1e6)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.borrow();
        let selft = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{},\"self_ns\":{}}}",
                s.name, s.start, s.end, s.round, selft[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent's
/// interval and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let duration = s.end.saturating_sub(s.start);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end);
                let b = b.clamp(s.start, s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

/// Per span name: (calls, total self time in ms).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64)> {
    let selft = self_times(spans);
    let mut by: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selft) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t as f64 / 1e6;
    }
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(5, 12, None)]), vec![7]);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children cover [10, 40) and [30, 60): union 50, not 60.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            // Nested inside the first child's interval entirely.
            span(15, 25, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn only_direct_children_are_subtracted() {
        // The grandchild is already inside its parent's interval; the root
        // loses only its direct child's coverage.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(10, 20, None),
            span(5, 15, Some(0)),
            span(18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn tracer_records_parent_and_round() {
        let t = Tracer::new(true);
        t.set_round(7);
        let ((), _) = t.time("outer", || {
            let ((), _) = t.time("inner", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.round == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn untraced_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, ms) = t.time("x", || 3);
        assert_eq!(v, 3);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}
