//! In-memory spans around the benchmark's calls into the engine.
//!
//! A span is recorded at each boundary the benchmark controls: the primary
//! call, and every `read_feed`, `execute_all` or `unfriend` call inside it.
//! Spans stay in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The primary call this span belongs to; shared by all its spans.
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when enabled; every method is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its handle (`None` when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = self.now();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans as JSON lines: one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.clamp(cursor, s.end);
                let b = b.clamp(a, s.end);
                covered += b - a;
                cursor = cursor.max(b);
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // window [0, 100): unfriend [10, 20), execute_all [30, 90) which
        // itself holds a child [40, 50) and an overlapping one [45, 70).
        let spans = vec![
            span("window", 0, 100, None),
            span("unfriend", 10, 20, Some(0)),
            span("execute_all", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
            span("inner", 45, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 10 - 60, 10, 60 - 30, 10, 25]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x", None, 0);
        t.close(s);
        assert!(s.is_none() && t.spans().is_empty());
    }
}
