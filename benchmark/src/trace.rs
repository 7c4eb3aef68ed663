//! Spans recorded from the benchmark's own call sites, around every
//! call into a layer of the program. Kept in memory, written out once
//! at exit; a disabled tracer records nothing and costs one branch.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// Spans kept per run; later ones are counted as dropped, so a long
/// serve phase cannot grow the trace without bound.
const MAX_SPANS: usize = 2_000_000;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`Population::build`, `crawl`, `query`, …).
    pub name: &'static str,
    /// Start, nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Request identifier shared by the spans of one service query.
    pub id: Option<u64>,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended records end_ns = 0"]
pub struct Open(Option<usize>);

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// Turn recording on or off (open spans stay open).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied(),
            id: None,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Open(Some(index)) = open {
            self.spans[index].end_ns = self.ns(Instant::now());
            self.open.retain(|&i| i != index);
        }
    }

    /// Record a finished leaf span with explicit instants — a service
    /// query's send → reply, whose ends are not nested in program order.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            id: Some(id),
        });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The trace file: the spans plus the probe table of the same run.
    pub fn to_json(&self, workload: &str, seed: u64, probes: &[(String, f64, String)]) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 72);
        let _ = write!(
            out,
            "{{\"workload\":{},\"seed\":{seed},\"dropped_spans\":{},\"probes\":{{",
            json::string(workload),
            self.dropped
        );
        for (i, (name, value, unit)) in probes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(name),
                json::number(*value),
                json::string(unit)
            );
        }
        out.push_str("},\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                json::string(span.name),
                span.start_ns,
                span.end_ns,
                json::optional(span.parent),
                json::optional(span.id)
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_one_and_leaves_carry_ids() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("crawl");
        let inner = tracer.begin("Walker::new");
        tracer.end(inner);
        let now = Instant::now();
        tracer.leaf("query", now, now, 7);
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].id), (Some(0), Some(7)));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let text = tracer.to_json("w", 1, &[("a.b".into(), 1.5, "ns".into())]);
        assert!(text.contains("\"a.b\":{\"value\":1.5,\"unit\":\"ns\"}"));
        assert!(text.contains("\"name\":\"query\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let open = tracer.begin("crawl");
        tracer.end(open);
        tracer.leaf("query", Instant::now(), Instant::now(), 1);
        assert!(tracer.spans().is_empty());
    }
}
