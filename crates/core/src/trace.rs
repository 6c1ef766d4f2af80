//! Lightweight per-query tracing: hierarchical spans on a monotonic
//! clock, recorded into a [`StageBreakdown`] that travels with every
//! [`QueryReport`](crate::QueryReport).
//!
//! The paper's scale-up claims (Sec. 5) hinge on knowing *where* a
//! query's time goes — localization vs. dispatch vs. composition. A
//! [`Trace`] is created per query by the service, written by the thread
//! that gathers its sub-queries (one lane per sub-query's retry loop),
//! and collapsed into a flat span list when the query finishes. Overhead
//! when enabled is a handful of `Instant::now()` reads and one short
//! mutex push per span;
//! a disabled trace ([`Trace::disabled`]) is a no-op on every call, so
//! the fault-free hot path pays nothing but a branch.
//!
//! Span lists export in the Chrome trace-event format
//! ([`chrome_trace`]): one complete JSON event object per line, openable
//! directly in `chrome://tracing` / Perfetto.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// One finished span, relative to its trace's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage or sub-query label, e.g. `parse`, `dispatch`, `exec:f_cd@n2`.
    pub name: String,
    /// Display lane (Chrome trace `tid`): 0 = coordinator stages, `i+1`
    /// = sub-query `i`'s retry loop.
    pub lane: usize,
    /// Microseconds from the trace epoch to the span start.
    pub start_us: u64,
    /// Span duration in microseconds (0 for sub-microsecond spans).
    pub dur_us: u64,
}

struct TraceInner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A per-query span collector. Cloning shares the collector (`Arc`);
/// [`Trace::disabled`] makes every operation free.
#[derive(Clone)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// An enabled collector whose epoch is *now*.
    pub fn new() -> Trace {
        Trace {
            inner: Some(Arc::new(TraceInner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::with_capacity(16)),
            })),
        }
    }

    /// A collector that records nothing (the zero-overhead path).
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record a span that started at `begun` and ends now.
    pub fn record(&self, name: &str, lane: usize, begun: Instant) {
        let Some(inner) = &self.inner else { return };
        let start_us = begun.saturating_duration_since(inner.epoch).as_micros() as u64;
        let dur_us = begun.elapsed().as_micros() as u64;
        inner.spans.lock().push(SpanRecord {
            name: name.to_owned(),
            lane,
            start_us,
            dur_us,
        });
    }

    /// Record a span of an explicit duration starting at `begun` — for
    /// time measured elsewhere (e.g. wire send/recv clocked on a worker
    /// thread) that should still land on this trace's timeline.
    pub fn record_window(&self, name: &str, lane: usize, begun: Instant, dur_s: f64) {
        let Some(inner) = &self.inner else { return };
        let start_us = begun.saturating_duration_since(inner.epoch).as_micros() as u64;
        inner.spans.lock().push(SpanRecord {
            name: name.to_owned(),
            lane,
            start_us,
            dur_us: (dur_s * 1e6) as u64,
        });
    }

    /// Drain the recorded spans, ordered by start time.
    pub fn finish(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let mut spans = std::mem::take(&mut *inner.spans.lock());
        spans.sort_by_key(|s| s.start_us);
        spans
    }
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::disabled()
    }
}

/// Per-stage timing of one distributed query: the same boundaries the
/// paper's Sec. 5 methodology attributes time to, plus the dispatch
/// micro-stages a retrying coordinator adds (queue wait, backoff).
#[derive(Debug, Clone, Default)]
pub struct StageBreakdown {
    /// Query-text parsing (0 when the plan came from the plan cache or
    /// the query entered pre-parsed).
    pub parse_s: f64,
    /// Pushdown analysis + fragment pruning + sub-query construction.
    pub localize_s: f64,
    /// Fan-out wall time: every sub-query's retry loop, run in parallel
    /// (this is wall clock, not the sum of per-site service times).
    pub dispatch_s: f64,
    /// Coordinator-side composition (union / aggregate combination /
    /// reconstruction join).
    pub compose_s: f64,
    /// One entry per sub-query; every one is dispatched.
    pub subqueries: Vec<SubQueryStage>,
}

impl StageBreakdown {
    /// Sum of the coordinator stage times. Always ≤ the query's total
    /// wall time (stages are disjoint slices of one thread's timeline).
    pub fn stage_total(&self) -> f64 {
        self.parse_s + self.localize_s + self.dispatch_s + self.compose_s
    }

    /// Whether any stage was actually measured.
    pub fn is_measured(&self) -> bool {
        self.stage_total() > 0.0 || !self.subqueries.is_empty()
    }
}

/// Dispatch-stage detail of one sub-query's retry loop.
#[derive(Debug, Clone, Default)]
pub struct SubQueryStage {
    pub fragment: String,
    /// The replica that answered (or the last one tried, on failure).
    pub node: usize,
    /// Dispatch attempts made (≥ 1).
    pub attempts: usize,
    /// Time spent waiting in worker-pool queues (0 outside Pool mode).
    pub queue_wait_s: f64,
    /// In-attempt execution wall time, summed over attempts.
    pub execute_s: f64,
    /// Wire time writing the request frames (0 for in-process drivers).
    pub send_s: f64,
    /// Wire time waiting for and reading the response frames (0 for
    /// in-process drivers; includes the node's service time).
    pub recv_s: f64,
    /// Retry backoff slept between attempts.
    pub backoff_s: f64,
    pub retries: usize,
    pub failovers: usize,
    pub timeouts: usize,
}

/// Render spans in the Chrome trace-event format: a JSON array opening
/// bracket, then **one complete event object per line**, loadable as-is
/// in `chrome://tracing` or Perfetto — and strict JSON (continuation
/// lines carry a *leading* comma so the array has no trailing one), so
/// `python -m json.tool` and friends parse it too.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 * spans.len() + 2);
    out.push_str("[\n");
    for (i, span) in spans.iter().enumerate() {
        let name: String = span
            .name
            .chars()
            .map(|c| if c == '"' || c == '\\' { '_' } else { c })
            .collect();
        let _ = writeln!(
            out,
            "{}{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            if i == 0 { "" } else { "," },
            span.lane,
            span.start_us,
            span.dur_us,
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_record_relative_to_epoch() {
        let trace = Trace::new();
        let begun = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        trace.record("parse", 0, begun);
        let later = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        trace.record("dispatch", 1, later);
        let spans = trace.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "parse");
        assert!(spans[0].dur_us >= 1_000, "{:?}", spans[0]);
        // sorted by start: dispatch began after parse
        assert!(spans[1].start_us >= spans[0].start_us);
        // finish drains
        assert!(trace.finish().is_empty());
    }

    #[test]
    fn disabled_trace_is_a_no_op() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        trace.record("parse", 0, Instant::now());
        assert!(trace.finish().is_empty());
    }

    #[test]
    fn spans_merge_across_threads() {
        let trace = Trace::new();
        std::thread::scope(|scope| {
            for lane in 0..4 {
                let trace = trace.clone();
                scope.spawn(move || {
                    trace.record("exec", lane, Instant::now());
                });
            }
        });
        assert_eq!(trace.finish().len(), 4);
    }

    #[test]
    fn stage_breakdown_totals() {
        let stages = StageBreakdown {
            parse_s: 0.001,
            localize_s: 0.002,
            dispatch_s: 0.01,
            compose_s: 0.003,
            subqueries: Vec::new(),
        };
        assert!((stages.stage_total() - 0.016).abs() < 1e-12);
        assert!(stages.is_measured());
        assert!(!StageBreakdown::default().is_measured());
    }

    #[test]
    fn chrome_trace_is_line_oriented_events() {
        let spans = vec![
            SpanRecord { name: "parse".into(), lane: 0, start_us: 0, dur_us: 12 },
            SpanRecord { name: "exec:\"f\"".into(), lane: 1, start_us: 5, dur_us: 40 },
        ];
        let text = chrome_trace(&spans);
        assert!(text.starts_with("[\n"));
        assert!(text.ends_with("]\n"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"ph\":\"X\""));
        assert!(lines[1].contains("\"ts\":0"));
        // quotes in labels are sanitized, keeping every line valid JSON
        assert!(lines[2].contains("exec:_f_"));
        // strict JSON: continuation lines lead with the comma, so the
        // array never ends in a trailing one
        assert!(lines[2].starts_with(','));
        assert!(!lines[2].ends_with(','));
    }
}
