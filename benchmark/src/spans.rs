//! The benchmark's own spans: recorded from the benchmark's files around
//! calls into the product's public functions, kept in memory, written out
//! when the run ends (chrome trace-event JSON plus a self-time table).
//!
//! The traced run uses one client, so "the operation in flight" is one
//! process-wide value: spans recorded on pool workers or server threads
//! attach to it without any context being threaded through the product.

use crate::json;
use partix_engine::{DriverError, PartixDriver};
use partix_query::Query;
use partix_storage::{QueryOutput, WriteOp};
use partix_xml::Document;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to (spans of one op share it).
    pub op: u32,
    /// Name of the span that caused this one (`""` for an op's root).
    pub parent: &'static str,
    pub lane: u32,
    pub start_us: f64,
    pub end_us: f64,
}

/// What a node-side `execute` did — the storage layer's own counters.
#[derive(Debug, Clone)]
pub struct ExecRecord {
    pub node: usize,
    pub query: Query,
    pub seconds: f64,
    pub docs_scanned: usize,
    pub index_used: bool,
    pub morsels: usize,
    pub items: usize,
}

pub struct SpanLog {
    epoch: Instant,
    enabled: AtomicBool,
    current_op: AtomicU32,
    spans: Mutex<Vec<Span>>,
    execs: Mutex<Vec<ExecRecord>>,
    /// Seconds spent inside node-side `write` calls since the last
    /// [`SpanLog::take_write_seconds`].
    write_seconds: Mutex<f64>,
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            current_op: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            execs: Mutex::new(Vec::new()),
            write_seconds: Mutex::new(0.0),
        })
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    pub fn begin_op(&self, op: u32) {
        self.current_op.store(op, Ordering::SeqCst);
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record `[start, now)` under the operation in flight.
    pub fn record(&self, name: &'static str, parent: &'static str, lane: u32, start: Instant) {
        self.record_window(name, parent, lane, start, start.elapsed().as_secs_f64());
    }

    /// Record `[start, start + seconds)` — for durations the product
    /// reports back instead of the benchmark timing them.
    pub fn record_window(
        &self,
        name: &'static str,
        parent: &'static str,
        lane: u32,
        start: Instant,
        seconds: f64,
    ) {
        if !self.enabled() {
            return;
        }
        let start_us = self.micros(start);
        self.spans.lock().expect("span log poisoned").push(Span {
            name,
            op: self.current_op.load(Ordering::SeqCst),
            parent,
            lane,
            start_us,
            end_us: start_us + seconds * 1e6,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    pub fn exec_count(&self) -> usize {
        self.execs.lock().expect("exec log poisoned").len()
    }

    /// The node-side executions recorded after the first `count`.
    pub fn execs_since(&self, count: usize) -> Vec<ExecRecord> {
        self.execs.lock().expect("exec log poisoned")[count..].to_vec()
    }

    pub fn take_write_seconds(&self) -> f64 {
        std::mem::take(&mut *self.write_seconds.lock().expect("write log poisoned"))
    }
}

/// Wraps a node's driver and records a span per call: the boundary where
/// the coordinator hands work to the storage layer (or to the wire).
pub struct SpanDriver {
    inner: Arc<dyn PartixDriver>,
    log: Arc<SpanLog>,
    node: usize,
    execute_span: &'static str,
    parent: &'static str,
}

/// The span name of a call that reaches a database; only those calls
/// feed the storage layer's counters.
pub const STORAGE_EXECUTE: &str = "storage.execute";

impl SpanDriver {
    /// `execute_span` names the layer behind this boundary
    /// ([`STORAGE_EXECUTE`] in front of a database, `net.pxn1_call` in
    /// front of a socket); `parent` names the span that causes the calls.
    pub fn wrap(
        inner: Arc<dyn PartixDriver>,
        log: &Arc<SpanLog>,
        node: usize,
        execute_span: &'static str,
        parent: &'static str,
    ) -> Arc<dyn PartixDriver> {
        Arc::new(SpanDriver {
            inner,
            log: Arc::clone(log),
            node,
            execute_span,
            parent,
        })
    }
}

impl PartixDriver for SpanDriver {
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        if !self.log.enabled() {
            return self.inner.execute(query);
        }
        let start = Instant::now();
        let result = self.inner.execute(query);
        let seconds = start.elapsed().as_secs_f64();
        self.log.record_window(
            self.execute_span,
            self.parent,
            self.node as u32 + 1,
            start,
            seconds,
        );
        if let (STORAGE_EXECUTE, Ok(Some(out))) = (self.execute_span, &result) {
            self.log
                .execs
                .lock()
                .expect("exec log poisoned")
                .push(ExecRecord {
                    node: self.node,
                    query: query.clone(),
                    seconds,
                    docs_scanned: out.stats.docs_scanned,
                    index_used: out.stats.index_used,
                    morsels: out.stats.morsels,
                    items: out.items.len(),
                });
        }
        result
    }

    fn store(&self, collection: &str, docs: Vec<Document>) {
        self.inner.store(collection, docs);
    }

    fn fetch_collection(&self, collection: &str) -> Vec<Arc<Document>> {
        let start = Instant::now();
        let docs = self.inner.fetch_collection(collection);
        self.log.record(
            "storage.fetch_collection",
            "core.fetch",
            self.node as u32 + 1,
            start,
        );
        docs
    }

    fn collections(&self) -> Vec<String> {
        self.inner.collections()
    }

    fn drop_collection(&self, collection: &str) {
        self.inner.drop_collection(collection);
    }

    fn health_check(&self) -> Result<(), DriverError> {
        self.inner.health_check()
    }

    fn counts_wire_bytes(&self) -> bool {
        self.inner.counts_wire_bytes()
    }

    fn write(&self, op: &WriteOp) -> Result<u32, DriverError> {
        let start = Instant::now();
        let result = self.inner.write(op);
        if self.log.enabled() {
            *self.log.write_seconds.lock().expect("write log poisoned") +=
                start.elapsed().as_secs_f64();
            self.log
                .record("storage.write", "client.op", self.node as u32 + 1, start);
        }
        result
    }
}

/// Per span name: how many, total time, and self time (duration minus the
/// part of the interval its child spans cover).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut by_op: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_op.entry(span.op).or_default().push(span);
    }
    let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for group in by_op.values() {
        for span in group {
            let mut covered: Vec<(f64, f64)> = group
                .iter()
                .filter(|c| c.parent == span.name && !std::ptr::eq(**c, *span))
                .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
                .filter(|(s, e)| e > s)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut child_us = 0.0;
            let mut reach = f64::MIN;
            for (s, e) in covered {
                if e > reach {
                    child_us += e - s.max(reach);
                    reach = e;
                }
            }
            let total = span.end_us - span.start_us;
            let row = table.entry(span.name).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += total;
            row.2 += total - child_us;
        }
    }
    table
}

pub fn self_time_table(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
        "span", "count", "total ms", "self ms", "self ms/call"
    );
    for (name, (count, total_us, self_us)) in self_times(spans) {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>12.4}\n",
            name,
            count,
            total_us / 1e3,
            self_us / 1e3,
            self_us / 1e3 / count as f64
        ));
    }
    out
}

/// Chrome trace-event format (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                json::quote(s.name),
                json::quote(s.name.split('.').next().unwrap_or("")),
                s.start_us,
                s.end_us - s.start_us,
                s.lane,
                s.op,
                json::quote(s.parent)
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, start: f64, end: f64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            lane: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("client.op", "", 0.0, 100.0),
            span("core.dispatch", "client.op", 10.0, 90.0),
            // two overlapping children cover [20, 70) of the dispatch
            span("storage.execute", "core.dispatch", 20.0, 60.0),
            span("storage.execute", "core.dispatch", 40.0, 70.0),
        ];
        let table = self_times(&spans);
        assert_eq!(table["client.op"], (1, 100.0, 20.0));
        assert_eq!(table["core.dispatch"], (1, 80.0, 30.0));
        assert_eq!(table["storage.execute"], (2, 70.0, 70.0));
        assert!(chrome_trace(&spans).contains("\"traceEvents\""));
    }
}
