//! The *compose* stage and the report: turn the gathered task answers
//! into the query's answer and its [`QueryReport`]. The only place that
//! builds [`SiteReport`]s and the [`StageBreakdown`] or feeds a finished
//! query into the metrics registry.
//!
//! A reconstruction composes in three steps ([`rebuild_and_evaluate`]):
//! the source documents that passed every fetch filter are found by
//! intersecting the `Origin::source_doc` sets the filtered fetches
//! brought back, their pieces — and no others — are joined back into
//! documents, and the **original, unmodified query** is lowered once and
//! run over those. No database is built for that: the evaluator reads a
//! slice of documents as readily as a stored collection, and a filter can
//! only ever have withheld documents no tuple comes from.

use super::dispatch::Gathered;
use super::error::stream_cancelled;
use super::plan::{Compose, Plan, Task, TaskOp};
use super::{PartiX, PartixError, Sink};
use crate::catalog::Distribution;
use crate::compose;
use crate::metrics;
use crate::report::{QueryReport, SiteReport};
use crate::trace::{StageBreakdown, Trace};
use partix_query::{root_documents, MemProvider, Program, Query, Sequence};
use partix_xml::Document;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Stage times measured before the compose stage.
pub(super) struct Timing {
    pub parse_s: f64,
    pub localize_s: f64,
    /// When this pass of the pipeline (localize onwards) began.
    pub query_start: Instant,
}

impl PartiX {
    /// Compose the answer, deliver whatever part of it the dispatch stage
    /// has not streamed already, and account for the query.
    pub(super) fn assemble(
        &self,
        query: &Query,
        plan: Plan,
        gathered: Gathered,
        timing: Timing,
        trace: &Trace,
        sink: &mut Sink<'_>,
    ) -> Result<QueryReport, PartixError> {
        let mut report = QueryReport {
            fragments_pruned: plan.pruned,
            reconstructed: matches!(plan.compose, Compose::Reconstruct),
            partial: !gathered.skipped.is_empty(),
            skipped: gathered.skipped,
            ..Default::default()
        };
        let mut subqueries = Vec::with_capacity(plan.tasks.len());
        let mut total_bytes = 0usize;
        // modeled bytes only: sites served by a wire-counting driver
        // (partix-net) already put their genuine byte counts into
        // `net.bytes_shipped` as the frames moved
        let mut metered_bytes = 0usize;
        let mut partials: Vec<Sequence> = Vec::with_capacity(plan.tasks.len());
        for (task, slot) in plan.tasks.iter().zip(gathered.slots) {
            let Some(slot) = slot else {
                continue; // fragment dropped in degraded mode
            };
            let (output, stage) = (slot.output, slot.stage);
            report.sites.push(SiteReport {
                node: stage.node,
                fragment: task.fragment.clone(),
                elapsed: output.elapsed,
                result_bytes: output.result_bytes,
                docs_scanned: output.docs_scanned,
                index_used: output.index_used,
                retries: stage.retries,
                failovers: stage.failovers,
                timeouts: stage.timeouts,
            });
            report.parallel_elapsed = report.parallel_elapsed.max(output.elapsed);
            report.serial_elapsed += output.elapsed;
            total_bytes += output.result_bytes;
            if !output.wire_counted {
                metered_bytes += output.result_bytes;
            }
            subqueries.push(stage);
            // move the partial sequence out instead of deep-cloning it
            partials.push(output.items);
        }
        subqueries.extend(gathered.failed);
        report.retries = subqueries.iter().map(|s| s.retries).sum();
        report.failovers = subqueries.iter().map(|s| s.failovers).sum();
        report.timeouts = subqueries.iter().map(|s| s.timeouts).sum();

        let compose_start = Instant::now();
        // a streamed composition's partials went out slice by slice during
        // the gather: what is left of them here is empty
        let answer = match &plan.compose {
            Compose::Combine(rule) => {
                compose::combine(*rule, partials).map_err(PartixError::Composition)?
            }
            Compose::Passthrough => partials.into_iter().flatten().collect(),
            Compose::Reconstruct => {
                let dist = plan.dist.as_deref().expect("a reconstruction plan has a distribution");
                rebuild_and_evaluate(query, dist, &plan.tasks, partials)?
            }
        };
        report.composition = compose_start.elapsed().as_secs_f64();
        trace.record("compose", 0, compose_start);
        if !sink.emit(answer) {
            return Err(stream_cancelled());
        }

        // one overlapped request/response round trip; partial results
        // serialize on the coordinator's link — charged only when the
        // plan had a task to send
        if !plan.tasks.is_empty() {
            report.transmission = 2.0 * self.network.latency_secs
                + total_bytes as f64 / self.network.bandwidth_bytes_per_sec;
        }
        report.stages = StageBreakdown {
            parse_s: timing.parse_s,
            localize_s: timing.localize_s,
            dispatch_s: gathered.dispatch_s,
            compose_s: report.composition,
            subqueries,
        };
        report.spans = trace.finish();
        let total_s = timing.parse_s + timing.query_start.elapsed().as_secs_f64();
        record_query_metrics(&report, metered_bytes, total_s);
        Ok(report)
    }
}

/// The compose step of a reconstruction: `fetched[i]` is what fetch task
/// `tasks[i]` brought back, one root-node item per document.
fn rebuild_and_evaluate(
    query: &Query,
    dist: &Distribution,
    tasks: &[Arc<Task>],
    fetched: Vec<Sequence>,
) -> Result<Sequence, PartixError> {
    // the fetched documents stay behind their `Arc`s: the join copies
    // each piece it keeps once, straight into the rebuilt document
    let mut fragments: Vec<(String, Vec<Arc<Document>>)> = tasks
        .iter()
        .zip(fetched)
        .map(|(task, items)| (task.fragment.clone(), root_documents(items)))
        .collect();
    // a source document survives if every filtered fetch returned a piece
    // of it; the pieces of the others are not worth joining
    let filtered = |task: &&Arc<Task>| matches!(task.op, TaskOp::Fetch { filter: Some(_) });
    let source = |doc: &Arc<Document>| doc.origin.as_ref().map(|o| o.source_doc.clone());
    let mut survivors: Option<HashSet<String>> = None;
    for (_, (_, docs)) in tasks.iter().zip(&fragments).filter(|(task, _)| filtered(task)) {
        let passed: HashSet<String> = docs.iter().filter_map(source).collect();
        match &mut survivors {
            Some(so_far) => so_far.retain(|doc| passed.contains(doc)),
            None => survivors = Some(passed),
        }
    }
    if let Some(survivors) = &survivors {
        // a piece without an origin stays: the join's error to raise
        let survives = |doc: &Arc<Document>| {
            doc.origin.as_ref().is_none_or(|o| survivors.contains(&o.source_doc))
        };
        for (_, docs) in &mut fragments {
            docs.retain(survives);
        }
    }
    let rebuilt = partix_frag::correctness::reconstruct_any_shared(&dist.design, &fragments)
        .map_err(PartixError::Reconstruction)?;
    // the rebuilt documents stand for the collection, to every scan of it
    let mut provider = MemProvider::new();
    provider.add_shared(&dist.design.collection.name, rebuilt);
    Program::lower(query).run(&provider).map_err(|e| PartixError::Reconstruction(e.to_string()))
}

/// Fold one finished query into the process-wide registry (failures are
/// counted at the query entry).
fn record_query_metrics(report: &QueryReport, bytes_shipped: usize, total_s: f64) {
    let reg = metrics::global();
    reg.counter("partix.queries").inc();
    if report.partial {
        reg.counter("partix.queries.partial").inc();
    }
    reg.counter("dispatch.subqueries").add(report.stages.subqueries.len() as u64);
    reg.counter("dispatch.retries").add(report.retries as u64);
    reg.counter("dispatch.failovers").add(report.failovers as u64);
    reg.counter("dispatch.timeouts").add(report.timeouts as u64);
    reg.counter("net.bytes_shipped").add(bytes_shipped as u64);
    reg.histogram("stage.parse").record_secs(report.stages.parse_s);
    reg.histogram("stage.localize").record_secs(report.stages.localize_s);
    reg.histogram("stage.dispatch").record_secs(report.stages.dispatch_s);
    reg.histogram("stage.compose").record_secs(report.stages.compose_s);
    reg.histogram("query.total").record_secs(total_s);
}
