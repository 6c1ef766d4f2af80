//! The *compose* stage and the report: turn the gathered task answers
//! into the query's answer and its [`QueryReport`]. The only place that
//! builds [`SiteReport`]s and the [`StageBreakdown`] or feeds a finished
//! query into the metrics registry.

use super::dispatch::Gathered;
use super::error::stream_cancelled;
use super::plan::{Compose, Plan};
use super::{PartiX, PartixError, Sink};
use crate::compose;
use crate::metrics;
use crate::report::{QueryReport, SiteReport};
use crate::trace::{StageBreakdown, Trace};
use partix_query::{Item, Query, Sequence};
use partix_storage::Database;
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
            reconstructed: matches!(plan.compose, Compose::Reconstruct { .. }),
            result_cache_hits: gathered.cache_hits,
            result_cache_misses: plan.tasks.len() - gathered.cache_hits,
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
            let (output, from_cache) = (slot.output, slot.stage.is_none());
            let (answer, stage) = (output.answer, slot.stage.unwrap_or_default());
            report.sites.push(SiteReport {
                node: if from_cache { task.node } else { stage.node },
                fragment: task.fragment.clone(),
                elapsed: output.elapsed,
                result_bytes: answer.result_bytes,
                docs_scanned: answer.docs_scanned,
                index_used: answer.index_used,
                morsels: answer.morsels,
                from_cache,
                retries: stage.retries,
                failovers: stage.failovers,
                timeouts: stage.timeouts,
            });
            report.parallel_elapsed = report.parallel_elapsed.max(output.elapsed);
            report.serial_elapsed += output.elapsed;
            if !from_cache {
                // cached answers never cross the wire again, and never
                // dispatch: no stage entry
                total_bytes += answer.result_bytes;
                if !output.wire_counted {
                    metered_bytes += answer.result_bytes;
                }
                subqueries.push(stage);
            }
            // move the partial sequence out instead of deep-cloning it
            partials.push(answer.items);
        }
        subqueries.extend(gathered.failed);
        report.retries = subqueries.iter().map(|s| s.retries).sum();
        report.failovers = subqueries.iter().map(|s| s.failovers).sum();
        report.timeouts = subqueries.iter().map(|s| s.timeouts).sum();

        let compose_start = Instant::now();
        // a streamed composition's partials went out slice by slice during
        // the gather: what is left of them here is empty
        let answer = match &plan.compose {
            Compose::Combine(rule) => compose::combine(*rule, partials),
            Compose::Passthrough => partials.into_iter().flatten().collect(),
            Compose::Reconstruct { collection, dist } => {
                // rebuild and evaluate locally; the fetched documents stay
                // behind their `Arc`s — no deep copy at the fetch boundary
                let fetched: Vec<_> = plan
                    .tasks
                    .iter()
                    .zip(partials)
                    .map(|(task, docs)| (task.fragment.clone(), documents_of(docs)))
                    .collect();
                let rebuilt =
                    partix_frag::correctness::reconstruct_any_shared(&dist.design, &fetched)
                        .map_err(PartixError::Reconstruction)?;
                let scratch = Database::new();
                scratch.store_all_shared(collection, rebuilt);
                let out = scratch.execute_parsed(query).map_err(|e| PartixError::SubQuery {
                    node: usize::MAX,
                    fragment: "<coordinator>".into(),
                    error: e.to_string(),
                })?;
                out.items
            }
        };
        report.composition = compose_start.elapsed().as_secs_f64();
        trace.record("compose", 0, compose_start);
        if !sink.emit(answer) {
            return Err(stream_cancelled());
        }

        // one overlapped request/response round trip; partial results
        // serialize on the coordinator's link — charged only when at
        // least one task actually reached a node
        if gathered.dispatched {
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

/// The documents a fetch task brought back (one root-node item each).
fn documents_of(items: Sequence) -> Vec<std::sync::Arc<partix_xml::Document>> {
    items
        .into_iter()
        .filter_map(|item| match item {
            Item::Node(doc, _) => Some(doc),
            _ => None,
        })
        .collect()
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
    let morsel_sites = report.sites.iter().filter(|s| s.morsels > 0).count();
    if morsel_sites > 0 {
        reg.counter("morsel.subqueries").add(morsel_sites as u64);
        reg.counter("morsel.batches")
            .add(report.sites.iter().map(|s| s.morsels as u64).sum());
    }
    reg.histogram("stage.parse").record_secs(report.stages.parse_s);
    reg.histogram("stage.localize").record_secs(report.stages.localize_s);
    reg.histogram("stage.dispatch").record_secs(report.stages.dispatch_s);
    reg.histogram("stage.compose").record_secs(report.stages.compose_s);
    reg.histogram("query.total").record_secs(total_s);
}
