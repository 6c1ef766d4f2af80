//! The *compose* stage and the report: turn the gathered task answers
//! into the query's answer and its [`QueryReport`]. The only place that
//! builds [`SiteReport`]s and the [`StageBreakdown`] or feeds a finished
//! query into the metrics registry.
//!
//! A split query composes by running its remainder over the partials
//! ([`remainder`]); a reconstruction in three steps
//! ([`rebuild_and_evaluate`]): the source documents that passed every
//! fetch filter are found by intersecting the `Origin::source_doc` sets
//! the filtered fetches brought back, their pieces — and no others — are
//! joined back into documents as far as the query reads them (π before
//! ⋈, [`Keep`]), and the **original, unmodified query** is lowered once
//! and run over those. No database is built for that: the evaluator reads a
//! slice of documents as readily as a stored collection, and a filter can
//! only ever have withheld documents no tuple comes from.

use super::dispatch::Gathered;
use super::error::stream_cancelled;
use super::plan::{partials_var, Compose, Plan, Split, Task, TaskOp};
use super::{PartiX, PartixError, Sink};
use crate::catalog::Distribution;
use crate::metrics::{self, Counter, Histogram};
use crate::report::{QueryReport, SiteReport};
use crate::trace::{StageBreakdown, Trace};
use partix_query::ast::{Binding, Clause};
use partix_algebra::Keep;
use partix_frag::correctness::reconstruct_any_shared;
use partix_query::{pushdown, root_documents, Expr, Item, MemProvider, Program, Query, Sequence};
use partix_xml::Document;
use std::collections::HashSet;
use std::sync::{Arc, LazyLock};
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
            fragments_pruned: plan.local.pruned,
            reconstructed: matches!(plan.local.compose, Compose::Reconstruct),
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
                partials.push(Sequence::new()); // fragment dropped in degraded mode
                continue;
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
        let answer = match &plan.local.compose {
            Compose::Concat | Compose::Passthrough => partials.into_iter().flatten().collect(),
            Compose::Split(split) => remainder(split, &plan.tasks, partials)?,
            Compose::Reconstruct => {
                let dist = plan.local.dist.as_deref();
                let dist = dist.expect("a reconstruction plan has a distribution");
                rebuild_and_evaluate(query, dist, &plan.tasks, partials)?
            }
        };
        report.composition = compose_start.elapsed().as_secs_f64();
        trace.record("compose", 0, compose_start);
        if !sink.emit(answer) {
            return Err(stream_cancelled());
        }

        // charged only when the plan had a task to send
        if !plan.tasks.is_empty() {
            report.transmission = self.network.transmission_time(total_bytes);
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
    // π before ⋈: of the collection, only what the query reads is copied
    let analysis = pushdown::analyze(query).filter(|a| a.collection == dist.design.collection.name);
    let keep = analysis.map(|a| Keep::new(&a.footprint, &a.iterated));
    let rebuilt = reconstruct_any_shared(&dist.design, &fragments, keep.as_ref())
        .map_err(PartixError::Reconstruction)?;
    // the rebuilt documents stand for the collection, to every scan of it
    let mut provider = MemProvider::new();
    provider.add_shared(&dist.design.collection.name, rebuilt);
    Program::lower(query).run(&provider).map_err(|e| PartixError::Reconstruction(e.to_string()))
}

/// The compose step of a split query: the remainder, run with its
/// partials variables bound to the tasks' answers (`answers[i]`: task
/// `i`'s, empty if it failed in degraded mode), spliced in as literals.
fn remainder(
    split: &Split,
    tasks: &[Arc<Task>],
    answers: Vec<Sequence>,
) -> Result<Sequence, PartixError> {
    let mut values = vec![Sequence::new(); split.vars];
    for (task, items) in tasks.iter().zip(answers) {
        match task.vars[..] {
            [var] => values[var].extend(items),
            _ => task.vars.iter().zip(items).for_each(|(&var, item)| values[var].push(item)),
        }
    }
    // `min` / `max` compare by number if every value reads as one, else by
    // string: a fragment's extreme is a string exactly when one of its
    // values is not a number. So a numeric partial is no string extreme
    // (`10` > `9`, `"9"` > `"10"`), and string partials that all read as
    // numbers would be compared as numbers — the one check the evaluator
    // cannot make.
    for (function, var) in &split.extremes {
        let picks = &values[*var];
        let strings = picks.iter().filter(|item| matches!(item, Item::Str(_))).count();
        let numeric = picks.iter().filter(|item| item.number_value().is_some()).count();
        if strings > 0 && (strings < picks.len() || numeric == strings) {
            return Err(PartixError::Composition(format!(
                "{function}() over fragments of which {} hold only numbers and {strings} a \
                 string: the string {function} of their {function}s is not known",
                picks.len() - strings,
            )));
        }
    }
    // the table's local queries answer numbers and strings
    let literal = |item: &Item| match item {
        Item::Num(n) => Expr::Num(*n),
        other => Expr::Str(other.string_value()),
    };
    let clauses = values.iter().enumerate().map(|(var, items)| {
        let expr = Expr::Seq(items.iter().map(literal).collect());
        Clause::Let(Binding { var: partials_var(var), expr })
    });
    let ret = Box::new(split.remainder.clone());
    let expr = Expr::Flwor { clauses: clauses.collect(), where_clause: None, order_by: None, ret };
    let run = Program::lower(&Query { expr }).run(&MemProvider::new());
    run.map_err(|e| PartixError::Composition(e.to_string()))
}

/// Fold one finished query into the process-wide registry (failures are
/// counted at the query entry), through handles looked up once.
fn record_query_metrics(report: &QueryReport, bytes_shipped: usize, total_s: f64) {
    static COUNTERS: LazyLock<[Arc<Counter>; 7]> = LazyLock::new(|| {
        ["partix.queries", "partix.queries.partial", "dispatch.subqueries", "dispatch.retries",
            "dispatch.failovers", "dispatch.timeouts", "net.bytes_shipped"]
            .map(|name| metrics::global().counter(name))
    });
    static STAGES: LazyLock<[Arc<Histogram>; 5]> = LazyLock::new(|| {
        ["stage.parse", "stage.localize", "stage.dispatch", "stage.compose", "query.total"]
            .map(|name| metrics::global().histogram(name))
    });
    let stages = &report.stages;
    let counts = [1, usize::from(report.partial), stages.subqueries.len(), report.retries,
        report.failovers, report.timeouts, bytes_shipped];
    COUNTERS.iter().zip(counts).for_each(|(counter, n)| counter.add(n as u64));
    let secs = [stages.parse_s, stages.localize_s, stages.dispatch_s, stages.compose_s, total_s];
    STAGES.iter().zip(secs).for_each(|(stage, secs)| stage.record_secs(secs));
}
