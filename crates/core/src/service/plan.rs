//! The *localize* stage: turn a query into a [`Plan`] — the tasks to run
//! on the nodes and how their answers compose.

use super::{ExecOptions, PartiX, PartixError};
use crate::catalog::Distribution;
use crate::compose::{self, Composition};
use crate::localize;
use crate::report::SkippedFragment;
use partix_frag::{FragMode, FragOp};
use partix_query::rewrite::{rewrite_collection_name, rewrite_for_vertical};
use partix_query::{pushdown, Query};
use std::sync::Arc;

/// What a [`Task`] asks of its node.
pub(super) enum TaskOp {
    /// Run a sub-query. With `avg` the node answers the pair
    /// `[sum, count]` instead (see [`compose::avg_decomposition`]).
    Execute { query: Arc<Query>, avg: bool },
    /// Fetch the whole fragment. Not expressible as a sub-query: a query
    /// result ships sub-trees, which drops the document `name`/`origin`
    /// metadata the reconstruction join matches on.
    Fetch,
}

/// One unit of work bound for one node. Shared (`Arc`) so pool dispatch
/// can move it into `'static` jobs.
pub(super) struct Task {
    /// The planner's replica pick — the retry loop starts here.
    pub node: usize,
    /// The fragment's name: its collection on the node and its label in
    /// the report.
    pub fragment: String,
    /// Every replica holding the fragment, in placement order: the
    /// failover ring.
    pub replicas: Vec<usize>,
    pub op: TaskOp,
}

/// How the task answers become the query's answer.
pub(super) enum Compose {
    /// One sub-query per relevant fragment, partial answers combined by
    /// rule. The only composition that can use the result cache or
    /// degrade to a partial answer — the others are all-or-nothing.
    Combine(Composition),
    /// The query touches no distributed collection: node 0 answers it
    /// as-is.
    Passthrough,
    /// Multi-fragment fallback: every fragment is fetched, the source
    /// documents are rebuilt and the original query runs on them at the
    /// coordinator. A rebuilt document set missing a fragment would be
    /// silently wrong, not partial.
    Reconstruct { collection: String, dist: Arc<Distribution> },
}

pub(super) struct Plan {
    pub tasks: Vec<Arc<Task>>,
    pub compose: Compose,
    /// Fragments localization pruned away.
    pub pruned: usize,
    /// Fragments dropped at planning time in degraded mode (every replica
    /// already down).
    pub skipped: Vec<SkippedFragment>,
}

impl PartiX {
    /// Decompose `query` against `dist`, the distribution of the first of
    /// its collections that has one (`None`: passthrough).
    pub(super) fn plan(
        &self,
        query: &Query,
        dist: Option<Arc<Distribution>>,
        options: ExecOptions,
    ) -> Result<Plan, PartixError> {
        let Some(dist) = dist else {
            let task = Task {
                node: 0,
                fragment: "<passthrough>".into(),
                replicas: vec![0],
                // the one plan that ships the query itself, hence the copy
                op: TaskOp::Execute { query: Arc::new(query.clone()), avg: false },
            };
            return Ok(Plan {
                tasks: vec![Arc::new(task)],
                compose: Compose::Passthrough,
                pruned: 0,
                skipped: Vec::new(),
            });
        };
        let collection = &dist.design.collection.name;
        let fragments = &dist.design.fragments;
        let analysis = pushdown::analyze(query);
        let relevant = if self.localization_enabled() {
            localize::relevant_fragments(&dist.design, analysis.as_ref())
        } else {
            (0..fragments.len()).collect()
        };
        let pruned = fragments.len() - relevant.len();

        // one sub-query per relevant fragment — unless some fragment
        // cannot answer alone
        let subqueries: Option<Vec<Query>> = relevant
            .iter()
            .map(|&idx| build_subquery(query, collection, &fragments[idx], analysis.as_ref()))
            .collect();
        let Some(subqueries) = subqueries else {
            let tasks = fragments
                .iter()
                .map(|frag| self.task(&dist, &frag.name, TaskOp::Fetch))
                .collect::<Result<_, _>>()?;
            let compose =
                Compose::Reconstruct { collection: collection.clone(), dist: Arc::clone(&dist) };
            return Ok(Plan { tasks, compose, pruned, skipped: Vec::new() });
        };

        let composition = compose::classify(query);
        // avg decomposes into (sum, count) per site
        let avg = composition == Composition::Avg;
        let mut tasks = Vec::with_capacity(relevant.len());
        let mut skipped = Vec::new();
        for (&idx, sub) in relevant.iter().zip(subqueries) {
            let fragment = &fragments[idx].name;
            match self.task(&dist, fragment, TaskOp::Execute { query: Arc::new(sub), avg }) {
                Ok(task) => tasks.push(task),
                // every replica is down already at planning time:
                // degraded mode drops the fragment instead of failing
                Err(err) if options.allow_partial => skipped
                    .push(SkippedFragment { fragment: fragment.clone(), error: err.to_string() }),
                Err(err) => return Err(err),
            }
        }
        Ok(Plan { tasks, compose: Compose::Combine(composition), pruned, skipped })
    }

    /// Bind `op` on `fragment` to an *available* replica, rotating
    /// round-robin across the replicas so repeated queries spread their
    /// load instead of hammering the first placement; errors if every
    /// replica is down (a fragment replicated on several nodes survives
    /// node failures transparently).
    fn task(
        &self,
        dist: &Distribution,
        fragment: &str,
        op: TaskOp,
    ) -> Result<Arc<Task>, PartixError> {
        let replicas = dist.nodes_of(fragment);
        if replicas.is_empty() {
            return Err(PartixError::Internal(format!("{fragment} unplaced")));
        }
        let start = {
            let mut rotation = self.rotation.lock();
            let counter = rotation.entry(fragment.to_owned()).or_insert(0);
            let start = *counter;
            *counter = counter.wrapping_add(1);
            start
        };
        let fragment = fragment.to_owned();
        match self.first_usable(&replicas, start) {
            Some(node) => Ok(Arc::new(Task { node, fragment, replicas, op })),
            None => Err(PartixError::NodeUnavailable { node: replicas[0], fragment }),
        }
    }

    /// The first live replica walking `ring` from position `start`.
    /// Replicas inside a suspect cooldown
    /// ([`Node::mark_suspect`](crate::Node::mark_suspect)) are used only
    /// when no clean replica is up. `start` comes from ever-incrementing
    /// counters that eventually wrap to near `usize::MAX`, hence the
    /// wrapping add (a plain one would overflow-panic in debug builds on
    /// long runs).
    pub(super) fn first_usable(&self, ring: &[usize], start: usize) -> Option<usize> {
        let walk = || (0..ring.len()).map(|k| ring[start.wrapping_add(k) % ring.len()]);
        let up = |id: &usize| self.cluster.node(*id).is_some_and(|n| n.is_available());
        let clean = |id: &usize| self.cluster.node(*id).is_some_and(|n| !n.is_suspect());
        walk().find(|id| up(id) && clean(id)).or_else(|| walk().find(up))
    }
}

/// Build the sub-query shipped to `frag`; `None` = this fragment cannot
/// answer the query alone (triggers the reconstruction fallback).
fn build_subquery(
    query: &Query,
    collection: &str,
    frag: &partix_frag::FragmentDef,
    analysis: Option<&pushdown::QueryAnalysis>,
) -> Option<Query> {
    match &frag.op {
        FragOp::Horizontal { .. } => {
            Some(rewrite_collection_name(query, collection, &frag.name))
        }
        FragOp::Hybrid { unit_path, mode, .. } => match mode {
            // FragMode2 keeps the source document shape
            FragMode::SingleDoc => {
                Some(rewrite_collection_name(query, collection, &frag.name))
            }
            FragMode::ManySmallDocs => {
                if !serves_all_footprint(unit_path, &[], analysis) {
                    return None;
                }
                rewrite_for_vertical(query, collection, unit_path, &frag.name).ok()
            }
        },
        FragOp::Vertical { projection } => {
            if !serves_all_footprint(&projection.path, &projection.prune, analysis) {
                return None;
            }
            rewrite_for_vertical(query, collection, &projection.path, &frag.name).ok()
        }
    }
}

/// Can a node-level fragment (projection `path` minus `prune`) serve
/// *every* path the query touches? A syntactically successful rewrite is
/// not enough: a path extending into a pruned subtree would evaluate to
/// a silently empty — i.e. wrong — partial result. Each footprint path
/// must either reach into the fragment's retained subtree or be an
/// ancestor binding on the spine above it.
fn serves_all_footprint(
    path: &partix_path::PathExpr,
    prune: &[partix_path::PathExpr],
    analysis: Option<&pushdown::QueryAnalysis>,
) -> bool {
    use partix_path::analysis::path_may_reach_into;
    let Some(analysis) = analysis else {
        return false; // nothing known: force the safe reconstruction path
    };
    analysis.footprint.iter().all(|q| {
        path_may_reach_into(path, q) && !localize::strictly_inside_any(q, prune)
    })
}
