//! The *localize* stage: turn a query into a [`Plan`] — the tasks to run
//! on the nodes and how their answers compose.
//!
//! A query every relevant fragment can answer alone becomes one sub-query
//! per fragment. So does a `count`, `sum` or `avg` over a vertical design
//! whose every match lies whole inside one piece ([`distributes`]): the
//! pieces split the matches among them, and the partials add up. Any
//! other query that needs several vertical fragments at once is
//! answered from rebuilt documents, and the plan reads **only what the
//! query reads**: it fetches the fragments the footprint reaches
//! ([`read_set`]), and where a conjunct of the `where` clause lives
//! entirely inside one of them, that fragment's node filters its pieces
//! by it ([`fragment_filter`]) before they ship. All fetches of a plan go
//! out in the one gather round.

use super::{ExecOptions, PartiX, PartixError};
use crate::catalog::Distribution;
use crate::compose::{self, Composition};
use crate::localize;
use crate::report::SkippedFragment;
use partix_frag::def::FragType;
use partix_frag::{FragMode, FragOp, FragmentDef, FragmentationSchema};
use partix_path::analysis::{path_may_reach_into, paths_may_intersect};
use partix_path::{Axis, NodeTest, PathExpr, Step};
use partix_query::rewrite::{rewrite_collection_name, rewrite_for_vertical};
use partix_query::{pushdown, Expr, PathSource, PathStart, Query};
use std::sync::Arc;

/// What a [`Task`] asks of its node.
pub(super) enum TaskOp {
    /// Run a sub-query. With `avg` the node answers the pair
    /// `[sum, count]` instead (see [`compose::avg_decomposition`]).
    Execute { query: Arc<Query>, avg: bool },
    /// Fetch the fragment's documents: all of them, or those `filter`
    /// selects — a sub-query over the fragment, run by the node the
    /// ordinary indexed way, that returns the root elements of the pieces a
    /// tuple of the query might come from. Still a fetch and not an
    /// `Execute`: a query result ships sub-trees, which drops the document
    /// `name` / `origin` metadata the reconstruction join matches on.
    Fetch { filter: Option<Arc<Query>> },
}

/// One unit of work bound for one node. Shared (`Arc`) so pool dispatch
/// can move it into `'static` jobs.
pub(super) struct Task {
    /// The planner's replica pick — the retry loop starts here.
    pub node: usize,
    /// The fragment's name: its collection on the node and its label in
    /// the report.
    pub fragment: String,
    pub op: TaskOp,
}

/// How the task answers become the query's answer.
pub(super) enum Compose {
    /// One sub-query per relevant fragment, partial answers combined by
    /// rule. The only composition that can degrade to a partial answer —
    /// the others are all-or-nothing.
    Combine(Composition),
    /// The query touches no distributed collection: node 0 answers it
    /// as-is.
    Passthrough,
    /// Multi-fragment fallback: the fragments the query reads are fetched,
    /// the source documents that pass every fetch filter are rebuilt from
    /// their pieces, and the original query runs on them at the
    /// coordinator. All-or-nothing over the fragments it reads: documents
    /// rebuilt without one of them would be silently wrong, not partial.
    Reconstruct,
}

pub(super) struct Plan {
    pub tasks: Vec<Arc<Task>>,
    pub compose: Compose,
    /// The distribution the plan was made against (`None`: passthrough).
    /// Every task's first attempt takes its replica from it.
    pub dist: Option<Arc<Distribution>>,
    /// Fragments no task contacts.
    pub pruned: usize,
    /// Fragments dropped at planning time in degraded mode (every replica
    /// already down).
    pub skipped: Vec<SkippedFragment>,
}

impl PartiX {
    /// Decompose `query` against the distribution of the first of its
    /// collections that has one (none: passthrough).
    pub(super) fn plan(&self, query: &Query, options: ExecOptions) -> Result<Plan, PartixError> {
        let dist = {
            let catalog = self.catalog.read();
            query.collections().into_iter().find_map(|c| catalog.distribution(&c).cloned())
        };
        let Some(dist) = dist else {
            let task = Task {
                node: 0,
                fragment: "<passthrough>".into(),
                // the one plan that ships the query itself, hence the copy
                op: TaskOp::Execute { query: Arc::new(query.clone()), avg: false },
            };
            return Ok(Plan {
                tasks: vec![Arc::new(task)],
                compose: Compose::Passthrough,
                dist: None,
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

        let vertical = dist.design.frag_type() == FragType::Vertical;
        // one sub-query per relevant fragment — unless some fragment
        // cannot answer alone and the query does not distribute over the
        // pieces either
        let subqueries: Option<Vec<Query>> = relevant
            .iter()
            .map(|&idx| build_subquery(query, collection, &fragments[idx], analysis.as_ref()))
            .collect::<Option<_>>()
            .or_else(|| {
                let rename = |&idx: &usize| {
                    rewrite_collection_name(query, collection, &fragments[idx].name)
                };
                let pieces = vertical && distributes(query, collection, &dist.design);
                pieces.then(|| relevant.iter().map(rename).collect())
            });
        let Some(subqueries) = subqueries else {
            // only a vertical design knows, fragment by fragment, what a
            // query reads; a hybrid one keeps fetching everything
            let read = if vertical {
                read_set(&dist.design, &relevant)
            } else {
                (0..fragments.len()).collect()
            };
            let driving = analysis.as_ref().filter(|a| vertical && a.collection == *collection);
            let tests = driving.map_or_else(Vec::new, |a| pushdown::fragment_tests(query, a));
            let tasks = read
                .iter()
                .map(|&idx| {
                    let frag = &fragments[idx];
                    let filter = driving.and_then(|a| fragment_filter(&dist.design, frag, a, &tests));
                    self.task(&dist, &frag.name, TaskOp::Fetch { filter: filter.map(Arc::new) })
                })
                .collect::<Result<_, _>>()?;
            let (compose, pruned) = (Compose::Reconstruct, fragments.len() - read.len());
            return Ok(Plan { tasks, compose, dist: Some(dist), pruned, skipped: Vec::new() });
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
        let compose = Compose::Combine(composition);
        Ok(Plan { tasks, compose, dist: Some(dist), pruned, skipped })
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
            Some(node) => Ok(Arc::new(Task { node, fragment, op })),
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
/// not enough: a path that may extend into a pruned subtree would evaluate
/// to a silently incomplete — i.e. wrong — partial result. Each footprint
/// path must either reach into the fragment's retained subtree or be an
/// ancestor binding on the spine above it.
fn serves_all_footprint(
    path: &PathExpr,
    prune: &[PathExpr],
    analysis: Option<&pushdown::QueryAnalysis>,
) -> bool {
    let Some(analysis) = analysis else {
        return false; // nothing known: force the safe reconstruction path
    };
    analysis.footprint.iter().all(|q| {
        path_may_reach_into(path, q) && !prune.iter().any(|g| path_may_reach_into(g, q))
    })
}

/// Is `query` answered by combining what each fragment of the vertical
/// `design` answers alone, with `collection` renamed? So it is for a
/// `count`, `sum` or `avg` of one path of the collection whose every
/// match lies whole inside one piece: each element lives in exactly one
/// piece, so the pieces split the matches among them.
///
/// * The path is one descendant step (`//name`, `//*`), then child steps
///   only, none pinning a position. A later `//` loses the matches below
///   a cut (`//body//p` with `section[1]` cut out of `body`), and a cut
///   renumbers the siblings it leaves behind.
/// * No cut selects a node matched by the second step or a later one:
///   the chain from a match's first-step node down to the match stays in
///   one piece. The first-step node may be a piece's root —
///   `collection(f)//name` matches a root as well.
/// * For `sum` and `avg`, no cut lies strictly inside a match, which
///   would split its string value across pieces. `count` needs only the
///   node.
fn distributes(query: &Query, collection: &str, design: &FragmentationSchema) -> bool {
    let Expr::Call { name, args } = &query.expr else { return false };
    let whole_values = match name.as_str() {
        "count" => false,
        "sum" | "avg" => true,
        _ => return false,
    };
    let [Expr::Path(PathSource { start: PathStart::Collection(scanned), path })] = &args[..]
    else {
        return false;
    };
    let Some((first, rest)) = path.steps.split_first() else { return false };
    if scanned != collection
        || first.axis != Axis::Descendant
        || first.is_attribute()
        || rest.iter().any(|step| step.axis != Axis::Child)
        || path.steps.iter().any(|step| step.position.is_some())
    {
        return false;
    }
    let prefix = |len: usize| PathExpr { absolute: true, steps: path.steps[..len].to_vec() };
    let mut below = path.clone();
    below.steps.push(Step { axis: Axis::Descendant, test: NodeTest::AnyElement, position: None });
    design.fragments.iter().all(|frag| {
        let FragOp::Vertical { projection } = &frag.op else { return false };
        let cut = &projection.path;
        (2..=path.steps.len()).all(|len| !paths_may_intersect(cut, &prefix(len)))
            && !(whole_values && paths_may_intersect(cut, &below))
    })
}

/// The fragments of a vertical `design` a reconstruction must fetch to
/// answer a query whose footprint reaches `relevant`, in definition order:
/// the relevant fragments, and what it takes to put their pieces back
/// where they were cut.
///
/// * The fragment each read one hangs in — its *holder*, the deepest
///   fragment cut above it — and so on up to the one that holds the
///   document root: a piece is spliced into the piece that holds its
///   parent.
/// * A piece is addressed by child ordinals, down from the root of its
///   holder's piece, and a fragment that is not read leaves a hole there
///   that shifts every later sibling. For a fragment cut *by name*, right
///   under its holder's root (`/article/prolog` out of `/article`), that
///   only moves the piece among siblings of other names, which nothing can
///   see: a cut by name takes every child of that name, and only a
///   wildcard or descendant step — which keeps all fragments relevant —
///   reads across names. For any other — cut by position (`…/Item[2]`,
///   whose siblings of the same name the holder keeps) or further down
///   (`/article/prolog/authors` out of a spine that keeps `prolog`) —
///   every fragment cut out of the same holder is read: no holes in it.
fn read_set(design: &FragmentationSchema, relevant: &[usize]) -> Vec<usize> {
    let steps = |idx: usize| match &design.fragments[idx].op {
        FragOp::Vertical { projection } => &projection.path.steps[..],
        _ => unreachable!("a vertical design has vertical fragments only"),
    };
    let all = 0..design.fragments.len();
    let holder = |idx: usize| {
        let path = steps(idx);
        // cut above `path`: the same steps, pinning nothing it does not
        let above = |other: &usize| {
            let other = steps(*other);
            other.len() < path.len()
                && other.iter().zip(path).all(|(o, p)| {
                    o.axis == p.axis
                        && o.test == p.test
                        && (o.position.is_none() || o.position == p.position)
                })
        };
        all.clone().filter(above).max_by_key(|&other| steps(other).len())
    };
    let mut read = vec![false; all.len()];
    let mut todo: Vec<usize> = relevant.to_vec();
    while let Some(idx) = todo.pop() {
        if std::mem::replace(&mut read[idx], true) {
            continue;
        }
        let Some(held_in) = holder(idx) else { continue };
        todo.push(held_in);
        let path = steps(idx);
        let named_child = path.len() == steps(held_in).len() + 1
            && path.last().is_some_and(|step| step.position.is_none());
        if !named_child {
            todo.extend(all.clone().filter(|&other| holder(other) == Some(held_in)));
        }
    }
    all.filter(|&idx| read[idx]).collect()
}

/// The filter the node of vertical fragment `frag` applies to a fetch:
/// the `tests` (positive top-level conjuncts of the query's `where`, see
/// [`pushdown::fragment_tests`]) that lie entirely inside the fragment,
/// re-rooted onto its documents. `None`: fetch all of it.
///
/// A test goes to a fragment only if
/// * the schema says the fragment holds **at most one piece per source
///   document** — the node tests piece by piece and answers with the
///   pieces that pass, which is a statement about the document only when
///   the piece is all the fragment has of it;
/// * every path of the test extends the fragment's path step for step,
///   pinning each position the fragment pins (`…/Item/Name` may hold of an
///   `Item` that `…/Item[2]` does not have), and cannot reach into what
///   the fragment prunes.
///
/// The filter is only ever a necessary condition on the documents a tuple
/// can come from; the original query still runs over what is rebuilt.
fn fragment_filter(
    design: &FragmentationSchema,
    frag: &FragmentDef,
    analysis: &pushdown::QueryAnalysis,
    tests: &[pushdown::FragmentTest<'_>],
) -> Option<Query> {
    let FragOp::Vertical { projection } = &frag.op else { return None };
    let inside = |q: &PathExpr| {
        localize::extends_pinned(q, &projection.path)
            && !projection.prune.iter().any(|g| path_may_reach_into(g, q))
    };
    let served: Vec<_> =
        tests.iter().filter(|test| test.paths.iter().all(inside)).map(|test| test.expr).collect();
    if served.is_empty() {
        return None;
    }
    if !design.collection.document_schema()?.is_single_valued(&projection.path) {
        return None;
    }
    // the binding sits at or above the fragment's root: return the root
    let below = projection.path.strip_prefix(&analysis.binding_path)?;
    let filter = pushdown::filter_query(analysis, &served, below);
    rewrite_for_vertical(&filter, &analysis.collection, &projection.path, &frag.name).ok()
}
