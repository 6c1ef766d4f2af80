//! The *localize* stage: turn a query into a [`Localized`] plan — the
//! tasks to run on the nodes and how their answers compose — and bind it
//! to replicas for one run ([`Plan`]).
//!
//! A localized plan is a pure function of the query, the distribution it
//! was made against and the localization switch, so the plan cache keeps
//! it beside the query's parse and a repeated text only binds replicas
//! ([`PartiX::bind`]) while the plan still holds ([`PartiX::holds`]).
//!
//! A fragment *answers a query alone* when its answer to the query,
//! renamed or rewritten for it ([`build_subquery`]), is its share. A core
//! ([`pushdown::is_core`]), or a query all of which one fragment holds,
//! ships whole and the answers concatenate. A query that reads the
//! collection only inside pushed aggregates is split ([`table`]): the
//! fragments run the local queries, the coordinator the remainder. On a
//! vertical design an aggregate whose matches lie whole in the pieces is
//! answered piece by piece too ([`distributes`]). The rest is answered from
//! rebuilt documents: a vertical plan fetches what the footprint reaches
//! ([`read_set`]), filtered at the node ([`fragment_filter`]); a horizontal
//! one what a lone driving scan reaches; a hybrid one everything.

use super::{ExecOptions, PartiX, PartixError};
use crate::catalog::Distribution;
use crate::localize;
use crate::report::SkippedFragment;
use partix_frag::def::FragType;
use partix_frag::{FragMode, FragOp, FragmentDef, FragmentationSchema};
use partix_path::analysis::{path_may_reach_into, paths_may_intersect};
use partix_path::{Axis, CmpOp, NodeTest, PathExpr, Step};
use partix_query::ast::ArithOp;
use partix_query::rewrite::{rewrite_collection_name, rewrite_for_vertical};
use partix_query::{pushdown, Expr, PathSource, PathStart, Query};
use std::sync::Arc;

/// What a [`Task`] asks of its node.
pub(super) enum TaskOp {
    /// Run a sub-query.
    Execute { query: Arc<Query> },
    /// Fetch the fragment's documents: all of them, or those `filter`
    /// selects — a sub-query over the fragment, run by the node the
    /// ordinary indexed way, that returns the root elements of the pieces a
    /// tuple of the query might come from. Still a fetch and not an
    /// `Execute`: a query result ships sub-trees, which drops the document
    /// `name` / `origin` metadata the reconstruction join matches on.
    Fetch { filter: Option<Arc<Query>> },
}

/// One unit of work bound for one fragment. Shared (`Arc`) by every run
/// of a stored plan, and so pool dispatch can move it into `'static` jobs.
pub(super) struct Task {
    /// The fragment's name: its collection on the node and its label in
    /// the report.
    pub fragment: String,
    pub op: TaskOp,
    /// In a split plan, the partials variables the task's answer binds:
    /// one takes all of it, two take one item each (`avg`'s sum and
    /// count). Empty elsewhere.
    pub vars: Vec<usize>,
}

/// The label of a passthrough plan's one task.
pub(super) const PASSTHROUGH: &str = "<passthrough>";

fn task(fragment: &str, op: TaskOp, vars: Vec<usize>) -> Arc<Task> {
    Arc::new(Task { fragment: fragment.to_owned(), op, vars })
}

/// How the task answers become the query's answer.
pub(super) enum Compose {
    /// Each task ran the query for its fragment: its answer is a slice of
    /// the query's, in task order.
    Concat,
    /// Each task ran a local query; the remainder composes their answers.
    Split(Split),
    /// The query touches no distributed collection: node 0 answers it.
    Passthrough,
    /// The fragments the query reads are fetched, the documents that pass
    /// every fetch filter rebuilt, and the query run on them. Documents
    /// rebuilt without a fragment would be wrong, not partial.
    Reconstruct,
}

impl Compose {
    /// May the answer degrade (`allow_partial`) to the fragments that
    /// answered?
    pub fn degrades(&self) -> bool {
        matches!(self, Compose::Concat | Compose::Split(_))
    }
}

/// The coordinator's half of a split query.
pub(super) struct Split {
    /// The query, each pushed aggregate replaced by its global form over
    /// partials variables ([`partials`]).
    pub remainder: Expr,
    /// Each `min` / `max` and its partials variable.
    pub extremes: Vec<(String, usize)>,
    /// How many partials variables there are.
    pub vars: usize,
}

/// Partials variable `var`; `#` starts no name a query can bind.
pub(super) fn partials_var(var: usize) -> String {
    format!("#{var}")
}

/// A query localized against one distribution.
pub(super) struct Localized {
    /// The collections the query reads: it is localized against the
    /// distribution of the first that has one.
    collections: Vec<String>,
    /// That distribution (`None`: passthrough).
    pub dist: Option<Arc<Distribution>>,
    /// The localization switch it was made under.
    localization: bool,
    pub tasks: Vec<Arc<Task>>,
    pub compose: Compose,
    /// Fragments no task contacts.
    pub pruned: usize,
}

/// A localized query bound to replicas for one run.
pub(super) struct Plan {
    pub local: Arc<Localized>,
    /// The tasks that run: `local`'s, less those degraded mode dropped.
    pub tasks: Vec<Arc<Task>>,
    /// Per task, the replica its first attempt goes to, taken from
    /// `local.dist`.
    pub nodes: Vec<usize>,
    /// Fragments dropped at binding time in degraded mode (every replica
    /// already down).
    pub skipped: Vec<SkippedFragment>,
}

/// A localization's tasks, their composition and the pruned count.
type Shards = (Vec<Arc<Task>>, Compose, usize);

impl PartiX {
    /// Localize `query` against the distribution of the first of its
    /// collections that has one (none: passthrough), under the current
    /// localization switch.
    pub(super) fn localize(&self, query: &Query) -> Localized {
        let collections = query.collections();
        let dist = self.distribution(&collections);
        let localization = self.localization_enabled();
        let (tasks, compose, pruned) = match &dist {
            Some(dist) => shard(query, &dist.design, localization),
            None => {
                // the one plan that ships the query itself, hence the copy
                let op = TaskOp::Execute { query: Arc::new(query.clone()) };
                (vec![task(PASSTHROUGH, op, Vec::new())], Compose::Passthrough, 0)
            }
        };
        Localized { collections, dist, localization, tasks, compose, pruned }
    }

    /// Does `local` still hold: does the catalog map its query to the
    /// distribution it was made against (or still to none), under the
    /// same localization switch? A rebalance, a meta sync or a
    /// re-registration replaces the distribution.
    pub(super) fn holds(&self, local: &Localized) -> bool {
        let now = self.distribution(&local.collections);
        local.localization == self.localization_enabled()
            && now.as_ref().map(Arc::as_ptr) == local.dist.as_ref().map(Arc::as_ptr)
    }

    /// The distribution of the first of `collections` that has one.
    fn distribution(&self, collections: &[String]) -> Option<Arc<Distribution>> {
        let catalog = self.catalog.read();
        collections.iter().find_map(|c| catalog.distribution(c).cloned())
    }

    /// Bind every task of `local` to an *available* replica for this
    /// run. Degraded mode drops a fragment whose every replica is down,
    /// where the composition allows it ([`Compose::degrades`]).
    pub(super) fn bind(
        &self,
        local: Arc<Localized>,
        options: ExecOptions,
    ) -> Result<Plan, PartixError> {
        let degrades = options.allow_partial && local.compose.degrades();
        let (mut tasks, mut nodes, mut skipped) = (Vec::new(), Vec::new(), Vec::new());
        for task in &local.tasks {
            // a passthrough runs on node 0
            let node = local.dist.as_ref().map_or(Ok(0), |d| self.pick_replica(d, &task.fragment));
            match node {
                Ok(node) => {
                    tasks.push(Arc::clone(task));
                    nodes.push(node);
                }
                Err(err) if degrades => {
                    let fragment = task.fragment.clone();
                    skipped.push(SkippedFragment { fragment, error: err.to_string() });
                }
                Err(err) => return Err(err),
            }
        }
        Ok(Plan { local, tasks, nodes, skipped })
    }

    /// An *available* replica of `fragment`, rotating round-robin across
    /// the replicas so repeated queries spread their load instead of
    /// hammering the first placement; errors if every replica is down (a
    /// fragment replicated on several nodes survives node failures
    /// transparently).
    fn pick_replica(&self, dist: &Distribution, fragment: &str) -> Result<usize, PartixError> {
        let replicas = dist.nodes_of(fragment);
        if replicas.is_empty() {
            return Err(PartixError::Internal(format!("{fragment} unplaced")));
        }
        let mut rotation = self.rotation.lock();
        let start = match rotation.get_mut(fragment) {
            Some(counter) => {
                let start = *counter;
                *counter = start.wrapping_add(1);
                start
            }
            None => {
                // the one allocation: a fragment seen for the first time
                rotation.insert(fragment.to_owned(), 1);
                0
            }
        };
        drop(rotation);
        self.first_usable(&replicas, start).ok_or_else(|| PartixError::NodeUnavailable {
            node: replicas[0],
            fragment: fragment.to_owned(),
        })
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

/// Localize `query` over `design`: the fragments its footprint reaches
/// (all of them with `localization` off) and what each runs.
fn shard(query: &Query, design: &FragmentationSchema, localization: bool) -> Shards {
    let (collection, fragments) = (&design.collection.name, &design.fragments);
    let analysis = pushdown::analyze(query);
    let (relevant, whole) = ship(query, analysis.as_ref(), design, localization);
    let reads_once = matches!(&pushdown::reads(&query.expr).0[..], [read]
        if matches!(&read.start, PathStart::Collection(name) if name == collection));
    // a vertical footprint covers every read; elsewhere only a lone one
    let vertical = design.frag_type() == FragType::Vertical;
    let alone = relevant.len() == 1 && (vertical || reads_once);
    if let Some(subqueries) = whole.filter(|_| alone || pushdown::is_core(&query.expr, collection))
    {
        let subqueries = relevant.iter().zip(subqueries).map(|(&idx, sub)| (idx, sub, vec![]));
        return executes(design, subqueries.collect(), Compose::Concat);
    }
    if let Some(shards) = split(query, design, localization) {
        return shards;
    }
    let read = match design.frag_type() {
        FragType::Vertical => read_set(design, &relevant),
        // whole documents: those a lone driving scan reaches
        FragType::Horizontal if reads_once => relevant,
        _ => (0..fragments.len()).collect(),
    };
    let driving = analysis.as_ref().filter(|a| vertical && a.collection == *collection);
    let tests = driving.map_or_else(Vec::new, |a| pushdown::fragment_tests(query, a));
    let tasks = read
        .iter()
        .map(|&idx| {
            let frag = &fragments[idx];
            let filter = driving.and_then(|a| fragment_filter(design, frag, a, &tests));
            task(&frag.name, TaskOp::Fetch { filter: filter.map(Arc::new) }, Vec::new())
        })
        .collect();
    (tasks, Compose::Reconstruct, fragments.len() - read.len())
}

/// The fragments `query`'s footprint reaches, in definition order, and
/// what each of them runs if every one answers the query alone.
fn ship(
    query: &Query,
    analysis: Option<&pushdown::QueryAnalysis>,
    design: &FragmentationSchema,
    localization: bool,
) -> (Vec<usize>, Option<Vec<Query>>) {
    let relevant = if localization {
        localize::relevant_fragments(design, analysis)
    } else {
        (0..design.fragments.len()).collect()
    };
    let collection = &design.collection.name;
    let build = |&idx: &usize| build_subquery(query, collection, &design.fragments[idx], analysis);
    let subqueries = relevant.iter().map(build).collect();
    (relevant, subqueries)
}

/// Split `query` at its pushed aggregates; `None` if it reads the
/// collection outside one, or a fragment cannot answer a local query.
fn split(query: &Query, design: &FragmentationSchema, localization: bool) -> Option<Shards> {
    let (collection, mut remainder) = (&design.collection.name, query.expr.clone());
    let (mut locals, mut extremes) = (Vec::new(), Vec::new());
    if !push(&mut remainder, collection, &mut locals, &mut extremes) {
        return None;
    }
    let (mut subqueries, vars) = (Vec::new(), locals.iter().map(|(_, v)| v.len()).sum());
    for (local, binds) in locals {
        let analysis = pushdown::analyze(&local);
        let (relevant, shipped) = ship(&local, analysis.as_ref(), design, localization);
        // pieces that split the matches among them answer alone too
        let pieces = design.frag_type() == FragType::Vertical
            && distributes(&local.expr, collection, design);
        let rename =
            |&idx: &usize| rewrite_collection_name(&local, collection, &design.fragments[idx].name);
        let renamed = || pieces.then(|| relevant.iter().map(rename).collect());
        let shipped = shipped.or_else(renamed)?;
        subqueries
            .extend(relevant.into_iter().zip(shipped).map(|(idx, sub)| (idx, sub, binds.clone())));
    }
    Some(executes(design, subqueries, Compose::Split(Split { remainder, extremes, vars })))
}

/// One `Execute` task per `(fragment, sub-query, partials variables)`,
/// composed by `compose`.
fn executes(
    design: &FragmentationSchema,
    subqueries: Vec<(usize, Query, Vec<usize>)>,
    compose: Compose,
) -> Shards {
    let reached = |frag: &usize| subqueries.iter().any(|(idx, ..)| idx == frag);
    let pruned = (0..design.fragments.len()).filter(|frag| !reached(frag)).count();
    let tasks = subqueries.into_iter().map(|(idx, sub, vars)| {
        task(&design.fragments[idx].name, TaskOp::Execute { query: Arc::new(sub) }, vars)
    });
    (tasks.collect(), compose, pruned)
}

/// Replace each pushed aggregate in `expr` by its global form, adding its
/// local query and the partials variables that query's answers bind to
/// `locals`; `false` if `expr` reads anything outside one.
fn push(
    expr: &mut Expr,
    collection: &str,
    locals: &mut Vec<(Query, Vec<usize>)>,
    extremes: &mut Vec<(String, usize)>,
) -> bool {
    let pushed = match &*expr {
        Expr::Call { name, args } => match &args[..] {
            [core] if pushdown::is_core(core, collection) => table(name, core).map(|t| (name, t)),
            _ => None,
        },
        Expr::Path(path) => return matches!(path.start, PathStart::Var(_)),
        _ => None,
    };
    let Some((function, (local, global))) = pushed else {
        let mut children = expr.children_mut().into_iter();
        return children.all(|child| push(child, collection, locals, extremes));
    };
    let first: usize = locals.iter().map(|(_, vars)| vars.len()).sum();
    let arity = if let Expr::Seq(pair) = &local { pair.len() } else { 1 };
    if matches!(function.as_str(), "min" | "max") {
        extremes.push((function.clone(), first));
    }
    let var = |var| {
        let path = PathExpr { absolute: false, steps: Vec::new() };
        Expr::Path(PathSource { start: PathStart::Var(partials_var(var)), path })
    };
    let vars: Vec<usize> = (first..first + arity).collect();
    locals.push((Query { expr: local }, vars.clone()));
    *expr = global(&vars.into_iter().map(var).collect::<Vec<_>>());
    true
}

/// A global form over the partials.
type Global = fn(&[Expr]) -> Expr;

/// The pushed aggregates: for `f(core)`, the local query each fragment runs
/// over its share of the core, and the global form of `f` over `p`, the
/// partials — `p[0]`, or `p[0]` and `p[1]` when the local query answers a
/// pair.
fn table(f: &str, core: &Expr) -> Option<(Expr, Global)> {
    fn call(name: &str, arg: &Expr) -> Expr {
        Expr::Call { name: name.into(), args: vec![arg.clone()] }
    }
    fn cmp(lhs: Expr, op: CmpOp) -> Expr {
        Expr::Cmp { lhs: Box::new(lhs), op, rhs: Box::new(Expr::Num(0.0)) }
    }
    let local = |name| call(name, core);
    Some(match f {
        "count" => (local("count"), |p| call("sum", &p[0])),
        "sum" => (local("sum"), |p| call("sum", &p[0])),
        "min" => (local("min"), |p| call("min", &p[0])),
        "max" => (local("max"), |p| call("max", &p[0])),
        "avg" => (Expr::Seq(vec![local("sum"), local("count")]), |p| Expr::If {
            cond: Box::new(cmp(call("sum", &p[1]), CmpOp::Eq)),
            then: Box::new(Expr::Seq(Vec::new())),
            els: Box::new(Expr::Arith {
                lhs: Box::new(call("sum", &p[0])),
                op: ArithOp::Div,
                rhs: Box::new(call("sum", &p[1])),
            }),
        }),
        "exists" => (local("count"), |p| cmp(call("sum", &p[0]), CmpOp::Gt)),
        "empty" => (local("count"), |p| cmp(call("sum", &p[0]), CmpOp::Eq)),
        "distinct-values" => (local("distinct-values"), |p| call("distinct-values", &p[0])),
        _ => return None,
    })
}

/// Does every read of `query` reach into the units at `unit_path` of
/// `collection`, pinning no position from the unit step down? A hybrid
/// fragment holds some units, each whole, under its own copy of the path
/// above them: a read above the units meets every copy, and a position at
/// the unit step counts the fragment's units only.
fn reads_units(query: &Query, collection: &str, unit_path: &PathExpr) -> bool {
    let unit = unit_path.steps.len().saturating_sub(1);
    pushdown::reads(&query.expr).0.iter().all(|read| {
        let path = PathExpr { absolute: true, ..read.path.clone() };
        matches!(&read.start, PathStart::Collection(name) if name == collection)
            && path.strip_prefix(unit_path).is_some()
            && path.steps[unit..].iter().all(|step| step.position.is_none())
    })
}

/// Build the sub-query shipped to `frag`; `None` = this fragment cannot
/// answer the query alone.
fn build_subquery(
    query: &Query,
    collection: &str,
    frag: &partix_frag::FragmentDef,
    analysis: Option<&pushdown::QueryAnalysis>,
) -> Option<Query> {
    let (path, prune) = match &frag.op {
        FragOp::Horizontal { .. } => {
            return Some(rewrite_collection_name(query, collection, &frag.name));
        }
        FragOp::Hybrid { unit_path, .. } if !reads_units(query, collection, unit_path) => {
            return None
        }
        // FragMode2 keeps the source document shape
        FragOp::Hybrid { mode: FragMode::SingleDoc, .. } => {
            return Some(rewrite_collection_name(query, collection, &frag.name));
        }
        FragOp::Hybrid { unit_path, .. } => (unit_path, &[][..]),
        FragOp::Vertical { projection } => (&projection.path, &projection.prune[..]),
    };
    if !serves_all_footprint(path, prune, analysis) {
        return None;
    }
    rewrite_for_vertical(query, collection, path, &frag.name).ok()
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
    analysis.footprint.iter().chain(&analysis.iterated).all(|q| {
        path_may_reach_into(path, q) && !prune.iter().any(|g| path_may_reach_into(g, q))
    })
}

/// Do the pieces of the vertical `design` split the matches of the local
/// query `local` among them, so that each fragment's answer, with
/// `collection` renamed, is its share? So they do for a `count`, `sum` or
/// `distinct-values` of one path of the collection (or `avg`'s pair of
/// them) whose every match lies whole inside one piece: each element lives
/// in exactly one piece. `min` / `max` partials do not always compose, so
/// those are rebuilt.
///
/// * The path is one descendant step (`//name`, `//*`), then child steps
///   only, none pinning a position. A later `//` loses the matches below
///   a cut (`//body//p` with `section[1]` cut out of `body`), and a cut
///   renumbers the siblings it leaves behind.
/// * No cut selects a node matched by the second step or a later one:
///   the chain from a match's first-step node down to the match stays in
///   one piece. The first-step node may be a piece's root —
///   `collection(f)//name` matches a root as well.
/// * For `sum` and `distinct-values`, no cut lies strictly inside a match,
///   which would split its string value across pieces. `count` needs only
///   the node.
fn distributes(local: &Expr, collection: &str, design: &FragmentationSchema) -> bool {
    let (name, args) = match local {
        Expr::Seq(pair) => return pair.iter().all(|part| distributes(part, collection, design)),
        Expr::Call { name, args } => (name, args),
        _ => return false,
    };
    let whole_values = match name.as_str() {
        "count" => false,
        "sum" | "distinct-values" => true,
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
    if !design.collection.document_root()?.is_single_valued(&projection.path) {
        return None;
    }
    // the binding sits at or above the fragment's root: return the root
    let below = projection.path.strip_prefix(&analysis.binding_path)?;
    let filter = pushdown::filter_query(analysis, &served, below);
    rewrite_for_vertical(&filter, &analysis.collection, &projection.path, &frag.name).ok()
}
