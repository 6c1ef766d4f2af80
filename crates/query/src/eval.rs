//! The query evaluator: runs a lowered [`Program`] as a stream.
//!
//! Nothing here returns a sequence per expression. `Run::eval` *pushes*
//! the items of an expression into the sink its consumer supplies, as
//! borrowed [`ItemRef`]s: a consumer that only tests or counts them
//! (`where`, a comparison, `exists`, `count`) allocates nothing, and one
//! that keeps them copies what it keeps. The rules:
//!
//! * **Sinks.** A sink must not hold on to the borrowed item it is
//!   handed. It may return `Halt::Done` to end its producer early, but
//!   only when lowering marked the producer as unable to fail — otherwise
//!   the rest of it still has to run, because it may raise the error the
//!   query is due.
//! * **Slots.** Variables are positions in the chain of bindings made on
//!   the way down (`Env`); a `for` binds a borrowed item, a `let` a
//!   slice it materialised. No names, no maps, no copies per tuple.
//! * **Symbols.** A path resolves its labels against each context
//!   document once ([`Matcher::resolve`]) before it walks it; a run keeps
//!   one matcher per path, so resolving allocates nothing per document.
//! * **Errors stay lazy and keep their order.** Only an expression that
//!   is evaluated can fail. A FLWOR is evaluated tuple by tuple, but
//!   reports the error a clause-by-clause evaluation would have met first
//!   (see `Tuples`).

use crate::ast::{ArithOp, SortDir};
use crate::func::{self, Func};
use crate::lower::{ClauseKind, Flwor, Node, Program};
use crate::morsel::MorselPartial;
use crate::value::{value_compare, Ebv, Item, ItemRef, Sequence};
use crate::Query;
use partix_path::Matcher;
use partix_xml::{Document, NodeId, NodeKind};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Supplies stored collections/documents to the evaluator — implemented
/// by the storage engine (`partix-storage`) and, for tests, by
/// [`MemProvider`].
pub trait CollectionProvider {
    /// All documents of a collection. Unknown names yield an error.
    fn collection(&self, name: &str) -> Result<Vec<Arc<Document>>, EvalError>;

    /// A single stored document by name.
    fn document(&self, name: &str) -> Result<Arc<Document>, EvalError>;
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    UnknownCollection(String),
    UnknownDocument(String),
    UnboundVariable(String),
    UnknownFunction(String),
    BadArity { function: String, expected: usize, found: usize },
    TypeError(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownCollection(n) => write!(f, "unknown collection {n:?}"),
            EvalError::UnknownDocument(n) => write!(f, "unknown document {n:?}"),
            EvalError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function {n}()"),
            EvalError::BadArity { function, expected, found } => {
                write!(f, "{function}() expects {expected} argument(s), got {found}")
            }
            EvalError::TypeError(msg) => write!(f, "type error: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// In-memory collection provider for tests and examples.
#[derive(Debug, Default)]
pub struct MemProvider {
    collections: HashMap<String, Vec<Arc<Document>>>,
}

impl MemProvider {
    pub fn new() -> MemProvider {
        MemProvider::default()
    }

    pub fn add_collection(
        &mut self,
        name: &str,
        docs: impl IntoIterator<Item = Document>,
    ) -> &mut Self {
        self.add_shared(name, docs.into_iter().map(Arc::new))
    }

    /// [`MemProvider::add_collection`] of documents that are shared already.
    pub fn add_shared(
        &mut self,
        name: &str,
        docs: impl IntoIterator<Item = Arc<Document>>,
    ) -> &mut Self {
        self.collections.entry(name.to_owned()).or_default().extend(docs);
        self
    }
}

impl CollectionProvider for MemProvider {
    fn collection(&self, name: &str) -> Result<Vec<Arc<Document>>, EvalError> {
        self.collections
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownCollection(name.to_owned()))
    }

    fn document(&self, name: &str) -> Result<Arc<Document>, EvalError> {
        for docs in self.collections.values() {
            if let Some(d) = docs.iter().find(|d| d.name.as_deref() == Some(name)) {
                return Ok(Arc::clone(d));
            }
        }
        Err(EvalError::UnknownDocument(name.to_owned()))
    }
}

/// The evaluator: borrows a provider, evaluates queries against it.
pub struct Evaluator<'a> {
    provider: &'a dyn CollectionProvider,
}

impl<'a> Evaluator<'a> {
    pub fn new(provider: &'a dyn CollectionProvider) -> Evaluator<'a> {
        Evaluator { provider }
    }

    /// Evaluate a whole query: lower it, run it.
    pub fn eval(&self, query: &Query) -> Result<Sequence, EvalError> {
        Program::lower(query).run(self.provider)
    }
}

/// Why a producer stopped before its end.
#[derive(Debug)]
pub(crate) enum Halt {
    /// The sink has seen enough.
    Done,
    Error(EvalError),
}

impl From<EvalError> for Halt {
    fn from(error: EvalError) -> Halt {
        Halt::Error(error)
    }
}

impl Halt {
    /// The outcome of a whole evaluation: `Done` is a normal end.
    pub(crate) fn finish(flow: Flow) -> Result<(), EvalError> {
        match flow {
            Ok(()) | Err(Halt::Done) => Ok(()),
            Err(Halt::Error(error)) => Err(error),
        }
    }
}

pub(crate) type Flow = Result<(), Halt>;

/// Where an expression's items go; see the module docs for the rules.
pub(crate) type Sink<'s> = dyn FnMut(ItemRef<'_>) -> Flow + 's;

impl Program {
    /// Run against a provider: the whole query, every collection and
    /// document read through `provider`.
    pub fn run(&self, provider: &dyn CollectionProvider) -> Result<Sequence, EvalError> {
        self.run_whole(Source { lent: None, provider: Some(provider) })
    }

    /// [`Program::run`] with `docs` lent to the driving scan
    /// ([`Program::driving_collection`]) in place of its collection — the
    /// documents an index shortlisted, say. Every other read, a second
    /// scan of that same collection included, goes to `provider`.
    pub fn run_lending(
        &self,
        provider: &dyn CollectionProvider,
        docs: &[Arc<Document>],
    ) -> Result<Sequence, EvalError> {
        self.run_whole(Source { lent: Some(docs), provider: Some(provider) })
    }

    /// Run a decomposable program's core over one morsel: `docs` stands
    /// for the scanned collection. Partials of consecutive morsels merge
    /// ([`crate::morsel::merge`]) into exactly what [`Program::run`] gives
    /// over all the documents.
    ///
    /// # Panics
    /// If the program is not decomposable ([`Program::is_decomposable`]):
    /// a morsel has no provider for what else such a program reads.
    pub fn run_morsel(&self, docs: &[Arc<Document>]) -> Result<MorselPartial, EvalError> {
        assert!(self.decomposable, "run_morsel needs a decomposable program");
        self.partial(Source { lent: Some(docs), provider: None })
    }

    fn run_whole(&self, source: Source<'_>) -> Result<Sequence, EvalError> {
        crate::morsel::merge(self, vec![self.partial(source)?])
    }

    /// The core's result over `source`, in the form the merge takes.
    fn partial(&self, source: Source<'_>) -> Result<MorselPartial, EvalError> {
        let matchers = self.paths.iter().map(|steps| RefCell::new(Matcher::new(steps))).collect();
        let run = Run { source, matchers };
        let mut partial = self.empty_partial();
        let flow = match &mut partial {
            MorselPartial::Keyed(pairs) => match &self.core {
                Node::Flwor(flwor) => run.flwor_keyed(flwor, pairs),
                _ => unreachable!("only a FLWOR core is ordered"),
            },
            MorselPartial::Count(count) => run.eval(&self.core, None, &mut |_| {
                *count += 1;
                Ok(())
            }),
            MorselPartial::Plain(items) => run.eval(&self.core, None, &mut |item| {
                items.push(item.to_item());
                Ok(())
            }),
        };
        Halt::finish(flow).map(|()| partial)
    }
}

/// Where a run reads stored data from.
struct Source<'a> {
    /// What the driving scan reads, when the caller lends it: a morsel,
    /// or the candidates an index shortlisted.
    lent: Option<&'a [Arc<Document>]>,
    /// Everything else, and the driving scan too when nothing is lent. A
    /// morsel has none: a decomposable program reads nothing but its
    /// driving scan, so any other access is a genuine error.
    provider: Option<&'a dyn CollectionProvider>,
}

impl<'a> Source<'a> {
    fn collection(&self, name: &str, driving: bool) -> Result<Cow<'a, [Arc<Document>]>, EvalError> {
        match (self.lent.filter(|_| driving), self.provider) {
            (Some(docs), _) => Ok(Cow::Borrowed(docs)),
            (None, Some(provider)) => provider.collection(name).map(Cow::Owned),
            (None, None) => Err(EvalError::UnknownCollection(name.to_owned())),
        }
    }

    fn document(&self, name: &str) -> Result<Arc<Document>, EvalError> {
        match self.provider {
            Some(provider) => provider.document(name),
            None => Err(EvalError::UnknownDocument(name.to_owned())),
        }
    }
}

/// What a variable is bound to.
#[derive(Clone, Copy)]
enum Bound<'a> {
    /// A `for` variable: the current item of its sequence.
    One(ItemRef<'a>),
    /// A `let` variable: its whole sequence.
    Many(&'a [Item]),
}

/// One binding and the chain of those made before it. A variable is the
/// number of hops up this chain, fixed at lowering.
struct Env<'a> {
    bound: Bound<'a>,
    up: Scope<'a>,
}

type Scope<'a> = Option<&'a Env<'a>>;

fn lookup(env: Scope<'_>, hops: usize) -> Bound<'_> {
    let mut env = env.expect("lowering resolved the variable");
    for _ in 0..hops {
        env = env.up.expect("lowering resolved the variable");
    }
    env.bound
}

/// One evaluation of a program.
struct Run<'a> {
    source: Source<'a>,
    /// One matcher per path of the program ([`Program::paths`]), each
    /// resolved again for every document its path walks. The expression
    /// tree is evaluated strictly nested and a node is never inside
    /// itself, so a path's matcher is never needed while it is in use.
    matchers: Vec<RefCell<Matcher<'a>>>,
}

impl Run<'_> {
    /// Push the items of `node` into `out`.
    fn eval(&self, node: &Node, env: Scope<'_>, out: &mut Sink<'_>) -> Flow {
        match node {
            Node::Const(item) => out(item.as_ref()),
            Node::Var(hops) => match lookup(env, *hops) {
                Bound::One(item) => out(item),
                Bound::Many(items) => items.iter().try_for_each(|item| out(item.as_ref())),
            },
            Node::Unbound(name) => Err(EvalError::UnboundVariable(name.clone()).into()),
            Node::VarPath { hops, path } => match lookup(env, *hops) {
                Bound::One(item) => self.walk_from(item, *path, out),
                Bound::Many(items) => {
                    items.iter().try_for_each(|item| self.walk_from(item.as_ref(), *path, out))
                }
            },
            Node::Collection { name, path, driving } => {
                let docs = self.source.collection(name, *driving)?;
                docs.iter().try_for_each(|doc| self.walk_absolute(doc, *path, out))
            }
            Node::Doc { name, path } => {
                self.walk_absolute(&self.source.document(name)?, *path, out)
            }
            Node::Seq(nodes) => nodes.iter().try_for_each(|node| self.eval(node, env, out)),
            Node::Cmp { lhs, op, rhs, pure } => {
                let holds = match (&**lhs, &**rhs) {
                    (lhs, Node::Const(c)) => {
                        self.any(lhs, env, *pure, |a| value_compare(a, *op, c.as_ref()))?
                    }
                    (Node::Const(c), rhs) => {
                        self.any(rhs, env, *pure, |b| value_compare(c.as_ref(), *op, b))?
                    }
                    (lhs, rhs) => {
                        let left = self.collect(lhs, env)?;
                        self.any(rhs, env, *pure, |b| {
                            left.iter().any(|a| value_compare(a.as_ref(), *op, b))
                        })?
                    }
                };
                out(ItemRef::Bool(holds))
            }
            Node::Arith { lhs, op, rhs } => self.arith(lhs, *op, rhs, env, out),
            Node::Neg(operand) => match self.first_number(operand, env)? {
                None => Ok(()),
                Some(Some(n)) => out(ItemRef::Num(-n)),
                Some(None) => {
                    Err(EvalError::TypeError("unary minus needs a numeric operand".into()).into())
                }
            },
            Node::If { cond, then, els } => {
                let branch = if self.truth(cond, env)? { then } else { els };
                self.eval(branch, env, out)
            }
            Node::And(terms) => {
                for term in terms {
                    if !self.truth(term, env)? {
                        return out(ItemRef::Bool(false));
                    }
                }
                out(ItemRef::Bool(true))
            }
            Node::Or(terms) => {
                for term in terms {
                    if self.truth(term, env)? {
                        return out(ItemRef::Bool(true));
                    }
                }
                out(ItemRef::Bool(false))
            }
            Node::Call { func, args, pure } => self.call(func, args, *pure, env, out),
            Node::Element { name, attrs, children } => {
                self.element(name, attrs, children, env, out)
            }
            Node::Flwor(flwor) => self.flwor(flwor, env, out),
        }
    }

    fn collect(&self, node: &Node, env: Scope<'_>) -> Result<Sequence, Halt> {
        func::collect(&mut |sink| self.eval(node, env, sink))
    }

    fn any(
        &self,
        node: &Node,
        env: Scope<'_>,
        stop: bool,
        holds: impl FnMut(ItemRef<'_>) -> bool,
    ) -> Result<bool, Halt> {
        func::any(&mut |sink| self.eval(node, env, sink), stop, holds)
    }

    /// Effective boolean value of `node`.
    fn truth(&self, node: &Node, env: Scope<'_>) -> Result<bool, Halt> {
        let mut ebv = Ebv::default();
        self.eval(node, env, &mut |item| {
            ebv.push(item);
            Ok(())
        })?;
        Ok(ebv.value())
    }

    /// Numeric value of the first item of `node`: `None` if it is empty,
    /// `Some(None)` if the item is not a number.
    fn first_number(&self, node: &Node, env: Scope<'_>) -> Result<Option<Option<f64>>, Halt> {
        func::first(&mut |sink| self.eval(node, env, sink), false, |item| item.number_value())
    }

    fn arith(
        &self,
        lhs: &Node,
        op: ArithOp,
        rhs: &Node,
        env: Scope<'_>,
        out: &mut Sink<'_>,
    ) -> Flow {
        // XQuery arithmetic: empty operand -> empty result; otherwise
        // atomize the first item of each side
        let a = self.first_number(lhs, env)?;
        let b = self.first_number(rhs, env)?;
        let (Some(a), Some(b)) = (a, b) else {
            return Ok(());
        };
        let (Some(a), Some(b)) = (a, b) else {
            let message = format!("arithmetic {op} needs numeric operands");
            return Err(EvalError::TypeError(message).into());
        };
        out(ItemRef::Num(match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Mod => a % b,
        }))
    }

    fn call(
        &self,
        func: &Func,
        args: &[Node],
        pure: bool,
        env: Scope<'_>,
        out: &mut Sink<'_>,
    ) -> Flow {
        use func::Builtin::{Contains, StartsWith};
        // a literal needle is borrowed from the program, and the haystack
        // streams against it
        if let (Func::Builtin(test @ (Contains | StartsWith)), [hay, Node::Const(needle)]) =
            (func, args)
        {
            let needle = needle.as_ref().string_value();
            let found =
                self.any(hay, env, pure, |item| test.string_test(&item.string_value(), &needle))?;
            return out(ItemRef::Bool(found));
        }
        func::call(func, args.len(), &|i, sink| self.eval(&args[i], env, sink), pure, out)
    }

    fn element(
        &self,
        name: &str,
        attrs: &[(String, String)],
        children: &[Node],
        env: Scope<'_>,
        out: &mut Sink<'_>,
    ) -> Flow {
        let mut doc = Document::new(name);
        for (k, v) in attrs {
            doc.add_attribute(NodeId::ROOT, k, v);
        }
        for child in children {
            self.eval(child, env, &mut |item| {
                append_item(&mut doc, NodeId::ROOT, item);
                Ok(())
            })?;
        }
        out(ItemRef::Node(&Arc::new(doc), NodeId::ROOT))
    }

    fn flwor(&self, flwor: &Flwor, env: Scope<'_>, out: &mut Sink<'_>) -> Flow {
        let tuples = Tuples::new(flwor);
        let Some((key, dir)) = &flwor.order else {
            self.bind(&tuples, 0, env, &mut |env| {
                tuples.attempt(Phase::Return, || self.eval(&flwor.ret, env, out)).map(|_| ())
            })?;
            return tuples.finish();
        };
        // only the survivors of the `where` are kept, each as its sort
        // key and the values its clauses bound
        let mut survivors: Vec<(SortKey, Vec<Owned>)> = Vec::new();
        self.bind(&tuples, 0, env, &mut |tuple| {
            if let Some(key) = tuples.attempt(Phase::Order, || self.sort_key(key, tuple))? {
                survivors.push((key, Owned::snapshot(tuple, flwor.clauses.len())));
            }
            Ok(())
        })?;
        tuples.finish()?;
        sort_tuples(&mut survivors, *dir);
        for (_, values) in &survivors {
            rebind(values, env, &mut |tuple| self.eval(&flwor.ret, tuple, out))?;
        }
        Ok(())
    }

    /// An ordered FLWOR over one morsel, **unsorted**: each surviving
    /// tuple's sort key with its `return` items, in tuple (document)
    /// order. The merge concatenates these across morsels and sorts once.
    fn flwor_keyed(&self, flwor: &Flwor, pairs: &mut Vec<(SortKey, Sequence)>) -> Flow {
        let (key, _) = flwor.order.as_ref().expect("a keyed partial needs an order by");
        let tuples = Tuples::new(flwor);
        self.bind(&tuples, 0, None, &mut |tuple| {
            let Some(key) = tuples.attempt(Phase::Order, || self.sort_key(key, tuple))? else {
                return Ok(());
            };
            if let Some(items) =
                tuples.attempt(Phase::Return, || self.collect(&flwor.ret, tuple))?
            {
                pairs.push((key, items));
            }
            Ok(())
        })?;
        tuples.finish()
    }

    /// Bind clauses `at..` over `env` and hand every tuple that passes
    /// the `where` to `tuple`.
    fn bind(
        &self,
        tuples: &Tuples<'_>,
        at: usize,
        env: Scope<'_>,
        tuple: &mut dyn FnMut(Scope<'_>) -> Flow,
    ) -> Flow {
        let flwor = tuples.flwor;
        let Some((kind, expr)) = flwor.clauses.get(at) else {
            let keep = match &flwor.filter {
                Some(filter) => tuples.attempt(Phase::Where, || self.truth(filter, env))?,
                None => Some(true),
            };
            return if keep == Some(true) { tuple(env) } else { Ok(()) };
        };
        match kind {
            ClauseKind::For => tuples
                .attempt(Phase::Clause(at), || {
                    self.eval(expr, env, &mut |item| {
                        let inner = Env { bound: Bound::One(item), up: env };
                        self.bind(tuples, at + 1, Some(&inner), tuple)
                    })
                })
                .map(|_| ()),
            ClauseKind::Let => {
                match tuples.attempt(Phase::Clause(at), || self.collect(expr, env))? {
                    Some(items) => {
                        let inner = Env { bound: Bound::Many(&items), up: env };
                        self.bind(tuples, at + 1, Some(&inner), tuple)
                    }
                    None => Ok(()),
                }
            }
        }
    }

    /// The nodes path `path` selects from `item` (nothing unless it is a
    /// node).
    fn walk_from(&self, item: ItemRef<'_>, path: usize, out: &mut Sink<'_>) -> Flow {
        let ItemRef::Node(doc, id) = item else {
            return Ok(());
        };
        let mut matcher = self.matchers[path].borrow_mut();
        let Some(resolved) = matcher.resolve(doc) else {
            return Ok(());
        };
        let ctx = doc.get(id).expect("node belongs to doc");
        to_flow(resolved.walk(ctx, &mut |hit| to_control(out(ItemRef::Node(doc, hit)))))
    }

    /// The nodes path `path` selects in `doc`, read as an absolute path
    /// (the first step tests the root element) — the
    /// `collection("c")/Item` convention.
    fn walk_absolute(&self, doc: &Arc<Document>, path: usize, out: &mut Sink<'_>) -> Flow {
        let mut matcher = self.matchers[path].borrow_mut();
        let Some(resolved) = matcher.resolve(doc) else {
            return Ok(());
        };
        to_flow(resolved.walk_absolute(doc, &mut |hit| to_control(out(ItemRef::Node(doc, hit)))))
    }

    fn sort_key(&self, key: &Node, env: Scope<'_>) -> Result<SortKey, Halt> {
        let first = func::first(&mut |sink| self.eval(key, env, sink), false, |item| {
            match item.number_value() {
                Some(n) => SortKey::Num(n),
                None => SortKey::Str(item.string_value().into_owned()),
            }
        })?;
        Ok(first.unwrap_or(SortKey::Empty))
    }
}

/// The tuple stream of one FLWOR evaluation, and the order of its errors.
///
/// Tuples are streamed: each is bound, tested and returned before the
/// next is bound. Evaluated clause by clause instead — every binding of
/// the first clause, then every binding of the second, … then every
/// `where`, every sort key, every `return` — the same expressions run on
/// the same tuples, but a failure in an earlier *phase* of a later tuple
/// would be met before a failure in a later phase of an earlier tuple.
/// That is the error this reports: after a failure in phase `p` the
/// stream goes on, running only phases before `p`, and a failure there
/// replaces the first. Nothing is returned from then on, and the FLWOR
/// ends in the error left standing.
struct Tuples<'f> {
    flwor: &'f Flwor,
    /// The error left standing, and the phase it struck in: phases from
    /// that one on no longer run.
    failed: RefCell<Option<(Phase, EvalError)>>,
}

/// The order a clause-by-clause evaluation works in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// The binding expression of clause `i`.
    Clause(usize),
    Where,
    Order,
    Return,
}

impl<'f> Tuples<'f> {
    fn new(flwor: &'f Flwor) -> Tuples<'f> {
        Tuples { flwor, failed: RefCell::new(None) }
    }

    /// Run `phase` for one tuple. `None`: the phase no longer runs, or
    /// has just failed.
    fn attempt<T>(
        &self,
        phase: Phase,
        run: impl FnOnce() -> Result<T, Halt>,
    ) -> Result<Option<T>, Halt> {
        if self.failed.borrow().as_ref().is_some_and(|(limit, _)| phase >= *limit) {
            return Ok(None);
        }
        match run() {
            Ok(value) => Ok(Some(value)),
            Err(Halt::Done) => Err(Halt::Done),
            Err(Halt::Error(error)) => {
                *self.failed.borrow_mut() = Some((phase, error));
                Ok(None)
            }
        }
    }

    fn finish(&self) -> Flow {
        match self.failed.borrow_mut().take() {
            Some((_, error)) => Err(error.into()),
            None => Ok(()),
        }
    }
}

/// Orderable key for `order by`: numeric when possible, else string.
///
/// Public because morsel partials carry per-tuple keys across the merge
/// boundary ([`MorselPartial::Keyed`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SortKey {
    Empty,
    Num(f64),
    Str(String),
}

impl SortKey {
    /// Total order over keys (named `compare` rather than implementing
    /// `Ord`: NaN keys collapse to `Equal`, which `Ord` must not do).
    pub fn compare(&self, other: &SortKey) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (SortKey::Empty, SortKey::Empty) => Ordering::Equal,
            (SortKey::Empty, _) => Ordering::Less,
            (_, SortKey::Empty) => Ordering::Greater,
            (SortKey::Num(a), SortKey::Num(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (SortKey::Str(a), SortKey::Str(b)) => a.cmp(b),
            (SortKey::Num(_), SortKey::Str(_)) => Ordering::Less,
            (SortKey::Str(_), SortKey::Num(_)) => Ordering::Greater,
        }
    }
}

/// `order by` over keyed tuples: a stable sort ascending, reversed as a
/// whole for `descending`.
pub(crate) fn sort_tuples<T>(keyed: &mut [(SortKey, T)], dir: SortDir) {
    keyed.sort_by(|a, b| a.0.compare(&b.0));
    if dir == SortDir::Descending {
        keyed.reverse();
    }
}

/// A binding kept past its tuple (`order by` sorts before it returns).
enum Owned {
    One(Item),
    Many(Vec<Item>),
}

impl Owned {
    /// The innermost `count` bindings of `env`, outermost first.
    fn snapshot(env: Scope<'_>, count: usize) -> Vec<Owned> {
        let mut values = Vec::with_capacity(count);
        let mut env = env;
        for _ in 0..count {
            let binding = env.expect("one binding per clause");
            values.push(match binding.bound {
                Bound::One(item) => Owned::One(item.to_item()),
                Bound::Many(items) => Owned::Many(items.to_vec()),
            });
            env = binding.up;
        }
        values.reverse();
        values
    }
}

/// Bind `values` again on top of `env`, outermost first, then run `then`.
fn rebind(values: &[Owned], env: Scope<'_>, then: &mut dyn FnMut(Scope<'_>) -> Flow) -> Flow {
    let Some((first, rest)) = values.split_first() else {
        return then(env);
    };
    let bound = match first {
        Owned::One(item) => Bound::One(item.as_ref()),
        Owned::Many(items) => Bound::Many(items),
    };
    rebind(rest, Some(&Env { bound, up: env }), then)
}

fn to_control(flow: Flow) -> ControlFlow<Halt> {
    match flow {
        Ok(()) => ControlFlow::Continue(()),
        Err(halt) => ControlFlow::Break(halt),
    }
}

fn to_flow(control: ControlFlow<Halt>) -> Flow {
    match control {
        ControlFlow::Continue(()) => Ok(()),
        ControlFlow::Break(halt) => Err(halt),
    }
}

/// Append an item into a document being constructed.
fn append_item(doc: &mut Document, parent: NodeId, item: ItemRef<'_>) {
    match item {
        ItemRef::Node(src, id) => {
            let node = src.get(id).expect("node belongs to doc");
            match node.kind() {
                NodeKind::Element => {
                    doc.graft(parent, src, id);
                }
                NodeKind::Attribute => {
                    doc.add_attribute(parent, node.label(), node.value().unwrap_or(""));
                }
                NodeKind::Text => {
                    doc.add_text(parent, node.value().unwrap_or(""));
                }
            }
        }
        other => {
            doc.add_text(parent, &other.string_value());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use partix_xml::parse;

    fn provider() -> MemProvider {
        let mut p = MemProvider::new();
        let docs = [
            ("i1", r#"<Item><Code>1</Code><Name>Kind of Blue</Name><Section>CD</Section><Price>10</Price><Characteristics><Description>a good jazz record</Description></Characteristics></Item>"#),
            ("i2", r#"<Item><Code>2</Code><Name>Brazil</Name><Section>DVD</Section><Price>25</Price><Characteristics><Description>dystopia</Description></Characteristics></Item>"#),
            ("i3", r#"<Item><Code>3</Code><Name>Hunky Dory</Name><Section>CD</Section><Price>8</Price><Characteristics><Description>good rock</Description></Characteristics><PictureList><Picture><OriginalPath>p.jpg</OriginalPath></Picture></PictureList></Item>"#),
        ];
        p.add_collection(
            "items",
            docs.iter().map(|(name, xml)| {
                let mut d = parse(xml).unwrap();
                d.name = Some((*name).to_owned());
                d
            }),
        );
        p
    }

    fn run(src: &str) -> Sequence {
        let p = provider();
        let q = parse_query(src).unwrap();
        Evaluator::new(&p).eval(&q).unwrap()
    }

    fn run_strings(src: &str) -> Vec<String> {
        run(src).iter().map(Item::serialize).collect()
    }

    #[test]
    fn selection_by_predicate() {
        let names = run_strings(
            r#"for $i in collection("items")/Item
               where $i/Section = "CD"
               return $i/Name"#,
        );
        assert_eq!(names, ["<Name>Kind of Blue</Name>", "<Name>Hunky Dory</Name>"]);
    }

    #[test]
    fn text_search_contains() {
        let names = run_strings(
            r#"for $i in collection("items")/Item
               where contains($i//Description, "good")
               return $i/Code"#,
        );
        assert_eq!(names, ["<Code>1</Code>", "<Code>3</Code>"]);
    }

    #[test]
    fn aggregation_count() {
        let out = run(r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#);
        assert_eq!(out, vec![Item::Num(2.0)]);
    }

    #[test]
    fn aggregation_sum_avg_min_max() {
        let out = run(r#"sum(for $i in collection("items")/Item return number($i/Price))"#);
        assert_eq!(out, vec![Item::Num(43.0)]);
        let out = run(r#"avg(for $i in collection("items")/Item return number($i/Price))"#);
        assert!(matches!(out[0], Item::Num(n) if (n - 43.0 / 3.0).abs() < 1e-9));
        let out = run(r#"min(for $i in collection("items")/Item return number($i/Price))"#);
        assert_eq!(out, vec![Item::Num(8.0)]);
        let out = run(r#"max(for $i in collection("items")/Item return number($i/Price))"#);
        assert_eq!(out, vec![Item::Num(25.0)]);
    }

    #[test]
    fn numeric_where() {
        let names = run_strings(
            r#"for $i in collection("items")/Item where $i/Price < 20 return $i/Code"#,
        );
        assert_eq!(names, ["<Code>1</Code>", "<Code>3</Code>"]);
    }

    #[test]
    fn existential_where() {
        let names = run_strings(
            r#"for $i in collection("items")/Item where exists($i/PictureList) return $i/Code"#,
        );
        assert_eq!(names, ["<Code>3</Code>"]);
        let names = run_strings(
            r#"for $i in collection("items")/Item where empty($i/PictureList) return $i/Code"#,
        );
        assert_eq!(names, ["<Code>1</Code>", "<Code>2</Code>"]);
    }

    #[test]
    fn order_by_price() {
        let codes = run_strings(
            r#"for $i in collection("items")/Item
               order by number($i/Price)
               return $i/Code"#,
        );
        assert_eq!(codes, ["<Code>3</Code>", "<Code>1</Code>", "<Code>2</Code>"]);
        let codes = run_strings(
            r#"for $i in collection("items")/Item
               order by number($i/Price) descending
               return $i/Code"#,
        );
        assert_eq!(codes, ["<Code>2</Code>", "<Code>1</Code>", "<Code>3</Code>"]);
    }

    #[test]
    fn let_binding() {
        let out = run_strings(
            r#"for $i in collection("items")/Item
               let $d := $i//Description
               where contains($d, "jazz")
               return $d"#,
        );
        assert_eq!(out, ["<Description>a good jazz record</Description>"]);
    }

    #[test]
    fn element_construction() {
        let out = run_strings(
            r#"for $i in collection("items")/Item
               where $i/Code = "1"
               return <hit section="CD">{$i/Name}</hit>"#,
        );
        assert_eq!(out, [r#"<hit section="CD"><Name>Kind of Blue</Name></hit>"#]);
    }

    #[test]
    fn nested_flwor() {
        let out = run(
            r#"count(for $i in collection("items")/Item
                     where count(for $j in collection("items")/Item
                                 where $j/Section = $i/Section return $j) > 1
                     return $i)"#,
        );
        assert_eq!(out, vec![Item::Num(2.0)]); // two CDs
    }

    #[test]
    fn doc_access() {
        let p = provider();
        let q = parse_query(r#"doc("i2")/Item/Name"#).unwrap();
        let out = Evaluator::new(&p).eval(&q).unwrap();
        assert_eq!(out[0].serialize(), "<Name>Brazil</Name>");
    }

    #[test]
    fn unknown_collection_error() {
        let p = provider();
        let q = parse_query(r#"for $i in collection("nope")/x return $i"#).unwrap();
        assert!(matches!(
            Evaluator::new(&p).eval(&q),
            Err(EvalError::UnknownCollection(_))
        ));
    }

    #[test]
    fn unbound_variable_error() {
        let p = provider();
        let q = parse_query(r#"for $i in collection("items")/Item return $zzz"#).unwrap();
        assert!(matches!(
            Evaluator::new(&p).eval(&q),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn attribute_results() {
        let mut p = MemProvider::new();
        p.add_collection("c", [parse(r#"<a id="7"><b/></a>"#).unwrap()]);
        let q = parse_query(r#"for $x in collection("c")/a return $x/@id"#).unwrap();
        let out = Evaluator::new(&p).eval(&q).unwrap();
        assert_eq!(out[0].serialize(), "id=\"7\"");
        assert_eq!(out[0].string_value(), "7");
    }

    #[test]
    fn descendant_path_from_collection() {
        let out = run(r#"count(collection("items")//Description)"#);
        assert_eq!(out, vec![Item::Num(3.0)]);
    }

    #[test]
    fn arithmetic_evaluation() {
        let out = run(r#"1 + 2 * 3 - 4"#);
        assert_eq!(out, vec![Item::Num(3.0)]);
        let out = run(r#"10 div 4"#);
        assert_eq!(out, vec![Item::Num(2.5)]);
        let out = run(r#"10 mod 3"#);
        assert_eq!(out, vec![Item::Num(1.0)]);
        let out = run(r#"-(2 + 3)"#);
        assert_eq!(out, vec![Item::Num(-5.0)]);
    }

    #[test]
    fn arithmetic_over_node_values() {
        // prices: 10, 25, 8 — doubled and filtered (20 is not > 20)
        let codes = run_strings(
            r#"for $i in collection("items")/Item
               where $i/Price * 2 > 20 return $i/Code"#,
        );
        assert_eq!(codes, ["<Code>2</Code>"]);
        let out = run(r#"sum(for $i in collection("items")/Item return $i/Price + 1)"#);
        assert_eq!(out, vec![Item::Num(46.0)]);
    }

    #[test]
    fn arithmetic_empty_operand_is_empty() {
        let out = run(r#"for $i in collection("items")/Item where $i/Code = "1" return $i/Nothing + 1"#);
        assert!(out.is_empty());
    }

    #[test]
    fn conditional_evaluation() {
        let out = run_strings(
            r#"for $i in collection("items")/Item
               order by number($i/Code)
               return if ($i/Price > 20) then concat($i/Code, ":pricey")
                      else concat($i/Code, ":cheap")"#,
        );
        assert_eq!(out, ["1:cheap", "2:pricey", "3:cheap"]);
    }

    #[test]
    fn multiple_fors_cross_product() {
        let out = run(
            r#"count(for $i in collection("items")/Item, $j in collection("items")/Item return $i)"#,
        );
        assert_eq!(out, vec![Item::Num(9.0)]);
    }
}
