//! The lowered evaluator against the reference interpreter
//! (`tests/reference/`): random queries from a grammar that reaches every
//! `Expr` variant, every built-in (and names that are none), `for` / `let`
//! chains with shadowing, nested FLWORs, `order by` with duplicate and
//! empty keys, positional and descendant steps, unbound variables and bad
//! arities — over random collections held arena-backed and page-backed.
//! The two give the same `Ok` sequence (same kinds, same documents and
//! node ids, same serialization) or the same `Err`. A query with a
//! driving scan — one in four is shaped as
//! a join whose `where` the pushdown translates — gives the same answer
//! when that scan is lent only the documents passing the pushed-down
//! predicate: what the storage engine does with an index.
//!
//! `PARTIX_PROPTEST_CASES` overrides the case count.

mod reference;

use partix_path::{Axis, CmpOp, NodeTest, PathExpr, Step};
use partix_query::ast::{ArithOp, Binding, Clause, Expr, PathSource, PathStart, SortDir};
use partix_query::{pushdown, EvalError, Evaluator, Item, MemProvider, Program, Query, Sequence};
use partix_xml::{Document, NodeId};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::Arc;

fn cases(default_cases: u32) -> ProptestConfig {
    std::env::var("PARTIX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(ProptestConfig::with_cases)
        .unwrap_or_else(|| ProptestConfig::with_cases(default_cases))
}

const LABELS: &[&str] = &["Item", "a", "b", "c"];
const VALUES: &[&str] = &["", "1", "2", "10", "2.5", "CD", "DVD", "abc", " 7 ", "x\u{3b1}"];
const VARS: &[&str] = &["x", "y", "z"];
const FUNCTIONS: &[(&str, usize)] = &[
    ("count", 1),
    ("sum", 1),
    ("avg", 1),
    ("min", 1),
    ("max", 1),
    ("empty", 1),
    ("exists", 1),
    ("not", 1),
    ("contains", 2),
    ("starts-with", 2),
    ("string", 1),
    ("number", 1),
    ("string-length", 1),
    ("concat", 2),
    ("data", 1),
    ("distinct-values", 1),
    ("round", 1),
    ("string-join", 2),
    ("frobnicate", 1),
];

struct Gen {
    rng: TestRng,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    // ---- documents

    /// A random tree, built depth first so node ids are in document order.
    fn document(&mut self, name: &str) -> Document {
        let mut doc = Document::new(if self.chance(85) { "Item" } else { "a" });
        doc.name = Some(name.to_owned());
        self.fill(&mut doc, NodeId::ROOT, 0);
        doc
    }

    fn fill(&mut self, doc: &mut Document, parent: NodeId, depth: usize) {
        if self.chance(30) {
            let value = self.pick(VALUES);
            doc.add_attribute(parent, "id", value);
        }
        for _ in 0..self.below(if depth < 3 { 4 } else { 1 }) {
            if self.chance(30) {
                let value = self.pick(VALUES);
                doc.add_text(parent, value);
            } else {
                let label = self.pick(LABELS);
                let child = doc.add_element(parent, label);
                if self.chance(50) {
                    let value = self.pick(VALUES);
                    doc.add_text(child, value);
                } else {
                    self.fill(doc, child, depth + 1);
                }
            }
        }
    }

    // ---- queries

    fn steps(&mut self) -> PathExpr {
        let steps = (0..self.below(4))
            .map(|_| Step {
                axis: if self.chance(25) { Axis::Descendant } else { Axis::Child },
                test: match self.below(10) {
                    0 => NodeTest::AnyElement,
                    1 => NodeTest::Attribute("id".to_owned()),
                    2 => NodeTest::Name("nowhere".to_owned()),
                    _ => NodeTest::Name(self.pick(LABELS).to_owned()),
                },
                position: if self.chance(15) { Some(1 + self.below(2) as u32) } else { None },
            })
            .collect();
        PathExpr { absolute: false, steps }
    }

    fn path(&mut self, scope: &[&str]) -> Expr {
        let start = match self.below(20) {
            0 => PathStart::Collection("nope".to_owned()),
            1 => PathStart::Doc("nope".to_owned()),
            2 => PathStart::Doc("d1".to_owned()),
            3 | 4 => PathStart::Collection("c".to_owned()),
            5 => PathStart::Var("unbound".to_owned()),
            _ if scope.is_empty() => PathStart::Collection("c".to_owned()),
            _ => PathStart::Var(scope[self.below(scope.len())].to_owned()),
        };
        Expr::Path(PathSource { start, path: self.steps() })
    }

    fn exprs(&mut self, count: usize, depth: usize, scope: &[&str]) -> Vec<Expr> {
        (0..count).map(|_| self.expr(depth, scope)).collect()
    }

    fn expr(&mut self, depth: usize, scope: &[&str]) -> Expr {
        if depth == 0 || self.chance(25) {
            return match self.below(6) {
                0 => Expr::Str(self.pick(VALUES).to_owned()),
                1 => Expr::Num([0.0, 1.0, 2.0, 10.0, 2.5, f64::NAN][self.below(6)]),
                _ => self.path(scope),
            };
        }
        let depth = depth - 1;
        let boxed = |g: &mut Gen| Box::new(g.expr(depth, scope));
        match self.below(14) {
            0 => {
                let count = self.below(4);
                Expr::Seq(self.exprs(count, depth, scope))
            }
            1 | 2 => {
                let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                    [self.below(6)];
                Expr::Cmp { lhs: boxed(self), op, rhs: boxed(self) }
            }
            3 => {
                let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div, ArithOp::Mod]
                    [self.below(5)];
                Expr::Arith { lhs: boxed(self), op, rhs: boxed(self) }
            }
            4 => Expr::Neg(boxed(self)),
            5 => Expr::If { cond: boxed(self), then: boxed(self), els: boxed(self) },
            6 => {
                let count = 2 + self.below(2);
                Expr::And(self.exprs(count, depth, scope))
            }
            7 => {
                let count = 2 + self.below(2);
                Expr::Or(self.exprs(count, depth, scope))
            }
            8 | 9 => {
                let (name, arity) = FUNCTIONS[self.below(FUNCTIONS.len())];
                let count = if self.chance(90) { arity } else { self.below(4) };
                Expr::Call { name: name.to_owned(), args: self.exprs(count, depth, scope) }
            }
            10 => {
                let attrs = if self.chance(30) {
                    vec![("k".to_owned(), self.pick(VALUES).to_owned())]
                } else {
                    vec![]
                };
                let mut children = Vec::new();
                for _ in 0..self.below(3) {
                    children.push(if self.chance(20) {
                        Expr::Str(self.pick(VALUES).to_owned())
                    } else {
                        self.expr(depth, scope)
                    });
                }
                Expr::Element { name: self.pick(LABELS).to_owned(), attrs, children }
            }
            _ => self.flwor(depth, scope),
        }
    }

    fn flwor(&mut self, depth: usize, scope: &[&str]) -> Expr {
        let mut scope = scope.to_vec();
        let mut clauses = Vec::new();
        for i in 0..1 + self.below(3) {
            // the first `for` often drives a scan of the collection
            let expr = if i == 0 && self.chance(50) {
                Expr::Path(PathSource {
                    start: PathStart::Collection("c".to_owned()),
                    path: self.steps(),
                })
            } else {
                self.expr(depth, &scope)
            };
            let var = self.pick(VARS);
            let binding = Binding { var: var.to_owned(), expr };
            clauses.push(if i == 0 || self.chance(65) {
                Clause::For(binding)
            } else {
                Clause::Let(binding)
            });
            scope.push(var);
        }
        let where_clause =
            if self.chance(60) { Some(Box::new(self.expr(depth, &scope))) } else { None };
        let order_by = if self.chance(35) {
            let dir = if self.chance(50) { SortDir::Ascending } else { SortDir::Descending };
            Some((Box::new(self.expr(depth, &scope)), dir))
        } else {
            None
        };
        let ret = Box::new(self.expr(depth, &scope));
        Expr::Flwor { clauses, where_clause, order_by, ret }
    }

    /// One or two steps, mostly by descendant, over labels the documents
    /// have: a path some documents have nodes on and some do not.
    fn short_steps(&mut self) -> PathExpr {
        let steps = (0..1 + self.below(2))
            .map(|_| Step {
                axis: if self.chance(70) { Axis::Descendant } else { Axis::Child },
                test: if self.chance(15) {
                    NodeTest::AnyElement
                } else {
                    NodeTest::Name(self.pick(LABELS).to_owned())
                },
                position: None,
            })
            .collect();
        PathExpr { absolute: false, steps }
    }

    /// A test of `var` the pushdown can translate into a per-document
    /// predicate, so an index would shortlist documents for it.
    fn test(&mut self, scope: &[&str], depth: usize) -> Expr {
        let var = scope[self.below(scope.len())];
        let path = |g: &mut Gen| {
            let start = PathStart::Var(var.to_owned());
            Box::new(Expr::Path(PathSource { start, path: g.short_steps() }))
        };
        let call = |name: &str, args: Vec<Expr>| Expr::Call { name: name.to_owned(), args };
        let value = Expr::Str(self.pick(&["1", "2", "CD", "DVD"]).to_owned());
        let needle = Expr::Str(self.pick(&["1", "2", "D", "b"]).to_owned());
        match self.below(if depth == 0 { 6 } else { 9 }) {
            0..=2 => Expr::Cmp { lhs: path(self), op: CmpOp::Eq, rhs: Box::new(value) },
            3 => call("contains", vec![*path(self), needle]),
            4 => call("exists", vec![*path(self)]),
            5 => {
                let count = Box::new(call("count", vec![*path(self)]));
                Expr::Cmp { lhs: count, op: CmpOp::Ge, rhs: Box::new(Expr::Num(1.0)) }
            }
            6 => Expr::And(vec![self.test(scope, depth - 1), self.test(scope, depth - 1)]),
            7 => Expr::Or(vec![self.test(scope, depth - 1), self.test(scope, depth - 1)]),
            _ => call("not", vec![self.test(scope, depth - 1)]),
        }
    }

    /// A query an index would narrow: its FLWOR's first `for` scans the
    /// collection, its `where` is made of translatable tests over any
    /// variable in scope, and the rest — further clauses, the `return` —
    /// may read the collection again (a join).
    fn narrowable(&mut self) -> Query {
        // `collection("c")/Item`, now and then a step deeper
        let scan = |g: &mut Gen| {
            let mut path = g.short_steps();
            path.steps.truncate(usize::from(g.chance(30)));
            let item = NodeTest::Name("Item".to_owned());
            path.steps.insert(0, Step { axis: Axis::Child, test: item, position: None });
            Expr::Path(PathSource { start: PathStart::Collection("c".to_owned()), path })
        };
        let mut scope = vec!["x"];
        let mut clauses = vec![Clause::For(Binding { var: "x".to_owned(), expr: scan(self) })];
        for var in ["y", "z"] {
            if self.chance(50) {
                let expr = if self.chance(50) {
                    scan(self)
                } else {
                    let start = PathStart::Var(scope[self.below(scope.len())].to_owned());
                    Expr::Path(PathSource { start, path: self.short_steps() })
                };
                let binding = Binding { var: var.to_owned(), expr };
                let bind: fn(Binding) -> Clause =
                    if self.chance(70) { Clause::For } else { Clause::Let };
                clauses.push(bind(binding));
                scope.push(var);
            }
        }
        let where_clause = Some(Box::new(self.test(&scope, 2)));
        let ret = Box::new(self.expr(2, &scope));
        let mut expr = Expr::Flwor { clauses, where_clause, order_by: None, ret };
        if self.chance(40) {
            expr = Expr::Call { name: "count".to_owned(), args: vec![expr] };
        }
        if self.chance(20) {
            let rhs = Box::new(Expr::Str(self.pick(VALUES).to_owned()));
            expr = Expr::Cmp { lhs: Box::new(expr), op: CmpOp::Eq, rhs };
        }
        Query { expr }
    }

    /// A query: any expression, or — half the time — wrappers around a
    /// FLWOR, often one driven by the collection.
    fn query(&mut self) -> Query {
        let mut expr = if self.chance(50) { self.flwor(3, &[]) } else { self.expr(4, &[]) };
        for _ in 0..self.below(3) {
            let (name, _) = FUNCTIONS[self.below(FUNCTIONS.len())];
            expr = Expr::Call { name: name.to_owned(), args: vec![expr] };
        }
        Query { expr }
    }
}

/// An answer in a form that can be compared exactly: kind, the document
/// and node id a stored node has, and the serialization (NaN included).
fn comparable(result: &Result<Sequence, EvalError>) -> Result<Vec<String>, EvalError> {
    let items = result.as_ref().map_err(Clone::clone)?;
    Ok(items
        .iter()
        .map(|item| match item {
            Item::Node(doc, id) => {
                format!("node {:?}#{} {}", doc.name, id.index(), item.serialize())
            }
            Item::Str(s) => format!("str {s:?}"),
            Item::Num(n) => format!("num {n:?}"),
            Item::Bool(b) => format!("bool {b}"),
        })
        .collect())
}

fn provider(docs: &[Arc<Document>]) -> MemProvider {
    let mut provider = MemProvider::new();
    provider.add_collection("c", docs.iter().map(|doc| (**doc).clone()));
    provider
}

fn check(seed: u64) {
    let mut g = Gen { rng: TestRng::from_seed(seed) };
    let arena: Vec<Arc<Document>> =
        (0..g.below(6)).map(|i| Arc::new(g.document(&format!("d{i}")))).collect();
    let paged: Vec<Arc<Document>> =
        arena.iter().map(|doc| Document::page_backed(Arc::clone(doc))).collect();
    // one query in four is of the shape an index narrows
    let query = if g.chance(25) { g.narrowable() } else { g.query() };
    let context = || format!("seed {seed}: {query:?}");

    let arena_provider = provider(&arena);
    let expected = comparable(&reference::Interpreter::new(&arena_provider).eval(&query));
    let lowered = Evaluator::new(&arena_provider).eval(&query);
    assert_eq!(comparable(&lowered), expected, "arena-backed, {}", context());
    if let (Ok(a), Ok(b)) = (&lowered, &reference::Interpreter::new(&arena_provider).eval(&query)) {
        // `Item` equality as the suites use it (NaN is unequal to itself)
        let nan = |items: &Sequence| items.iter().any(|i| matches!(i, Item::Num(n) if n.is_nan()));
        assert!(nan(a) || a == b, "item equality, {}", context());
    }
    let paged_provider = provider(&paged);
    let over_pages = Evaluator::new(&paged_provider).eval(&query);
    assert_eq!(comparable(&over_pages), expected, "page-backed, {}", context());

    let program = Program::lower(&query);
    if program.driving_collection() != Some("c") {
        return;
    }
    // lending the driving scan its whole collection changes nothing,
    // whatever else the query reads
    let lent = program.run_lending(&arena_provider, &arena);
    assert_eq!(comparable(&lent), expected, "driving scan lent, {}", context());
    // what the storage engine does with an index: the scan reads only the
    // documents that pass the pushed-down predicate
    if let Some(predicate) = pushdown::analyze(&query).and_then(|a| a.doc_predicate) {
        let shortlist: Vec<_> = arena.iter().filter(|doc| predicate.eval(doc)).cloned().collect();
        let narrowed = program.run_lending(&arena_provider, &shortlist);
        // (a document that would have failed may be off the shortlist)
        if expected.is_ok() {
            assert_eq!(comparable(&narrowed), expected, "narrowed, {}", context());
        }
    }
}

/// The shared step matcher against the reference's step-at-a-time
/// evaluation: absolute and relative paths, one and several context
/// nodes, arena- and page-backed.
fn check_paths(seed: u64) {
    let mut g = Gen { rng: TestRng::from_seed(seed) };
    let arena = Arc::new(g.document("d"));
    let paged = Document::page_backed(Arc::clone(&arena));
    let mut path = g.steps();
    path.absolute = g.chance(50);
    let ids: Vec<NodeId> = arena.ids().collect();
    let context: Vec<NodeId> = (0..g.below(4)).map(|_| ids[g.below(ids.len())]).collect();
    for doc in [&arena, &paged] {
        assert_eq!(
            partix_path::eval_path(doc, &path),
            reference::path::eval_path(doc, &path),
            "seed {seed}: {path} over {}",
            partix_xml::to_string(doc)
        );
        assert_eq!(
            partix_path::eval_path_from(doc, &context, &path),
            reference::path::eval_path_from(doc, &context, &path),
            "seed {seed}: {path} from {context:?} over {}",
            partix_xml::to_string(doc)
        );
    }
}

proptest! {
    #![proptest_config(cases(512))]

    #[test]
    fn lowered_evaluator_agrees_with_the_reference(seed in any::<u64>()) {
        check(seed);
    }

    #[test]
    fn step_matcher_agrees_with_the_reference(seed in any::<u64>()) {
        check_paths(seed);
    }
}

/// The shares of ordered and failing queries are what the error-order
/// and tie-order checks rest on: keep them from silently drying up.
#[test]
fn generator_reaches_ordered_narrowed_and_failing_queries() {
    let (mut failing, mut ordered) = (0, 0);
    for seed in 0..400u64 {
        let mut g = Gen { rng: TestRng::from_seed(seed) };
        let docs: Vec<Arc<Document>> =
            (0..1 + g.below(5)).map(|i| Arc::new(g.document(&format!("d{i}")))).collect();
        let query = g.query();
        ordered += usize::from(format!("{query:?}").contains("order_by: Some"));
        failing += usize::from(Evaluator::new(&provider(&docs)).eval(&query).is_err());
    }
    // … and the share of narrowable queries whose predicate translates
    // and shortlists some, not all, of the documents
    let mut narrowed = 0;
    for seed in 0..400u64 {
        let mut g = Gen { rng: TestRng::from_seed(seed) };
        let docs: Vec<Document> = (0..5).map(|i| g.document(&format!("d{i}"))).collect();
        if let Some(predicate) = pushdown::analyze(&g.narrowable()).and_then(|a| a.doc_predicate) {
            let kept = docs.iter().filter(|doc| predicate.eval(doc)).count();
            narrowed += usize::from((1..docs.len()).contains(&kept));
        }
    }
    assert!(narrowed >= 25, "{narrowed} narrowed scans in 400");
    assert!(ordered >= 40, "{ordered} ordered queries in 400");
    assert!((40..=300).contains(&failing), "{failing} failing queries in 400");
}
