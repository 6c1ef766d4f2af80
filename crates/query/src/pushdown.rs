//! Predicate pushdown and footprint extraction.
//!
//! Given a FLWOR query, [`analyze`] recovers:
//!
//! * the **driving clause** — the first `for` bound to a
//!   `collection(…)` path, which determines the collection the query
//!   scans;
//! * a **document predicate** — a [`Predicate`] over single documents
//!   that is *necessary* for a document to contribute any result tuple.
//!   The storage layer turns it into index probes; the middleware matches
//!   it against horizontal fragmentation predicates for localization;
//! * the **footprint** — every absolute path the query touches,
//!   used to decide which vertical fragments are relevant.
//!
//! The translation is deliberately conservative: whenever a `where`
//! conjunct cannot be soundly expressed as a per-document condition it is
//! dropped (weakening the filter, never losing documents). Only the
//! driving variable and variables bound to paths hanging off it are
//! conditions on the driving clause's document — the variable of a second
//! scan (a join) is not, nor is a `collection(…)` read inside `where` —
//! and what sits under a negation translates whole and exactly or not at
//! all. The differential suite holds the result to this: lending the
//! driving scan only the documents that pass `doc_predicate` must not
//! change a query's answer.

use crate::ast::{Clause, Expr, PathSource, PathStart, Query};
use crate::morsel::driving_scan;
use partix_path::pred::{BoolFn, ValueFn};
use partix_path::{CmpOp, PathExpr, Predicate, Value};
use std::collections::HashMap;

/// Result of query analysis.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// Collection scanned by the driving `for` clause.
    pub collection: String,
    /// Variable bound by the driving clause.
    pub var: String,
    /// Absolute path of the driving binding (e.g. `/Item`).
    pub binding_path: PathExpr,
    /// Per-document necessary condition extracted from `where`; `None`
    /// when nothing sound could be extracted.
    pub doc_predicate: Option<Predicate>,
    /// Exact per-*tuple* predicate: the `where` clause translated with
    /// paths rooted at the driving binding's node (e.g. `/Item/Section`
    /// when the binding is `/Store/Items/Item`). This is the space hybrid
    /// fragment predicates live in, enabling unit-level localization.
    pub tuple_predicate: Option<Predicate>,
    /// Absolute paths the query touches (deduplicated).
    pub footprint: Vec<PathExpr>,
}

/// Analyze a query. Returns `None` for queries without a
/// `for $v in collection(…)…` driving clause (e.g. bare `doc(…)` reads).
pub fn analyze(query: &Query) -> Option<QueryAnalysis> {
    // unwrap an aggregation wrapper: count(FLWOR), sum(FLWOR), …
    let Some(flwor @ Expr::Flwor { .. }) = find_flwor(&query.expr) else {
        return analyze_pathonly(query);
    };
    let Expr::Flwor { clauses, where_clause, .. } = flwor else {
        unreachable!("matched above");
    };
    // driving clause + variable → absolute-path environment
    let mut var_paths: HashMap<&str, (String, PathExpr)> = HashMap::new();
    let mut driving: Option<(usize, String, String, PathExpr)> = None;
    for (at, clause) in clauses.iter().enumerate() {
        let (Clause::For(b) | Clause::Let(b)) = clause;
        if let Expr::Path(ps) = &b.expr {
            let resolved = match &ps.start {
                PathStart::Collection(c) => {
                    let mut p = ps.path.clone();
                    p.absolute = true;
                    Some((c.clone(), p))
                }
                PathStart::Var(v) => var_paths.get(v.as_str()).map(|(c, base)| {
                    (c.clone(), base.join(&ps.path))
                }),
                PathStart::Doc(_) => None,
            };
            if let Some((coll, abs)) = resolved {
                var_paths.insert(&b.var, (coll.clone(), abs.clone()));
                if driving.is_none() && matches!(clause, Clause::For(_)) {
                    driving = Some((at, coll, b.var.clone(), abs));
                }
            }
        }
    }
    let (driving_at, collection, var, binding_path) = driving?;
    // A variable speaks of the driving clause's document if it is the
    // driving variable or a later clause binds it to a path hanging off
    // one that does. A variable of another scan — of any collection, this
    // one included — ranges over other documents: a test of it says
    // nothing of this one. A test of a variable is *exact* — true of the
    // tuple exactly when true of the document — when the driving variable
    // is the document (`exact_root`) and only `let`s lie between: a `for`
    // makes a tuple per node, so a test of its variable holds of the
    // document when it holds of *some* tuple, which a negation or a count
    // must not rely on.
    let derived = |root: &PathExpr, exact_root: bool| {
        let mut vars = Vars::new();
        vars.insert(var.as_str(), VarPath { path: root.clone(), exact: exact_root });
        for clause in &clauses[driving_at + 1..] {
            let (Clause::For(b) | Clause::Let(b)) = clause;
            let hanging = match &b.expr {
                Expr::Path(PathSource { start: PathStart::Var(v), path }) => {
                    vars.get(v.as_str()).map(|base| VarPath {
                        path: base.path.join(path),
                        exact: base.exact && matches!(clause, Clause::Let(_)),
                    })
                }
                _ => None,
            };
            match hanging {
                Some(joined) => vars.insert(&b.var, joined),
                None => vars.remove(b.var.as_str()), // shadowed by something else
            };
        }
        vars
    };
    // `collection("c")` with no step binds each root element, whatever
    // its label: no absolute path names it, so nothing translates
    let where_clause = where_clause.as_deref().filter(|_| !binding_path.steps.is_empty());
    // the driving variable is the document when its binding selects the
    // document root: a single step
    let exact_root = binding_path.steps.len() == 1 && !binding_path.has_wildcards();
    let doc_predicate =
        where_clause.and_then(|w| translate(w, &derived(&binding_path, exact_root), false));
    // tuple-space translation: the driving binding's node becomes the
    // (pseudo) document root, so the driving variable is exact per tuple
    let tuple_predicate = where_clause.and_then(|w| {
        // correlated collection scans inside `where` cannot be expressed
        // in tuple space — skip translation (conservative: no pruning)
        let mut has_collection_paths = false;
        visit_expr_collection_paths(w, &mut has_collection_paths);
        if has_collection_paths {
            return None;
        }
        let pseudo = PathExpr {
            absolute: true,
            steps: binding_path.steps.last().cloned().into_iter().collect(),
        };
        translate(w, &derived(&pseudo, true), false)
    });
    // footprint: every *value* path — paths whose selected nodes feed
    // comparisons, functions, or the result. `for`/`let` clauses that
    // merely bind a variable to a path are skipped: a binding alone does
    // not read data, so it must not make fragments relevant (a bare use
    // of the variable re-introduces the path from the use site — unless
    // the use only counts document roots).
    let mut footprint: Vec<PathExpr> = Vec::new();
    collect_value_paths(&query.expr, &collection, &Scope::new(), false, &mut footprint);
    if footprint.is_empty() {
        // queries that only iterate bindings (e.g. count the binding):
        // the binding itself is the data being read
        footprint.push(binding_path.clone());
    }
    Some(QueryAnalysis {
        collection,
        var,
        binding_path,
        doc_predicate,
        tuple_predicate,
        footprint,
    })
}

/// What a variable bound to a plain path of the analyzed collection
/// selects, for [`collect_value_paths`].
#[derive(Clone)]
struct Bound {
    path: PathExpr,
    /// A `for` variable that ranges over the root elements of documents.
    roots: bool,
}

type Scope<'q> = HashMap<&'q str, Bound>;

/// Collect value paths (see [`analyze`]) into `out`. `scope` holds the
/// variables in scope that are bound to plain paths; one bound to anything
/// else has had the paths of that expression collected whole. `counted`:
/// only the number of items `expr` yields is used (the argument of
/// `count` / `exists` / `empty`, through a FLWOR's `return`) — there a
/// bare `for` variable over document roots reads nothing: every document
/// has its root, whatever else of it is at hand.
fn collect_value_paths<'q>(
    expr: &'q Expr,
    collection: &str,
    scope: &Scope<'q>,
    counted: bool,
    out: &mut Vec<PathExpr>,
) {
    let absolute = |ps: &PathSource, scope: &Scope<'q>| match &ps.start {
        PathStart::Collection(c) if c != collection => None,
        // a document read by name may be one of this collection's
        PathStart::Collection(_) | PathStart::Doc(_) => {
            Some(PathExpr { absolute: true, ..ps.path.clone() })
        }
        PathStart::Var(v) => scope.get(v.as_str()).map(|bound| bound.path.join(&ps.path)),
    };
    let mut each = |exprs: &mut dyn Iterator<Item = &'q Expr>| {
        for e in exprs {
            collect_value_paths(e, collection, scope, false, out);
        }
    };
    match expr {
        Expr::Path(ps) => {
            let root_of_a_tuple = matches!(&ps.start, PathStart::Var(v)
                if ps.path.steps.is_empty() && scope.get(v.as_str()).is_some_and(|b| b.roots));
            if let Some(abs) = absolute(ps, scope).filter(|_| !(counted && root_of_a_tuple)) {
                if !out.contains(&abs) {
                    out.push(abs);
                }
            }
        }
        Expr::Flwor { clauses, where_clause, order_by, ret } => {
            let mut scope = scope.clone();
            for clause in clauses {
                let (Clause::For(b) | Clause::Let(b)) = clause;
                // a plain path binding is not a read; anything else is
                let bound = match &b.expr {
                    Expr::Path(ps) => absolute(ps, &scope).map(|path| Bound {
                        roots: matches!(clause, Clause::For(_))
                            && path.steps.len() == 1
                            && !path.has_wildcards(),
                        path,
                    }),
                    read => {
                        collect_value_paths(read, collection, &scope, false, out);
                        None
                    }
                };
                match bound {
                    Some(bound) => scope.insert(&b.var, bound),
                    None => scope.remove(b.var.as_str()),
                };
            }
            let order_key = order_by.as_ref().map(|(key, _)| &**key);
            for read in where_clause.as_deref().into_iter().chain(order_key) {
                collect_value_paths(read, collection, &scope, false, out);
            }
            collect_value_paths(ret, collection, &scope, counted, out);
        }
        Expr::Call { name, args } => {
            let counts = matches!(name.as_str(), "count" | "exists" | "empty") && args.len() == 1;
            for arg in args {
                collect_value_paths(arg, collection, scope, counts, out);
            }
        }
        Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
            each(&mut [&**lhs, &**rhs].into_iter())
        }
        Expr::And(es) | Expr::Or(es) | Expr::Seq(es) => each(&mut es.iter()),
        Expr::Element { children, .. } => each(&mut children.iter()),
        Expr::Neg(e) => each(&mut std::iter::once(&**e)),
        Expr::If { cond, then, els } => each(&mut [&**cond, &**then, &**els].into_iter()),
        Expr::Str(_) | Expr::Num(_) | Expr::Text(_) => {}
    }
}

/// A top-level conjunct of a query's `where` that a holder of part of each
/// document can test on its own; see [`fragment_tests`].
#[derive(Debug)]
pub struct FragmentTest<'q> {
    pub expr: &'q Expr,
    /// The absolute paths the test reads: at least one.
    pub paths: Vec<PathExpr>,
}

/// The top-level conjuncts of the `where` clause that are *positive* tests
/// of the driving variable: comparisons of its paths with literals or each
/// other, `contains` / `starts-with` / `exists` of one, a bare path, and
/// disjunctions or conjunctions of those. Such a test can hold of a tuple
/// only if a node exists on a path it reads — so whoever holds the subtree
/// those paths lie in can say, of each document, whether it might
/// contribute a tuple, and a document with no node there cannot.
///
/// Never `not(…)` or `empty(…)` — a document lacking the subtree entirely
/// satisfies them — nor anything that reads another variable or stored
/// data. Empty when the driving variable is bound a second time, and
/// unless the one read of the driving collection in the whole query is the
/// `collection(…)` path the FLWOR's first `for` ranges over
/// ([`driving_scan`]): every document must reach any other read of it —
/// a second scan, a `doc(…)` that may name one of its documents, a use of
/// a variable a `let` bound to the scan (`let $all := collection("c")/x
/// for $a in $all … count($all)`) — whatever the `where` says of this one.
pub fn fragment_tests<'q>(query: &'q Query, analysis: &QueryAnalysis) -> Vec<FragmentTest<'q>> {
    let Some(Expr::Flwor { clauses, where_clause: Some(filter), .. }) = find_flwor(&query.expr)
    else {
        return Vec::new();
    };
    let scanned_directly =
        driving_scan(&query.expr).is_some_and(|(collection, _)| collection == analysis.collection);
    let mut reads = 0;
    query.visit_paths(&mut |ps| {
        reads += usize::from(match &ps.start {
            PathStart::Collection(c) => *c == analysis.collection,
            PathStart::Doc(_) => true,
            PathStart::Var(_) => false,
        });
    });
    let bound = clauses.iter().filter(|clause| {
        let (Clause::For(b) | Clause::Let(b)) = clause;
        b.var == analysis.var
    });
    if !scanned_directly || reads != 1 || bound.count() != 1 {
        return Vec::new();
    }
    let conjuncts = match &**filter {
        Expr::And(es) => es.as_slice(),
        single => std::slice::from_ref(single),
    };
    conjuncts
        .iter()
        .filter_map(|expr| {
            let mut reads = Vec::new();
            let paths = |reads: Vec<&PathExpr>| {
                reads.into_iter().map(|path| analysis.binding_path.join(path)).collect()
            };
            (positive(expr, &analysis.var, &mut reads) && !reads.is_empty())
                .then(|| FragmentTest { expr, paths: paths(reads) })
        })
        .collect()
}

/// Is `expr` built of positive tests of `$var` and literals only? The
/// paths it reads, relative to the variable, go to `reads`.
fn positive<'q>(expr: &'q Expr, var: &str, reads: &mut Vec<&'q PathExpr>) -> bool {
    match expr {
        Expr::Str(_) | Expr::Num(_) => true,
        Expr::Path(PathSource { start: PathStart::Var(v), path }) => {
            reads.push(path);
            v == var && !path.steps.is_empty()
        }
        Expr::Cmp { lhs, rhs, .. } => {
            let operand = |e: &Expr| matches!(e, Expr::Str(_) | Expr::Num(_) | Expr::Path(_));
            operand(lhs) && operand(rhs) && positive(lhs, var, reads) && positive(rhs, var, reads)
        }
        Expr::Call { name, args } => match (name.as_str(), args.as_slice()) {
            ("contains" | "starts-with", [hay @ Expr::Path(_), Expr::Str(_)]) => {
                positive(hay, var, reads)
            }
            ("exists", [path @ Expr::Path(_)]) => positive(path, var, reads),
            _ => false,
        },
        // every arm must read a path: `$a/x = 1 or 1 = 1` holds of anything
        Expr::And(es) | Expr::Or(es) => es.iter().all(|e| {
            let before = reads.len();
            positive(e, var, reads) && reads.len() > before
        }),
        _ => false,
    }
}

/// The query that selects, by `tests`, the documents a tuple might come
/// from: `for $v in collection(c)/binding where t1 and t2 … return
/// $v/ret` — `ret` leads from the binding to the root of what the holder
/// has of each document.
pub fn filter_query(analysis: &QueryAnalysis, tests: &[&Expr], ret: PathExpr) -> Query {
    let mut binding = analysis.binding_path.clone();
    binding.absolute = false;
    let scan =
        PathSource { start: PathStart::Collection(analysis.collection.clone()), path: binding };
    let mut filter: Vec<Expr> = tests.iter().map(|&test| test.clone()).collect();
    let filter = if filter.len() == 1 { filter.remove(0) } else { Expr::And(filter) };
    Query {
        expr: Expr::Flwor {
            clauses: vec![Clause::For(crate::ast::Binding {
                var: analysis.var.clone(),
                expr: Expr::Path(scan),
            })],
            where_clause: Some(Box::new(filter)),
            order_by: None,
            ret: Box::new(Expr::Path(PathSource {
                start: PathStart::Var(analysis.var.clone()),
                path: ret,
            })),
        },
    }
}

/// Does `expr` contain a `collection(…)`-rooted path?
fn visit_expr_collection_paths(expr: &Expr, found: &mut bool) {
    let probe = Query { expr: expr.clone() };
    probe.visit_paths(&mut |ps| {
        if matches!(ps.start, PathStart::Collection(_) | PathStart::Doc(_)) {
            *found = true;
        }
    });
}

/// Fallback analysis for queries without a FLWOR core — e.g.
/// `count(collection("items")//Description)`. The first collection path
/// becomes the driving binding (its first step) and every collection path
/// joins the footprint; no document predicate is extractable.
fn analyze_pathonly(query: &Query) -> Option<QueryAnalysis> {
    let mut collection: Option<String> = None;
    let mut binding: Option<PathExpr> = None;
    let mut footprint: Vec<PathExpr> = Vec::new();
    query.visit_paths(&mut |ps| {
        if let PathStart::Collection(c) = &ps.start {
            let mut abs = ps.path.clone();
            abs.absolute = true;
            if collection.is_none() {
                collection = Some(c.clone());
                binding = Some(PathExpr {
                    absolute: true,
                    steps: abs.steps.first().cloned().into_iter().collect(),
                });
            }
            if collection.as_deref() == Some(c.as_str()) && !footprint.contains(&abs) {
                footprint.push(abs);
            }
        }
    });
    Some(QueryAnalysis {
        collection: collection?,
        var: String::new(),
        binding_path: binding?,
        doc_predicate: None,
        tuple_predicate: None,
        footprint,
    })
}

/// Peel aggregation wrappers to find the FLWOR core.
fn find_flwor(expr: &Expr) -> Option<&Expr> {
    match expr {
        Expr::Flwor { .. } => Some(expr),
        Expr::Call { args, .. } if args.len() == 1 => find_flwor(&args[0]),
        Expr::Cmp { lhs, .. } => find_flwor(lhs),
        _ => None,
    }
}

/// What a variable stands for in the space a predicate is written in:
/// the absolute path of the nodes it is bound to, and whether a test of it
/// is exact (see [`analyze`]).
struct VarPath {
    path: PathExpr,
    exact: bool,
}

type Vars<'q> = HashMap<&'q str, VarPath>;

/// Translate a where-expression into a per-document [`Predicate`] that
/// holds of a document whenever the expression holds of a tuple from it.
///
/// The result may be weaker than `expr` — a conjunct that does not
/// translate is dropped, a test of an inexact variable holds of the
/// document when it holds of some tuple — unless `whole` asks for all of
/// it, exactly, or nothing: what a negation needs, since negating a weaker
/// condition gives a stronger one.
fn translate(expr: &Expr, vars: &Vars<'_>, whole: bool) -> Option<Predicate> {
    match expr {
        Expr::And(es) => {
            let translated = es.iter().map(|e| translate(e, vars, whole));
            let parts: Vec<Predicate> = if whole {
                translated.collect::<Option<_>>()?
            } else {
                // drop untranslatable conjuncts: weaker but still necessary
                translated.flatten().collect()
            };
            match parts.len() {
                0 => None,
                1 => parts.into_iter().next(),
                _ => Some(Predicate::And(parts)),
            }
        }
        Expr::Or(es) => {
            // every disjunct must translate, else the condition is lost
            let parts: Vec<Predicate> =
                es.iter().map(|e| translate(e, vars, whole)).collect::<Option<_>>()?;
            Some(Predicate::Or(parts))
        }
        Expr::Cmp { lhs, op, rhs } => {
            let (path_expr, literal, op) = match (&**lhs, &**rhs) {
                (Expr::Path(ps), lit) => (ps, lit, *op),
                (lit, Expr::Path(ps)) => (ps, lit, op.flip()),
                _ => return translate_fncmp(lhs, *op, rhs, vars),
            };
            let path = resolve(path_expr, vars, whole)?;
            Some(Predicate::Cmp { path, op, value: literal_value(literal)? })
        }
        Expr::Call { name, args } => match (name.as_str(), args.as_slice()) {
            ("contains", [Expr::Path(ps), Expr::Str(s)]) => {
                Some(Predicate::Bool(BoolFn::Contains(resolve(ps, vars, whole)?, s.clone())))
            }
            ("starts-with", [Expr::Path(ps), Expr::Str(s)]) => {
                Some(Predicate::Bool(BoolFn::StartsWith(resolve(ps, vars, whole)?, s.clone())))
            }
            ("exists", [Expr::Path(ps)]) => Some(Predicate::Exists(resolve(ps, vars, whole)?)),
            // no node on any tuple's path: only an exact variable says so
            ("empty", [Expr::Path(ps)]) => {
                Some(Predicate::Bool(BoolFn::Empty(resolve(ps, vars, true)?)))
            }
            ("not", [inner]) => Some(Predicate::Not(Box::new(translate(inner, vars, true)?))),
            _ => None,
        },
        // bare path in boolean context: existential test
        Expr::Path(ps) => Some(Predicate::Exists(resolve(ps, vars, whole)?)),
        _ => None,
    }
}

/// `count($v/p) θ n` and the like: a function of *all* the nodes on the
/// path, so only an exact variable translates.
fn translate_fncmp(lhs: &Expr, op: CmpOp, rhs: &Expr, vars: &Vars<'_>) -> Option<Predicate> {
    let ((name, args), literal, op) = match (lhs, rhs) {
        (Expr::Call { name, args }, lit) => ((name, args), lit, op),
        (lit, Expr::Call { name, args }) => ((name, args), lit, op.flip()),
        _ => return None,
    };
    let func = match name.as_str() {
        "count" => ValueFn::Count,
        "string-length" => ValueFn::StringLength,
        "number" => ValueFn::Number,
        _ => return None,
    };
    let [Expr::Path(ps)] = args.as_slice() else {
        return None;
    };
    let path = resolve(ps, vars, true)?;
    Some(Predicate::FnCmp { func, path, op, value: literal_value(literal)? })
}

fn literal_value(literal: &Expr) -> Option<Value> {
    match literal {
        Expr::Str(s) => Some(Value::Str(s.clone())),
        Expr::Num(n) => Some(Value::Num(*n)),
        _ => None,
    }
}

/// The absolute path `ps` selects, if it hangs off a variable that speaks
/// of the document — an exact one, if `exact` is asked for.
fn resolve(ps: &PathSource, vars: &Vars<'_>, exact: bool) -> Option<PathExpr> {
    match &ps.start {
        PathStart::Var(v) => {
            vars.get(v.as_str()).filter(|var| var.exact || !exact).map(|var| var.path.join(&ps.path))
        }
        // a read of stored data is a condition on the store, not on the
        // document at hand
        PathStart::Collection(_) | PathStart::Doc(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use partix_xml::parse as parse_xml;

    fn analysis(src: &str) -> QueryAnalysis {
        analyze(&parse_query(src).unwrap()).expect("analyzable")
    }

    #[test]
    fn simple_selection() {
        let a = analysis(
            r#"for $i in collection("items")/Item where $i/Section = "CD" return $i/Name"#,
        );
        assert_eq!(a.collection, "items");
        assert_eq!(a.var, "i");
        assert_eq!(a.binding_path.to_string(), "/Item");
        assert_eq!(a.doc_predicate.unwrap().to_string(), "/Item/Section = \"CD\"");
        // value paths only: the bare binding /Item is not read
        let fp: Vec<String> = a.footprint.iter().map(|p| p.to_string()).collect();
        assert_eq!(fp, ["/Item/Section", "/Item/Name"]);
    }

    #[test]
    fn pushed_predicate_matches_eval() {
        // the pushdown predicate must agree with actual query semantics
        let a = analysis(
            r#"for $i in collection("items")/Item
               where $i/Section = "CD" and contains($i//Description, "good")
               return $i"#,
        );
        let pred = a.doc_predicate.unwrap();
        let matching = parse_xml(
            "<Item><Section>CD</Section><Characteristics><Description>good</Description></Characteristics></Item>",
        )
        .unwrap();
        let non1 = parse_xml("<Item><Section>DVD</Section><Characteristics><Description>good</Description></Characteristics></Item>").unwrap();
        let non2 = parse_xml("<Item><Section>CD</Section><Characteristics><Description>bad</Description></Characteristics></Item>").unwrap();
        assert!(pred.eval(&matching));
        assert!(!pred.eval(&non1));
        assert!(!pred.eval(&non2));
    }

    #[test]
    fn aggregation_wrapper_unwrapped() {
        let a = analysis(
            r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#,
        );
        assert!(a.doc_predicate.is_some());
    }

    #[test]
    fn count_predicate_in_exact_mode() {
        let a = analysis(
            r#"for $i in collection("items")/Item
               where count($i/PictureList/Picture) >= 2
               return $i"#,
        );
        assert_eq!(
            a.doc_predicate.unwrap().to_string(),
            "count(/Item/PictureList/Picture) >= 2"
        );
    }

    #[test]
    fn deep_binding_is_inexact_drops_not() {
        // binding /Store/Items/Item is 3 steps → inexact; not() is dropped
        let a = analysis(
            r#"for $i in collection("store")/Store/Items/Item
               where not(contains($i/Name, "x")) and $i/Section = "CD"
               return $i"#,
        );
        // only the sound conjunct survives
        assert_eq!(
            a.doc_predicate.unwrap().to_string(),
            "/Store/Items/Item/Section = \"CD\""
        );
    }

    #[test]
    fn or_requires_all_disjuncts() {
        let a = analysis(
            r#"for $i in collection("items")/Item
               where $i/Section = "CD" or $i/Section = "DVD"
               return $i"#,
        );
        assert_eq!(
            a.doc_predicate.unwrap().to_string(),
            "(/Item/Section = \"CD\") or (/Item/Section = \"DVD\")"
        );
    }

    #[test]
    fn let_chains_resolve() {
        let a = analysis(
            r#"for $i in collection("items")/Item
               let $c := $i/Characteristics
               where contains($c/Description, "good")
               return $i"#,
        );
        assert_eq!(
            a.doc_predicate.unwrap().to_string(),
            "contains(/Item/Characteristics/Description, \"good\")"
        );
    }

    fn doc_predicate(src: &str) -> Option<String> {
        analysis(src).doc_predicate.map(|p| p.to_string())
    }

    #[test]
    fn only_the_driving_scans_variables_translate() {
        // $j ranges over other documents: its test says nothing of $i's
        assert_eq!(
            doc_predicate(
                r#"for $i in collection("items")/Item, $j in collection("items")/Item
                   where $j/Section = "CD" and $i/Code = "1" return $i"#,
            )
            .as_deref(),
            Some("/Item/Code = \"1\"")
        );
        // … whether the other scan reads this collection or another,
        // and even when it takes the driving variable's name
        assert_eq!(
            doc_predicate(
                r#"for $i in collection("items")/Item, $i in collection("other")/Item
                   where $i/Section = "CD" return $i"#,
            ),
            None
        );
        // a read of stored data is no condition on the document at hand
        assert_eq!(
            doc_predicate(
                r#"for $i in collection("items")/Item
                   where collection("items")/Item/Section = "CD" return $i"#,
            ),
            None
        );
        // the root element of every document, whatever its label
        assert_eq!(
            doc_predicate(r#"for $d in collection("items") where $d/Section = "CD" return $d"#),
            None
        );
    }

    #[test]
    fn negation_translates_whole_and_exact_or_not_at_all() {
        // dropping a conjunct under `not` would strengthen the condition
        assert_eq!(
            doc_predicate(
                r#"for $i in collection("items")/Item, $j in collection("items")/Item
                   where not($i/Section = "CD" and $j/Section = "CD") return $i"#,
            ),
            None
        );
        // a `for` variable holds of the document if it holds of some
        // tuple: fine for a test, not for its negation, `empty` or a count
        let picture = |test: &str| {
            doc_predicate(&format!(
                r#"for $i in collection("items")/Item, $p in $i//Picture
                   where {test} return $p"#
            ))
        };
        assert_eq!(picture(r#"$p/Name = "x""#).as_deref(), Some("/Item//Picture/Name = \"x\""));
        assert_eq!(picture(r#"not($p/Name = "x")"#), None);
        assert_eq!(picture(r#"empty($p/Name)"#), None);
        assert_eq!(picture(r#"count($p/Name) >= 2"#), None);
        // a `let` makes no tuples of its own
        assert_eq!(
            doc_predicate(
                r#"for $i in collection("items")/Item let $p := $i//Picture
                   where not($p/Name = "x") return $i"#,
            )
            .as_deref(),
            Some("not(/Item//Picture/Name = \"x\")")
        );
    }

    fn footprint(src: &str) -> Vec<String> {
        analysis(src).footprint.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn counting_document_roots_reads_nothing_through_the_return() {
        let titled = |wrap: &str| {
            footprint(&wrap.replace(
                "{}",
                r#"for $a in collection("c")/article where $a/prolog/title = "x" return $a"#,
            ))
        };
        // a count needs the tuples, not the articles
        let title = ["/article/prolog/title"];
        assert_eq!(titled("count({})"), title);
        assert_eq!(titled("count({}) > 2"), title);
        assert_eq!(titled("exists({})"), title);
        assert_eq!(
            footprint(
                r#"for $a in collection("c")/article
                   where $a/prolog/title = "x" and count($a) = 1 return $a/@id"#
            ),
            ["/article/prolog/title", "/article/@id"]
        );
        // … unless the articles are kept, summed, or are not the roots
        let whole = ["/article/prolog/title", "/article"];
        assert_eq!(titled("{}"), whole);
        assert_eq!(titled("sum({})"), whole);
        assert_eq!(
            footprint(
                r#"count(for $s in collection("c")/article/body/section
                         where $s/heading = "x" return $s)"#
            ),
            ["/article/body/section/heading", "/article/body/section"]
        );
        assert_eq!(
            footprint(
                r#"count(for $a in collection("c")/article, $a in $a/body/section
                         where $a/heading = "x" return $a)"#
            ),
            ["/article/body/section/heading", "/article/body/section"]
        );
        // a `let` holds all the roots at once: how many is the read
        assert_eq!(
            footprint(
                r#"let $all := collection("c")/article for $a in $all return count($all)"#
            ),
            ["/article"]
        );
        // nothing else read: the binding is
        assert_eq!(
            footprint(r#"count(for $a in collection("c")/article return $a)"#),
            ["/article"]
        );
    }

    #[test]
    fn footprint_follows_variables_into_nested_flwors_and_named_documents() {
        // the inner `for` is a binding, its use a read of the body
        assert_eq!(
            footprint(
                r#"for $a in collection("c")/article where $a/prolog/genre = "x"
                   return (for $s in $a/body/section return $s/heading)"#
            ),
            ["/article/prolog/genre", "/article/body/section/heading"]
        );
        // a variable bound to anything but a path: that expression's
        // paths, whole
        assert_eq!(
            footprint(
                r#"for $a in collection("c")/article let $x := ($a/body, $a/epilog)
                   return $x/abstract"#
            ),
            ["/article/body", "/article/epilog"]
        );
        // an inner binding shadows an outer one of the same name, inside
        assert_eq!(
            footprint(
                r#"for $a in collection("c")/article
                   return ((for $a in $a/prolog return $a/title), $a/epilog/country)"#
            ),
            ["/article/prolog/title", "/article/epilog/country"]
        );
        // `doc(…)` may name a document of this collection
        assert_eq!(
            footprint(
                r#"for $a in collection("c")/article where $a/prolog/genre = "x"
                   return doc("a1")/article/body/abstract"#
            ),
            ["/article/prolog/genre", "/article/body/abstract"]
        );
        // another collection's paths are not this one's
        assert_eq!(
            footprint(
                r#"for $a in collection("c")/article, $b in collection("d")/x
                   where $b/y = $a/@id return $b/z"#
            ),
            ["/article/@id"]
        );
    }

    fn tests_of(src: &str) -> Vec<Vec<String>> {
        let query = parse_query(src).unwrap();
        let analysis = analyze(&query).expect("analyzable");
        fragment_tests(&query, &analysis)
            .iter()
            .map(|test| test.paths.iter().map(|p| p.to_string()).collect())
            .collect()
    }

    #[test]
    fn fragment_tests_are_the_positive_conjuncts_of_the_driving_variable() {
        let of = |test: &str| {
            tests_of(&format!(
                r#"for $a in collection("c")/article where {test} return $a/epilog/country"#
            ))
        };
        assert_eq!(of(r#"$a/prolog/genre = "x""#), [["/article/prolog/genre"]]);
        assert_eq!(
            of(r#"contains($a/body/abstract, "x") and "BR" = $a/epilog/country and $a/prolog"#),
            [["/article/body/abstract"], ["/article/epilog/country"], ["/article/prolog"]]
        );
        assert_eq!(
            of(r#"starts-with($a/prolog/title, "x") and exists($a/@id)"#),
            [["/article/prolog/title"], ["/article/@id"]]
        );
        // a disjunction is one test of all its paths
        assert_eq!(
            of(r#"$a/prolog/genre = "x" or $a/epilog/country = "y""#),
            [["/article/prolog/genre", "/article/epilog/country"]]
        );
        assert_eq!(
            of(r#"$a/prolog/genre = $a/epilog/country"#),
            [["/article/prolog/genre", "/article/epilog/country"]]
        );
        // a document without the part passes these
        for test in [
            r#"not($a/prolog/genre = "x")"#,
            "empty($a/prolog/genre)",
            r#"$a/prolog/genre = "x" or 1 = 1"#,
            r#"$a/prolog/genre = "x" or not($a/prolog/title = "y")"#,
            // functions of all the nodes, of other data, of nothing
            "count($a/prolog/authors/author) >= 1",
            r#"number($a/epilog/word_count) > 3"#,
            r#"$a/prolog/genre = collection("d")/x"#,
            r#"$a = "x""#,
            "1 = 1",
        ] {
            assert!(of(test).is_empty(), "{test}");
        }
        // the rest of a conjunction still counts
        assert_eq!(
            of(r#"not($a/prolog/genre = "x") and $a/prolog/title = "t""#),
            [["/article/prolog/title"]]
        );
    }

    #[test]
    fn a_second_scan_or_binding_leaves_no_fragment_tests() {
        for src in [
            r#"for $a in collection("c")/article, $b in collection("c")/article
               where $a/prolog/genre = "x" return $b"#,
            r#"for $a in collection("c")/article where $a/prolog/genre = "x"
               return count(collection("c")/article)"#,
            r#"(for $a in collection("c")/article where $a/prolog/genre = "x" return $a)
               = collection("c")/article"#,
            r#"for $a in collection("c")/article, $a in $a/body/section
               where $a/heading = "x" return $a"#,
            // the scan read a second time through a variable
            r#"let $all := collection("c")/article for $a in $all
               where $a/prolog/genre = "x" return (count($all), $a/epilog/country)"#,
            r#"let $all := collection("c")/article for $a in $all
               where $a/prolog/genre = "x" and count($all) > 3 return $a/epilog/country"#,
            // a document of it read by name
            r#"for $a in collection("c")/article where $a/prolog/genre = "x"
               return doc("a1")/article/epilog/country"#,
        ] {
            assert!(tests_of(src).is_empty(), "{src}");
        }
        // another collection may be scanned as often as it likes
        assert_eq!(
            tests_of(
                r#"for $a in collection("c")/article, $b in collection("d")/x
                   where $a/prolog/genre = "x" and $b/y = "z" return $b"#
            ),
            [["/article/prolog/genre"]]
        );
    }

    #[test]
    fn filter_query_selects_by_the_tests_and_returns_below_the_binding() {
        let query = parse_query(
            r#"for $a in collection("c")/article
               where $a/prolog/genre = "x" and not($a/prolog/title = "t")
                     and exists($a/prolog/authors)
               order by $a/prolog/title return ($a/prolog/title, $a/epilog/country)"#,
        )
        .unwrap();
        let analysis = analyze(&query).unwrap();
        let tests: Vec<&Expr> =
            fragment_tests(&query, &analysis).iter().map(|test| test.expr).collect();
        let filter = filter_query(&analysis, &tests, PathExpr::parse("prolog").unwrap());
        assert_eq!(
            filter,
            parse_query(
                r#"for $a in collection("c")/article
                   where $a/prolog/genre = "x" and exists($a/prolog/authors) return $a/prolog"#
            )
            .unwrap()
        );
    }

    #[test]
    fn reversed_comparison_flips() {
        let a = analysis(
            r#"for $i in collection("items")/Item where 20 > $i/Price return $i"#,
        );
        assert_eq!(a.doc_predicate.unwrap().to_string(), "/Item/Price < 20");
    }

    #[test]
    fn non_flwor_returns_none() {
        let q = parse_query(r#"doc("d")/a/b"#).unwrap();
        assert!(analyze(&q).is_none());
    }

    #[test]
    fn footprint_includes_descendant_paths() {
        let a = analysis(
            r#"for $i in collection("items")/Item
               where contains($i//Description, "good") return $i/Name"#,
        );
        let fp: Vec<String> = a.footprint.iter().map(|p| p.to_string()).collect();
        assert!(fp.contains(&"/Item//Description".to_owned()));
    }
}
