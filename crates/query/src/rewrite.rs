//! Rewriting queries onto vertical fragments.
//!
//! A vertical fragment `F := ⟨C, π_{P,Γ}⟩` stores, for each source
//! document, the subtree rooted at the node selected by `P` — as a
//! document whose root is labelled by `P`'s final step. A query written
//! against the source collection must therefore have its paths re-rooted
//! before it can run on a fragment node. Two situations arise:
//!
//! * a query path **extends** `P` (e.g. query `/article/prolog/title`,
//!   fragment `P = /article/prolog`): strip `P`, prepend the fragment
//!   root label;
//! * a binding path is a **prefix** of `P` (e.g. `for $a in
//!   collection("articles")/article` with the same fragment): bind the
//!   variable to the fragment root instead, and strip the remainder of
//!   `P` from every use of the variable.
//!
//! If any path cannot be rewritten (it leads outside the projected
//! subtree), the query is not answerable by this fragment alone and
//! [`rewrite_for_vertical`] reports [`RewriteError::NeedsOtherFragments`]
//! — the middleware then falls back to reconstruct-then-evaluate.

use crate::ast::{Clause, Expr, PathStart, Query};
use partix_path::{Axis, PathExpr, Step};
use std::collections::HashMap;
use std::fmt;

/// Why a query could not be rewritten onto a single fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// Some path leaves the projected subtree: the query needs data from
    /// more than this fragment.
    NeedsOtherFragments { path: String },
    /// The query touches documents (`doc(…)`) we cannot re-root.
    UnsupportedDocAccess,
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::NeedsOtherFragments { path } => {
                write!(f, "path {path} is not contained in the fragment's subtree")
            }
            RewriteError::UnsupportedDocAccess => {
                write!(f, "doc() access cannot be re-rooted onto a fragment")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// Rewrite `query` so it runs against vertical fragment collection
/// `frag_collection`, whose documents are the subtrees projected by
/// `frag_path` (an absolute path in the source document) out of source
/// collection `collection`.
pub fn rewrite_for_vertical(
    query: &Query,
    collection: &str,
    frag_path: &PathExpr,
    frag_collection: &str,
) -> Result<Query, RewriteError> {
    let test = frag_path.last_step().expect("fragment paths have at least one step").test.clone();
    let root = Step { axis: Axis::Child, test, position: None };
    // variables bound above the fragment root: var → remainder of
    // frag_path below the binding
    let mut var_remainders: HashMap<String, PathExpr> = HashMap::new();
    let mut loose = None;
    collect_shallow_bindings(&query.expr, collection, frag_path, &mut var_remainders, &mut loose);
    if let Some(var) = loose {
        return Err(RewriteError::NeedsOtherFragments { path: format!("${var}") });
    }

    let mut out = query.clone();
    let mut error: Option<RewriteError> = None;
    out.visit_paths_mut(&mut |ps| {
        if error.is_some() {
            return;
        }
        match &ps.start {
            PathStart::Collection(c) if c == collection => {
                let abs = PathExpr { absolute: true, ..ps.path.clone() };
                let above =
                    frag_path.strip_prefix(&abs).is_some() && !pins_past_first(&abs, frag_path);
                // a path extending P: collection(frag)/<root>/rel; a
                // binding above P: bound to the fragment root
                let rel = match reroot(&abs, frag_path) {
                    Some(rel) => rel.steps,
                    None if above => Vec::new(),
                    None => {
                        error = Some(RewriteError::NeedsOtherFragments { path: abs.to_string() });
                        return;
                    }
                };
                ps.start = PathStart::Collection(frag_collection.to_owned());
                let steps = [root.clone()].into_iter().chain(rel).collect();
                ps.path = PathExpr { absolute: false, steps };
            }
            // $v was re-bound to the fragment root; its uses must pass
            // through the remainder of P
            PathStart::Var(v) => match var_remainders.get(v).map(|rem| reroot(&ps.path, rem)) {
                Some(Some(rel)) => ps.path = rel,
                Some(None) => {
                    let path = format!("${v}/{}", ps.path);
                    error = Some(RewriteError::NeedsOtherFragments { path });
                }
                None => {}
            },
            PathStart::Collection(_) | PathStart::Doc(_) => {}
        }
    });
    error.map_or(Ok(out), Err)
}

/// `path` below `prefix`, re-rooted onto the one node `prefix` selects.
fn reroot(path: &PathExpr, prefix: &PathExpr) -> Option<PathExpr> {
    path.strip_prefix(prefix).filter(|_| !pins_past_first(path, prefix))
}

/// Does `path` pin past `[1]` a step the fragment path leaves unpinned?
/// That step is single-valued (a cut takes one node): no fragment root.
fn pins_past_first(path: &PathExpr, fragment: &PathExpr) -> bool {
    let mut steps = path.steps.iter().zip(&fragment.steps);
    steps.any(|(q, f)| f.position.is_none() && q.position.is_some_and(|k| k != 1))
}

/// Is `expr` empty whenever every path from `$var` is? Only then does a
/// document lacking the fragment's part entirely, and so unbound here,
/// add nothing to a `for` over `$var` in the source either.
fn empty_without(expr: &Expr, var: &str) -> bool {
    match expr {
        Expr::Path(ps) => {
            matches!(&ps.start, PathStart::Var(v) if v == var) && !ps.path.steps.is_empty()
        }
        Expr::Seq(items) => items.iter().all(|e| empty_without(e, var)),
        Expr::Flwor { clauses, ret, .. } => {
            let over = |c: &Clause| matches!(c, Clause::For(b) if empty_without(&b.expr, var));
            empty_without(ret, var) || clauses.iter().any(over)
        }
        _ => false,
    }
}

/// Record, for every `for`/`let` variable bound to a prefix of
/// `frag_path`, the remaining steps of `frag_path` below the binding; a
/// `for` variable whose return is not [`empty_without`] it is `loose`.
fn collect_shallow_bindings(
    expr: &Expr,
    collection: &str,
    frag_path: &PathExpr,
    out: &mut HashMap<String, PathExpr>,
    loose: &mut Option<String>,
) {
    let children: Vec<&Expr> = match expr {
        Expr::Flwor { clauses, where_clause, order_by, ret } => {
            for clause in clauses {
                let (Clause::For(b) | Clause::Let(b)) = clause;
                if let Expr::Path(ps) = &b.expr {
                    let abs = PathExpr { absolute: true, ..ps.path.clone() };
                    let below = match &ps.start {
                        PathStart::Collection(c) if c == collection => frag_path.strip_prefix(&abs),
                        _ => None,
                    };
                    let shallow =
                        |rem: &PathExpr| !rem.steps.is_empty() && !pins_past_first(&abs, frag_path);
                    if let Some(rem) = below.filter(shallow) {
                        if matches!(clause, Clause::For(_)) && !empty_without(ret, &b.var) {
                            *loose = Some(b.var.clone());
                        }
                        out.insert(b.var.clone(), rem);
                    }
                }
                collect_shallow_bindings(&b.expr, collection, frag_path, out, loose);
            }
            let key = order_by.as_ref().map(|(k, _)| &**k);
            where_clause.as_deref().into_iter().chain(key).chain([&**ret]).collect()
        }
        Expr::Call { args, .. } => args.iter().collect(),
        Expr::Cmp { lhs, rhs, .. } => vec![lhs, rhs],
        Expr::And(es) | Expr::Or(es) | Expr::Seq(es) => es.iter().collect(),
        _ => Vec::new(),
    };
    for child in children {
        collect_shallow_bindings(child, collection, frag_path, out, loose);
    }
}

/// Rename every reference to `old` collection into `new` — used for
/// horizontal fragments, whose documents keep the source schema.
pub fn rewrite_collection_name(query: &Query, old: &str, new: &str) -> Query {
    let mut out = query.clone();
    out.visit_paths_mut(&mut |ps| {
        if let PathStart::Collection(c) = &mut ps.start {
            if c == old {
                *c = new.to_owned();
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, MemProvider};
    use crate::parser::parse_query;
    use partix_xml::parse as parse_xml;

    fn p(s: &str) -> PathExpr {
        PathExpr::parse(s).unwrap()
    }

    #[test]
    fn rename_horizontal() {
        let q = parse_query(r#"for $i in collection("items")/Item return $i"#).unwrap();
        let r = rewrite_collection_name(&q, "items", "items_f1");
        assert_eq!(r.collections(), ["items_f1"]);
    }

    #[test]
    fn extend_rewrite() {
        // query path extends the fragment path
        let q = parse_query(
            r#"for $t in collection("articles")/article/prolog/title return $t"#,
        )
        .unwrap();
        let r = rewrite_for_vertical(&q, "articles", &p("/article/prolog"), "articles_prolog")
            .unwrap();
        assert_eq!(r.collections(), ["articles_prolog"]);
        // binding is now collection("articles_prolog")/prolog/title
        let mut paths = Vec::new();
        r.visit_paths(&mut |ps| paths.push(ps.to_string()));
        assert_eq!(
            paths,
            ["collection(\"articles_prolog\")/prolog/title", "$t"]
        );
    }

    #[test]
    fn shallow_binding_rewrite_and_equivalence() {
        // $a bound above the fragment root; its uses pass through prolog
        let q = parse_query(
            r#"for $a in collection("articles")/article
               where contains($a/prolog/title, "XML")
               return $a/prolog/title"#,
        )
        .unwrap();
        let r = rewrite_for_vertical(&q, "articles", &p("/article/prolog"), "af1").unwrap();
        let mut paths = Vec::new();
        r.visit_paths(&mut |ps| paths.push(ps.to_string()));
        assert_eq!(
            paths,
            ["collection(\"af1\")/prolog", "$a/title", "$a/title"]
        );

        // semantic check: rewritten query over fragments == original over
        // the source collection
        let article = parse_xml(
            "<article><prolog><title>XML rules</title></prolog><body><abstract>x</abstract></body></article>",
        )
        .unwrap();
        let prolog_frag = parse_xml("<prolog><title>XML rules</title></prolog>").unwrap();
        let mut full = MemProvider::new();
        full.add_collection("articles", [article]);
        let mut fragged = MemProvider::new();
        fragged.add_collection("af1", [prolog_frag]);
        let orig = Evaluator::new(&full).eval(&q).unwrap();
        let rew = Evaluator::new(&fragged).eval(&r).unwrap();
        assert_eq!(orig, rew);
    }

    #[test]
    fn path_outside_fragment_fails() {
        let q = parse_query(
            r#"for $a in collection("articles")/article
               return ($a/prolog/title, $a/epilog/country)"#,
        )
        .unwrap();
        let err =
            rewrite_for_vertical(&q, "articles", &p("/article/prolog"), "af1").unwrap_err();
        assert!(matches!(err, RewriteError::NeedsOtherFragments { .. }));
    }

    #[test]
    fn sibling_collection_path_fails() {
        let q = parse_query(
            r#"for $t in collection("articles")/article/epilog/country return $t"#,
        )
        .unwrap();
        let err =
            rewrite_for_vertical(&q, "articles", &p("/article/prolog"), "af1").unwrap_err();
        assert!(matches!(err, RewriteError::NeedsOtherFragments { .. }));
    }

    #[test]
    fn other_collections_untouched() {
        let q = parse_query(
            r#"for $t in collection("articles")/article/prolog/title,
                   $x in collection("other")/thing
               return $t"#,
        )
        .unwrap();
        let r = rewrite_for_vertical(&q, "articles", &p("/article/prolog"), "af1").unwrap();
        let mut colls = r.collections();
        colls.sort();
        assert_eq!(colls, ["af1", "other"]);
    }

    #[test]
    fn bare_variable_use_with_nonempty_remainder_fails() {
        // $a is rebound to the fragment root but used bare — the caller
        // would receive prolog subtrees instead of articles
        let q = parse_query(
            r#"for $a in collection("articles")/article return $a"#,
        )
        .unwrap();
        let err =
            rewrite_for_vertical(&q, "articles", &p("/article/prolog"), "af1").unwrap_err();
        assert!(matches!(err, RewriteError::NeedsOtherFragments { .. }));
    }

    #[test]
    fn descendant_query_inside_fragment() {
        let q = parse_query(
            r#"count(collection("articles")/article/prolog/authors/author)"#,
        )
        .unwrap();
        let r = rewrite_for_vertical(&q, "articles", &p("/article/prolog"), "af1").unwrap();
        let mut paths = Vec::new();
        r.visit_paths(&mut |ps| paths.push(ps.to_string()));
        assert_eq!(paths, ["collection(\"af1\")/prolog/authors/author"]);
    }
}
