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
    let frag_root_step = frag_path
        .last_step()
        .expect("fragment paths have at least one step")
        .clone();
    // variables bound above the fragment root: var → remainder of
    // frag_path below the binding
    let mut var_remainders: HashMap<String, PathExpr> = HashMap::new();
    collect_shallow_bindings(&query.expr, collection, frag_path, &mut var_remainders);

    let mut out = query.clone();
    let mut error: Option<RewriteError> = None;
    out.visit_paths_mut(&mut |ps| {
        if error.is_some() {
            return;
        }
        match &ps.start {
            PathStart::Collection(c) if c == collection => {
                let mut abs = ps.path.clone();
                abs.absolute = true;
                if let Some(rel) = abs.strip_prefix(frag_path) {
                    // path extends P: collection(frag)/<root>/rel
                    let mut steps = vec![Step {
                        axis: Axis::Child,
                        test: frag_root_step.test.clone(),
                        position: None,
                    }];
                    steps.extend(rel.steps);
                    ps.start = PathStart::Collection(frag_collection.to_owned());
                    ps.path = PathExpr { absolute: false, steps };
                } else if frag_path.strip_prefix(&abs).is_some() {
                    // binding above P: bind to the fragment root
                    ps.start = PathStart::Collection(frag_collection.to_owned());
                    ps.path = PathExpr {
                        absolute: false,
                        steps: vec![Step {
                            axis: Axis::Child,
                            test: frag_root_step.test.clone(),
                            position: None,
                        }],
                    };
                } else {
                    error = Some(RewriteError::NeedsOtherFragments { path: abs.to_string() });
                }
            }
            PathStart::Collection(_) => {}
            PathStart::Var(v) => {
                if let Some(remainder) = var_remainders.get(v) {
                    // $v was re-bound to the fragment root; its uses must
                    // pass through the remainder of P
                    match ps.path.strip_prefix(remainder) {
                        Some(rel) => {
                            ps.path = rel;
                        }
                        None => {
                            if ps.path.steps.is_empty() && remainder.steps.is_empty() {
                                // $v used bare and binding == frag root
                            } else {
                                error = Some(RewriteError::NeedsOtherFragments {
                                    path: format!("${v}/{}", ps.path),
                                });
                            }
                        }
                    }
                }
            }
            PathStart::Doc(_) => {}
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Record, for every `for`/`let` variable bound to a prefix of
/// `frag_path`, the remaining steps of `frag_path` below the binding.
fn collect_shallow_bindings(
    expr: &Expr,
    collection: &str,
    frag_path: &PathExpr,
    out: &mut HashMap<String, PathExpr>,
) {
    if let Expr::Flwor { clauses, where_clause, order_by, ret } = expr {
        for clause in clauses {
            let (Clause::For(b) | Clause::Let(b)) = clause;
            if let Expr::Path(ps) = &b.expr {
                if let PathStart::Collection(c) = &ps.start {
                    if c == collection {
                        let mut abs = ps.path.clone();
                        abs.absolute = true;
                        if let Some(rem) = frag_path.strip_prefix(&abs) {
                            if !rem.steps.is_empty() {
                                out.insert(b.var.clone(), rem);
                            }
                        }
                    }
                }
            }
            collect_shallow_bindings(
                match clause {
                    Clause::For(b) | Clause::Let(b) => &b.expr,
                },
                collection,
                frag_path,
                out,
            );
        }
        if let Some(w) = where_clause {
            collect_shallow_bindings(w, collection, frag_path, out);
        }
        if let Some((k, _)) = order_by {
            collect_shallow_bindings(k, collection, frag_path, out);
        }
        collect_shallow_bindings(ret, collection, frag_path, out);
    } else if let Expr::Call { args, .. } = expr {
        for a in args {
            collect_shallow_bindings(a, collection, frag_path, out);
        }
    } else if let Expr::Cmp { lhs, rhs, .. } = expr {
        collect_shallow_bindings(lhs, collection, frag_path, out);
        collect_shallow_bindings(rhs, collection, frag_path, out);
    } else if let Expr::And(es) | Expr::Or(es) | Expr::Seq(es) = expr {
        for e in es {
            collect_shallow_bindings(e, collection, frag_path, out);
        }
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
