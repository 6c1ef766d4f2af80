//! Frequency mining over a query log: which `path = value` predicates
//! does the workload actually filter on, and how often?
//!
//! The split-path the advisor re-fragments on no longer has to be
//! guessed by an operator ([`AdvisorConfig::split_path`]): feed the raw
//! query texts the service answered ([`AdvisorConfig::query_log`]) and
//! the miner walks each parsed AST for equality predicates on paths
//! rooted at a `for $v in collection(…)/…` binding. The mined paths,
//! ranked by how many queries filter on them, become horizontal
//! re-split candidates that compete with the operator-supplied path and
//! the current design under the same cost model — mining proposes,
//! [`crate::cost::score`] disposes.
//!
//! Unparsable log entries are skipped (a hostile or truncated log entry
//! must not poison the advice), and the whole pass is deterministic:
//! ties rank lexicographically.
//!
//! [`AdvisorConfig::split_path`]: crate::AdvisorConfig
//! [`AdvisorConfig::query_log`]: crate::AdvisorConfig

use partix_path::{CmpOp, PathExpr};
use partix_query::ast::{Clause, Expr, PathStart};
use partix_query::parse_query;
use std::collections::BTreeMap;

/// One mined predicate family: the workload compares `path` (absolute
/// from the document root) against literal values in `hits` places.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedPredicate {
    /// Collection the binding iterates.
    pub collection: String,
    /// Absolute value path, e.g. `/Sale/Region`.
    pub path: PathExpr,
    /// Equality comparisons against a literal seen across the log.
    pub hits: usize,
}

/// Mine equality predicates from a log of raw query texts, most
/// frequent first (ties broken by collection, then path text).
pub fn mine_predicates(log: &[String]) -> Vec<MinedPredicate> {
    let mut counts: BTreeMap<(String, String), (PathExpr, usize)> = BTreeMap::new();
    for text in log {
        let Ok(query) = parse_query(text) else { continue };
        let mut bindings: Vec<(String, (String, PathExpr))> = Vec::new();
        walk(&query.expr, &mut bindings, &mut counts);
    }
    let mut mined: Vec<MinedPredicate> = counts
        .into_iter()
        .map(|((collection, _), (path, hits))| MinedPredicate { collection, path, hits })
        .collect();
    mined.sort_by(|a, b| {
        b.hits
            .cmp(&a.hits)
            .then_with(|| a.collection.cmp(&b.collection))
            .then_with(|| a.path.to_string().cmp(&b.path.to_string()))
    });
    mined
}

/// The mined split paths for one collection, hottest first.
pub fn mined_split_paths(mined: &[MinedPredicate], collection: &str, top: usize) -> Vec<PathExpr> {
    mined
        .iter()
        .filter(|m| m.collection == collection)
        .take(top)
        .map(|m| m.path.clone())
        .collect()
}

/// Join a binding's root path with a relative step path into one
/// absolute path (`/Sale` + `Region` → `/Sale/Region`).
fn join(root: &PathExpr, rel: &PathExpr) -> PathExpr {
    let mut out = root.clone();
    out.absolute = true;
    out.steps.extend(rel.steps.iter().cloned());
    out
}

fn walk(
    expr: &Expr,
    bindings: &mut Vec<(String, (String, PathExpr))>,
    counts: &mut BTreeMap<(String, String), (PathExpr, usize)>,
) {
    match expr {
        Expr::Flwor { clauses, where_clause, order_by, ret } => {
            let depth = bindings.len();
            for clause in clauses {
                match clause {
                    Clause::For(b) | Clause::Let(b) => {
                        walk(&b.expr, bindings, counts);
                        if let Expr::Path(ps) = &b.expr {
                            if let PathStart::Collection(name) = &ps.start {
                                bindings
                                    .push((b.var.clone(), (name.clone(), ps.path.clone())));
                            }
                        }
                    }
                }
            }
            if let Some(w) = where_clause {
                walk(w, bindings, counts);
            }
            if let Some((k, _)) = order_by {
                walk(k, bindings, counts);
            }
            walk(ret, bindings, counts);
            bindings.truncate(depth);
        }
        Expr::Cmp { lhs, op, rhs } => {
            let hit = match (&**lhs, &**rhs) {
                (Expr::Path(ps), Expr::Str(_) | Expr::Num(_))
                | (Expr::Str(_) | Expr::Num(_), Expr::Path(ps))
                    if *op == CmpOp::Eq =>
                {
                    Some(ps)
                }
                _ => None,
            };
            if let Some(ps) = hit {
                if let PathStart::Var(var) = &ps.start {
                    if let Some((_, (collection, root))) =
                        bindings.iter().rev().find(|(v, _)| v == var)
                    {
                        let path = join(root, &ps.path);
                        let key = (collection.clone(), path.to_string());
                        counts.entry(key).or_insert_with(|| (path, 0)).1 += 1;
                    }
                }
            }
            walk(lhs, bindings, counts);
            walk(rhs, bindings, counts);
        }
        Expr::Arith { lhs, rhs, .. } => {
            walk(lhs, bindings, counts);
            walk(rhs, bindings, counts);
        }
        Expr::Neg(e) => walk(e, bindings, counts),
        Expr::If { cond, then, els } => {
            walk(cond, bindings, counts);
            walk(then, bindings, counts);
            walk(els, bindings, counts);
        }
        Expr::And(es) | Expr::Or(es) | Expr::Seq(es) => {
            for e in es {
                walk(e, bindings, counts);
            }
        }
        Expr::Call { args, .. } => {
            for a in args {
                walk(a, bindings, counts);
            }
        }
        Expr::Element { children, .. } => {
            for c in children {
                walk(c, bindings, counts);
            }
        }
        Expr::Path(_) | Expr::Str(_) | Expr::Num(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> Vec<String> {
        vec![
            r#"sum(for $s in collection("facts")/Sale
                   where $s/Region = "NORTH" return number($s/Amount))"#
                .into(),
            r#"count(for $s in collection("facts")/Sale
                     where $s/Region = "SOUTH" return $s)"#
                .into(),
            r#"count(for $s in collection("facts")/Sale
                     where $s/Region = "EAST" and $s/Quarter = "Q4" return $s)"#
                .into(),
            r#"for $p in collection("dim_products")/Product
               where $p/Category = "AUDIO" return $p/Name"#
                .into(),
            "not a query at all ~~~".into(),
        ]
    }

    #[test]
    fn region_predicates_rank_first() {
        let mined = mine_predicates(&log());
        assert_eq!(mined[0].collection, "facts");
        assert_eq!(mined[0].path.to_string(), "/Sale/Region");
        assert_eq!(mined[0].hits, 3);
        // Quarter and Category appear once each
        assert!(mined.iter().any(|m| m.path.to_string() == "/Sale/Quarter" && m.hits == 1));
        assert!(mined
            .iter()
            .any(|m| m.collection == "dim_products" && m.path.to_string() == "/Product/Category"));
    }

    #[test]
    fn split_paths_filter_by_collection_and_cap() {
        let mined = mine_predicates(&log());
        let paths = mined_split_paths(&mined, "facts", 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].to_string(), "/Sale/Region");
        assert!(mined_split_paths(&mined, "absent", 5).is_empty());
    }

    #[test]
    fn unparsable_and_non_equality_predicates_are_ignored() {
        let log = vec![
            r#"for $i in collection("c")/Item where number($i/Code) < 50 return $i"#.into(),
            "((((".into(),
        ];
        // range predicates don't define value-based horizontal fragments
        assert!(mine_predicates(&log).is_empty());
    }

    #[test]
    fn deterministic_ranking() {
        let a = mine_predicates(&log());
        let b = mine_predicates(&log());
        assert_eq!(a, b);
    }
}
