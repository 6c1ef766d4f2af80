//! Data localization: which fragments can contribute to a query?
//!
//! The middleware prunes a sub-query when the fragment provably cannot
//! hold matching data (paper Sec. 5: *"When the query predicates match
//! the fragmentation predicates, the sub-queries are issued only to the
//! corresponding fragments"*). All checks are conservative: in doubt, the
//! fragment stays relevant.

use partix_frag::{FragOp, FragmentationSchema};
use partix_path::analysis::{
    fragment_relevant_to_path, predicates_may_cosatisfy,
};
use partix_path::{Axis, NodeTest, PathExpr, Predicate, Step};
use partix_query::pushdown::QueryAnalysis;

/// Decide relevance of every fragment in `design` for a query with the
/// given pushdown analysis. Returns fragment indexes in definition order.
pub fn relevant_fragments(
    design: &FragmentationSchema,
    analysis: Option<&QueryAnalysis>,
) -> Vec<usize> {
    let Some(analysis) = analysis else {
        // nothing known about the query: every fragment participates
        return (0..design.fragments.len()).collect();
    };
    let doc_schema = design.collection.document_schema();
    let single_valued = |p: &PathExpr| {
        doc_schema.as_ref().is_some_and(|s| s.is_single_valued(p))
    };
    design
        .fragments
        .iter()
        .enumerate()
        .filter(|(_, frag)| match &frag.op {
            FragOp::Horizontal { predicate } => match &analysis.doc_predicate {
                Some(q) => predicates_may_cosatisfy(predicate, q, &single_valued),
                None => true,
            },
            FragOp::Vertical { projection } => vertical_relevant(
                &projection.path,
                &projection.prune,
                &analysis.footprint,
            ),
            FragOp::Hybrid { unit_path, predicate, .. } => {
                let path_relevant = analysis
                    .footprint
                    .iter()
                    .any(|q| fragment_relevant_to_path(unit_path, q));
                if !path_relevant {
                    return false;
                }
                // unit-level pruning: the query's per-tuple predicate and
                // the fragment's unit predicate live in the same space
                // (paths rooted at the unit element), where the unit
                // schema decides single-valuedness
                let unit_binding_matches = analysis
                    .binding_path
                    .last_step()
                    .zip(unit_path.last_step())
                    .is_some_and(|(a, b)| a.test == b.test);
                match (&analysis.tuple_predicate, unit_binding_matches) {
                    (Some(q), true) => {
                        let unit_schema = design
                            .collection
                            .schema
                            .subschema(unit_path);
                        let unit_single = |p: &PathExpr| {
                            unit_schema.as_ref().is_some_and(|s| s.is_single_valued(p))
                        };
                        predicates_may_cosatisfy(predicate, q, &unit_single)
                    }
                    _ => true,
                }
            }
        })
        .map(|(i, _)| i)
        .collect()
}

/// Vertical fragment relevance: some footprint path must reach into the
/// projected subtree (or be an ancestor of it), and not live entirely
/// inside a pruned-away part.
fn vertical_relevant(path: &PathExpr, prune: &[PathExpr], footprint: &[PathExpr]) -> bool {
    footprint.iter().any(|q| {
        fragment_relevant_to_path(path, q) && !strictly_inside_any(q, prune)
    })
}

/// Is `q` provably contained in the subtree pruned by one of `prune`?
///
/// Decided via exact step-prefix containment ([`extends_pinned`]): when
/// `q`'s leading steps are exactly `g`, every node `q` selects lies under
/// a `g` node — wildcards *after* the prefix do not affect this. Paths
/// that relate to `g` only through leading wildcards are left undecided
/// (fragment stays relevant — conservative).
fn strictly_inside_any(q: &PathExpr, prune: &[PathExpr]) -> bool {
    prune.iter().any(|g| extends_pinned(q, g))
}

/// Does `q` extend `prefix` step for step, pinning every position
/// `prefix` pins? Then every node `q` selects lies under a `prefix` node.
/// [`PathExpr::strip_prefix`] alone lets an unpinned step pass for a
/// pinned one — right for re-rooting onto a fragment that holds only that
/// occurrence, wrong here: `/a/b/c` also selects under the `b`s that
/// `/a/b[2]` does not name.
pub(crate) fn extends_pinned(q: &PathExpr, prefix: &PathExpr) -> bool {
    let pinned = prefix.steps.iter().zip(&q.steps);
    q.strip_prefix(prefix).is_some()
        && pinned.into_iter().all(|(p, q)| p.position.is_none() || p.position == q.position)
}

/// Re-root a hybrid fragment's unit-level predicate (paths like
/// `/Item/Section`) to the collection's document space (paths like
/// `/Store/Items/Item/Section`) so it can be compared with the query's
/// pushed-down predicate.
pub fn align_unit_predicate(predicate: &Predicate, unit_path: &PathExpr) -> Predicate {
    map_predicate_paths(predicate, &|p| {
        if p.steps.is_empty() {
            return p.clone();
        }
        // replace the first step (the unit root label) with the unit path
        let mut steps: Vec<Step> = unit_path.steps.clone();
        steps.extend(p.steps.iter().skip(1).cloned());
        PathExpr { absolute: true, steps }
    })
}

fn map_predicate_paths(pred: &Predicate, f: &dyn Fn(&PathExpr) -> PathExpr) -> Predicate {
    use partix_path::pred::BoolFn;
    match pred {
        Predicate::Cmp { path, op, value } => {
            Predicate::Cmp { path: f(path), op: *op, value: value.clone() }
        }
        Predicate::FnCmp { func, path, op, value } => Predicate::FnCmp {
            func: *func,
            path: f(path),
            op: *op,
            value: value.clone(),
        },
        Predicate::Bool(b) => Predicate::Bool(match b {
            BoolFn::Contains(p, s) => BoolFn::Contains(f(p), s.clone()),
            BoolFn::StartsWith(p, s) => BoolFn::StartsWith(f(p), s.clone()),
            BoolFn::Empty(p) => BoolFn::Empty(f(p)),
        }),
        Predicate::Exists(p) => Predicate::Exists(f(p)),
        Predicate::And(ps) => {
            Predicate::And(ps.iter().map(|p| map_predicate_paths(p, f)).collect())
        }
        Predicate::Or(ps) => {
            Predicate::Or(ps.iter().map(|p| map_predicate_paths(p, f)).collect())
        }
        Predicate::Not(p) => Predicate::Not(Box::new(map_predicate_paths(p, f))),
    }
}

/// Build the absolute path of a fragment's stored document root — what a
/// sub-query's first step must test. For a vertical fragment this is the
/// last step of its projection path; for hybrid FragMode2 the stored root
/// is the collection root itself.
pub fn fragment_root_step(projection_path: &PathExpr) -> Option<Step> {
    projection_path.last_step().map(|s| Step {
        axis: Axis::Child,
        test: s.test.clone(),
        position: None,
    })
}

/// Does a node-test name an element called `label`?
pub fn step_is_named(step: &Step, label: &str) -> bool {
    matches!(&step.test, NodeTest::Name(n) if n == label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_frag::{FragMode, FragmentDef};
    use partix_query::parse_query;
    use partix_schema::builtin::virtual_store;
    use partix_schema::{CollectionDef, RepoKind};
    use std::sync::Arc;

    fn p(s: &str) -> PathExpr {
        PathExpr::parse(s).unwrap()
    }

    fn pr(s: &str) -> Predicate {
        Predicate::parse(s).unwrap()
    }

    fn citems() -> CollectionDef {
        CollectionDef::new(
            "items",
            Arc::new(virtual_store()),
            p("/Store/Items/Item"),
            RepoKind::MultipleDocuments,
        )
    }

    fn horizontal_design() -> FragmentationSchema {
        FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::horizontal("f_cd", pr(r#"/Item/Section = "CD""#)),
                FragmentDef::horizontal("f_dvd", pr(r#"/Item/Section = "DVD""#)),
                FragmentDef::horizontal(
                    "f_rest",
                    pr(r#"/Item/Section != "CD" and /Item/Section != "DVD""#),
                ),
            ],
        )
        .unwrap()
    }

    fn analyze(src: &str) -> QueryAnalysis {
        partix_query::pushdown::analyze(&parse_query(src).unwrap()).unwrap()
    }

    #[test]
    fn horizontal_pruning_on_matching_predicate() {
        let design = horizontal_design();
        let a = analyze(
            r#"for $i in collection("items")/Item where $i/Section = "CD" return $i/Name"#,
        );
        assert_eq!(relevant_fragments(&design, Some(&a)), [0]);
    }

    #[test]
    fn horizontal_no_predicate_keeps_all() {
        let design = horizontal_design();
        let a = analyze(r#"for $i in collection("items")/Item return $i/Name"#);
        assert_eq!(relevant_fragments(&design, Some(&a)), [0, 1, 2]);
    }

    #[test]
    fn horizontal_unrelated_predicate_keeps_all() {
        let design = horizontal_design();
        let a = analyze(
            r#"for $i in collection("items")/Item where contains($i/Name, "x") return $i"#,
        );
        assert_eq!(relevant_fragments(&design, Some(&a)), [0, 1, 2]);
    }

    #[test]
    fn horizontal_disjunction_selects_two() {
        let design = horizontal_design();
        let a = analyze(
            r#"for $i in collection("items")/Item
               where $i/Section = "CD" or $i/Section = "DVD" return $i"#,
        );
        assert_eq!(relevant_fragments(&design, Some(&a)), [0, 1]);
    }

    fn vertical_design() -> FragmentationSchema {
        FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::vertical("f_main", p("/Item"), vec![p("/Item/PictureList")]),
                FragmentDef::vertical("f_pics", p("/Item/PictureList"), vec![]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn vertical_path_pruning() {
        let design = vertical_design();
        // touches only item names → pictures fragment irrelevant
        let a = analyze(r#"for $i in collection("items")/Item/Name return $i"#);
        assert_eq!(relevant_fragments(&design, Some(&a)), [0]);
        // touches only pictures, which live strictly inside the pruned
        // subtree → only the pictures fragment is consulted
        let a = analyze(
            r#"for $x in collection("items")/Item/PictureList/Picture return $x"#,
        );
        assert_eq!(relevant_fragments(&design, Some(&a)), [1]);
    }

    #[test]
    fn vertical_pruned_subtree_excluded_from_main() {
        // query entirely inside the pruned PictureList: the main fragment
        // (which pruned it) keeps only ancestor relevance via /Item root…
        let design = vertical_design();
        let a = analyze(
            r#"count(collection("items")/Item/PictureList/Picture/OriginalPath)"#,
        );
        // footprint /Item/PictureList/Picture/OriginalPath is strictly
        // inside the pruned subtree → f_main NOT relevant; f_pics is
        let rel = relevant_fragments(&design, Some(&a));
        assert_eq!(rel, [1]);
    }

    #[test]
    fn wildcard_footprint_keeps_everything() {
        let design = vertical_design();
        let a = analyze(r#"count(collection("items")//Description)"#);
        assert_eq!(relevant_fragments(&design, Some(&a)), [0, 1]);
    }

    #[test]
    fn hybrid_alignment_and_pruning() {
        let cstore = CollectionDef::new(
            "store",
            Arc::new(virtual_store()),
            p("/Store"),
            RepoKind::SingleDocument,
        );
        let design = FragmentationSchema::new(
            cstore,
            vec![
                FragmentDef::hybrid(
                    "f_cd",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "CD""#),
                    FragMode::SingleDoc,
                ),
                FragmentDef::hybrid(
                    "f_dvd",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "DVD""#),
                    FragMode::SingleDoc,
                ),
                FragmentDef::vertical("f_rest", p("/Store"), vec![p("/Store/Items")]),
            ],
        )
        .unwrap();
        // query for CD items: only f_cd
        let a = analyze(
            r#"for $i in collection("store")/Store/Items/Item
               where $i/Section = "CD" return $i/Name"#,
        );
        assert_eq!(relevant_fragments(&design, Some(&a)), [0]);
        // query over Sections: only the prune fragment
        let a = analyze(
            r#"for $s in collection("store")/Store/Sections/Section return $s/Name"#,
        );
        assert_eq!(relevant_fragments(&design, Some(&a)), [2]);
    }

    #[test]
    fn align_unit_predicate_rewrites_first_step() {
        let aligned = align_unit_predicate(
            &pr(r#"/Item/Section = "CD""#),
            &p("/Store/Items/Item"),
        );
        assert_eq!(aligned.to_string(), r#"/Store/Items/Item/Section = "CD""#);
    }

    #[test]
    fn no_analysis_keeps_all() {
        let design = horizontal_design();
        assert_eq!(relevant_fragments(&design, None), [0, 1, 2]);
    }
}
