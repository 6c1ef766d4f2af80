//! Data localization: which fragments can contribute to a query?
//!
//! The middleware prunes a sub-query when the fragment provably cannot
//! hold matching data (paper Sec. 5: *"When the query predicates match
//! the fragmentation predicates, the sub-queries are issued only to the
//! corresponding fragments"*). All checks are conservative: in doubt, the
//! fragment stays relevant.

use partix_frag::{FragOp, FragmentationSchema};
use partix_path::analysis::{fragment_relevant_to_path, predicates_may_cosatisfy};
use partix_path::PathExpr;
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
    let doc_root = design.collection.document_root();
    let single_valued = |p: &PathExpr| doc_root.is_some_and(|d| d.is_single_valued(p));
    let fragments = design.fragments.iter().enumerate();
    fragments
        .filter(|(_, frag)| match &frag.op {
            FragOp::Horizontal { predicate } => match &analysis.doc_predicate {
                Some(q) => predicates_may_cosatisfy(predicate, q, &single_valued),
                None => true,
            },
            FragOp::Vertical { projection } => {
                vertical_relevant(&projection.path, &projection.prune, analysis)
            }
            FragOp::Hybrid { unit_path, predicate, .. } => {
                let mut reads = analysis.footprint.iter().chain(&analysis.iterated);
                if !reads.any(|q| fragment_relevant_to_path(unit_path, q)) {
                    return false;
                }
                // unit-level pruning: the query's per-tuple predicate and
                // the fragment's unit predicate live in the same space
                // (paths rooted at the unit element), where the unit
                // schema decides single-valuedness
                let unit_binding_matches = (analysis.binding_path.last_step())
                    .zip(unit_path.last_step())
                    .is_some_and(|(a, b)| a.test == b.test);
                match (&analysis.tuple_predicate, unit_binding_matches) {
                    (Some(q), true) => {
                        let unit = design.collection.schema.resolve(unit_path);
                        let unit = unit.filter(|_| !unit_path.targets_attribute());
                        let single = |p: &PathExpr| unit.is_some_and(|d| d.is_single_valued(p));
                        predicates_may_cosatisfy(predicate, q, &single)
                    }
                    _ => true,
                }
            }
        })
        .map(|(i, _)| i)
        .collect()
}

/// Vertical fragment relevance: some footprint or iterated path must reach
/// into the projected subtree (or be an ancestor of it), and not provably live
/// inside a pruned-away part: extend a pruned path `g` step for step
/// ([`extends_pinned`]; wildcards after the prefix do not matter, and a
/// path that meets `g` only through leading wildcards keeps the fragment
/// relevant — conservative).
fn vertical_relevant(path: &PathExpr, prune: &[PathExpr], analysis: &QueryAnalysis) -> bool {
    let inside_pruned = |q: &PathExpr| prune.iter().any(|g| extends_pinned(q, g));
    let mut reads = analysis.footprint.iter().chain(&analysis.iterated);
    reads.any(|q| fragment_relevant_to_path(path, q) && !inside_pruned(q))
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

#[cfg(test)]
mod tests {
    use super::*;
    use partix_frag::{FragMode, FragmentDef};
    use partix_path::Predicate;
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
    fn no_analysis_keeps_all() {
        let design = horizontal_design();
        assert_eq!(relevant_fragments(&design, None), [0, 1, 2]);
    }
}
