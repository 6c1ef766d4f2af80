//! The correctness rules of Section 3.3: completeness, disjointness,
//! reconstruction — verified on actual fragment contents.
//!
//! * **Completeness** — each data item of `C` appears in at least one
//!   fragment: a whole document for horizontal fragmentation, a node for
//!   vertical/hybrid.
//! * **Disjointness** — no data item appears in two fragments.
//! * **Reconstruction** — an operator `∇` rebuilds `C` from the
//!   fragments: `∪` for horizontal, the Dewey join `⋈` for vertical and
//!   hybrid, where each unit is a piece placed by its source label. The
//!   rebuilt collection must equal the source exactly.

use crate::def::FragmentationSchema;
use partix_algebra::join::{pieces, reconstruct, reconstruct_keeping, Coverage, Keep, Piece};
use partix_xml::{to_string, Document, NodeId};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One detected violation of a correctness rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A document/node of the source is in no fragment.
    Incomplete { item: String },
    /// A document/node is in more than one fragment.
    Overlapping { item: String, fragments: Vec<String> },
    /// Reconstruction does not yield the source collection.
    NotReconstructible { detail: String },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Incomplete { item } => {
                write!(f, "completeness violated: {item} is in no fragment")
            }
            Violation::Overlapping { item, fragments } => write!(
                f,
                "disjointness violated: {item} is in fragments {}",
                fragments.join(", ")
            ),
            Violation::NotReconstructible { detail } => {
                write!(f, "reconstruction violated: {detail}")
            }
        }
    }
}

/// Outcome of a correctness check.
#[derive(Debug, Clone, Default)]
pub struct CorrectnessReport {
    pub violations: Vec<Violation>,
}

impl CorrectnessReport {
    pub fn is_correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verify the three rules for `design` given the source documents and the
/// produced fragment contents (as returned by
/// [`Fragmenter::fragment_all`](crate::apply::Fragmenter::fragment_all)).
pub fn check_correctness(
    design: &FragmentationSchema,
    sources: &[Document],
    fragments: &[(String, Vec<Document>)],
) -> CorrectnessReport {
    match design.frag_type() {
        crate::def::FragType::Horizontal => check_horizontal(sources, fragments),
        _ => check_node_level(sources, fragments),
    }
}

fn check_horizontal(
    sources: &[Document],
    fragments: &[(String, Vec<Document>)],
) -> CorrectnessReport {
    let mut report = CorrectnessReport::default();
    // map: document name → owning fragments
    let mut owners: HashMap<String, Vec<String>> = HashMap::new();
    for (frag_name, docs) in fragments {
        for doc in docs {
            owners
                .entry(doc.name.clone().unwrap_or_else(|| to_string(doc)))
                .or_default()
                .push(frag_name.clone());
        }
    }
    for src in sources {
        let key = src.name.clone().unwrap_or_else(|| to_string(src));
        match owners.get(&key) {
            None => report.violations.push(Violation::Incomplete { item: key }),
            Some(fs) if fs.len() > 1 => report.violations.push(Violation::Overlapping {
                item: key,
                fragments: fs.clone(),
            }),
            Some(_) => {}
        }
    }
    // reconstruction: ∪ Fi == C
    let merged = partix_algebra::union(fragments.iter().map(|(_, d)| d.clone()));
    if !same_documents(sources, &merged) {
        report.violations.push(Violation::NotReconstructible {
            detail: format!(
                "union of fragments has {} documents, source has {}",
                merged.len(),
                sources.len()
            ),
        });
    }
    report
}

/// Node-level fragments: the pieces the Dewey join places hold every node
/// of their source once, and the join rebuilds the source exactly.
fn check_node_level(
    sources: &[Document],
    fragments: &[(String, Vec<Document>)],
) -> CorrectnessReport {
    let mut report = CorrectnessReport::default();
    let all: Vec<&Document> = fragments.iter().flat_map(|(_, d)| d.iter()).collect();
    // disjointness at the node level: the node counts of the pieces of
    // each source document must sum to the source's node count
    let mut frag_nodes: HashMap<&str, usize> = HashMap::new();
    let size = |piece: Piece<'_>| match piece.node {
        NodeId::ROOT => piece.doc.len(),
        unit => piece.doc.get(unit).map_or(0, |unit| unit.descendants_or_self().count()),
    };
    for (source, pieces) in all.iter().filter_map(|doc| pieces(doc).ok()) {
        *frag_nodes.entry(source).or_default() += pieces.map(size).sum::<usize>();
    }
    for src in sources {
        let key = src.name.clone().unwrap_or_default();
        let got = frag_nodes.get(key.as_str()).copied().unwrap_or(0);
        match got.cmp(&src.len()) {
            std::cmp::Ordering::Less => {
                report.violations.push(Violation::Incomplete {
                    item: format!("{} nodes of document {key:?}", src.len() - got),
                });
            }
            std::cmp::Ordering::Greater => {
                report.violations.push(Violation::Overlapping {
                    item: format!("{} extra nodes of document {key:?}", got - src.len()),
                    fragments: fragments.iter().map(|(n, _)| n.clone()).collect(),
                });
            }
            std::cmp::Ordering::Equal => {}
        }
    }
    // reconstruction: ⋈ Fi == C
    match reconstruct(&all, Coverage::Complete) {
        Ok(rebuilt) => {
            if !same_documents(sources, &rebuilt) {
                report.violations.push(Violation::NotReconstructible {
                    detail: "reconstructed documents differ from the source".into(),
                });
            }
        }
        Err(e) => report
            .violations
            .push(Violation::NotReconstructible { detail: e.to_string() }),
    }
    report
}

/// Reassemble the source collection from fragment contents, for any
/// fragment family.
///
/// For a vertical design `fragments` may hold only some of the design's
/// fragments, by name: one that is not listed was deliberately not read,
/// and the documents come back without its subtrees
/// ([`Coverage::Partial`]). With every fragment listed, a piece that has
/// lost an earlier sibling is an error ([`Coverage::Complete`]).
pub fn reconstruct_any(
    design: &FragmentationSchema,
    fragments: &[(String, Vec<Document>)],
) -> Result<Vec<Document>, String> {
    match design.frag_type() {
        crate::def::FragType::Horizontal => Ok(partix_algebra::union(
            fragments.iter().map(|(_, d)| d.clone()),
        )),
        _ => rebuild(design, fragments, Keep::all()),
    }
}

/// [`reconstruct_any`] over shared documents. Horizontal designs never
/// deep-copy: the source collection is the union of the fragments, so
/// the `Arc`s are re-sorted by document name and returned as-is (the
/// same ordering [`partix_algebra::union`] produces). Vertical/hybrid
/// designs build new documents — the Dewey join copies each piece once,
/// straight out of the shared document it was fetched as, only what `keep`
/// reaches of it (all of it without one).
pub fn reconstruct_any_shared(
    design: &FragmentationSchema,
    fragments: &[(String, Vec<Arc<Document>>)],
    keep: Option<&Keep>,
) -> Result<Vec<Arc<Document>>, String> {
    match design.frag_type() {
        crate::def::FragType::Horizontal => {
            let mut all: Vec<Arc<Document>> = fragments
                .iter()
                .flat_map(|(_, docs)| docs.iter().cloned())
                .collect();
            all.sort_by(|a, b| a.name.cmp(&b.name));
            Ok(all)
        }
        _ => {
            let rebuilt = rebuild(design, fragments, keep.unwrap_or(Keep::all()))?;
            Ok(rebuilt.into_iter().map(Arc::new).collect())
        }
    }
}

/// The Dewey join of a vertical or hybrid design, over owned or shared
/// pieces alike.
fn rebuild<D: Borrow<Document>>(
    design: &FragmentationSchema,
    fragments: &[(String, Vec<D>)],
    keep: &Keep,
) -> Result<Vec<Document>, String> {
    let read = |def: &crate::def::FragmentDef| fragments.iter().any(|(name, _)| *name == def.name);
    let coverage =
        if design.fragments.iter().all(read) { Coverage::Complete } else { Coverage::Partial };
    let all: Vec<&Document> =
        fragments.iter().flat_map(|(_, docs)| docs.iter().map(Borrow::borrow)).collect();
    reconstruct_keeping(&all, coverage, keep).map_err(|e| e.to_string())
}

/// Structural multiset equality of two document lists (by name when
/// available, else serialization).
fn same_documents(a: &[Document], b: &[Document]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut sa: Vec<String> = a.iter().map(to_string).collect();
    let mut sb: Vec<String> = b.iter().map(to_string).collect();
    sa.sort();
    sb.sort();
    sa == sb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::Fragmenter;
    use crate::def::{FragMode, FragmentDef, FragmentationSchema};
    use partix_path::{PathExpr, Predicate};
    use partix_schema::builtin::virtual_store;
    use partix_schema::{CollectionDef, RepoKind};
    use partix_xml::parse;
    use std::sync::Arc;

    fn p(s: &str) -> PathExpr {
        PathExpr::parse(s).unwrap()
    }

    fn pr(s: &str) -> Predicate {
        Predicate::parse(s).unwrap()
    }

    fn citems() -> CollectionDef {
        CollectionDef::new(
            "Citems",
            Arc::new(virtual_store()),
            p("/Store/Items/Item"),
            RepoKind::MultipleDocuments,
        )
    }

    fn cstore() -> CollectionDef {
        CollectionDef::new(
            "Cstore",
            Arc::new(virtual_store()),
            p("/Store"),
            RepoKind::SingleDocument,
        )
    }

    fn items() -> Vec<Document> {
        ["CD", "DVD", "CD", "BOOK"]
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut d = parse(&format!(
                    "<Item><Code>{i}</Code><Section>{s}</Section></Item>"
                ))
                .unwrap();
                d.name = Some(format!("i{i}"));
                d
            })
            .collect()
    }

    #[test]
    fn correct_horizontal_design_passes() {
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::horizontal("F1", pr(r#"/Item/Section = "CD""#)),
                FragmentDef::horizontal("F2", pr(r#"not(/Item/Section = "CD")"#)),
            ],
        )
        .unwrap();
        let docs = items();
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let report = check_correctness(&design, &docs, &frags);
        assert!(report.is_correct(), "{:?}", report.violations);
    }

    #[test]
    fn incomplete_horizontal_detected() {
        // predicates CD / DVD only: BOOK item falls through
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::horizontal("F1", pr(r#"/Item/Section = "CD""#)),
                FragmentDef::horizontal("F2", pr(r#"/Item/Section = "DVD""#)),
            ],
        )
        .unwrap();
        let docs = items();
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let report = check_correctness(&design, &docs, &frags);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Incomplete { .. })));
    }

    #[test]
    fn overlapping_horizontal_detected() {
        // CD and "not DVD" overlap on CD items
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::horizontal("F1", pr(r#"/Item/Section = "CD""#)),
                FragmentDef::horizontal("F2", pr(r#"not(/Item/Section = "DVD")"#)),
            ],
        )
        .unwrap();
        let docs = items();
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let report = check_correctness(&design, &docs, &frags);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Overlapping { .. })));
    }

    fn rich_items() -> Vec<Document> {
        (0..3)
            .map(|i| {
                let mut d = parse(&format!(
                    "<Item><Code>{i}</Code><Section>CD</Section>\
                     <PictureList><Picture><Name>p{i}</Name><Description>d</Description>\
                     <ModificationDate>t</ModificationDate><OriginalPath>o</OriginalPath>\
                     <ThumbPath>t</ThumbPath></Picture></PictureList></Item>"
                ))
                .unwrap();
                d.name = Some(format!("i{i}"));
                d
            })
            .collect()
    }

    #[test]
    fn correct_vertical_design_passes() {
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::vertical("F1", p("/Item"), vec![p("/Item/PictureList")]),
                FragmentDef::vertical("F2", p("/Item/PictureList"), vec![]),
            ],
        )
        .unwrap();
        let docs = rich_items();
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let report = check_correctness(&design, &docs, &frags);
        assert!(report.is_correct(), "{:?}", report.violations);
    }

    #[test]
    fn incomplete_vertical_detected() {
        // PictureList pruned from F1 but no fragment holds it
        let design = FragmentationSchema::new(
            citems(),
            vec![FragmentDef::vertical(
                "F1",
                p("/Item"),
                vec![p("/Item/PictureList")],
            )],
        )
        .unwrap();
        let docs = rich_items();
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let report = check_correctness(&design, &docs, &frags);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Incomplete { .. })));
    }

    #[test]
    fn overlapping_vertical_detected() {
        // F1 keeps everything AND F2 duplicates PictureList
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::vertical("F1", p("/Item"), vec![]),
                FragmentDef::vertical("F2", p("/Item/PictureList"), vec![]),
            ],
        )
        .unwrap();
        let docs = rich_items();
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let report = check_correctness(&design, &docs, &frags);
        assert!(!report.is_correct());
    }

    fn store_doc() -> Document {
        let mut d = parse(
            "<Store><Sections><Section><Code>1</Code><Name>CD</Name></Section></Sections>\
             <Items>\
               <Item><Code>1</Code><Name>a</Name><Description>x</Description><Section>CD</Section></Item>\
               <Item><Code>2</Code><Name>b</Name><Description>y</Description><Section>DVD</Section></Item>\
               <Item><Code>3</Code><Name>c</Name><Description>z</Description><Section>VHS</Section></Item>\
             </Items>\
             <Employees><Employee><Code>9</Code><Name>Ana</Name></Employee></Employees></Store>",
        )
        .unwrap();
        d.name = Some("store".to_owned());
        d
    }

    fn storehyb_design(mode: FragMode) -> FragmentationSchema {
        FragmentationSchema::new(
            cstore(),
            vec![
                FragmentDef::hybrid(
                    "F1",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "CD""#),
                    mode,
                ),
                FragmentDef::hybrid(
                    "F2",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "DVD""#),
                    mode,
                ),
                FragmentDef::hybrid(
                    "F3",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section != "CD" and /Item/Section != "DVD""#),
                    mode,
                ),
                FragmentDef::vertical("F4", p("/Store"), vec![p("/Store/Items")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn correct_hybrid_design_passes_both_modes() {
        for mode in [FragMode::SingleDoc, FragMode::ManySmallDocs] {
            let design = storehyb_design(mode);
            let docs = vec![store_doc()];
            let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
            let report = check_correctness(&design, &docs, &frags);
            assert!(report.is_correct(), "{mode:?}: {:?}", report.violations);
        }
    }

    #[test]
    fn incomplete_hybrid_detected() {
        let design = FragmentationSchema::new(
            cstore(),
            vec![
                FragmentDef::hybrid(
                    "F1",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "CD""#),
                    FragMode::SingleDoc,
                ),
                FragmentDef::vertical("F4", p("/Store"), vec![p("/Store/Items")]),
            ],
        )
        .unwrap();
        let docs = vec![store_doc()];
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let report = check_correctness(&design, &docs, &frags);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Incomplete { .. })));
    }

    #[test]
    fn overlapping_hybrid_detected_both_modes() {
        for mode in [FragMode::SingleDoc, FragMode::ManySmallDocs] {
            // F1's CD items are F2's too
            let mut design = storehyb_design(mode);
            let all = FragmentDef::hybrid("F2", p("/Store/Items/Item"), pr("exists(/Item)"), mode);
            design.fragments[1] = all;
            let docs = vec![store_doc()];
            let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
            let report = check_correctness(&design, &docs, &frags);
            let overlap = |v: &Violation| matches!(v, Violation::Overlapping { .. });
            assert!(report.violations.iter().any(overlap), "{mode:?}: {:?}", report.violations);
        }
    }

    #[test]
    fn hybrid_reconstruction_restores_content() {
        let design = storehyb_design(FragMode::SingleDoc);
        let docs = vec![store_doc()];
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let rebuilt = reconstruct_any(&design, &frags).unwrap();
        assert_eq!(rebuilt, docs);
    }

    #[test]
    fn vertical_reconstruction_exact() {
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::vertical("F1", p("/Item"), vec![p("/Item/PictureList")]),
                FragmentDef::vertical("F2", p("/Item/PictureList"), vec![]),
            ],
        )
        .unwrap();
        let docs = rich_items();
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let rebuilt = reconstruct_any(&design, &frags).unwrap();
        assert_eq!(rebuilt.len(), docs.len());
        for (a, b) in docs.iter().zip(&rebuilt) {
            assert_eq!(a, b);
        }
    }
}
