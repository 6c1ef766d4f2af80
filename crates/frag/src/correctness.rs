//! The correctness rules of Section 3.3: completeness, disjointness,
//! reconstruction — verified on actual fragment contents.
//!
//! * **Completeness** — each data item of `C` appears in at least one
//!   fragment: a whole document for horizontal fragmentation, a node for
//!   vertical/hybrid.
//! * **Disjointness** — no data item appears in two fragments.
//! * **Reconstruction** — an operator `∇` rebuilds `C` from the
//!   fragments: `∪` for horizontal, the Dewey join `⋈` for vertical.
//!   For hybrid designs, reconstruction restores all content; the order
//!   of *sibling units* selected by different fragments is not tracked
//!   (like tuple order in relational fragmentation), so verification
//!   compares canonicalized documents.

use crate::def::{FragOp, FragmentationSchema};
use partix_algebra::join::{reconstruct, reconstruct_keeping, Coverage, Keep};
use partix_path::{eval_path, PathExpr};
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
        crate::def::FragType::Vertical => check_vertical(sources, fragments),
        crate::def::FragType::Hybrid => check_hybrid(design, sources, fragments),
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

fn check_vertical(
    sources: &[Document],
    fragments: &[(String, Vec<Document>)],
) -> CorrectnessReport {
    let mut report = CorrectnessReport::default();
    let all: Vec<Document> = fragments.iter().flat_map(|(_, d)| d.iter().cloned()).collect();
    // disjointness at the node level: the fragment node counts of each
    // source document must sum to the source's node count
    let mut frag_nodes: HashMap<String, usize> = HashMap::new();
    for doc in &all {
        if let Some(origin) = &doc.origin {
            *frag_nodes.entry(origin.source_doc.clone()).or_default() += doc.len();
        }
    }
    for src in sources {
        let key = src.name.clone().unwrap_or_default();
        let got = frag_nodes.get(&key).copied().unwrap_or(0);
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

fn check_hybrid(
    design: &FragmentationSchema,
    sources: &[Document],
    fragments: &[(String, Vec<Document>)],
) -> CorrectnessReport {
    let mut report = CorrectnessReport::default();
    // unit-level accounting: canonical serialization of each selected unit
    let mut source_units: HashMap<String, isize> = HashMap::new();
    let mut unit_paths: Vec<&PathExpr> = Vec::new();
    for frag in &design.fragments {
        if let FragOp::Hybrid { unit_path, .. } = &frag.op {
            if !unit_paths.contains(&unit_path) {
                unit_paths.push(unit_path);
            }
        }
    }
    for src in sources {
        for unit_path in &unit_paths {
            for id in eval_path(src, unit_path) {
                let unit = src.subtree(id).expect("units are elements");
                *source_units.entry(to_string(&unit)).or_default() += 1;
            }
        }
    }
    let mut seen_units = source_units.clone();
    for ((frag_name, docs), def) in fragments.iter().zip(&design.fragments) {
        match &def.op {
            FragOp::Hybrid { unit_path, mode, .. } => {
                for doc in docs {
                    match mode {
                        crate::def::FragMode::ManySmallDocs => {
                            *seen_units.entry(to_string(doc)).or_default() -= 1;
                        }
                        crate::def::FragMode::SingleDoc => {
                            for id in eval_path(doc, unit_path) {
                                let unit = doc.subtree(id).expect("unit");
                                *seen_units.entry(to_string(&unit)).or_default() -= 1;
                            }
                        }
                    }
                }
            }
            FragOp::Vertical { .. } | FragOp::Horizontal { .. } => {
                let _ = frag_name;
            }
        }
    }
    for (unit, balance) in &seen_units {
        let short: String = unit.chars().take(60).collect();
        if *balance > 0 {
            report.violations.push(Violation::Incomplete {
                item: format!("unit {short}… ({balance} occurrence(s) missing)"),
            });
        } else if *balance < 0 {
            report.violations.push(Violation::Overlapping {
                item: format!("unit {short}… ({} extra occurrence(s))", -balance),
                fragments: design.fragments.iter().map(|f| f.name.clone()).collect(),
            });
        }
    }
    // reconstruction up to unit order: canonicalized comparison
    let rebuilt = reconstruct_any(design, fragments);
    match rebuilt {
        Ok(rebuilt) => {
            let mut src_canon: Vec<String> = sources.iter().map(order_free_form).collect();
            let mut got_canon: Vec<String> = rebuilt.iter().map(order_free_form).collect();
            src_canon.sort();
            got_canon.sort();
            if src_canon != got_canon {
                report.violations.push(Violation::NotReconstructible {
                    detail: "canonicalized reconstruction differs from the source".into(),
                });
            }
        }
        Err(detail) => report.violations.push(Violation::NotReconstructible { detail }),
    }
    report
}

/// Reassemble the source collection from fragment contents, for any
/// fragment family. Hybrid reconstruction restores all content; sibling
/// units selected by different fragments keep fragment order (compare
/// canonically when order matters).
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
/// straight out of the shared document it was fetched as; a vertical one
/// only what `keep` reaches of it (all of it without one).
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
/// pieces alike; a hybrid one rebuilds whole pieces whatever `keep` says.
fn rebuild<D: Borrow<Document>>(
    design: &FragmentationSchema,
    fragments: &[(String, Vec<D>)],
    keep: &Keep,
) -> Result<Vec<Document>, String> {
    if design.frag_type() == crate::def::FragType::Hybrid {
        return reconstruct_hybrid(design, fragments);
    }
    let read = |def: &crate::def::FragmentDef| fragments.iter().any(|(name, _)| *name == def.name);
    let coverage =
        if design.fragments.iter().all(read) { Coverage::Complete } else { Coverage::Partial };
    let all: Vec<&Document> =
        fragments.iter().flat_map(|(_, docs)| docs.iter().map(Borrow::borrow)).collect();
    reconstruct_keeping(&all, coverage, keep).map_err(|e| e.to_string())
}

fn reconstruct_hybrid<D: Borrow<Document>>(
    design: &FragmentationSchema,
    fragments: &[(String, Vec<D>)],
) -> Result<Vec<Document>, String> {
    // 1. vertical fragments rebuild the spine (with the unit container
    //    pruned); 2. units from hybrid fragments are reinserted under a
    //    recreated container.
    let vertical: Vec<&Document> = fragments
        .iter()
        .zip(&design.fragments)
        .filter(|(_, def)| matches!(def.op, FragOp::Vertical { .. }))
        .flat_map(|((_, docs), _)| docs.iter().map(Borrow::borrow))
        .collect();
    // collect units — a document and the unit's node in it — per source doc
    let mut units: HashMap<String, Vec<(&Document, NodeId)>> = HashMap::new();
    let mut container_path: Option<PathExpr> = None;
    for ((_, docs), def) in fragments.iter().zip(&design.fragments) {
        if let FragOp::Hybrid { unit_path, mode, .. } = &def.op {
            let parent = unit_path
                .parent_path()
                .ok_or_else(|| "hybrid unit path must have a parent".to_owned())?;
            if let Some(existing) = &container_path {
                if *existing != parent {
                    return Err("hybrid fragments use different unit containers".into());
                }
            } else {
                container_path = Some(parent);
            }
            for doc in docs {
                let doc: &Document = doc.borrow();
                match mode {
                    crate::def::FragMode::ManySmallDocs => {
                        let source = doc
                            .origin
                            .as_ref()
                            .map(|o| o.source_doc.clone())
                            .unwrap_or_default();
                        units.entry(source).or_default().push((doc, NodeId::ROOT));
                    }
                    crate::def::FragMode::SingleDoc => {
                        let source = doc.name.clone().unwrap_or_default();
                        let found = eval_path(doc, unit_path).into_iter().map(|id| (doc, id));
                        units.entry(source).or_default().extend(found);
                    }
                }
            }
        }
    }
    // a FragMode1 unit carries its place in its source document: the
    // units go back in document order, whichever fragment held them
    fn place<'a>((doc, node): &(&'a Document, NodeId)) -> Option<&'a [u32]> {
        let origin = doc.origin.as_ref().filter(|_| *node == NodeId::ROOT);
        origin.map(|o| o.dewey.components())
    }
    for list in units.values_mut() {
        if list.iter().all(|unit| place(unit).is_some()) {
            list.sort_by(|a, b| place(a).cmp(&place(b)));
        }
    }
    let container_path =
        container_path.ok_or_else(|| "no hybrid fragments in design".to_owned())?;
    // rebuild: reconstruct spine from vertical pieces — the unit container
    // is a hole in them — then insert the container with the units
    let spines = reconstruct(&vertical, Coverage::Partial).map_err(|e| e.to_string())?;
    let container_label = match &container_path.last_step().map(|s| &s.test) {
        Some(partix_path::NodeTest::Name(n)) => n.clone(),
        _ => return Err("unit container must be a named element".into()),
    };
    let mut out = Vec::new();
    for mut doc in spines {
        let source = doc.name.clone().unwrap_or_default();
        // find the container's parent in the spine
        let parent_of_container = container_path
            .parent_path()
            .map(|p| eval_path(&doc, &p))
            .unwrap_or_else(|| vec![NodeId::ROOT]);
        let Some(&attach) = parent_of_container.first() else {
            return Err(format!(
                "cannot locate container parent in spine of {source:?}"
            ));
        };
        let container = doc.add_element(attach, &container_label);
        for (unit_doc, unit) in units.remove(&source).unwrap_or_default() {
            if unit_doc.kind_of(unit) != partix_xml::NodeKind::Element {
                return Err("a hybrid unit must be an element".into());
            }
            doc.graft(container, unit_doc, unit);
        }
        // the container went in last but need not come last: renumber
        out.push(doc.normalized());
    }
    Ok(out)
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

/// Canonical serialization: children sorted recursively, so documents that
/// differ only in sibling order compare equal.
fn order_free_form(doc: &Document) -> String {
    fn canon(node: partix_xml::NodeRef<'_>) -> String {
        use partix_xml::NodeKind;
        match node.kind() {
            NodeKind::Text => format!("T:{}", node.value().unwrap_or("")),
            NodeKind::Attribute => {
                format!("A:{}={}", node.label(), node.value().unwrap_or(""))
            }
            NodeKind::Element => {
                let mut children: Vec<String> = node.children().map(canon).collect();
                children.sort();
                format!("E:{}[{}]", node.label(), children.join(","))
            }
        }
    }
    canon(doc.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::Fragmenter;
    use crate::def::{FragMode, FragmentDef, FragmentationSchema};
    use partix_path::Predicate;
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
    fn hybrid_reconstruction_restores_content() {
        let design = storehyb_design(FragMode::SingleDoc);
        let docs = vec![store_doc()];
        let frags = Fragmenter::new(design.clone()).fragment_all(&docs);
        let rebuilt = reconstruct_any(&design, &frags).unwrap();
        assert_eq!(rebuilt.len(), 1);
        assert_eq!(order_free_form(&rebuilt[0]), order_free_form(&docs[0]));
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
