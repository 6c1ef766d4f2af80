//! Selection, projection and union over document collections.

use partix_path::{eval_path, PathExpr, Predicate};
use partix_xml::{Document, NodeId, Origin};
use std::collections::HashSet;

/// σ — select the documents of `docs` satisfying `predicate`.
///
/// Horizontal fragments have the same schema as their collection: whole
/// documents are kept or dropped, never restructured (paper Def. 2).
pub fn select<'a>(
    docs: impl IntoIterator<Item = &'a Document>,
    predicate: &Predicate,
) -> Vec<Document> {
    docs.into_iter()
        .filter(|doc| predicate.eval(doc))
        .cloned()
        .collect()
}

/// A projection specification π<sub>P,Γ</sub>.
#[derive(Debug, Clone)]
pub struct Projection {
    /// `P` — the path whose selected nodes root the projected subtrees.
    pub path: PathExpr,
    /// `Γ` — the prune criterion: path expressions *contained in* `P`
    /// (i.e. having `P` as a prefix) whose selected subtrees are excluded.
    pub prune: Vec<PathExpr>,
}

impl Projection {
    pub fn new(path: PathExpr, prune: Vec<PathExpr>) -> Projection {
        Projection { path, prune }
    }

    /// Validate the paper's well-formedness restrictions (Def. 3):
    /// every prune expression must extend `P`.
    ///
    /// (The restriction that `P` not select nodes of cardinality > 1
    /// without a positional step needs the schema and is checked by
    /// `partix-frag`.)
    pub fn check(&self) -> Result<(), String> {
        for g in &self.prune {
            if g.strip_prefix(&self.path).is_none() {
                return Err(format!(
                    "prune expression {g} does not extend the projection path {}",
                    self.path
                ));
            }
        }
        Ok(())
    }

    /// Apply to one document: each node selected by `P` becomes a fresh
    /// document rooted at a copy of that node, with the `Γ`-subtrees
    /// removed. Every output document carries an [`Origin`] naming the
    /// source document and the subtree root's Dewey id.
    pub fn apply(&self, doc: &Document) -> Vec<Document> {
        let roots = eval_path(doc, &self.path);
        // nodes excluded by the prune criterion
        let mut pruned: HashSet<NodeId> = HashSet::new();
        for g in &self.prune {
            pruned.extend(eval_path(doc, g));
        }
        let source = doc.name.clone().unwrap_or_default();
        roots
            .into_iter()
            .map(|root| {
                let mut out = Document::new(doc.label_of(root));
                copy_pruned(&mut out, NodeId::ROOT, doc, root, &pruned);
                out.name = doc.name.clone();
                out.origin = Some(Origin {
                    source_doc: source.clone(),
                    dewey: doc.dewey_of(root),
                    units: Vec::new(),
                });
                out
            })
            .collect()
    }
}

/// Copy children of `src_id` under `dst_parent`, skipping pruned subtrees.
fn copy_pruned(
    dst: &mut Document,
    dst_parent: NodeId,
    src: &Document,
    src_id: NodeId,
    pruned: &HashSet<NodeId>,
) {
    let node = src.get(src_id).expect("source node");
    for child in node.children() {
        if pruned.contains(&child.id()) {
            continue;
        }
        use partix_xml::NodeKind;
        match child.kind() {
            NodeKind::Element => {
                let new_id = dst.add_element(dst_parent, child.label());
                copy_pruned(dst, new_id, src, child.id(), pruned);
            }
            NodeKind::Attribute => {
                dst.add_attribute(dst_parent, child.label(), child.value().unwrap_or(""));
            }
            NodeKind::Text => {
                dst.add_text(dst_parent, child.value().unwrap_or(""));
            }
        }
    }
}

/// π — apply `projection` to every document of a collection.
pub fn project<'a>(
    docs: impl IntoIterator<Item = &'a Document>,
    projection: &Projection,
) -> Vec<Document> {
    docs.into_iter().flat_map(|d| projection.apply(d)).collect()
}

/// ∪ — union of horizontally fragmented collections. Documents are
/// ordered by name so the result is deterministic regardless of which
/// node answered first.
pub fn union(fragments: impl IntoIterator<Item = Vec<Document>>) -> Vec<Document> {
    let mut out: Vec<Document> = fragments.into_iter().flatten().collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_xml::{parse, to_string};

    fn items() -> Vec<Document> {
        let sources = [
            ("i1", "<Item><Section>CD</Section><Name>Kind of Blue</Name></Item>"),
            ("i2", "<Item><Section>DVD</Section><Name>Brazil</Name></Item>"),
            ("i3", "<Item><Section>CD</Section><Name>Hunky Dory</Name></Item>"),
        ];
        sources
            .iter()
            .map(|(name, xml)| {
                let mut d = parse(xml).unwrap();
                d.name = Some((*name).to_owned());
                d
            })
            .collect()
    }

    #[test]
    fn select_filters_whole_documents() {
        let docs = items();
        let pred = Predicate::parse(r#"/Item/Section = "CD""#).unwrap();
        let cd = select(&docs, &pred);
        assert_eq!(cd.len(), 2);
        assert!(cd.iter().all(|d| d.root().child_element("Section").unwrap().text() == "CD"));
        // complement
        let rest = select(&docs, &pred.complement());
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].name.as_deref(), Some("i2"));
    }

    #[test]
    fn select_preserves_document_content() {
        let docs = items();
        let pred = Predicate::parse(r#"/Item/Section = "DVD""#).unwrap();
        let got = select(&docs, &pred);
        assert_eq!(got[0], docs[1]);
    }

    #[test]
    fn union_restores_collection() {
        let docs = items();
        let pred = Predicate::parse(r#"/Item/Section = "CD""#).unwrap();
        let f1 = select(&docs, &pred);
        let f2 = select(&docs, &pred.complement());
        let merged = union([f1, f2]);
        assert_eq!(merged.len(), 3);
        let names: Vec<_> = merged.iter().map(|d| d.name.clone().unwrap()).collect();
        assert_eq!(names, ["i1", "i2", "i3"]);
    }

    fn store_doc() -> Document {
        let mut d = parse(
            "<Store>\
               <Sections><Section><Code>1</Code><Name>CD</Name></Section></Sections>\
               <Items>\
                 <Item><Section>CD</Section><PictureList><Picture><OriginalPath>p1</OriginalPath></Picture></PictureList></Item>\
                 <Item><Section>DVD</Section></Item>\
               </Items>\
               <Employees><Employee><Code>9</Code><Name>Ana</Name></Employee></Employees>\
             </Store>",
        )
        .unwrap();
        d.name = Some("store".to_owned());
        d
    }

    #[test]
    fn projection_without_prune() {
        // F2sections-like: π /Store/Sections
        let doc = store_doc();
        let proj = Projection::new(PathExpr::parse("/Store/Sections").unwrap(), vec![]);
        let frags = proj.apply(&doc);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].root_label(), "Sections");
        assert_eq!(frags[0].origin.as_ref().unwrap().dewey.to_string(), "1");
        assert_eq!(frags[0].origin.as_ref().unwrap().source_doc, "store");
    }

    #[test]
    fn projection_with_prune() {
        // F1-like: π /Store, Γ = {/Store/Items}
        let doc = store_doc();
        let proj = Projection::new(
            PathExpr::parse("/Store").unwrap(),
            vec![PathExpr::parse("/Store/Items").unwrap()],
        );
        let frags = proj.apply(&doc);
        assert_eq!(frags.len(), 1);
        let f = &frags[0];
        assert_eq!(f.root_label(), "Store");
        assert!(f.root().child_element("Items").is_none());
        assert!(f.root().child_element("Sections").is_some());
        assert!(f.root().child_element("Employees").is_some());
    }

    #[test]
    fn paper_f1_f2_items_are_disjoint_and_complete() {
        // F1items := π /Item, {/Item/PictureList};  F2items := π /Item/PictureList, {}
        let mut doc = parse(
            "<Item><Section>CD</Section>\
             <PictureList><Picture><OriginalPath>p1</OriginalPath></Picture></PictureList>\
             <Name>X</Name></Item>",
        )
        .unwrap();
        doc.name = Some("i1".to_owned());
        let f1 = Projection::new(
            PathExpr::parse("/Item").unwrap(),
            vec![PathExpr::parse("/Item/PictureList").unwrap()],
        )
        .apply(&doc);
        let f2 = Projection::new(PathExpr::parse("/Item/PictureList").unwrap(), vec![])
            .apply(&doc);
        assert_eq!(f1.len(), 1);
        assert_eq!(f2.len(), 1);
        assert!(f1[0].root().child_element("PictureList").is_none());
        assert_eq!(f2[0].root_label(), "PictureList");
        // disjoint + complete: f1 and f2 node counts sum to the original
        assert_eq!(f1[0].len() + f2[0].len(), doc.len());
        assert_eq!(f2[0].origin.as_ref().unwrap().dewey.to_string(), "2");
    }

    #[test]
    fn projection_on_collection() {
        let docs = items();
        let proj = Projection::new(PathExpr::parse("/Item/Name").unwrap(), vec![]);
        let names = project(&docs, &proj);
        assert_eq!(names.len(), 3);
        assert!(names.iter().all(|d| d.root_label() == "Name"));
    }

    #[test]
    fn projection_misses_produce_no_documents() {
        let docs = items();
        let proj = Projection::new(PathExpr::parse("/Item/Nothing").unwrap(), vec![]);
        assert!(project(&docs, &proj).is_empty());
    }

    #[test]
    fn check_rejects_foreign_prune() {
        let proj = Projection::new(
            PathExpr::parse("/Store/Items").unwrap(),
            vec![PathExpr::parse("/Store/Sections").unwrap()],
        );
        assert!(proj.check().is_err());
        let ok = Projection::new(
            PathExpr::parse("/Store/Items").unwrap(),
            vec![PathExpr::parse("/Store/Items/Item").unwrap()],
        );
        ok.check().unwrap();
    }

    #[test]
    fn pruned_content_really_gone_from_serialization() {
        let doc = store_doc();
        let proj = Projection::new(
            PathExpr::parse("/Store").unwrap(),
            vec![PathExpr::parse("/Store/Items").unwrap()],
        );
        let frag = proj.apply(&doc).remove(0);
        let xml = to_string(&frag);
        assert!(!xml.contains("PictureList"));
        assert!(!xml.contains("<Items>"));
    }
}
