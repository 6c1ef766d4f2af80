//! Executing a fragmentation schema over documents.

use crate::def::{FragMode, FragOp, FragmentDef, FragmentationSchema};
use partix_algebra::Projection;
use partix_path::PathExpr;
use partix_xml::{Document, NodeId, Origin};

/// Applies fragment definitions to documents.
#[derive(Debug, Clone)]
pub struct Fragmenter {
    schema: FragmentationSchema,
}

impl Fragmenter {
    pub fn new(schema: FragmentationSchema) -> Fragmenter {
        Fragmenter { schema }
    }

    pub fn schema(&self) -> &FragmentationSchema {
        &self.schema
    }

    /// Apply the whole design: returns `(fragment name, documents)` in
    /// definition order.
    pub fn fragment_all(&self, docs: &[Document]) -> Vec<(String, Vec<Document>)> {
        apply_design(&self.schema, docs)
    }
}

/// Apply every fragment of `design` to `docs`: `(fragment name,
/// documents)` in definition order. In a hybrid design a vertical fragment
/// that prunes the units' container (the paper's `F4items := π /Store,
/// {/Store/Items}`) keeps the container and prunes the units themselves,
/// so every unit has a parent at its place when the Dewey join puts it
/// back; the declared design, which the planner reads, is unchanged.
pub fn apply_design(
    design: &FragmentationSchema,
    docs: &[Document],
) -> Vec<(String, Vec<Document>)> {
    // (container, units) of every hybrid fragment
    let mut units: Vec<(PathExpr, &PathExpr)> = (design.fragments.iter())
        .filter_map(|frag| match &frag.op {
            FragOp::Hybrid { unit_path, .. } => Some((unit_path.parent_path()?, unit_path)),
            _ => None,
        })
        .collect();
    units.dedup();
    let holds_units = |g: &PathExpr| units.iter().any(|(container, _)| container == g);
    let apply = |frag: &FragmentDef| match &frag.op {
        FragOp::Vertical { projection } if projection.prune.iter().any(holds_units) => {
            let others = projection.prune.iter().filter(|g| !holds_units(g));
            let inside = units.iter().filter(|(c, _)| projection.prune.contains(c));
            let prune = others.chain(inside.map(|(_, unit)| *unit)).cloned().collect();
            partix_algebra::project(docs, &Projection::new(projection.path.clone(), prune))
        }
        _ => apply_fragment(frag, docs),
    };
    design.fragments.iter().map(|frag| (frag.name.clone(), apply(frag))).collect()
}

/// Apply one fragment definition to a collection's documents.
pub fn apply_fragment(frag: &FragmentDef, docs: &[Document]) -> Vec<Document> {
    match &frag.op {
        FragOp::Horizontal { predicate } => partix_algebra::select(docs, predicate),
        FragOp::Vertical { projection } => partix_algebra::project(docs, projection),
        FragOp::Hybrid { unit_path, prune, predicate, mode } => {
            docs.iter()
                .flat_map(|doc| apply_hybrid(doc, unit_path, prune, predicate, *mode))
                .collect()
        }
    }
}

/// Hybrid `π • σ`: select the unit subtrees under `unit_path` whose
/// content satisfies `predicate`, pruning `prune` inside kept units.
fn apply_hybrid(
    doc: &Document,
    unit_path: &PathExpr,
    prune: &[PathExpr],
    predicate: &partix_path::Predicate,
    mode: FragMode,
) -> Vec<Document> {
    let unit_projection = Projection::new(unit_path.clone(), prune.to_vec());
    // project every unit (keeps Dewey provenance), then select
    let mut selected: Vec<Document> = unit_projection
        .apply(doc)
        .into_iter()
        .filter(|u| predicate.eval(u))
        .collect();
    match mode {
        FragMode::ManySmallDocs => {
            // each unit is an independent document named after its source
            for (i, unit) in selected.iter_mut().enumerate() {
                let src = doc.name.clone().unwrap_or_default();
                unit.name = Some(format!("{src}#{i}"));
            }
            selected
        }
        FragMode::SingleDoc => {
            if selected.is_empty() {
                return Vec::new();
            }
            // one spine document per source document: ancestors of the
            // unit path, each with only the chain child, units grafted
            // under the unit path's parent
            let mut out = Document::new(doc.root_label());
            let mut cursor = NodeId::ROOT;
            // build the chain for the intermediate steps (skip the first
            // step = root, skip the last = unit itself)
            let steps = &unit_path.steps;
            for step in steps.iter().take(steps.len().saturating_sub(1)).skip(1) {
                if let partix_path::NodeTest::Name(name) = &step.test {
                    cursor = out.add_element(cursor, name);
                }
            }
            for unit in &selected {
                out.graft(cursor, unit, NodeId::ROOT);
            }
            out.name = doc.name.clone();
            out.origin = Some(Origin {
                source_doc: doc.name.clone().unwrap_or_default(),
                dewey: partix_xml::Dewey::root(),
                units: selected.into_iter().filter_map(|unit| Some(unit.origin?.dewey)).collect(),
            });
            vec![out]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{FragMode, FragmentDef, FragmentationSchema};
    use partix_path::{eval_path, Predicate};
    use partix_schema::builtin::virtual_store;
    use partix_schema::{CollectionDef, RepoKind};
    use partix_xml::{parse, to_string, Dewey};
    use std::sync::Arc;

    fn p(s: &str) -> PathExpr {
        PathExpr::parse(s).unwrap()
    }

    fn pr(s: &str) -> Predicate {
        Predicate::parse(s).unwrap()
    }

    fn items() -> Vec<Document> {
        [
            ("i1", "CD", "good jazz"),
            ("i2", "DVD", "a film"),
            ("i3", "CD", "rock"),
            ("i4", "BOOK", "a good read"),
        ]
        .iter()
        .map(|(name, section, desc)| {
            let mut d = parse(&format!(
                "<Item><Code>{name}</Code><Section>{section}</Section>\
                 <Characteristics><Description>{desc}</Description></Characteristics></Item>"
            ))
            .unwrap();
            d.name = Some((*name).to_owned());
            d
        })
        .collect()
    }

    fn store_doc() -> Document {
        let mut d = parse(
            "<Store><Sections><Section><Name>CD</Name></Section></Sections>\
             <Items>\
               <Item><Code>1</Code><Section>CD</Section></Item>\
               <Item><Code>2</Code><Section>DVD</Section></Item>\
               <Item><Code>3</Code><Section>CD</Section></Item>\
             </Items>\
             <Employees><Employee><Name>Ana</Name></Employee></Employees></Store>",
        )
        .unwrap();
        d.name = Some("store".to_owned());
        d
    }

    #[test]
    fn horizontal_partition_by_section() {
        let docs = items();
        let citems = CollectionDef::new(
            "Citems",
            Arc::new(virtual_store()),
            p("/Store/Items/Item"),
            RepoKind::MultipleDocuments,
        );
        let design = FragmentationSchema::new(
            citems,
            vec![
                FragmentDef::horizontal("FCD", pr(r#"/Item/Section = "CD""#)),
                FragmentDef::horizontal("FDVD", pr(r#"/Item/Section = "DVD""#)),
                FragmentDef::horizontal(
                    "FOTHER",
                    pr(r#"/Item/Section != "CD" and /Item/Section != "DVD""#),
                ),
            ],
        )
        .unwrap();
        let frags = Fragmenter::new(design).fragment_all(&docs);
        let sizes: Vec<usize> = frags.iter().map(|(_, d)| d.len()).collect();
        assert_eq!(sizes, [2, 1, 1]);
    }

    #[test]
    fn hybrid_fragmode2_builds_spine() {
        let doc = store_doc();
        let frags = apply_hybrid(
            &doc,
            &p("/Store/Items/Item"),
            &[],
            &pr(r#"/Item/Section = "CD""#),
            FragMode::SingleDoc,
        );
        assert_eq!(frags.len(), 1);
        let xml = to_string(&frags[0]);
        assert_eq!(
            xml,
            "<Store><Items>\
             <Item><Code>1</Code><Section>CD</Section></Item>\
             <Item><Code>3</Code><Section>CD</Section></Item>\
             </Items></Store>"
        );
        assert_eq!(frags[0].name.as_deref(), Some("store"));
    }

    #[test]
    fn hybrid_fragmode1_many_docs() {
        let doc = store_doc();
        let frags = apply_hybrid(
            &doc,
            &p("/Store/Items/Item"),
            &[],
            &pr(r#"/Item/Section = "CD""#),
            FragMode::ManySmallDocs,
        );
        assert_eq!(frags.len(), 2);
        assert!(frags.iter().all(|f| f.root_label() == "Item"));
        // provenance: the two CD items sit at ordinals 1 and 3 under Items
        let deweys: Vec<String> = frags
            .iter()
            .map(|f| f.origin.as_ref().unwrap().dewey.to_string())
            .collect();
        assert_eq!(deweys, ["2.1", "2.3"]);
    }

    #[test]
    fn hybrid_empty_selection_produces_nothing() {
        let doc = store_doc();
        let frags = apply_hybrid(
            &doc,
            &p("/Store/Items/Item"),
            &[],
            &pr(r#"/Item/Section = "VINYL""#),
            FragMode::SingleDoc,
        );
        assert!(frags.is_empty());
    }

    #[test]
    fn hybrid_fragments_partition_units() {
        let doc = store_doc();
        let cd = apply_hybrid(
            &doc,
            &p("/Store/Items/Item"),
            &[],
            &pr(r#"/Item/Section = "CD""#),
            FragMode::SingleDoc,
        );
        let rest = apply_hybrid(
            &doc,
            &p("/Store/Items/Item"),
            &[],
            &pr(r#"not(/Item/Section = "CD")"#),
            FragMode::SingleDoc,
        );
        let count = |d: &[Document]| {
            d.iter()
                .map(|f| eval_path(f, &p("/Store/Items/Item")).len())
                .sum::<usize>()
        };
        assert_eq!(count(&cd) + count(&rest), 3);
    }

    #[test]
    fn full_storehyb_design_executes() {
        // the paper's StoreHyb: 4 hybrid item fragments + vertical prune
        let doc = store_doc();
        let cstore = CollectionDef::new(
            "Cstore",
            Arc::new(virtual_store()),
            p("/Store"),
            RepoKind::SingleDocument,
        );
        let design = FragmentationSchema::new(
            cstore,
            vec![
                FragmentDef::hybrid(
                    "F1",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "CD""#),
                    FragMode::SingleDoc,
                ),
                FragmentDef::hybrid(
                    "F2",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "DVD""#),
                    FragMode::SingleDoc,
                ),
                FragmentDef::hybrid(
                    "F3",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section != "CD" and /Item/Section != "DVD""#),
                    FragMode::SingleDoc,
                ),
                FragmentDef::vertical("F4", p("/Store"), vec![p("/Store/Items")]),
            ],
        )
        .unwrap();
        let frags = Fragmenter::new(design).fragment_all(&[doc]);
        assert_eq!(frags.len(), 4);
        assert_eq!(frags[0].1.len(), 1); // CD spine doc
        assert_eq!(frags[1].1.len(), 1); // DVD spine doc
        assert_eq!(frags[2].1.len(), 0); // no other sections
        // F4 keeps the units' container, without the units
        let f4 = &frags[3].1[0];
        let items = f4.root().child_element("Items").expect("the container stays");
        assert_eq!(items.children().count(), 0);
        assert!(f4.root().child_element("Sections").is_some());
        // each FragMode2 document lists where its units sat
        let units = |k: usize| frags[k].1[0].origin.clone().unwrap().units;
        assert_eq!(units(0), [Dewey::parse("2.1").unwrap(), Dewey::parse("2.3").unwrap()]);
        assert_eq!(units(1), [Dewey::parse("2.2").unwrap()]);
    }
}
