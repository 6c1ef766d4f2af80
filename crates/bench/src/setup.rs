//! Experiment environment builders: fragment designs, placement, data
//! publication, and centralized baselines.

use partix_engine::{Distribution, NetworkModel, PartiX, Placement};
use partix_frag::{FragMode, FragmentDef, FragmentationSchema};
use partix_gen::{gen_items, ItemProfile, SECTIONS};
use partix_path::{PathExpr, Predicate};
use partix_schema::builtin::{virtual_store, xbench_article};
use partix_schema::{CollectionDef, RepoKind};
use partix_storage::StorageMode;
use partix_xml::Document;
use std::sync::Arc;

/// Name of the distributed collection in every setup.
pub const DIST: &str = "data";
/// Name of the centralized baseline collection (on node 0).
pub const CENTRAL: &str = "data_central";

fn p(s: &str) -> PathExpr {
    PathExpr::parse(s).unwrap()
}

/// Partition the eight section names into `n` contiguous groups.
pub fn section_groups(n: usize) -> Vec<Vec<&'static str>> {
    assert!(n >= 1 && n <= SECTIONS.len());
    let per = SECTIONS.len() / n;
    let mut extra = SECTIONS.len() % n;
    let mut groups = Vec::with_capacity(n);
    let mut idx = 0;
    for _ in 0..n {
        let take = per + usize::from(extra > 0);
        extra = extra.saturating_sub(1);
        groups.push(SECTIONS[idx..idx + take].to_vec());
        idx += take;
    }
    groups
}

/// `σ` predicate selecting items of the given sections, in the space
/// rooted at `root` (`/Item/Section` for MD, same for hybrid units).
pub fn sections_predicate(root: &str, sections: &[&str]) -> Predicate {
    let atoms: Vec<Predicate> = sections
        .iter()
        .map(|s| Predicate::parse(&format!(r#"{root} = "{s}""#)).unwrap())
        .collect();
    if atoms.len() == 1 {
        atoms.into_iter().next().expect("one")
    } else {
        Predicate::Or(atoms)
    }
}

/// `C_items` fragmented by `Section` into `n_fragments` contiguous section
/// groups, fragment `f{i}` holding group `i`.
fn section_design(n_fragments: usize) -> FragmentationSchema {
    let citems = CollectionDef::new(
        DIST,
        Arc::new(virtual_store()),
        p("/Store/Items/Item"),
        RepoKind::MultipleDocuments,
    );
    let fragments: Vec<FragmentDef> = section_groups(n_fragments)
        .iter()
        .enumerate()
        .map(|(i, group)| {
            FragmentDef::horizontal(&format!("f{i}"), sections_predicate("/Item/Section", group))
        })
        .collect();
    FragmentationSchema::new(citems, fragments).expect("valid design")
}

/// Build the horizontal experiment: `C_items` fragmented by `Section`
/// into `n_fragments` groups, one fragment per node, plus the
/// centralized copy of the same documents on node 0.
///
/// Like every experiment database, collections are stored **cold**
/// (compact binary pages, read in place), modelling a disk-based DBMS
/// like eXist whose query cost scales with the data it pages through.
pub fn horizontal(docs: &[Document], n_fragments: usize) -> PartiX {
    horizontal_replicated(docs, n_fragments, 1)
}

/// [`horizontal`] with `replicas` copies of every fragment: fragment `i`
/// is placed on nodes `i, i+1, … i+replicas-1 (mod n)`, so each node
/// holds `replicas` fragments and any single node failure leaves every
/// fragment answerable — the replication level the chaos experiments
/// lean on.
pub fn horizontal_replicated(
    docs: &[Document],
    n_fragments: usize,
    replicas: usize,
) -> PartiX {
    assert!(
        (1..=n_fragments).contains(&replicas),
        "replication must be between 1 and the node count"
    );
    let px = PartiX::new(n_fragments, NetworkModel::default());
    for i in 0..n_fragments {
        for r in 0..replicas {
            px.cluster()
                .node((i + r) % n_fragments)
                .expect("node exists")
                .db
                .create_collection(&format!("f{i}"), StorageMode::Cold)
                .expect("fresh node");
        }
    }
    px.cluster()
        .node(0)
        .expect("node 0")
        .db
        .create_collection(CENTRAL, StorageMode::Cold)
        .expect("fresh node");
    let design = section_design(n_fragments);
    let placements = (0..n_fragments)
        .flat_map(|i| {
            (0..replicas).map(move |r| Placement {
                fragment: format!("f{i}"),
                node: (i + r) % n_fragments,
            })
        })
        .collect();
    px.register_distribution(Distribution { design, placements })
        .expect("placement valid");
    px.publish(DIST, docs).expect("publish");
    px.publish_centralized(0, CENTRAL, docs).expect("centralized copy");
    px
}

/// Build the rebalance experiment's *pathological* horizontal setup:
/// `nodes` nodes, `n_fragments` section-group fragments — every one of
/// them placed on node 0. The cluster has idle capacity the placement
/// ignores; the advisor/rebalancer exist to fix exactly this.
pub fn skewed_horizontal(docs: &[Document], n_fragments: usize, nodes: usize) -> PartiX {
    assert!(nodes >= 1);
    let px = PartiX::new(nodes, NetworkModel::default());
    let node0 = px.cluster().node(0).expect("node 0");
    for i in 0..n_fragments {
        node0
            .db
            .create_collection(&format!("f{i}"), StorageMode::Cold)
            .expect("fresh node");
    }
    node0.db.create_collection(CENTRAL, StorageMode::Cold).expect("fresh node");
    let design = section_design(n_fragments);
    let placements = (0..n_fragments)
        .map(|i| Placement { fragment: format!("f{i}"), node: 0 })
        .collect();
    px.register_distribution(Distribution { design, placements })
        .expect("placement valid");
    px.publish(DIST, docs).expect("publish");
    px.publish_centralized(0, CENTRAL, docs).expect("centralized copy");
    px
}

/// Convenience: generate an item database of roughly `bytes` and build
/// the horizontal setup.
pub fn horizontal_sized(bytes: usize, profile: ItemProfile, n_fragments: usize) -> PartiX {
    let docs = partix_gen::items::gen_items_to_size(bytes, profile, 0xA11CE);
    horizontal(&docs, n_fragments)
}

/// Build the vertical experiment: XBench articles fragmented into
/// prolog / body / epilog (plus the article spine), three nodes.
///
/// Collections are stored **cold** (binary pages decoded per access):
/// the paper's vertical gains come from each node paging through only
/// its projected part of every document, which only materializes when
/// document access cost scales with stored size — as in eXist.
pub fn vertical(docs: &[Document]) -> PartiX {
    let px = PartiX::new(3, NetworkModel::default());
    for (frag, node) in [("f_spine", 0), ("f_prolog", 0), ("f_body", 1), ("f_epilog", 2)] {
        px.cluster()
            .node(node)
            .expect("node exists")
            .db
            .create_collection(frag, StorageMode::Cold)
            .expect("fresh node");
    }
    px.cluster()
        .node(0)
        .expect("node 0")
        .db
        .create_collection(CENTRAL, StorageMode::Cold)
        .expect("fresh node");
    let articles = CollectionDef::new(
        DIST,
        Arc::new(xbench_article()),
        p("/article"),
        RepoKind::MultipleDocuments,
    );
    let design = FragmentationSchema::new(
        articles,
        vec![
            FragmentDef::vertical(
                "f_spine",
                p("/article"),
                vec![p("/article/prolog"), p("/article/body"), p("/article/epilog")],
            ),
            FragmentDef::vertical("f_prolog", p("/article/prolog"), vec![]),
            FragmentDef::vertical("f_body", p("/article/body"), vec![]),
            FragmentDef::vertical("f_epilog", p("/article/epilog"), vec![]),
        ],
    )
    .expect("valid design");
    let placements = vec![
        Placement { fragment: "f_spine".into(), node: 0 },
        Placement { fragment: "f_prolog".into(), node: 0 },
        Placement { fragment: "f_body".into(), node: 1 },
        Placement { fragment: "f_epilog".into(), node: 2 },
    ];
    px.register_distribution(Distribution { design, placements })
        .expect("placement valid");
    px.publish(DIST, docs).expect("publish");
    px.publish_centralized(0, CENTRAL, docs).expect("centralized copy");
    px
}

/// Build the hybrid experiment over one SD `Store` document: four
/// section-group hybrid fragments (the paper's `F1..F4items`) plus the
/// vertical prune fragment holding everything outside `/Store/Items`
/// (the paper's `F1` of the StoreHyb design). Collections are stored
/// **cold** (binary pages decoded per access) so the per-document parse
/// cost that separates FragMode1 from FragMode2 is charged, as in eXist.
pub fn hybrid(store_doc: &Document, mode: FragMode) -> PartiX {
    let px = PartiX::new(5, NetworkModel::default());
    let cstore = CollectionDef::new(
        DIST,
        Arc::new(virtual_store()),
        p("/Store"),
        RepoKind::SingleDocument,
    );
    let groups = section_groups(4);
    let mut fragments: Vec<FragmentDef> = groups
        .iter()
        .enumerate()
        .map(|(i, group)| {
            FragmentDef::hybrid(
                &format!("f{i}"),
                p("/Store/Items/Item"),
                sections_predicate("/Item/Section", group),
                mode,
            )
        })
        .collect();
    fragments.push(FragmentDef::vertical(
        "f_spine",
        p("/Store"),
        vec![p("/Store/Items")],
    ));
    let design = FragmentationSchema::new(cstore, fragments).expect("valid design");
    let mut placements: Vec<Placement> = (0..4)
        .map(|i| Placement { fragment: format!("f{i}"), node: i })
        .collect();
    placements.push(Placement { fragment: "f_spine".into(), node: 4 });
    // pre-create every collection cold so pages are decoded per access
    for place in &placements {
        px.cluster()
            .node(place.node)
            .expect("node exists")
            .db
            .create_collection(&place.fragment, StorageMode::Cold)
            .expect("fresh node");
    }
    px.cluster()
        .node(0)
        .expect("node 0")
        .db
        .create_collection(CENTRAL, StorageMode::Cold)
        .expect("fresh node");
    px.register_distribution(Distribution { design, placements })
        .expect("placement valid");
    let docs = vec![store_doc.clone()];
    px.publish(DIST, &docs).expect("publish");
    px.publish_centralized(0, CENTRAL, &docs).expect("centralized copy");
    px
}

/// Item documents sized to `bytes` total, for direct use by benches.
pub fn item_db(bytes: usize, profile: ItemProfile) -> Vec<Document> {
    partix_gen::items::gen_items_to_size(bytes, profile, 0xA11CE)
}

/// Make `n` small items quickly (tests).
pub fn quick_items(n: usize) -> Vec<Document> {
    gen_items(n, ItemProfile::Small, 0xA11CE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_gen::ArticleProfile;

    #[test]
    fn section_groups_partition() {
        for n in [1, 2, 4, 8] {
            let groups = section_groups(n);
            assert_eq!(groups.len(), n);
            let flat: Vec<&str> = groups.iter().flatten().copied().collect();
            assert_eq!(flat, SECTIONS);
        }
        let g3 = section_groups(3);
        assert_eq!(g3.iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    fn horizontal_setup_distributes_everything() {
        let docs = quick_items(60);
        for n in [2, 4, 8] {
            let px = horizontal(&docs, n);
            let mut total = 0;
            for i in 0..n {
                total += px
                    .cluster()
                    .node(i)
                    .unwrap()
                    .db
                    .collection_len(&format!("f{i}"))
                    .unwrap_or(0);
            }
            assert_eq!(total, 60, "{n} fragments");
        }
    }

    #[test]
    fn replicated_setup_survives_any_single_node_failure() {
        let docs = quick_items(40);
        let px = horizontal_replicated(&docs, 4, 2);
        // every fragment exists on exactly two nodes
        for i in 0..4 {
            let copies = (0..4)
                .filter(|&n| {
                    px.cluster()
                        .node(n)
                        .unwrap()
                        .db
                        .collection_len(&format!("f{i}"))
                        .is_ok()
                })
                .count();
            assert_eq!(copies, 2, "fragment f{i}");
        }
        let q = format!(r#"count(collection("{DIST}")/Item)"#);
        let full = px.execute(&q).unwrap();
        for down in 0..4 {
            px.cluster().node(down).unwrap().set_available(false);
            let result = px.execute(&q).unwrap();
            assert_eq!(result.items, full.items, "node {down} down");
            px.cluster().node(down).unwrap().set_available(true);
        }
    }

    #[test]
    fn vertical_setup_equivalence() {
        let docs = partix_gen::gen_articles(4, ArticleProfile::SMALL, 3);
        let px = vertical(&docs);
        let dist = px
            .execute(&format!(
                r#"count(collection("{DIST}")/article/prolog/title)"#
            ))
            .unwrap();
        let central = px
            .execute_centralized(
                0,
                &format!(r#"count(collection("{CENTRAL}")/article/prolog/title)"#),
            )
            .unwrap();
        assert_eq!(dist.items, central.items);
    }

    #[test]
    fn hybrid_setup_equivalence_both_modes() {
        let store = partix_gen::gen_store(24, ItemProfile::Small, 5);
        for mode in [FragMode::SingleDoc, FragMode::ManySmallDocs] {
            let px = hybrid(&store, mode);
            let dist = px
                .execute(&format!(
                    r#"count(for $i in collection("{DIST}")/Store/Items/Item
                             where $i/Section = "CD" return $i)"#
                ))
                .unwrap();
            let central = px
                .execute_centralized(
                    0,
                    &format!(
                        r#"count(for $i in collection("{CENTRAL}")/Store/Items/Item
                                 where $i/Section = "CD" return $i)"#
                    ),
                )
                .unwrap();
            assert_eq!(dist.items, central.items, "{mode:?}");
        }
    }
}
