//! The Distributed XML Data Publisher.
//!
//! Receives XML documents from users, applies the fragmentation
//! registered for their collection, and ships the resulting fragments to
//! their nodes (paper Sec. 4).

use crate::service::{PartiX, PartixError};
use partix_frag::apply::apply_design;
use partix_xml::Document;

/// What the publisher did with one batch of documents.
#[derive(Debug, Clone, Default)]
pub struct PublishReport {
    /// `(fragment, node, documents stored, bytes stored)`.
    pub shipped: Vec<(String, usize, usize, usize)>,
    /// Source documents processed.
    pub documents: usize,
}

impl PartiX {
    /// Fragment `docs` according to the registered distribution of
    /// `collection` and store each fragment on its node.
    pub fn publish(
        &self,
        collection: &str,
        docs: &[Document],
    ) -> Result<PublishReport, PartixError> {
        let catalog = self.catalog();
        let dist = catalog
            .distribution(collection)
            .ok_or_else(|| PartixError::NoDistribution(collection.to_owned()))?;
        let mut report = PublishReport { documents: docs.len(), ..Default::default() };
        for (frag_name, frag_docs) in apply_design(&dist.design, docs) {
            let nodes = dist.nodes_of(&frag_name);
            if nodes.is_empty() {
                return Err(PartixError::Internal(format!("{frag_name} unplaced")));
            }
            let count = frag_docs.len();
            let bytes: usize = frag_docs.iter().map(Document::approx_size).sum();
            // ship a copy to every replica node
            for node_id in nodes {
                let node = self.cluster().node(node_id).ok_or_else(|| {
                    PartixError::Internal(format!("node {node_id} missing"))
                })?;
                node.store_docs(&frag_name, frag_docs.clone());
                report.shipped.push((frag_name.clone(), node_id, count, bytes));
            }
        }
        drop(catalog);
        self.refresh_node_gauges();
        Ok(report)
    }

    /// Store `docs` unfragmented in one node's embedded database — the
    /// centralized baseline every experiment compares against, and the
    /// store [`PartiX::execute_centralized`] reads. An installed driver
    /// (a socket, a WAL) is bypassed: the oracle copy stays beside it.
    pub fn publish_centralized(
        &self,
        node: usize,
        collection: &str,
        docs: &[Document],
    ) -> Result<(), PartixError> {
        let node = self
            .cluster()
            .node(node)
            .ok_or_else(|| PartixError::Internal(format!("node {node} missing")))?;
        node.db.store_all(collection, docs.iter().cloned());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Distribution, Placement};
    use crate::cluster::NetworkModel;
    use partix_frag::{FragmentDef, FragmentationSchema};
    use partix_path::{PathExpr, Predicate};
    use partix_schema::builtin::virtual_store;
    use partix_schema::{CollectionDef, RepoKind};
    use partix_xml::parse;
    use std::sync::Arc;

    fn items(n: usize) -> Vec<Document> {
        (0..n)
            .map(|i| {
                let section = ["CD", "DVD"][i % 2];
                let mut d = parse(&format!(
                    "<Item><Code>{i}</Code><Section>{section}</Section></Item>"
                ))
                .unwrap();
                d.name = Some(format!("i{i}"));
                d
            })
            .collect()
    }

    fn partix() -> PartiX {
        let px = PartiX::new(2, NetworkModel::default());
        let citems = CollectionDef::new(
            "items",
            Arc::new(virtual_store()),
            PathExpr::parse("/Store/Items/Item").unwrap(),
            RepoKind::MultipleDocuments,
        );
        let design = FragmentationSchema::new(
            citems,
            vec![
                FragmentDef::horizontal(
                    "f_cd",
                    Predicate::parse(r#"/Item/Section = "CD""#).unwrap(),
                ),
                FragmentDef::horizontal(
                    "f_dvd",
                    Predicate::parse(r#"/Item/Section = "DVD""#).unwrap(),
                ),
            ],
        )
        .unwrap();
        px.register_distribution(Distribution {
            design,
            placements: vec![
                Placement { fragment: "f_cd".into(), node: 0 },
                Placement { fragment: "f_dvd".into(), node: 1 },
            ],
        })
        .unwrap();
        px
    }

    #[test]
    fn publish_ships_fragments_to_their_nodes() {
        let px = partix();
        let report = px.publish("items", &items(10)).unwrap();
        assert_eq!(report.documents, 10);
        assert_eq!(report.shipped.len(), 2);
        assert_eq!(report.shipped[0], ("f_cd".into(), 0, 5, report.shipped[0].3));
        assert_eq!(report.shipped[1].2, 5);
        assert_eq!(px.cluster().node(0).unwrap().db.collection_len("f_cd").unwrap(), 5);
        assert_eq!(px.cluster().node(1).unwrap().db.collection_len("f_dvd").unwrap(), 5);
        // nothing leaked onto the wrong node
        assert!(px.cluster().node(1).unwrap().db.collection_len("f_cd").is_err());
    }

    #[test]
    fn publish_unknown_collection_fails() {
        let px = partix();
        assert!(matches!(
            px.publish("nope", &items(1)),
            Err(PartixError::NoDistribution(_))
        ));
    }

    #[test]
    fn publish_centralized_stores_whole_collection() {
        let px = partix();
        px.publish_centralized(0, "items_central", &items(10)).unwrap();
        assert_eq!(
            px.cluster().node(0).unwrap().db.collection_len("items_central").unwrap(),
            10
        );
    }

    #[test]
    fn the_centralized_copy_lands_where_the_centralized_query_reads_it() {
        let px = partix();
        // the node's data path goes to another database
        let elsewhere = Arc::new(partix_storage::Database::new());
        px.cluster().node(0).unwrap().set_driver(elsewhere.clone());
        px.publish_centralized(0, "items_central", &items(10)).unwrap();
        let out = px
            .execute_centralized(0, r#"count(collection("items_central")/Item)"#)
            .unwrap();
        assert_eq!(out.items[0].serialize(), "10");
        assert!(elsewhere.collection_len("items_central").is_err(), "copy went to the driver");
    }

    #[test]
    fn incremental_publish_appends() {
        let px = partix();
        px.publish("items", &items(4)).unwrap();
        px.publish("items", &items(4)).unwrap();
        assert_eq!(px.cluster().node(0).unwrap().db.collection_len("f_cd").unwrap(), 4);
    }
}
