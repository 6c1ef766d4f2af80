//! The online write path: coordinator-routed `put` / `delete`.
//!
//! The paper's experiments are read-only — repositories are fragmented
//! once by the publisher and then queried. This module adds the natural
//! next step: single-document writes routed through the *same*
//! fragmentation predicates the publisher and the localizer use, so a
//! live repository stays a correct fragmentation of its logical
//! collection as it changes.
//!
//! Routing reuses [`partix_frag::apply::apply_fragment`]: the incoming
//! document is fragmented exactly as the bulk publisher would fragment
//! it, and each non-empty piece is written to every replica of its
//! fragment. Before any node is touched, the per-document design rules
//! are re-checked online with [`partix_frag::check_correctness`] — a
//! document matching no horizontal predicate is a typed
//! [`WriteError::UnroutableDocument`] (completeness would break), one
//! matching several is a typed [`WriteError::Correctness`] (disjointness
//! would break). Nothing is silently dropped.
//!
//! [`WriteOp::Put`] is an **upsert** keyed by document name, so `insert`
//! and `update` are the same idempotent primitive — retrying a timed-out
//! write converges instead of duplicating. An update that changes the
//! routing value (say an Item's `Section` flips from `"CD"` to `"DVD"`)
//! is a *cross-fragment move*: the coordinator first puts the new piece
//! on its target fragment, then deletes the stale piece from every other
//! fragment. Put-before-delete means a crash between the two steps never
//! loses the document — the transient duplicate is healed by retrying
//! the (idempotent) write after recovery.
//!
//! Every replica write goes through [`Node::apply_write`]. A write
//! touches data, not the catalog: the meta epoch stays where it is, and
//! the next read reaches the nodes and sees it.

use crate::cluster::Node;
use crate::driver::DriverError;
use crate::metrics;
use crate::service::PartiX;
use partix_frag::apply::apply_fragment;
use partix_frag::def::FragType;
use partix_frag::{check_correctness, FragMode, FragOp, Violation};
use partix_storage::WriteOp;
use partix_xml::Document;
use std::fmt;
use std::sync::Arc;

/// Why an online write was refused or aborted. Every variant is typed so
/// the differential harness can assert "right answer or typed error,
/// never wrong or lost data".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteError {
    /// The collection has no registered distribution to route against.
    NoDistribution { collection: String },
    /// Puts are keyed by document name; an anonymous document cannot be
    /// upserted (or later deleted) deterministically.
    UnnamedDocument { collection: String },
    /// The document matches no fragmentation predicate — storing it
    /// anywhere would break completeness, dropping it would lose data.
    /// (The latent gap this error closes: the bulk publisher silently
    /// leaves such documents behind.)
    UnroutableDocument { collection: String, name: String },
    /// The per-document online correctness re-check failed (e.g. the
    /// document satisfies two horizontal predicates — disjointness).
    Correctness { collection: String, name: String, violations: Vec<String> },
    /// The design cannot accept single-document writes: a hybrid
    /// FragMode1 fragment explodes one source document into many
    /// same-named unit documents, which a name-keyed upsert would clobber.
    UnsupportedDesign { collection: String, detail: String },
    /// A replica never acknowledged the write (node down or killed
    /// mid-pipeline). The write's durability on that node is decided by
    /// its WAL on restart; retrying after recovery converges.
    NodeUnavailable { node: usize, fragment: String, detail: String },
    /// A replica's DBMS processed and rejected the write.
    Rejected { node: usize, fragment: String, detail: String },
    /// Delete found no document of that name in any fragment.
    NoSuchDocument { collection: String, name: String },
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::NoDistribution { collection } => {
                write!(f, "collection {collection} has no registered distribution")
            }
            WriteError::UnnamedDocument { collection } => {
                write!(f, "cannot write an unnamed document to {collection}: puts are keyed by name")
            }
            WriteError::UnroutableDocument { collection, name } => write!(
                f,
                "document {name} matches no fragmentation predicate of {collection}; \
                 storing it would break completeness"
            ),
            WriteError::Correctness { collection, name, violations } => write!(
                f,
                "writing {name} to {collection} would violate the design: {}",
                violations.join("; ")
            ),
            WriteError::UnsupportedDesign { collection, detail } => {
                write!(f, "design of {collection} does not support online writes: {detail}")
            }
            WriteError::NodeUnavailable { node, fragment, detail } => write!(
                f,
                "node {node} (fragment {fragment}) did not acknowledge the write: {detail}"
            ),
            WriteError::Rejected { node, fragment, detail } => {
                write!(f, "node {node} (fragment {fragment}) rejected the write: {detail}")
            }
            WriteError::NoSuchDocument { collection, name } => {
                write!(f, "no document named {name} in {collection}")
            }
        }
    }
}

impl std::error::Error for WriteError {}

/// What a successful write did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReport {
    pub collection: String,
    /// Document name the write was keyed by.
    pub name: String,
    /// Fragments that received the document (put) or held it (delete).
    pub fragments: Vec<String>,
    /// Node indices written, in write order.
    pub nodes: Vec<usize>,
    /// For puts: true when an existing document was replaced on at least
    /// one replica (an update rather than a fresh insert).
    pub replaced: bool,
    /// Total existing documents removed across all replicas (for a put,
    /// stale pieces cleaned off non-target fragments during a move).
    pub deleted: u32,
}

impl PartiX {
    /// Insert-or-replace one named document, routed by the collection's
    /// fragmentation design. See the module docs for ordering and crash
    /// semantics. Returns a typed [`WriteError`] — never a silent drop.
    pub fn put(&self, collection: &str, doc: Document) -> Result<WriteReport, WriteError> {
        self.sync_with_meta();
        let outcome = self.put_inner(collection, doc);
        record_write_metrics("partix.writes.puts", outcome.is_err());
        outcome
    }

    /// Alias of [`PartiX::put`] for callers thinking in INSERT terms:
    /// put is an upsert, so inserting an existing name replaces it.
    pub fn insert(&self, collection: &str, doc: Document) -> Result<WriteReport, WriteError> {
        self.put(collection, doc)
    }

    /// Alias of [`PartiX::put`] for callers thinking in UPDATE terms.
    /// Updating a document whose routing value changed moves it across
    /// fragments (put to target, then delete stale pieces).
    pub fn update(&self, collection: &str, doc: Document) -> Result<WriteReport, WriteError> {
        self.put(collection, doc)
    }

    /// Delete one named document wherever the design placed it. The
    /// coordinator does not know which fragment currently holds the name,
    /// so the delete broadcasts to every replica of every fragment;
    /// disjointness guarantees at most one fragment actually removes it.
    pub fn delete(&self, collection: &str, name: &str) -> Result<WriteReport, WriteError> {
        self.sync_with_meta();
        let outcome = self.delete_inner(collection, name);
        record_write_metrics("partix.writes.deletes", outcome.is_err());
        outcome
    }

    fn put_inner(&self, collection: &str, doc: Document) -> Result<WriteReport, WriteError> {
        let name = match &doc.name {
            Some(n) => n.clone(),
            None => return Err(WriteError::UnnamedDocument { collection: collection.into() }),
        };
        let dist = self
            .catalog()
            .distribution(collection)
            .cloned()
            .ok_or_else(|| WriteError::NoDistribution { collection: collection.into() })?;
        let design = &dist.design;
        if let Some(frag) = design.fragments.iter().find(
            |f| matches!(f.op, FragOp::Hybrid { mode: FragMode::ManySmallDocs, .. }),
        ) {
            return Err(WriteError::UnsupportedDesign {
                collection: collection.into(),
                detail: format!(
                    "fragment {} uses FragMode1 (many small docs per source document)",
                    frag.name
                ),
            });
        }

        // Route: fragment the document exactly as the bulk publisher
        // would, then re-check the design rules online against this one
        // document before any node is touched.
        let source = [doc];
        let pieces: Vec<(String, Vec<Document>)> = design
            .fragments
            .iter()
            .map(|frag| (frag.name.clone(), apply_fragment(frag, &source)))
            .collect();
        if pieces.iter().all(|(_, docs)| docs.is_empty()) {
            return Err(WriteError::UnroutableDocument { collection: collection.into(), name });
        }
        if let Some((frag, n)) = pieces.iter().find_map(|(f, docs)| {
            (docs.len() > 1).then(|| (f.clone(), docs.len()))
        }) {
            return Err(WriteError::UnsupportedDesign {
                collection: collection.into(),
                detail: format!(
                    "fragment {frag} produced {n} pieces of one source document; \
                     a name-keyed upsert cannot represent that"
                ),
            });
        }
        // Horizontal designs carry the paper's completeness/disjointness
        // obligations per document; re-verify them with the same checker
        // the publisher and the rebalancer use. (Vertical/hybrid rules
        // are structural and already enforced at design registration.)
        if design.frag_type() == FragType::Horizontal {
            let report = check_correctness(design, &source, &pieces);
            if !report.is_correct() {
                if report.violations.iter().all(|v| matches!(v, Violation::Incomplete { .. })) {
                    return Err(WriteError::UnroutableDocument {
                        collection: collection.into(),
                        name,
                    });
                }
                return Err(WriteError::Correctness {
                    collection: collection.into(),
                    name,
                    violations: report.violations.iter().map(|v| v.to_string()).collect(),
                });
            }
        }

        // Apply: put to target fragments first, then clear stale pieces
        // off the rest (put-before-delete — see module docs).
        let mut report = WriteReport {
            collection: collection.into(),
            name: name.clone(),
            fragments: Vec::new(),
            nodes: Vec::new(),
            replaced: false,
            deleted: 0,
        };
        for (frag_name, mut docs) in pieces.clone() {
            let Some(piece) = docs.pop() else { continue };
            report.fragments.push(frag_name.clone());
            let op = WriteOp::Put { collection: frag_name.clone(), doc: piece };
            for node_id in dist.nodes_of(&frag_name) {
                let affected = self.write_to_node(node_id, &frag_name, &op)?;
                report.nodes.push(node_id);
                report.replaced |= affected > 0;
            }
        }
        for (frag_name, docs) in &pieces {
            if !docs.is_empty() {
                continue;
            }
            let op = WriteOp::Delete { collection: frag_name.clone(), name: name.clone() };
            for node_id in dist.nodes_of(frag_name) {
                let removed = self.write_to_node(node_id, frag_name, &op)?;
                report.deleted += removed;
            }
        }
        Ok(report)
    }

    fn delete_inner(&self, collection: &str, name: &str) -> Result<WriteReport, WriteError> {
        let dist = self
            .catalog()
            .distribution(collection)
            .cloned()
            .ok_or_else(|| WriteError::NoDistribution { collection: collection.into() })?;
        let mut report = WriteReport {
            collection: collection.into(),
            name: name.into(),
            fragments: Vec::new(),
            nodes: Vec::new(),
            replaced: false,
            deleted: 0,
        };
        for frag in &dist.design.fragments {
            let op = WriteOp::Delete { collection: frag.name.clone(), name: name.into() };
            let mut removed_here = 0;
            for node_id in dist.nodes_of(&frag.name) {
                let removed = self.write_to_node(node_id, &frag.name, &op)?;
                removed_here += removed;
                report.nodes.push(node_id);
            }
            if removed_here > 0 {
                report.fragments.push(frag.name.clone());
                report.deleted += removed_here;
            }
        }
        if report.deleted == 0 {
            return Err(WriteError::NoSuchDocument {
                collection: collection.into(),
                name: name.into(),
            });
        }
        Ok(report)
    }

    /// One replica write, mapped into the typed error space.
    fn write_to_node(
        &self,
        node_id: usize,
        fragment: &str,
        op: &WriteOp,
    ) -> Result<u32, WriteError> {
        let node: &Arc<Node> = self.cluster().node(node_id).ok_or_else(|| {
            WriteError::NodeUnavailable {
                node: node_id,
                fragment: fragment.into(),
                detail: "node index outside the cluster".into(),
            }
        })?;
        node.apply_write(op).map_err(|e| match e {
            DriverError::Unavailable(detail) => WriteError::NodeUnavailable {
                node: node_id,
                fragment: fragment.into(),
                detail,
            },
            DriverError::Failed(detail) => WriteError::Rejected {
                node: node_id,
                fragment: fragment.into(),
                detail,
            },
        })
    }
}

fn record_write_metrics(counter: &str, failed: bool) {
    let reg = metrics::global();
    reg.counter("partix.writes").inc();
    reg.counter(counter).inc();
    if failed {
        reg.counter("partix.writes.failed").inc();
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

    fn item(name: &str, section: &str, code: u32) -> Document {
        let mut d = parse(&format!(
            "<Item><Code>{code}</Code><Section>{section}</Section></Item>"
        ))
        .unwrap();
        d.name = Some(name.to_owned());
        d
    }

    fn horizontal_px(replicas: usize) -> PartiX {
        let px = PartiX::new(2 * replicas, NetworkModel::instantaneous());
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
                    "f_rest",
                    Predicate::parse(
                        r#"not(/Item/Section = "CD") and not(/Item/Section = "")"#,
                    )
                    .unwrap(),
                ),
            ],
        )
        .unwrap();
        let mut placements = Vec::new();
        for r in 0..replicas {
            placements.push(Placement { fragment: "f_cd".into(), node: 2 * r });
            placements.push(Placement { fragment: "f_rest".into(), node: 2 * r + 1 });
        }
        px.register_distribution(Distribution { design, placements }).unwrap();
        px
    }

    fn count(px: &PartiX, q: &str) -> f64 {
        match px.execute(q).unwrap().items[0] {
            partix_query::Item::Num(n) => n,
            ref other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn put_routes_by_predicate_and_updates_in_place() {
        let px = horizontal_px(1);
        let r = px.put("items", item("i1", "CD", 7)).unwrap();
        assert_eq!(r.fragments, ["f_cd"]);
        assert_eq!(r.nodes, [0]);
        assert!(!r.replaced);
        let r = px.put("items", item("i2", "DVD", 8)).unwrap();
        assert_eq!(r.fragments, ["f_rest"]);
        assert_eq!(count(&px, r#"count(collection("items")/Item)"#), 2.0);
        // in-place update: same name, same routing value, new content
        let r = px.insert("items", item("i1", "CD", 9)).unwrap();
        assert!(r.replaced);
        assert_eq!(count(&px, r#"count(collection("items")/Item)"#), 2.0);
        assert_eq!(
            count(
                &px,
                r#"count(for $i in collection("items")/Item where $i/Code = "9" return $i)"#
            ),
            1.0
        );
    }

    #[test]
    fn put_moves_document_across_fragments_when_routing_value_changes() {
        let px = horizontal_px(1);
        let cd_count =
            r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#;
        px.put("items", item("i1", "CD", 7)).unwrap();
        assert_eq!(count(&px, cd_count), 1.0);
        // the Section flips: the document must move f_cd → f_rest
        let r = px.update("items", item("i1", "DVD", 7)).unwrap();
        assert_eq!(r.fragments, ["f_rest"]);
        assert_eq!(r.deleted, 1, "stale piece cleared off f_cd");
        assert_eq!(count(&px, r#"count(collection("items")/Item)"#), 1.0);
        assert_eq!(count(&px, cd_count), 0.0);
    }

    #[test]
    fn unroutable_document_is_a_typed_error_not_a_silent_drop() {
        let px = horizontal_px(1);
        let err = px.put("items", item("i1", "", 7)).unwrap_err();
        assert!(matches!(err, WriteError::UnroutableDocument { .. }), "{err}");
        assert_eq!(count(&px, r#"count(collection("items")/Item)"#), 0.0);
    }

    #[test]
    fn unnamed_and_undistributed_writes_are_typed_errors() {
        let px = horizontal_px(1);
        let mut anon = item("x", "CD", 1);
        anon.name = None;
        assert!(matches!(
            px.put("items", anon).unwrap_err(),
            WriteError::UnnamedDocument { .. }
        ));
        assert!(matches!(
            px.put("nope", item("i1", "CD", 1)).unwrap_err(),
            WriteError::NoDistribution { .. }
        ));
        assert!(matches!(
            px.delete("nope", "i1").unwrap_err(),
            WriteError::NoDistribution { .. }
        ));
    }

    #[test]
    fn overlapping_predicates_fail_the_online_disjointness_check() {
        let px = PartiX::new(2, NetworkModel::instantaneous());
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
                // overlaps f_cd for every CD item with a Code — design
                // registration cannot see that (predicate satisfiability
                // is data-dependent); the online per-document check can
                FragmentDef::horizontal(
                    "f_all",
                    Predicate::parse(r#"not(/Item/Section = "")"#).unwrap(),
                ),
            ],
        )
        .unwrap();
        px.register_distribution(Distribution {
            design,
            placements: vec![
                Placement { fragment: "f_cd".into(), node: 0 },
                Placement { fragment: "f_all".into(), node: 1 },
            ],
        })
        .unwrap();
        let err = px.put("items", item("i1", "CD", 7)).unwrap_err();
        assert!(matches!(err, WriteError::Correctness { .. }), "{err}");
        // nothing was written anywhere: the check runs before any node
        assert_eq!(count(&px, r#"count(collection("items")/Item)"#), 0.0);
    }

    #[test]
    fn delete_broadcasts_and_reports_missing_names() {
        let px = horizontal_px(1);
        px.put("items", item("i1", "CD", 7)).unwrap();
        px.put("items", item("i2", "DVD", 8)).unwrap();
        let r = px.delete("items", "i2").unwrap();
        assert_eq!(r.fragments, ["f_rest"]);
        assert_eq!(r.deleted, 1);
        assert_eq!(count(&px, r#"count(collection("items")/Item)"#), 1.0);
        assert!(matches!(
            px.delete("items", "i2").unwrap_err(),
            WriteError::NoSuchDocument { .. }
        ));
    }

    #[test]
    fn writes_hit_every_replica() {
        let px = horizontal_px(2);
        let r = px.put("items", item("i1", "CD", 7)).unwrap();
        assert_eq!(r.nodes, [0, 2]);
        for node in [0, 2] {
            let db = &px.cluster().node(node).unwrap().db;
            assert_eq!(db.collection_len("f_cd").unwrap(), 1, "replica on node {node}");
        }
        let r = px.delete("items", "i1").unwrap();
        assert_eq!(r.deleted, 2, "one removal per replica");
    }
}
