//! Live rebalancing: migrate fragments between nodes while queries keep
//! serving.
//!
//! A rebalance moves a collection from its current placement to a
//! target placement (same design — a design change is a re-publish, not
//! a rebalance) in two phases:
//!
//! * **Phase A — copy.** For every fragment, read its documents from the
//!   first replica that answers, store them on each new node and read
//!   every new copy back; then atomically register the *union* placement
//!   (old ∪ new). From this instant queries may be served by either
//!   generation of replicas; both hold identical data. A source no
//!   replica of which answers, or a copy that does not read back whole,
//!   fails the rebalance with [`RebalanceError::SourceUnavailable`]
//!   before the catalog changes: no replica is ever retired in favour of
//!   a copy that was not verified.
//! * **Phase B — retire.** Atomically register the target placement,
//!   then drop the fragment from every node that lost its replica.
//!
//! Safety relies on two engine mechanisms: catalog registration swaps
//! an `Arc<Distribution>`, and the query service binds every dispatch
//! attempt to the distribution it took its replica from. An answer that
//! lands after a swap is discarded and re-run on the fragment's current
//! replica, so a query that reached a replica dropped in Phase B never
//! answers from an empty collection. The coordinator keeps no answers,
//! so nothing read from a retired replica outlives its retirement.
//!
//! After the swap the rebalancer re-validates the distribution
//! ([`Distribution::validate_against`](partix_engine::Distribution))
//! and — for horizontal designs — re-checks fragmentation completeness
//! and disjointness over the migrated contents via
//! [`partix_frag::check_correctness`].

use partix_engine::{metrics, Distribution, PartiX, PartixError, Placement};
use partix_frag::check_correctness;
use partix_frag::def::FragType;
use partix_xml::Document;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// One fragment's migration within a rebalance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveRecord {
    pub fragment: String,
    /// Replica nodes before the rebalance.
    pub from: Vec<usize>,
    /// Replica nodes after the rebalance.
    pub to: Vec<usize>,
    /// Documents copied to each new replica.
    pub docs: usize,
    /// Bytes shipped (documents × new replicas).
    pub bytes: u64,
}

/// What a rebalance did.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    pub collection: String,
    /// Fragments whose replica set changed (unchanged fragments are not
    /// listed).
    pub moves: Vec<MoveRecord>,
    /// Total bytes copied to new replicas.
    pub migrated_bytes: u64,
    /// Total documents copied to new replicas.
    pub migrated_docs: u64,
    /// Wall time of the whole rebalance (seconds).
    pub elapsed_s: f64,
    /// True when post-migration validation (placement validity, and for
    /// horizontal designs completeness/disjointness over the migrated
    /// contents) passed.
    pub verified: bool,
}

#[derive(Debug)]
pub enum RebalanceError {
    /// The collection has no registered distribution.
    NoDistribution(String),
    /// The target placement failed validation (typed detail inside).
    InvalidTarget(PartixError),
    /// A fragment has no live replica to copy from.
    SourceUnavailable { fragment: String, node: usize },
    /// Post-migration correctness re-validation failed.
    VerificationFailed { violations: Vec<String> },
}

impl fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebalanceError::NoDistribution(c) => {
                write!(f, "collection {c:?} has no registered distribution")
            }
            RebalanceError::InvalidTarget(e) => write!(f, "invalid target placement: {e}"),
            RebalanceError::SourceUnavailable { fragment, node } => {
                write!(f, "fragment {fragment:?} has no live source replica (node {node} missing)")
            }
            RebalanceError::VerificationFailed { violations } => {
                write!(f, "post-migration verification failed: {}", violations.join("; "))
            }
        }
    }
}

impl std::error::Error for RebalanceError {}

/// Options controlling a rebalance.
#[derive(Debug, Clone)]
pub struct RebalanceOptions {
    /// Re-run data-level completeness/disjointness checks after the
    /// swap (horizontal designs only; placement validation always
    /// runs). Default on.
    pub verify: bool,
}

impl Default for RebalanceOptions {
    fn default() -> Self {
        RebalanceOptions { verify: true }
    }
}

/// Observable milestones of a running rebalance, in order. Exposed for
/// callers that must interleave deterministically with a migration —
/// the write-during-migration differential test injects a write at
/// [`RebalancePhase::UnionRegistered`], the exact window where queries
/// may be served by either generation of replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalancePhase {
    /// All new replicas hold their copies; the catalog still points at
    /// the old placement.
    Copied,
    /// The union placement (old ∪ new replicas) is registered.
    UnionRegistered,
    /// The target placement is registered; old replicas retire next.
    Swapped,
}

/// Migrate `collection` to `target` placements, live.
///
/// Queries keep executing throughout: the copy phase only adds
/// replicas, the swap is atomic, and the engine re-runs on the current
/// placement any sub-query answer caught by the retire phase. Returns a
/// [`RebalanceReport`] describing every moved fragment; a no-op target
/// (placements already current) returns an empty report.
pub fn rebalance(
    px: &PartiX,
    collection: &str,
    target: &[Placement],
    options: &RebalanceOptions,
) -> Result<RebalanceReport, RebalanceError> {
    rebalance_with_observer(px, collection, target, options, &mut |_| {})
}

/// [`rebalance`] with a milestone callback — see [`RebalancePhase`].
/// The observer runs synchronously inside the rebalance, so whatever it
/// does (e.g. issue a write through the coordinator) is strictly
/// ordered against the migration's catalog swaps.
pub fn rebalance_with_observer(
    px: &PartiX,
    collection: &str,
    target: &[Placement],
    options: &RebalanceOptions,
    observer: &mut dyn FnMut(RebalancePhase),
) -> Result<RebalanceReport, RebalanceError> {
    let start = Instant::now();
    let current = px
        .catalog()
        .distribution(collection)
        .cloned()
        .ok_or_else(|| RebalanceError::NoDistribution(collection.to_owned()))?;

    // dry-validate the target against the current design before touching
    // any node
    let target_dist =
        Distribution { design: current.design.clone(), placements: target.to_vec() };
    target_dist
        .validate_against(px.cluster().len())
        .map_err(|e| RebalanceError::InvalidTarget(PartixError::InvalidDistribution(e)))?;

    let fragments: Vec<String> =
        current.design.fragments.iter().map(|f| f.name.clone()).collect();
    let mut report =
        RebalanceReport { collection: collection.to_owned(), ..Default::default() };

    // ---- Phase A: copy to new replicas, then serve from the union ----
    let mut union_placements: Vec<Placement> = Vec::new();
    let mut doc_counts: BTreeMap<String, usize> = BTreeMap::new();
    for fragment in &fragments {
        let from = current.nodes_of(fragment);
        let to = target_dist.nodes_of(fragment);
        let unavailable =
            |node: usize| RebalanceError::SourceUnavailable { fragment: fragment.clone(), node };
        // a fragment's documents as `node` answers them; `None` when it
        // does not answer — never an empty fragment in its place. A node
        // whose query path refuses the read (a wedged engine, an injected
        // fault) is still read through the publication-side fetch, which
        // answers empty when it fails: only a non-empty answer counts.
        let read = |node: usize| {
            let node = px.cluster().node(node)?;
            node.try_fetch_docs(fragment, None).ok().or_else(|| {
                let docs = node.fetch_docs(fragment);
                (!docs.is_empty()).then_some(docs)
            })
        };
        let docs: Vec<Document> = from
            .iter()
            .find_map(|&node| read(node))
            .ok_or_else(|| unavailable(from.first().copied().unwrap_or(usize::MAX)))?
            .iter()
            .map(|d| (**d).clone())
            .collect();
        doc_counts.insert(fragment.clone(), docs.len());
        let adds: Vec<usize> = to.iter().copied().filter(|n| !from.contains(n)).collect();
        let bytes_per_copy: u64 =
            docs.iter().map(|d| d.approx_size() as u64).sum();
        for &node_id in &adds {
            let node = px.cluster().node(node_id).ok_or_else(|| unavailable(node_id))?;
            // the catalog places nothing of this fragment here yet, so a
            // leftover of an earlier, failed copy can go
            node.drop_collection(fragment);
            node.store_docs(fragment, docs.clone());
            if read(node_id).map(|copy| copy.len()) != Some(docs.len()) {
                return Err(unavailable(node_id));
            }
        }
        if from != to {
            report.moves.push(MoveRecord {
                fragment: fragment.clone(),
                from: from.clone(),
                to: to.clone(),
                docs: docs.len(),
                bytes: bytes_per_copy * adds.len() as u64,
            });
            report.migrated_docs += (docs.len() * adds.len()) as u64;
            report.migrated_bytes += bytes_per_copy * adds.len() as u64;
        }
        for &node in from.iter().chain(adds.iter()) {
            union_placements.push(Placement { fragment: fragment.clone(), node });
        }
    }
    if report.moves.is_empty() {
        // nothing to do — placements already match
        report.elapsed_s = start.elapsed().as_secs_f64();
        report.verified = true;
        return Ok(report);
    }
    observer(RebalancePhase::Copied);
    px.register_distribution(Distribution {
        design: current.design.clone(),
        placements: union_placements,
    })
    .map_err(RebalanceError::InvalidTarget)?;
    observer(RebalancePhase::UnionRegistered);

    // ---- Phase B: swap to the target, retire old replicas ----
    px.register_distribution(target_dist.clone()).map_err(RebalanceError::InvalidTarget)?;
    observer(RebalancePhase::Swapped);
    for fragment in &fragments {
        let from = current.nodes_of(fragment);
        let to = target_dist.nodes_of(fragment);
        for node_id in from.into_iter().filter(|n| !to.contains(n)) {
            if let Some(node) = px.cluster().node(node_id) {
                node.drop_collection(fragment);
            }
        }
    }

    // ---- verification ----
    let mut violations: Vec<String> = Vec::new();
    let mut contents: Vec<(String, Vec<Document>)> = Vec::new();
    for fragment in &fragments {
        let node_id = *target_dist.nodes_of(fragment).first().expect("validated");
        let node = px.cluster().node(node_id).expect("validated");
        let docs: Vec<Document> =
            node.fetch_docs(fragment).iter().map(|d| (**d).clone()).collect();
        // guard against migration-induced *loss*: a concurrent online
        // put during the union window legitimately grows the fragment
        // between copy and verify, so growth is not a violation
        if docs.len() < doc_counts[fragment] {
            violations.push(format!(
                "{fragment}: {} docs after migration, expected at least {}",
                docs.len(),
                doc_counts[fragment]
            ));
        }
        contents.push((fragment.clone(), docs));
    }
    if options.verify && current.design.frag_type() == FragType::Horizontal {
        // the union of the migrated fragments must itself re-fragment
        // completely and disjointly under the design
        let sources: Vec<Document> =
            contents.iter().flat_map(|(_, docs)| docs.iter().cloned()).collect();
        let check = check_correctness(&current.design, &sources, &contents);
        violations.extend(check.violations.iter().map(|v| v.to_string()));
    }
    if !violations.is_empty() {
        return Err(RebalanceError::VerificationFailed { violations });
    }
    report.verified = true;

    let m = metrics::global();
    m.counter("rebalance.moves").add(report.moves.len() as u64);
    m.counter("rebalance.bytes").add(report.migrated_bytes);
    px.refresh_node_gauges();
    report.elapsed_s = start.elapsed().as_secs_f64();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_engine::cluster::NetworkModel;
    use partix_frag::{FragmentDef, FragmentationSchema};
    use partix_path::{PathExpr, Predicate};
    use partix_schema::builtin::virtual_store;
    use partix_schema::{CollectionDef, RepoKind};
    use partix_xml::parse;
    use std::sync::Arc;

    fn items(n: usize) -> Vec<Document> {
        (0..n)
            .map(|i| {
                let section = ["CD", "DVD", "BOOK"][i % 3];
                let mut d = parse(&format!(
                    "<Item><Code>{i}</Code><Section>{section}</Section></Item>"
                ))
                .unwrap();
                d.name = Some(format!("i{i:04}"));
                d
            })
            .collect()
    }

    /// 3-node cluster, every fragment packed onto node 0.
    fn skewed_px() -> PartiX {
        let px = PartiX::new(3, NetworkModel::default());
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
                FragmentDef::horizontal(
                    "f_book",
                    Predicate::parse(r#"/Item/Section = "BOOK""#).unwrap(),
                ),
            ],
        )
        .unwrap();
        px.register_distribution(Distribution {
            design,
            placements: vec![
                Placement { fragment: "f_cd".into(), node: 0 },
                Placement { fragment: "f_dvd".into(), node: 0 },
                Placement { fragment: "f_book".into(), node: 0 },
            ],
        })
        .unwrap();
        px.publish("items", &items(30)).unwrap();
        px
    }

    const COUNT_Q: &str = r#"count(for $i in collection("items")/Item return $i)"#;

    fn count_of(px: &PartiX) -> String {
        let result = px.execute(COUNT_Q).unwrap();
        assert_eq!(result.items.len(), 1);
        result.items[0].serialize()
    }

    fn spread() -> Vec<Placement> {
        vec![
            Placement { fragment: "f_cd".into(), node: 0 },
            Placement { fragment: "f_dvd".into(), node: 1 },
            Placement { fragment: "f_book".into(), node: 2 },
        ]
    }

    #[test]
    fn migrates_fragments_and_queries_survive() {
        let px = skewed_px();
        let before = count_of(&px);
        let report =
            rebalance(&px, "items", &spread(), &RebalanceOptions::default()).unwrap();
        assert!(report.verified);
        assert_eq!(report.moves.len(), 2, "{:?}", report.moves);
        assert!(report.migrated_bytes > 0);
        assert_eq!(report.migrated_docs, 20);
        // answers identical across the migration
        assert_eq!(count_of(&px), before);
        // retired replicas are gone from node 0
        let n0 = px.cluster().node(0).unwrap();
        assert!(n0.db.collection_len("f_dvd").is_err());
        assert!(n0.db.collection_len("f_book").is_err());
        // and live on their new nodes
        assert_eq!(px.cluster().node(1).unwrap().db.collection_len("f_dvd").unwrap(), 10);
        assert_eq!(px.cluster().node(2).unwrap().db.collection_len("f_book").unwrap(), 10);
        // placements in the catalog match the target
        let dist = px.catalog().distribution("items").cloned().unwrap();
        assert_eq!(dist.nodes_of("f_dvd"), vec![1]);
    }

    #[test]
    fn rebalance_is_idempotent_for_a_matching_target() {
        let px = skewed_px();
        rebalance(&px, "items", &spread(), &RebalanceOptions::default()).unwrap();
        let again =
            rebalance(&px, "items", &spread(), &RebalanceOptions::default()).unwrap();
        assert!(again.moves.is_empty());
        assert_eq!(again.migrated_bytes, 0);
        assert!(again.verified);
    }

    #[test]
    fn can_grow_and_shrink_replicas() {
        let px = skewed_px();
        // replicate f_cd onto all three nodes
        let mut target = spread();
        target.push(Placement { fragment: "f_cd".into(), node: 1 });
        target.push(Placement { fragment: "f_cd".into(), node: 2 });
        let report =
            rebalance(&px, "items", &target, &RebalanceOptions::default()).unwrap();
        assert!(report.verified);
        assert_eq!(px.catalog().distribution("items").unwrap().nodes_of("f_cd").len(), 3);
        assert_eq!(px.cluster().node(2).unwrap().db.collection_len("f_cd").unwrap(), 10);
        // then shrink back to a single replica on node 2
        let mut shrink = spread();
        shrink[0] = Placement { fragment: "f_cd".into(), node: 2 };
        let report =
            rebalance(&px, "items", &shrink, &RebalanceOptions::default()).unwrap();
        assert!(report.verified);
        assert!(px.cluster().node(0).unwrap().db.collection_len("f_cd").is_err());
        assert!(px.cluster().node(1).unwrap().db.collection_len("f_cd").is_err());
        assert_eq!(count_of(&px), "30");
    }

    #[test]
    fn rejects_invalid_targets_without_side_effects() {
        let px = skewed_px();
        // out-of-range node
        let mut bad = spread();
        bad[1].node = 9;
        assert!(matches!(
            rebalance(&px, "items", &bad, &RebalanceOptions::default()),
            Err(RebalanceError::InvalidTarget(_))
        ));
        // unknown fragment
        let mut ghost = spread();
        ghost.push(Placement { fragment: "f_ghost".into(), node: 1 });
        assert!(matches!(
            rebalance(&px, "items", &ghost, &RebalanceOptions::default()),
            Err(RebalanceError::InvalidTarget(_))
        ));
        // unplaced fragment
        let missing = vec![Placement { fragment: "f_cd".into(), node: 0 }];
        assert!(matches!(
            rebalance(&px, "items", &missing, &RebalanceOptions::default()),
            Err(RebalanceError::InvalidTarget(_))
        ));
        // no distribution at all
        assert!(matches!(
            rebalance(&px, "nope", &spread(), &RebalanceOptions::default()),
            Err(RebalanceError::NoDistribution(_))
        ));
        // nothing moved, nothing dropped
        assert_eq!(px.cluster().node(0).unwrap().db.collection_len("f_cd").unwrap(), 10);
        assert_eq!(count_of(&px), "30");
    }
}
