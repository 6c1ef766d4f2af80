//! Cross-crate integration: generate → fragment → publish → query, for
//! all three fragmentation families, with equivalence against the
//! centralized baseline at every step.

mod common;

use common::gen::Family;
use common::{route_holds, Route};
use partix::engine::{DispatchMode, Distribution, NetworkModel, PartiX, Placement};
use partix::frag::{FragmentDef, FragmentationSchema};
use partix::gen::{gen_items, ItemProfile};
use partix::path::{PathExpr, Predicate};
use partix::schema::{builtin, CollectionDef, RepoKind};
use partix::xml::Document;
use std::sync::Arc;

fn p(s: &str) -> PathExpr {
    PathExpr::parse(s).unwrap()
}

fn pr(s: &str) -> Predicate {
    Predicate::parse(s).unwrap()
}

/// Generate → fragment → publish → stream: over horizontal designs the
/// distributed answer, streamed in process, is the centralized one.
#[test]
fn horizontal_distributed_equals_centralized() {
    route_holds(&[Family::Horizontal], 16, |_| Route::Streamed(DispatchMode::Simulated));
}

/// Vertical fragmentation: every query agrees with centralized, whether
/// answered by rewrite, per fragment or by reconstruction.
#[test]
fn vertical_distributed_equals_centralized() {
    route_holds(&[Family::Vertical], 16, |_| Route::Streamed(DispatchMode::Simulated));
}

/// Hybrid fragmentation, both storage modes, agrees with centralized.
#[test]
fn hybrid_distributed_equals_centralized() {
    route_holds(&[Family::Hybrid], 16, |_| Route::Streamed(DispatchMode::Simulated));
}

/// `C_items` in `f_cd` (node 0) and `f_rest` (node 1), nothing published.
fn cd_and_rest() -> PartiX {
    let px = PartiX::new(2, NetworkModel::default());
    let design = FragmentationSchema::new(
        citems(),
        vec![
            FragmentDef::horizontal("f_cd", pr(r#"/Item/Section = "CD""#)),
            FragmentDef::horizontal("f_rest", pr(r#"not(/Item/Section = "CD")"#)),
        ],
    )
    .unwrap();
    let placements = vec![
        Placement { fragment: "f_cd".into(), node: 0 },
        Placement { fragment: "f_rest".into(), node: 1 },
    ];
    px.register_distribution(Distribution { design, placements }).unwrap();
    px
}

fn citems() -> CollectionDef {
    let items = p("/Store/Items/Item");
    let (schema, kind) = (Arc::new(builtin::virtual_store()), RepoKind::MultipleDocuments);
    CollectionDef::new("items", schema, items, kind)
}

/// A fragmented node database survives a save/load cycle and still
/// answers distributed queries identically.
#[test]
fn persistence_of_fragmented_nodes() {
    let docs = gen_items(60, ItemProfile::Small, 4);
    let px = cd_and_rest();
    px.publish("items", &docs).unwrap();

    let dir = std::env::temp_dir().join(format!("partix-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    px.cluster().node(0).unwrap().db.save_to(&dir).unwrap();
    let reloaded = partix::storage::Database::load_from(&dir).unwrap();
    let count = r#"count(collection("f_cd")/Item)"#;
    let before = px.cluster().node(0).unwrap().db.execute(count).unwrap();
    let after = reloaded.execute(count).unwrap();
    assert_eq!(before.items, after.items);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// XML text → parse → fragment → reconstruct → serialize: the full data
/// path preserves content exactly (vertical, exact-order reconstruction).
#[test]
fn full_data_path_lossless() {
    let docs = gen_items(30, ItemProfile::Large, 5);
    let design = FragmentationSchema::new(
        citems(),
        vec![
            FragmentDef::vertical(
                "f_main",
                p("/Item"),
                vec![p("/Item/PictureList"), p("/Item/PricesHistory")],
            ),
            FragmentDef::vertical("f_pics", p("/Item/PictureList"), vec![]),
            FragmentDef::vertical("f_prices", p("/Item/PricesHistory"), vec![]),
        ],
    )
    .unwrap();
    // round-trip each document through XML text first
    let reparsed: Vec<Document> = docs
        .iter()
        .map(|d| {
            let text = partix::xml::to_string(d);
            let mut back = partix::xml::parse(&text).unwrap();
            back.name = d.name.clone();
            back
        })
        .collect();
    for (a, b) in docs.iter().zip(&reparsed) {
        assert_eq!(a, b, "XML round-trip must be lossless");
    }
    let fragmenter = partix::frag::Fragmenter::new(design.clone());
    let fragments = fragmenter.fragment_all(&reparsed);
    let report = partix::frag::check_correctness(&design, &reparsed, &fragments);
    assert!(report.is_correct(), "{:?}", report.violations);
    let rebuilt = partix::frag::correctness::reconstruct_any(&design, &fragments).unwrap();
    assert_eq!(rebuilt.len(), docs.len());
    for (orig, back) in docs.iter().zip(&rebuilt) {
        assert_eq!(orig, back);
    }
}

/// Failure injection: a downed node fails queries that need it, leaves
/// localized queries untouched, and recovers.
#[test]
fn node_failure_and_recovery() {
    let docs = gen_items(40, ItemProfile::Small, 6);
    let px = cd_and_rest();
    px.publish("items", &docs).unwrap();

    px.cluster().node(1).unwrap().set_available(false);
    let all = r#"count(for $i in collection("items")/Item return $i)"#;
    let localized =
        r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#;
    assert!(px.execute(all).is_err());
    px.execute(localized).expect("localized query avoids the dead node");
    px.cluster().node(1).unwrap().set_available(true);
    px.execute(all).expect("recovered");
}

/// A custom DBMS driver (the paper's "PartiX Driver" pluggability):
/// wrap one node's driver in a fault injector and verify the middleware
/// surfaces the failure, then recovers when the DBMS does.
#[test]
fn pluggable_driver_with_fault_injection() {
    use partix::engine::{Fault, FaultInjector, PartixDriver};

    let docs = gen_items(20, ItemProfile::Small, 9);
    let px = cd_and_rest();

    // install a standalone database as node 1's driver, wrapped in a fault
    // injector that serves one query, BEFORE publishing, so the publisher
    // ships through both as well
    let backing = Arc::new(partix::storage::Database::new());
    let node = px.cluster().node(1).unwrap();
    node.set_driver(Arc::clone(&backing) as Arc<dyn PartixDriver>);
    let injector = FaultInjector::install(node, vec![Fault::ErrorAfter { ok_calls: 1 }]);
    px.publish("items", &docs).unwrap();
    // the fragment went into the custom backing store, not the node's db
    assert!(backing.collection_len("f_rest").unwrap() > 0);
    assert!(px.cluster().node(1).unwrap().db.collection_len("f_rest").is_err());

    let q = r#"count(for $i in collection("items")/Item return $i)"#;
    let ok = px.execute(q).unwrap();
    assert_eq!(ok.items, vec![partix::query::Item::Num(20.0)]);
    assert_eq!(injector.stats().calls, 1);

    // injected DBMS failure surfaces as a sub-query error…
    assert!(matches!(
        px.execute(q),
        Err(partix::engine::PartixError::SubQuery { node: 1, .. })
    ));
    assert!(injector.stats().injected_errors >= 1);
    // …and recovery is transparent once the DBMS is back
    node.set_driver(backing);
    assert_eq!(px.execute(q).unwrap().items, vec![partix::query::Item::Num(20.0)]);
}
