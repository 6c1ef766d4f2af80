//! Warehouse → advisor end-to-end: the XML data-warehouse workload
//! ([`partix_gen::warehouse`]) drives the advisor's frequency miner.
//! The region-skewed dashboard query log is mined for hot equality
//! predicates, the mined paths become horizontal re-split candidates,
//! the recommended design passes the formal completeness/disjointness
//! check, and both adoption paths — fresh registration and live
//! [`partix_advisor::rebalance`] migration — keep answering the star
//! queries with the centralized oracle's bytes.

use partix::engine::{Distribution, NetworkModel, PartiX, Placement};
use partix::frag::{check_correctness, FragmentDef, FragmentationSchema, Fragmenter};
use partix::gen::{gen_warehouse, warehouse_queries, warehouse_workload, WarehouseConfig};
use partix::path::{PathExpr, Predicate};
use partix::query::Item;
use partix::schema::{CollectionDef, ElementDecl, Occurs, RepoKind, Schema};
use partix_bench::oracle::canonical;
use partix_advisor::{
    advise_live, mine_predicates, mined_split_paths, AdvisorConfig, WorkloadProfiler,
};
use std::sync::Arc;

const FACTS: &str = "facts";
const FACTS_CENTRAL: &str = "facts_central";
const DIM_PRODUCTS: &str = "dim_products";
const DIM_OUTLETS: &str = "dim_outlets";
const NODES: usize = 4;
const SEED: u64 = 0x00DA_7A1B;

fn p(s: &str) -> PathExpr {
    PathExpr::parse(s).expect("path")
}

/// Oracle equality for star-query answers. Aggregates like `sum()` are
/// composed from per-fragment partials, so a re-fragmentation legally
/// reorders a float summation; numeric answers compare under a relative
/// epsilon, everything else must match byte-for-byte.
fn assert_within_epsilon_of_oracle(id: &str, phase: &str, items: &[Item], oracle: &str) {
    let got = canonical(items);
    if let (Ok(a), Ok(b)) = (got.parse::<f64>(), oracle.parse::<f64>()) {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "{id} {phase}: {a} vs oracle {b}",
        );
    } else {
        assert_eq!(got, oracle, "{id} {phase}");
    }
}

/// The fact collection: `Sale`-rooted MD documents.
fn facts_collection() -> CollectionDef {
    let sale = ElementDecl::complex(
        "Sale",
        vec![
            (ElementDecl::leaf("Id"), Occurs::ONE),
            (ElementDecl::leaf("Product"), Occurs::ONE),
            (ElementDecl::leaf("Outlet"), Occurs::ONE),
            (ElementDecl::leaf("Region"), Occurs::ONE),
            (ElementDecl::leaf("Quarter"), Occurs::ONE),
            (ElementDecl::leaf("Units"), Occurs::ONE),
            (ElementDecl::leaf("Amount"), Occurs::ONE),
        ],
    );
    CollectionDef::new(
        FACTS,
        Arc::new(Schema::new("warehouse_facts", sale)),
        p("/Sale"),
        RepoKind::MultipleDocuments,
    )
}

/// The un-advised starting point: the whole fact collection as one
/// fragment sitting on node 0 of a `NODES`-node cluster, plus the
/// centralized oracle copy.
fn unfragmented_warehouse(sales: &[partix::xml::Document]) -> PartiX {
    let px = PartiX::new(NODES, NetworkModel::default());
    let design = FragmentationSchema::new(
        facts_collection(),
        vec![FragmentDef::horizontal("all", Predicate::Exists(p("/Sale")))],
    )
    .expect("single-fragment design");
    px.register_distribution(Distribution {
        design,
        placements: vec![Placement { fragment: "all".into(), node: 0 }],
    })
    .expect("placement valid");
    px.publish(FACTS, sales).expect("publish facts");
    px.publish_centralized(0, FACTS_CENTRAL, sales).expect("oracle copy");
    px
}

/// QW1–QW6: the star queries that touch only the fact collection (the
/// dimension lookups QW7/QW8 need no fragmented distribution).
fn fact_queries() -> Vec<(&'static str, String)> {
    warehouse_queries(FACTS, DIM_PRODUCTS, DIM_OUTLETS)
        .into_iter()
        .filter(|(_, q)| !q.contains(DIM_PRODUCTS) && !q.contains(DIM_OUTLETS))
        .collect()
}

fn oracle_answers(px: &PartiX, queries: &[(&'static str, String)]) -> Vec<String> {
    queries
        .iter()
        .map(|(id, q)| {
            let central = q.replace(
                &format!("collection(\"{FACTS}\")"),
                &format!("collection(\"{FACTS_CENTRAL}\")"),
            );
            canonical(
                &px.execute_centralized(0, &central)
                    .unwrap_or_else(|e| panic!("{id} oracle: {e}"))
                    .items,
            )
        })
        .collect()
}

/// The dashboard mix is region-dominant by construction; the miner must
/// surface `/Sale/Region` as the hottest split path for the facts.
#[test]
fn mining_surfaces_region_as_the_hottest_fact_predicate() {
    let log = warehouse_workload(FACTS, DIM_PRODUCTS, DIM_OUTLETS);
    let mined = mine_predicates(&log);
    let paths = mined_split_paths(&mined, FACTS, 2);
    assert!(!paths.is_empty(), "nothing mined from the warehouse log");
    assert_eq!(paths[0].to_string(), "/Sale/Region", "region must mine hottest");
    let region = mined
        .iter()
        .find(|m| m.collection == FACTS && m.path.to_string() == "/Sale/Region")
        .expect("region predicate mined");
    for other in mined.iter().filter(|m| m.collection == FACTS) {
        assert!(region.hits >= other.hits, "{} out-mined Region", other.path);
    }
}

/// A mined re-split of generated fact documents satisfies the formal
/// fragmentation rules: complete, disjoint, reconstructible.
#[test]
fn mined_region_design_is_complete_and_disjoint() {
    let warehouse = gen_warehouse(WarehouseConfig::default(), SEED);
    let log = warehouse_workload(FACTS, DIM_PRODUCTS, DIM_OUTLETS);
    let path = mined_split_paths(&mine_predicates(&log), FACTS, 1)
        .into_iter()
        .next()
        .expect("a mined path");
    for count in [2, 4] {
        let design =
            partix::frag::horizontal_by_values(facts_collection(), &path, &warehouse.sales, count)
                .unwrap_or_else(|e| panic!("{count}-way split: {e}"));
        let fragments = Fragmenter::new(design.clone()).fragment_all(&warehouse.sales);
        let report = check_correctness(&design, &warehouse.sales, &fragments);
        assert!(
            report.is_correct(),
            "{count}-way mined design violates fragmentation rules: {:?}",
            report.violations,
        );
    }
}

/// Full loop: run the warehouse workload against the unfragmented
/// cluster, feed the profile *and the raw query log* to the advisor,
/// and adopt its mined re-split. The advised design must check out
/// formally and keep every star query on the oracle's answer.
#[test]
fn advisor_resplits_warehouse_facts_from_the_mined_log() {
    let warehouse = gen_warehouse(WarehouseConfig::default(), SEED);
    let px = unfragmented_warehouse(&warehouse.sales);
    let queries = fact_queries();
    let oracle = oracle_answers(&px, &queries);

    // profile one pass of the fact workload against the bad layout
    let profiler = WorkloadProfiler::new();
    for (idx, (id, q)) in queries.iter().enumerate() {
        let result = px.execute(q).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_within_epsilon_of_oracle(id, "pre-advice", &result.items, &oracle[idx]);
        profiler.record(&result.report);
    }
    profiler.observe_placement(&px, FACTS);

    let mut config = AdvisorConfig::new(NODES);
    config.seed = SEED;
    config.candidate_counts = vec![2, 4];
    // no operator-supplied split path: candidates must come from mining
    config.query_log = warehouse_workload(FACTS, DIM_PRODUCTS, DIM_OUTLETS);
    config.mined_paths = 2;
    let advice = advise_live(&px, FACTS, &profiler.snapshot(), &config)
        .expect("advise")
        .expect("facts distribution registered");

    assert!(
        advice.candidates_considered > 1,
        "mining produced no candidates beyond the current design",
    );
    assert!(advice.design_changed, "advisor kept the one-fragment layout");
    let described: Vec<String> =
        advice.design.fragments.iter().map(|f| format!("{f}")).collect();
    assert!(
        described.iter().any(|d| d.contains("/Sale/Region") || d.contains("/Sale/Quarter")),
        "winning design does not split on a mined path: {described:?}",
    );
    let fragments = Fragmenter::new(advice.design.clone()).fragment_all(&warehouse.sales);
    let report = check_correctness(&advice.design, &warehouse.sales, &fragments);
    assert!(report.is_correct(), "advised design invalid: {:?}", report.violations);

    // adopt on a fresh cluster and re-verify every answer
    let adopted = PartiX::new(NODES, NetworkModel::default());
    adopted.register_distribution(advice.distribution()).expect("advised placement valid");
    adopted.publish(FACTS, &warehouse.sales).expect("republish");
    adopted
        .publish_centralized(0, FACTS_CENTRAL, &warehouse.sales)
        .expect("oracle copy");
    for (idx, (id, q)) in queries.iter().enumerate() {
        let result = adopted.execute(q).unwrap_or_else(|e| panic!("{id} post-adopt: {e}"));
        assert_within_epsilon_of_oracle(id, "after adoption", &result.items, &oracle[idx]);
    }
}

/// The advised placement also lands through the *live* migration path:
/// start from the mined design parked entirely on node 0, rebalance to
/// the advisor's placement while verifying, and keep oracle answers.
#[test]
fn mined_design_rebalances_live_onto_the_advised_placement() {
    let warehouse = gen_warehouse(WarehouseConfig::default(), SEED);
    let px = unfragmented_warehouse(&warehouse.sales);
    let queries = fact_queries();
    let oracle = oracle_answers(&px, &queries);

    let profiler = WorkloadProfiler::new();
    for (_, q) in &queries {
        profiler.record(&px.execute(q).expect("profiling query").report);
    }
    profiler.observe_placement(&px, FACTS);
    let mut config = AdvisorConfig::new(NODES);
    config.seed = SEED;
    config.candidate_counts = vec![4];
    config.query_log = warehouse_workload(FACTS, DIM_PRODUCTS, DIM_OUTLETS);
    let advice = advise_live(&px, FACTS, &profiler.snapshot(), &config)
        .expect("advise")
        .expect("facts distribution registered");
    assert!(advice.design_changed, "need a mined re-split to migrate");

    // park the advised design entirely on node 0 …
    let skewed = PartiX::new(NODES, NetworkModel::default());
    let park = |f: &FragmentDef| Placement { fragment: f.name.clone(), node: 0 };
    let parked: Vec<Placement> = advice.design.fragments.iter().map(park).collect();
    skewed
        .register_distribution(Distribution { design: advice.design.clone(), placements: parked })
        .expect("parked placement valid");
    skewed.publish(FACTS, &warehouse.sales).expect("publish parked");
    skewed
        .publish_centralized(0, FACTS_CENTRAL, &warehouse.sales)
        .expect("oracle copy");

    // … and migrate live onto the advisor's placement
    let report = partix_advisor::rebalance(&skewed, FACTS, &advice.placements)
        .expect("live rebalance");
    assert!(report.verified, "post-migration validation failed");
    assert!(!report.moves.is_empty(), "nothing migrated off node 0");
    assert!(report.migrated_docs > 0);

    let catalog = skewed.catalog();
    let placements = &catalog.distribution(FACTS).expect("distribution").placements;
    let spread: std::collections::BTreeSet<usize> = placements.iter().map(|p| p.node).collect();
    assert!(spread.len() > 1, "migration left every fragment on node 0");
    for (idx, (id, q)) in queries.iter().enumerate() {
        let result = skewed.execute(q).unwrap_or_else(|e| panic!("{id} post-migration: {e}"));
        assert_within_epsilon_of_oracle(id, "after migration", &result.items, &oracle[idx]);
    }
}
