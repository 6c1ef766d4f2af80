//! Migration differential suite: the proof that a live rebalance is
//! invisible to queries. The paper-set workload runs **before**,
//! **during** (from concurrent threads), and **after**
//! [`partix_advisor::rebalance`] moves every fragment of a deliberately
//! skewed cluster, and every answered query must stay byte-identical to
//! the centralized oracle. The same contract is re-run with the nodes
//! behind loopback TCP servers (the copies then travel as real frames)
//! and with seeded fault injectors on the query path (answers may turn
//! into typed errors, never into wrong data). After every migration the
//! rebalancer's own completeness/disjointness re-validation must have
//! passed and the catalog must hold exactly the target placement; a
//! migration whose source cannot be read fails typed and retires nothing.

use partix::engine::{FaultPlan, PartiX, Placement, RetryPolicy};
use partix::frag::{apply::apply_fragment, FragmentDef};
use partix_advisor::{advise_live, AdvisorConfig, WorkloadProfiler};
mod common;

use common::{assert_workload, check_answer};
use partix_bench::remote::RemoteCluster;
use partix_bench::{queries, setup};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Record one sequential pass of the workload into a profile the
/// advisor can cost (and size the fragments from the live placement).
fn profile_workload(px: &PartiX, workload: &[(&'static str, String)]) -> partix_advisor::WorkloadProfile {
    let profiler = WorkloadProfiler::new();
    for (id, query) in workload {
        let result = px.execute(query).unwrap_or_else(|e| panic!("{id} profiling: {e}"));
        profiler.record(&result.report);
    }
    profiler.observe_placement(px, setup::DIST);
    profiler.snapshot()
}

/// The catalog's placements for [`setup::DIST`], as sorted
/// `(fragment, node)` pairs.
fn catalog_pairs(px: &PartiX) -> Vec<(String, usize)> {
    let dist = px.catalog().distribution(setup::DIST).cloned().expect("registered");
    let mut pairs: Vec<(String, usize)> =
        dist.placements.iter().map(|p| (p.fragment.clone(), p.node)).collect();
    pairs.sort();
    pairs
}

fn sorted_pairs(placements: &[Placement]) -> Vec<(String, usize)> {
    let mut pairs: Vec<(String, usize)> =
        placements.iter().map(|p| (p.fragment.clone(), p.node)).collect();
    pairs.sort();
    pairs
}

/// Run `rebalance` while `threads` concurrent query loops hammer the
/// workload; returns the rebalance report plus how many mid-flight
/// queries ran and how many diverged from the oracle.
fn rebalance_under_query_load(
    px: &PartiX,
    target: &[Placement],
    workload: &[(&'static str, String)],
    threads: usize,
) -> (partix_advisor::RebalanceReport, u64, u64) {
    let done = AtomicBool::new(false);
    let ran = AtomicU64::new(0);
    let wrong = AtomicU64::new(0);
    let mut report = None;
    std::thread::scope(|scope| {
        let probes: Vec<_> = (0..threads)
            .map(|offset| {
                let (done, ran, wrong) = (&done, &ran, &wrong);
                scope.spawn(move || {
                    let mut k = offset;
                    // check-after-query: even an instant swap is probed
                    loop {
                        let (_, query) = &workload[k % workload.len()];
                        if let Ok(result) = px.execute(query) {
                            if check_answer(px, query, &result.items).is_err() {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                            ran.fetch_add(1, Ordering::Relaxed);
                        }
                        k += 1;
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                })
            })
            .collect();
        report = Some(
            partix_advisor::rebalance(px, setup::DIST, target).expect("live rebalance"),
        );
        done.store(true, Ordering::Relaxed);
        for probe in probes {
            probe.join().expect("probe thread");
        }
    });
    (
        report.expect("rebalance ran"),
        ran.load(Ordering::Relaxed),
        wrong.load(Ordering::Relaxed),
    )
}

#[test]
fn live_rebalance_is_invisible_before_during_after() {
    let docs = setup::quick_items(80);
    let px = setup::skewed_horizontal(&docs, 4, 4);
    let workload = queries::horizontal(setup::DIST);
    assert_workload(&px, &workload, "skewed-before");

    let profile = profile_workload(&px, &workload);
    let mut config = AdvisorConfig::new(4);
    config.seed = 7;
    let advice = advise_live(&px, setup::DIST, &profile, &config)
        .expect("advise")
        .expect("distribution registered");
    assert!(
        advice.placements.iter().any(|p| p.node != 0),
        "advisor must spread the skewed placement",
    );

    let (report, ran, wrong) =
        rebalance_under_query_load(&px, &advice.placements, &workload, 3);
    assert!(!report.moves.is_empty(), "skew must trigger moves");
    assert!(report.verified, "completeness/disjointness re-validation must pass");
    assert!(ran > 0, "no queries observed the migration");
    assert_eq!(wrong, 0, "{wrong} mid-migration answers diverged from the oracle");

    assert_workload(&px, &workload, "skewed-after");
    assert_eq!(
        catalog_pairs(&px),
        sorted_pairs(&advice.placements),
        "catalog must hold exactly the target placement",
    );
}

#[test]
fn remote_rebalance_ships_real_frames_and_stays_transparent() {
    let docs = setup::quick_items(60);
    let px = setup::skewed_horizontal(&docs, 4, 4);
    let workload = queries::horizontal(setup::DIST);

    let wire = RemoteCluster::attach(&px);
    assert_workload(&px, &workload, "remote-before");

    let profile = profile_workload(&px, &workload);
    let mut config = AdvisorConfig::new(4);
    config.seed = 7;
    let advice = advise_live(&px, setup::DIST, &profile, &config)
        .expect("advise")
        .expect("distribution registered");

    let bytes_before = wire.wire_bytes();
    let (report, ran, wrong) =
        rebalance_under_query_load(&px, &advice.placements, &workload, 2);
    assert!(report.verified);
    assert!(report.migrated_bytes > 0);
    assert!(
        wire.wire_bytes() > bytes_before,
        "migration copies must cross the wire on a remote cluster",
    );
    assert!(ran > 0);
    assert_eq!(wrong, 0, "{wrong} mid-migration remote answers diverged");

    assert_workload(&px, &workload, "remote-after");
    assert_eq!(catalog_pairs(&px), sorted_pairs(&advice.placements));
}

/// Seeded fault injectors on the query path (the copy path is the
/// coordinator's own, not faulted): every answered query still matches
/// the oracle — faults may cost answers, never corrupt them — and the
/// migration itself completes verified because replica copies don't go
/// through the faulted sub-query drivers.
#[test]
fn faulted_rebalance_returns_oracle_answer_or_typed_error() {
    let docs = setup::quick_items(60);
    let workload = queries::horizontal(setup::DIST);
    // explicit spread target: fragment i → node i
    let target: Vec<Placement> = (0..4)
        .map(|i| Placement { fragment: format!("f{i}"), node: i })
        .collect();

    for seed in [3u64, 0xBAD5EED] {
        let px = setup::skewed_horizontal(&docs, 4, 4);
            px.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(500)),
            ..RetryPolicy::default()
        });
        FaultPlan::from_seed(seed, 4, 0.6).install(&px);

        let label = format!("faulted-{seed:#x}");
        let mut answered = 0;
        for (id, query) in &workload {
            if let Ok(result) = px.execute(query) {
                check_answer(&px, query, &result.items)
                    .unwrap_or_else(|e| panic!("{label}/{id}: faulted pre-migration answer: {e}"));
                answered += 1;
            }
        }

        let (report, _ran, wrong) =
            rebalance_under_query_load(&px, &target, &workload, 2);
        assert!(report.verified, "{label}: migration must verify despite query faults");
        assert_eq!(wrong, 0, "{label}: {wrong} mid-migration answers were wrong");

        for (id, query) in &workload {
            if let Ok(result) = px.execute(query) {
                check_answer(&px, query, &result.items)
                    .unwrap_or_else(|e| panic!("{label}/{id}: faulted post-migration answer: {e}"));
                answered += 1;
            }
        }
        assert_eq!(catalog_pairs(&px), sorted_pairs(&target), "{label}");
        // the schedule must leave *some* signal — all-errors would make
        // the differential vacuous
        assert!(answered > 0, "{label}: every query errored; seed too harsh");
    }
}

/// An online write landing while the rebalancer holds the *union*
/// placement (old ∪ new replica homes) must route to both homes and
/// survive retirement in exactly one post-swap replica set — the target
/// one. This is the seam where the online write path and live migration
/// interlock: a write routed only to the old home would be dropped with
/// it, one routed only to the new home would be invisible until the
/// swap.
#[test]
fn write_during_migration_lands_in_exactly_one_replica_set() {
    use partix::storage::WriteOp;
    use partix_advisor::{rebalance_with_observer, RebalancePhase};

    let docs = setup::quick_items(40);
    let px = setup::skewed_horizontal(&docs, 2, 2);
    let workload = queries::horizontal(setup::DIST);
    let target: Vec<Placement> = vec![
        Placement { fragment: "f0".into(), node: 0 },
        Placement { fragment: "f1".into(), node: 1 },
    ];

    // a document that routes into f1, the fragment in flight to node 1
    let mut doc = partix::xml::parse(
        "<Item><Code>4242</Code><Name>migrant</Name>\
         <Description>written mid-migration</Description>\
         <Section>TOY</Section></Item>",
    )
    .unwrap();
    doc.name = Some("mig-doc".into());
    let dist = px.catalog().distribution(setup::DIST).cloned().expect("registered");
    let routes = |f: &&FragmentDef| !apply_fragment(f, std::slice::from_ref(&doc)).is_empty();
    let home = &dist.design.fragments.iter().find(routes).expect("doc must route somewhere").name;
    assert_eq!(home, "f1", "probe doc must target the migrating fragment");

    let mut injected = false;
    let report = rebalance_with_observer(&px, setup::DIST, &target, &mut |phase| {
        if phase == RebalancePhase::UnionRegistered {
            // the catalog now routes f1 writes to old AND new homes
            px.put(setup::DIST, doc.clone()).expect("mid-migration put");
            px.cluster().node(0).unwrap().db.apply_write(&WriteOp::Put {
                collection: setup::CENTRAL.into(),
                doc: doc.clone(),
            });
            injected = true;
        }
    })
    .expect("rebalance with a mid-flight write");
    assert!(injected, "observer never saw the union window");
    assert!(report.verified, "post-move re-validation must pass despite the extra doc");
    assert_eq!(catalog_pairs(&px), sorted_pairs(&target));

    // exactly one (fragment, node) pair holds the written doc: the
    // target placement of its fragment — not zero (lost with the retired
    // replica), not two (retirement missed the old home)
    let mut holders: Vec<(String, usize)> = Vec::new();
    for (node_id, node) in px.cluster().nodes().iter().enumerate() {
        for frag in ["f0", "f1"] {
            if node.fetch_docs(frag).iter().any(|d| d.name.as_deref() == Some("mig-doc")) {
                holders.push((frag.to_string(), node_id));
            }
        }
    }
    assert_eq!(
        holders,
        vec![("f1".to_string(), 1)],
        "mid-migration write must survive in exactly the post-swap replica set",
    );

    // and the full workload still answers byte-identically to the
    // (equally updated) centralized oracle
    assert_workload(&px, &workload, "after mid-migration write");
}

/// Mid-migration probes that race the atomic swap must be re-run on the
/// current replicas, not answered from a retired one: after moving every
/// fragment away from node 0 twice (there and back), answers still match.
#[test]
fn round_trip_migration_converges_back_to_the_start() {
    let docs = setup::quick_items(40);
    let px = setup::skewed_horizontal(&docs, 2, 2);
    let workload = queries::horizontal(setup::DIST);

    let spread: Vec<Placement> = vec![
        Placement { fragment: "f0".into(), node: 0 },
        Placement { fragment: "f1".into(), node: 1 },
    ];
    let back: Vec<Placement> = vec![
        Placement { fragment: "f0".into(), node: 0 },
        Placement { fragment: "f1".into(), node: 0 },
    ];
    for (label, target) in [("spread", &spread), ("back", &back), ("spread-again", &spread)] {
        let (report, _ran, wrong) =
            rebalance_under_query_load(&px, target, &workload, 2);
        assert!(report.verified, "{label}");
        assert_eq!(wrong, 0, "{label}: mid-migration divergence");
        assert_workload(&px, &workload, label);
        assert_eq!(catalog_pairs(&px), sorted_pairs(target), "{label}");
    }
}

/// A rebalance that cannot read its source must fail typed and retire
/// nothing. Node 0's server is down, so every fragment it holds reads as
/// an error, not as an empty fragment: the rebalance stops before the
/// catalog changes. Once the server is back, every answer matches the
/// oracle and the same rebalance goes through.
#[test]
fn an_unreadable_source_fails_the_rebalance_and_retires_nothing() {
    use partix_advisor::RebalanceError;

    let docs = setup::quick_items(40);
    let px = setup::skewed_horizontal(&docs, 2, 2);
    let workload = queries::horizontal(setup::DIST);
    let before = catalog_pairs(&px);
    let target: Vec<Placement> = vec![
        Placement { fragment: "f0".into(), node: 0 },
        Placement { fragment: "f1".into(), node: 1 },
    ];

    let mut wire = RemoteCluster::attach(&px);
    wire.kill(0);
    let outcome = partix_advisor::rebalance(&px, setup::DIST, &target);
    assert!(
        matches!(outcome, Err(RebalanceError::SourceUnavailable { node: 0, .. })),
        "a rebalance over an unreadable source: {outcome:?}",
    );
    assert_eq!(catalog_pairs(&px), before, "a failed rebalance must leave the catalog alone");

    wire.restart(0);
    assert_workload(&px, &workload, "after the failed rebalance");
    let report =
        partix_advisor::rebalance(&px, setup::DIST, &target).expect("the source answers again");
    assert!(report.verified);
    assert_eq!(catalog_pairs(&px), sorted_pairs(&target));
    assert_workload(&px, &workload, "after the retried rebalance");
}

/// A plan stored before a live rebalance is not used after it: the
/// rebalance registers a new distribution, so every workload text is
/// localized again and its tasks go to the new placements only.
#[test]
fn a_plan_stored_before_a_rebalance_is_localized_again_after_it() {
    let docs = setup::quick_items(40);
    let px = setup::horizontal(&docs, 2);
    let workload = queries::horizontal(setup::DIST);
    assert_workload(&px, &workload, "before");
    for (id, query) in &workload {
        let report = px.execute(query).unwrap().report;
        assert!(report.plan_cache_hit, "{id}: the plan was stored");
    }
    let target: Vec<Placement> =
        (0..2).map(|i| Placement { fragment: format!("f{i}"), node: 1 }).collect();
    let report = partix_advisor::rebalance(&px, setup::DIST, &target).expect("rebalance");
    assert!(report.verified);
    for (id, query) in &workload {
        let result = px.execute(query).unwrap_or_else(|e| panic!("{id} after: {e}"));
        assert!(!result.report.plan_cache_hit, "{id}: the stored plan outlived the rebalance");
        assert!(result.report.sites.iter().all(|s| s.node == 1), "{id}: {:?}", result.report.sites);
        check_answer(&px, query, &result.items).unwrap_or_else(|e| panic!("{id}: {e}"));
    }
    assert_workload(&px, &workload, "after");
}
