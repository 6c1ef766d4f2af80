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
use partix_advisor::{advise_live, AdvisorConfig, RebalanceOptions, WorkloadProfiler};
use partix_bench::oracle::{canonical, oracle_answers};
use partix_bench::remote::RemoteCluster;
use partix_bench::{queries, setup};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Every workload query must answer byte-identically to the oracle.
fn assert_matches_oracle(
    px: &PartiX,
    oracle: &[String],
    workload: &[(&'static str, String)],
    label: &str,
) {
    for (k, (id, query)) in workload.iter().enumerate() {
        let answer = px
            .execute(query)
            .unwrap_or_else(|e| panic!("{label}/{id}: {e}"));
        assert_eq!(
            canonical(&answer.items),
            oracle[k],
            "{label}/{id}: answer diverges from the oracle",
        );
    }
}

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
    oracle: &[String],
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
                            if canonical(&result.items) != oracle[k % workload.len()] {
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
            partix_advisor::rebalance(px, setup::DIST, target, &RebalanceOptions::default())
                .expect("live rebalance"),
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
    let oracle = oracle_answers(&px, &workload);
    assert_matches_oracle(&px, &oracle, &workload, "skewed-before");

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
        rebalance_under_query_load(&px, &advice.placements, &oracle, &workload, 3);
    assert!(!report.moves.is_empty(), "skew must trigger moves");
    assert!(report.verified, "completeness/disjointness re-validation must pass");
    assert!(ran > 0, "no queries observed the migration");
    assert_eq!(wrong, 0, "{wrong} mid-migration answers diverged from the oracle");

    assert_matches_oracle(&px, &oracle, &workload, "skewed-after");
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
    let oracle = oracle_answers(&px, &workload);

    let wire = RemoteCluster::attach(&px);
    assert_matches_oracle(&px, &oracle, &workload, "remote-before");

    let profile = profile_workload(&px, &workload);
    let mut config = AdvisorConfig::new(4);
    config.seed = 7;
    let advice = advise_live(&px, setup::DIST, &profile, &config)
        .expect("advise")
        .expect("distribution registered");

    let bytes_before = wire.wire_bytes();
    let (report, ran, wrong) =
        rebalance_under_query_load(&px, &advice.placements, &oracle, &workload, 2);
    assert!(report.verified);
    assert!(report.migrated_bytes > 0);
    assert!(
        wire.wire_bytes() > bytes_before,
        "migration copies must cross the wire on a remote cluster",
    );
    assert!(ran > 0);
    assert_eq!(wrong, 0, "{wrong} mid-migration remote answers diverged");

    assert_matches_oracle(&px, &oracle, &workload, "remote-after");
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
        let oracle = oracle_answers(&px, &workload);
        px.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(500)),
            ..RetryPolicy::default()
        });
        FaultPlan::from_seed(seed, 4, 0.6).install(&px);

        let label = format!("faulted-{seed:#x}");
        let mut answered = 0;
        for (k, (id, query)) in workload.iter().enumerate() {
            if let Ok(result) = px.execute(query) {
                assert_eq!(
                    canonical(&result.items),
                    oracle[k],
                    "{label}/{id}: faulted pre-migration answer is wrong",
                );
                answered += 1;
            }
        }

        let (report, _ran, wrong) =
            rebalance_under_query_load(&px, &target, &oracle, &workload, 2);
        assert!(report.verified, "{label}: migration must verify despite query faults");
        assert_eq!(wrong, 0, "{label}: {wrong} mid-migration answers were wrong");

        for (k, (id, query)) in workload.iter().enumerate() {
            if let Ok(result) = px.execute(query) {
                assert_eq!(
                    canonical(&result.items),
                    oracle[k],
                    "{label}/{id}: faulted post-migration answer is wrong",
                );
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
    let home = dist
        .design
        .fragments
        .iter()
        .find(|f| !partix::frag::apply::apply_fragment(f, std::slice::from_ref(&doc)).is_empty())
        .expect("doc must route somewhere")
        .name
        .clone();
    assert_eq!(home, "f1", "probe doc must target the migrating fragment");

    let mut injected = false;
    let report = rebalance_with_observer(
        &px,
        setup::DIST,
        &target,
        &RebalanceOptions::default(),
        &mut |phase| {
            if phase == RebalancePhase::UnionRegistered {
                // the catalog now routes f1 writes to old AND new homes
                px.put(setup::DIST, doc.clone()).expect("mid-migration put");
                px.cluster().node(0).unwrap().db.apply_write(&WriteOp::Put {
                    collection: setup::CENTRAL.into(),
                    doc: doc.clone(),
                });
                injected = true;
            }
        },
    )
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
    let oracle = oracle_answers(&px, &workload);
    assert_matches_oracle(&px, &oracle, &workload, "after mid-migration write");
}

/// Mid-migration probes that race the atomic swap must be re-run on the
/// current replicas, not answered from a retired one: after moving every
/// fragment away from node 0 twice (there and back), answers still match.
#[test]
fn round_trip_migration_converges_back_to_the_start() {
    let docs = setup::quick_items(40);
    let px = setup::skewed_horizontal(&docs, 2, 2);
    let workload = queries::horizontal(setup::DIST);
    let oracle = oracle_answers(&px, &workload);

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
            rebalance_under_query_load(&px, target, &oracle, &workload, 2);
        assert!(report.verified, "{label}");
        assert_eq!(wrong, 0, "{label}: mid-migration divergence");
        assert_matches_oracle(&px, &oracle, &workload, label);
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
    let oracle = oracle_answers(&px, &workload);
    let before = catalog_pairs(&px);
    let target: Vec<Placement> = vec![
        Placement { fragment: "f0".into(), node: 0 },
        Placement { fragment: "f1".into(), node: 1 },
    ];

    let mut wire = RemoteCluster::attach(&px);
    wire.kill(0);
    let outcome =
        partix_advisor::rebalance(&px, setup::DIST, &target, &RebalanceOptions::default());
    assert!(
        matches!(outcome, Err(RebalanceError::SourceUnavailable { node: 0, .. })),
        "a rebalance over an unreadable source: {outcome:?}",
    );
    assert_eq!(catalog_pairs(&px), before, "a failed rebalance must leave the catalog alone");

    wire.restart(0);
    assert_matches_oracle(&px, &oracle, &workload, "after the failed rebalance");
    let report = partix_advisor::rebalance(&px, setup::DIST, &target, &RebalanceOptions::default())
        .expect("the source answers again");
    assert!(report.verified);
    assert_eq!(catalog_pairs(&px), sorted_pairs(&target));
    assert_matches_oracle(&px, &oracle, &workload, "after the retried rebalance");
}
