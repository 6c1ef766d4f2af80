//! Differential oracle suite: the paper's correctness rules
//! (completeness / disjointness / reconstruction, Sec. 3.3) as an
//! executable check. For every bench query class the same corpus is
//! published centralized and under each fragmentation design, and the
//! serialized answers must be byte-identical (after canonical ordering —
//! fragment concatenation order is not document order).
//!
//! The fault-injected variants add the dispatch-layer contract: a run
//! under injected faults must return either the oracle answer or a typed
//! `PartixError` — never silently wrong data.

use partix::engine::{
    ExecOptions, Fault, FaultInjector, FaultPlan, PartiX, PartixError, RetryPolicy,
};
use partix::frag::FragMode;
use partix::gen::{ArticleProfile, ItemProfile};
use partix_bench::oracle::{canonical, centralized_text};
use partix_bench::{queries, setup};
use std::time::Duration;

/// Every query must produce byte-identical canonical output both ways.
fn assert_differential(px: &PartiX, workload: &[(&'static str, String)], label: &str) {
    for (id, query) in workload {
        let dist = px
            .execute(query)
            .unwrap_or_else(|e| panic!("{label}/{id} distributed: {e}"));
        let cent = px
            .execute_centralized(0, &centralized_text(query))
            .unwrap_or_else(|e| panic!("{label}/{id} centralized: {e}"));
        assert_eq!(
            canonical(&dist.items),
            canonical(&cent.items),
            "{label}/{id}: distributed answer diverges from the oracle",
        );
    }
}

#[test]
fn horizontal_matches_oracle_across_fragment_counts() {
    let docs = setup::quick_items(80);
    for n in [2, 4, 8] {
        let px = setup::horizontal(&docs, n);
        assert_differential(&px, &queries::horizontal(setup::DIST), &format!("hor{n}"));
    }
}

/// `min` / `max` over fragments follow the evaluator's rule — strings by
/// string, numbers by number — and where some fragments hold only numbers
/// and the others strings, no composed answer exists: a typed error, never
/// an empty or a wrong item.
#[test]
fn horizontal_min_max_of_strings_match_oracle() {
    let docs = setup::quick_items(60);
    let c = format!(r#"collection("{}")"#, setup::DIST);
    let workload: Vec<(&'static str, String)> = vec![
        ("max-name", format!("max({c}/Item/Name)")),
        ("min-name", format!("min({c}/Item/Name)")),
        ("max-section", format!("max({c}/Item/Section)")),
        ("min-section", format!("min({c}/Item/Section)")),
        ("max-code", format!("max(for $i in {c}/Item return number($i/Code))")),
    ];
    let mixed = format!(
        r#"max(for $i in {c}/Item
               return if ($i/Section = "CD") then $i/Name else number($i/Code))"#
    );
    for n in [2, 4, 8] {
        let px = setup::horizontal(&docs, n);
        assert_differential(&px, &workload, &format!("hor{n}"));
        match px.execute(&mixed) {
            Err(PartixError::Composition(message)) => assert!(message.contains("max()"), "{message}"),
            other => panic!("hor{n}/mixed: expected a composition error, got {other:?}"),
        }
    }
}

#[test]
fn vertical_matches_oracle() {
    let docs = partix::gen::gen_articles(10, ArticleProfile::SMALL, 29);
    let px = setup::vertical(&docs);
    assert_differential(&px, &queries::vertical(setup::DIST), "vert");
}

#[test]
fn hybrid_matches_oracle_both_frag_modes() {
    let store = partix::gen::gen_store(40, ItemProfile::Small, 31);
    for mode in [FragMode::SingleDoc, FragMode::ManySmallDocs] {
        let px = setup::hybrid(&store, mode);
        assert_differential(&px, &queries::hybrid(setup::DIST), &format!("{mode:?}"));
    }
}

// ------------------------------------------------------ faulted runs --

/// Run `workload` on a faulted middleware: every query must either
/// reproduce `oracle`'s canonical answer or fail with a typed error.
/// Returns how many queries succeeded.
fn assert_no_wrong_data(
    px: &PartiX,
    oracle: &[String],
    workload: &[(&'static str, String)],
    label: &str,
) -> usize {
    let mut ok = 0;
    for (k, (id, query)) in workload.iter().enumerate() {
        match px.execute_with(query, ExecOptions::default()) {
            Ok(result) => {
                assert_eq!(
                    canonical(&result.items),
                    oracle[k],
                    "{label}/{id}: faulted run returned wrong data",
                );
                ok += 1;
            }
            // a typed error is an acceptable outcome under faults —
            // wrong data never is
            Err(_) => {}
        }
    }
    ok
}

/// Replicated horizontal repository under seeded fault schedules: the
/// schedule is identical per seed, answered queries are byte-identical
/// to the oracle, and with 2 replicas per fragment a single faulty node
/// cannot fail the workload.
#[test]
fn horizontal_under_faults_returns_oracle_answer_or_typed_error() {
    let docs = setup::quick_items(60);
    let workload = queries::horizontal(setup::DIST);
    let clean = setup::horizontal(&docs, 4);
    let oracle: Vec<String> = workload
        .iter()
        .map(|(id, q)| {
            canonical(&clean.execute(q).unwrap_or_else(|e| panic!("{id}: {e}")).items)
        })
        .collect();

    for seed in [3u64, 0xBAD5EED, 0xC4A0_5EED] {
        let plan = FaultPlan::from_seed(seed, 4, 0.8);
        assert_eq!(
            plan.describe(),
            FaultPlan::from_seed(seed, 4, 0.8).describe(),
            "schedule not reproducible for seed {seed:#x}",
        );
        // full cluster faulted: errors are allowed, wrong data is not
        let px = setup::horizontal_replicated(&docs, 4, 2);
        px.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(200)),
            ..RetryPolicy::default()
        });
        plan.install(&px);
        assert_no_wrong_data(&px, &oracle, &workload, &format!("faulted-{seed:#x}"));

        // a single faulty node against 2 replicas: failover must answer
        // every query
        let single = setup::horizontal_replicated(&docs, 4, 2);
        single.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(200)),
            ..RetryPolicy::default()
        });
        let mut one_node = plan.clone();
        for (node, faults) in one_node.node_faults.iter_mut().enumerate() {
            if node != 0 {
                faults.clear();
            }
        }
        one_node.node_faults[0] = FaultPlan::from_seed(seed, 4, 1.0).node_faults[0].clone();
        one_node.install(&single);
        let ok = assert_no_wrong_data(
            &single,
            &oracle,
            &workload,
            &format!("single-{seed:#x}"),
        );
        assert_eq!(
            ok,
            workload.len(),
            "seed {seed:#x}: a single faulty node failed queries despite replication",
        );
    }
}

/// Unreplicated vertical design under faults: degraded availability may
/// surface as typed errors, but answered queries still match the oracle.
#[test]
fn vertical_under_faults_never_returns_wrong_data() {
    let docs = partix::gen::gen_articles(8, ArticleProfile::SMALL, 41);
    let workload = queries::vertical(setup::DIST);
    let clean = setup::vertical(&docs);
    let oracle: Vec<String> = workload
        .iter()
        .map(|(id, q)| {
            canonical(&clean.execute(q).unwrap_or_else(|e| panic!("{id}: {e}")).items)
        })
        .collect();
    let px = setup::vertical(&docs);
    px.set_retry_policy(RetryPolicy {
        timeout: Some(Duration::from_millis(200)),
        ..RetryPolicy::default()
    });
    FaultPlan::from_seed(0xD1FF, 3, 0.7).install(&px);
    assert_no_wrong_data(&px, &oracle, &workload, "vert-faulted");
}

/// A query that reads several fragments — rebuilt from fetches, or an
/// aggregate summed per fragment (QV10) — runs through the same fault
/// schedules, retry loop and typed errors as a single sub-query: under
/// seeded plans an answered query is the oracle's, a flapping node costs
/// a retry and nothing else, and a wedged node is a typed error to every
/// query that reads a fragment of it — never a document set rebuilt, or a
/// sum added up, from what happened to arrive — and nothing at all to a
/// query that does not.
#[test]
fn reconstruction_under_faults_retries_or_fails_typed() {
    let docs = partix::gen::gen_articles(8, ArticleProfile::SMALL, 41);
    let clean = setup::vertical(&docs);
    let mut reads_epilog = Vec::new();
    let (workload, oracle): (Vec<_>, Vec<_>) = queries::vertical(setup::DIST)
        .into_iter()
        .filter_map(|(id, q)| {
            let result = clean.execute(&q).unwrap_or_else(|e| panic!("{id}: {e}"));
            (result.report.sites.len() > 1).then(|| {
                reads_epilog.push(result.report.sites.iter().any(|s| s.fragment == "f_epilog"));
                ((id, q), canonical(&result.items))
            })
        })
        .unzip();
    assert!(workload.len() >= 4, "QV4/QV7/QV8/QV10 read several fragments");
    // QV7 reads the body and the prolog only
    assert_eq!(reads_epilog.iter().filter(|reads| !**reads).count(), 1);
    let faulted = || {
        let px = setup::vertical(&docs);
        px.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(200)),
            ..RetryPolicy::default()
        });
        px
    };

    for seed in [3u64, 0xD1FF, 0xBAD5EED] {
        let px = faulted();
        let injectors = FaultPlan::from_seed(seed, 3, 1.0).install(&px);
        assert_no_wrong_data(&px, &oracle, &workload, &format!("rebuild-{seed:#x}"));
        // node 0 holds the spine, the first fragment each of these
        // queries reads: its injector saw each of those calls
        let spine = injectors[0].as_ref().expect("rate 1.0 faults every node");
        assert!(
            spine.stats().calls >= workload.len(),
            "seed {seed:#x}: fetches bypassed the injector",
        );
    }

    // f_body's only node answers every other call: the failed fetch is
    // retried on it and the answer is unharmed
    let px = faulted();
    FaultInjector::install(
        px.cluster().node(1).expect("node 1"),
        vec![Fault::FlipFlop { up: 1, down: 1 }],
    );
    let mut retries = 0;
    for (k, (id, query)) in workload.iter().enumerate() {
        let result = px.execute(query).unwrap_or_else(|e| panic!("flapping/{id}: {e}"));
        assert_eq!(canonical(&result.items), oracle[k], "flapping/{id}");
        retries += result.report.retries;
    }
    assert!(retries > 0, "no fetch was retried");

    // f_epilog's only node rejects every call: a typed error to the
    // queries that read it, the oracle's answer to the one that does not
    let px = faulted();
    FaultInjector::install(
        px.cluster().node(2).expect("node 2"),
        vec![Fault::ErrorAfter { ok_calls: 0 }],
    );
    for (k, (id, query)) in workload.iter().enumerate() {
        match px.execute(query) {
            Err(PartixError::SubQuery { node: 2, .. }) if reads_epilog[k] => {}
            Ok(result) if !reads_epilog[k] => {
                assert_eq!(canonical(&result.items), oracle[k], "wedged/{id}");
            }
            other => panic!("wedged/{id}: expected a typed error from node 2, got {other:?}"),
        }
    }
}
