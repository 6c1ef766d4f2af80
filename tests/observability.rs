//! Observability invariants and coordinator panic hardening:
//!
//! * the per-query [`StageBreakdown`] is internally consistent — the
//!   coordinator stages sum to no more than the wall-clock elapsed, every
//!   dispatched sub-query is attributed exactly once, and the per-stage
//!   retry/failover/timeout counters reconcile with the report totals —
//!   fault-free and under a seeded fault plan alike;
//! * a panicking sub-query (a driver that unwinds mid-call) fails only
//!   its own query: concurrent queries keep answering, and the
//!   coordinator recovers fully once the bad driver is removed.

use partix::engine::{
    metrics, DispatchMode, DriverError, ExecOptions, FaultPlan, PartixDriver, PartixError,
    RetryPolicy,
};
use partix::gen::{gen_items, ItemProfile};
use partix::query::Query;
use partix::storage::QueryOutput;
use partix::xml::Document;
use partix_bench::{queries, setup};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One query's stage-attribution invariants against its own report.
fn assert_breakdown_consistent(
    result: &partix::engine::DistributedResult,
    wall_s: f64,
    context: &str,
) {
    let report = &result.report;
    let stages = &report.stages;
    assert!(stages.is_measured(), "{context}: no stage breakdown recorded");

    // the four coordinator stages are disjoint sub-intervals of the
    // query's wall time: their sum can never exceed it
    assert!(
        stages.stage_total() <= wall_s + 1e-9,
        "{context}: stage sum {:.6}s exceeds wall {:.6}s",
        stages.stage_total(),
        wall_s
    );

    // every dispatched sub-query is attributed exactly once: the
    // answered sites plus the degraded-mode skips
    let mut attributed: Vec<&str> =
        stages.subqueries.iter().map(|s| s.fragment.as_str()).collect();
    attributed.sort_unstable();
    let skipped = report.skipped.iter().map(|s| s.fragment.as_str());
    let mut dispatched: Vec<&str> =
        report.sites.iter().map(|s| s.fragment.as_str()).chain(skipped).collect();
    dispatched.sort_unstable();
    assert_eq!(attributed, dispatched, "{context}: attribution mismatch");

    // the per-sub-query fault counters reconcile with the report totals
    let sum = |f: fn(&partix::engine::SubQueryStage) -> usize| {
        stages.subqueries.iter().map(f).sum::<usize>()
    };
    assert_eq!(sum(|s| s.retries), report.retries, "{context}: retries");
    assert_eq!(sum(|s| s.failovers), report.failovers, "{context}: failovers");
    assert_eq!(sum(|s| s.timeouts), report.timeouts, "{context}: timeouts");

    for sub in &stages.subqueries {
        // the retry loop counts one retry per attempt past the first
        assert_eq!(
            sub.retries,
            sub.attempts.saturating_sub(1),
            "{context} [{}]: {} attempt(s) but {} retries",
            sub.fragment,
            sub.attempts,
            sub.retries
        );
        assert!(sub.execute_s >= 0.0 && sub.backoff_s >= 0.0 && sub.queue_wait_s >= 0.0);
    }
}

/// Fault-free: the breakdown is consistent in every dispatch mode and
/// attributes one sub-query per fragment with zero fault counters — for
/// decomposed queries, for a passthrough query (no distributed
/// collection) and for a vertical reconstruction query alike: all three
/// go through the one pipeline, so none builds a report of its own.
#[test]
fn stage_breakdown_consistent_fault_free() {
    let docs = gen_items(80, ItemProfile::Small, 23);
    let articles = partix::gen::gen_articles(8, partix::gen::ArticleProfile::SMALL, 23);
    let mut workload = queries::horizontal(setup::DIST);
    workload.push(("passthrough", format!(r#"count(collection("{}")/Item)"#, setup::CENTRAL)));
    let reconstructing: Vec<_> = queries::vertical(setup::DIST)
        .into_iter()
        .filter(|(id, _)| ["QV4", "QV7"].contains(id))
        .collect();
    for mode in [DispatchMode::Simulated, DispatchMode::Pool] {
        let mut horizontal = setup::horizontal_replicated(&docs, 4, 2);
        horizontal.set_dispatch(mode);
        let mut vertical = setup::vertical(&articles);
        vertical.set_dispatch(mode);
        for (px, workload, reconstructs) in
            [(&horizontal, &workload, false), (&vertical, &reconstructing, true)]
        {
            for (id, query) in workload {
                let begun = Instant::now();
                let result = px.execute(query).expect("fault-free query");
                let wall_s = begun.elapsed().as_secs_f64();
                let context = format!("{mode:?}/{id}");
                assert_breakdown_consistent(&result, wall_s, &context);
                assert_eq!(result.report.retries, 0, "{context}");
                // every answered site has a matching attribution entry
                // with real execution time behind it
                assert_eq!(
                    result.report.stages.subqueries.len(),
                    result.report.sites.len(),
                    "{context}"
                );
                assert!(
                    result.report.stages.dispatch_s > 0.0,
                    "{context}: dispatch stage unmeasured"
                );
                assert_eq!(result.report.reconstructed, reconstructs, "{context}");
            }
        }
    }
}

/// Under a seeded fault plan the same invariants hold, now with live
/// retry/failover/timeout counters, and the global metrics registry
/// observes at least the dispatches this test performed.
#[test]
fn stage_breakdown_consistent_under_faults() {
    let docs = gen_items(80, ItemProfile::Small, 29);
    let workload = queries::horizontal(setup::DIST);
    let mut px = setup::horizontal_replicated(&docs, 4, 2);
    px.set_dispatch(DispatchMode::Pool);
    px.set_retry_policy(RetryPolicy {
        timeout: Some(Duration::from_millis(75)),
        ..RetryPolicy::default()
    });
    let plan = FaultPlan::from_seed(0xD1FF, 4, 1.0);
    plan.install(&px);

    let reg = metrics::global();
    let dispatched_before = reg.counter("dispatch.subqueries").get();
    let mut dispatched = 0u64;
    for round in 0..3 {
        for (id, query) in &workload {
            let begun = Instant::now();
            // rate-1.0 faults can exhaust a fragment's replicas; degraded
            // answers must still carry a consistent breakdown
            let result = px
                .execute_with(query, ExecOptions { allow_partial: true, ..ExecOptions::default() })
                .expect("allow_partial run");
            let wall_s = begun.elapsed().as_secs_f64();
            assert_breakdown_consistent(&result, wall_s, &format!("round {round}/{id}"));
            dispatched += result.report.stages.subqueries.len() as u64;
        }
    }
    // the registry is process-global (other tests add to it too), so the
    // observed delta is a lower bound, never an exact count
    assert!(
        reg.counter("dispatch.subqueries").get() >= dispatched_before + dispatched,
        "metrics registry missed dispatches"
    );
}

/// A driver whose every query unwinds — the sharpest failure a node-side
/// DBMS binding can inflict on the coordinator.
struct PanickingDriver;

impl PartixDriver for PanickingDriver {
    fn execute(&self, _query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        panic!("injected driver panic");
    }

    fn store(&self, _collection: &str, _docs: Vec<Document>) {}

    fn fetch_collection(&self, _collection: &str) -> Vec<Arc<Document>> {
        Vec::new()
    }

    fn collections(&self) -> Vec<String> {
        Vec::new()
    }
}

/// A panicking sub-query fails only its own query — concurrent clients
/// on untouched fragments keep answering — and removing the bad driver
/// restores full service: no poisoned locks, no dead workers, no state
/// the panic left behind.
#[test]
fn panicking_query_does_not_poison_the_coordinator() {
    // the injected panics are expected: silence their backtraces
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    for mode in [DispatchMode::Simulated, DispatchMode::Pool] {
        let docs = gen_items(80, ItemProfile::Small, 31);
        // 4 unreplicated fragments: node 0's fragment has no failover,
        // so its panic must surface as this query's typed error
        let mut px = setup::horizontal(&docs, 4);
        px.set_dispatch(mode);
        let full_count = {
            let out = px.execute(r#"count(collection("data")/Item)"#).unwrap();
            out.items[0].serialize()
        };
        px.cluster().node(0).unwrap().set_driver(Arc::new(PanickingDriver));

        let all = r#"count(collection("data")/Item)"#;
        // localization prunes this to fragment f2 (TOY/GAME) — node 2,
        // nowhere near the panicking node 0
        let elsewhere =
            r#"count(for $i in collection("data")/Item where $i/Section = "TOY" return $i)"#;
        let expected_elsewhere = {
            let clean = setup::horizontal(&docs, 4);
            clean.execute(elsewhere).unwrap().items[0].serialize()
        };

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let px = &px;
                    let expected_elsewhere = &expected_elsewhere;
                    scope.spawn(move || {
                        for _ in 0..3 {
                            if t % 2 == 0 {
                                // touches node 0: must fail with a typed
                                // error, never unwind the client
                                let err = px.execute(all).expect_err("node 0 panics");
                                assert!(
                                    matches!(
                                        err,
                                        PartixError::SubQuery { .. }
                                            | PartixError::NodeUnavailable { .. }
                                    ),
                                    "unexpected error shape: {err}"
                                );
                            } else {
                                // avoids node 0: must keep answering
                                let out = px.execute(elsewhere).expect("localized query");
                                assert_eq!(&out.items[0].serialize(), expected_elsewhere);
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("a client thread itself panicked");
            }
        });

        // Simulated dispatch runs the sub-query inline, so the panic
        // firewall itself (not a dropped channel) reports the unwind
        if mode == DispatchMode::Simulated {
            let err = px.execute(all).expect_err("node 0 panics");
            assert!(err.to_string().contains("panicked"), "{err}");
        }

        // removing the bad driver restores full service on the same
        // coordinator instance — nothing was poisoned by the unwinds
        let node = px.cluster().node(0).unwrap();
        node.clear_driver();
        node.clear_suspect();
        let recovered = px.execute(all).expect("recovered query");
        assert_eq!(recovered.items[0].serialize(), full_count, "{mode:?}");
    }

    std::panic::set_hook(prior);
}
