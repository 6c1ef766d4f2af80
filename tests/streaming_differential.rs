//! Streamed-vs-buffered differential suite: the proof that `PXN2`
//! chunked streaming changes *when* bytes move, never *what* they say.
//! Every query family runs three ways against one coordinator — streamed
//! (`ItemChunk` frames as sub-queries complete), buffered (whole answer
//! materialized first; same wire format), and the in-process engine —
//! and the item sequences must be byte-identical *in order*, and the
//! centralized oracle's answer (`common::check`). The deterministic
//! [`partix_net::StreamStats`] shipped in `StreamEnd` must agree between
//! the two transport modes, on a query's first run (plan parsed) and on
//! later ones (plan cached) alike.
//!
//! The faulted runs re-assert the dispatch contract through the
//! streaming stack: seeded injectors under a replicated cluster, and a
//! coordinator killed mid-workload, may fail queries with typed errors —
//! but an answered stream is always the oracle answer, never a silent
//! truncation (the `StreamEnd` totals make short streams detectable).

mod common;

use common::gen::{Family, FAMILIES};
use common::{assert_answer, assert_answers, route_holds, stream, Form, On, Route};
use partix::engine::{DispatchMode, ExecOptions, FaultPlan, RetryPolicy};
use partix::query::Item;
use partix_bench::oracle::{canonical, exact};
use partix_bench::{queries, setup};
use partix_net::{StreamCallError, StreamOpts, StreamResult};
use std::time::Duration;

const STREAMED: StreamOpts = StreamOpts { allow_partial: false, buffered: false, tenant: None };

#[test]
fn horizontal_streamed_matches_buffered_and_oracle_cold_and_hot() {
    route_holds(&[Family::Horizontal], 16, |_| Route::Coordinator);
}

#[test]
fn vertical_streamed_matches_buffered() {
    route_holds(&[Family::Vertical], 16, |_| Route::Coordinator);
}

#[test]
fn hybrid_streamed_matches_buffered_both_frag_modes() {
    route_holds(&[Family::Hybrid], 16, |_| Route::Coordinator);
}

/// The buffered answer is the streamed one, collected: for the fixed
/// workloads and generated cases of every family, in both dispatch
/// modes, `execute` returns exactly the concatenation of the slices a
/// stream emits, and that is the centralized answer.
#[test]
fn buffered_answer_is_the_concatenated_stream_in_every_design_and_mode() {
    for mode in [DispatchMode::Simulated, DispatchMode::Pool] {
        route_holds(&FAMILIES, 12, |_| Route::Streamed(mode));
    }
}

/// Simulated dispatch streams like pooled dispatch does: a concatenation
/// goes out one slice per contributing site, in fragment order — not as
/// one buffered answer at the end.
#[test]
fn simulated_stream_emits_one_slice_per_site_in_fragment_order() {
    let docs = setup::quick_items(80);
    let px = setup::horizontal(&docs, 4);
    assert_eq!(px.dispatch_mode(), DispatchMode::Simulated);
    let query = |collection: &str| {
        format!(r#"for $i in collection("{collection}")/Item return $i/Code"#)
    };
    let report = px.execute(&query(setup::DIST)).expect("buffered run").report;
    // what each site contributes: the same query against its fragment,
    // asked of the node directly
    let per_site: Vec<String> = report
        .sites
        .iter()
        .map(|site| {
            let out = px
                .execute_centralized(site.node, &query(&site.fragment))
                .unwrap_or_else(|e| panic!("{}: {e}", site.fragment));
            exact(&out.items)
        })
        .filter(|items| !items.is_empty())
        .collect();
    assert_eq!(per_site.len(), 4, "every section group holds items");
    let (slices, _) = stream(&px, &query(setup::DIST)).expect("streamed run");
    let slices: Vec<String> = slices.iter().map(|s| exact(s)).collect();
    assert_eq!(slices, per_site);
}

/// Queries that compose at the coordinator: a remainder over pushed
/// aggregates, or the query run over the documents rebuilt from every
/// fragment it reads.
fn composed_at_the_coordinator() -> Vec<(&'static str, String)> {
    let c = format!(r#"collection("{}")/Item"#, setup::DIST);
    vec![
        ("exists", format!("exists({c})")),
        ("count-above", format!("count({c}) > 5")),
        ("mean-code", format!("sum({c}/Code) div count({c})")),
        ("distinct", format!("count(distinct-values({c}/Section))")),
        ("joined", format!(r#"string-join({c}/Section, ",")"#)),
        ("ordered", format!("for $i in {c} order by $i/Code descending return $i/Code")),
    ]
}

/// A remainder answer and a horizontal reconstruction's answer exist only
/// once every partial is in: each goes out as one slice, is the buffered
/// answer and the centralized one item for item, and streams over the
/// wire as it is buffered.
#[test]
fn a_remainder_and_a_horizontal_reconstruction_each_stream_as_one_slice() {
    let docs = setup::quick_items(80);
    let workload = composed_at_the_coordinator();
    let on = On::new(setup::horizontal(&docs, 4), Route::Streamed(DispatchMode::Simulated));
    for (id, query) in &workload {
        let verdict = assert_answer(&on, query, id);
        assert_eq!(verdict.slices, 1, "{id}: {} slices", verdict.slices);
        assert_eq!(verdict.form, Form::Exact, "{id}");
    }
    let on = On::new(setup::horizontal(&docs, 4), Route::Coordinator);
    assert_answers(&on, &workload, "composed");
}

/// Degraded mode: a split plan that loses a fragment answers from the
/// fragments left, flagged partial with the lost one listed — as a
/// concatenation does; a reconstruction stays all-or-nothing.
#[test]
fn a_split_plan_degrades_and_a_reconstruction_does_not() {
    let docs = setup::quick_items(80);
    let px = setup::horizontal(&docs, 4);
    px.cluster().node(1).expect("node 1").set_available(false);
    let partial = ExecOptions { allow_partial: true, ..ExecOptions::default() };
    let c = format!(r#"collection("{}")/Item"#, setup::DIST);
    let left: f64 = [0, 2, 3]
        .iter()
        .map(|&i| {
            let count = format!(r#"count(collection("f{i}")/Item)"#);
            px.execute_centralized(i, &count).expect("fragment count").items[0].number_value()
        })
        .map(|count| count.expect("a number"))
        .sum();
    for (query, answer) in [
        (format!("exists({c})"), Item::Bool(true)),
        (format!("count({c})"), Item::Num(left)),
        (format!("count({c}) > {left}"), Item::Bool(false)),
    ] {
        let result = px.execute_with(&query, partial).unwrap_or_else(|e| panic!("{query}: {e}"));
        assert!(result.report.partial, "{query}");
        let skipped: Vec<&str> = result.report.skipped.iter().map(|s| &*s.fragment).collect();
        assert_eq!(skipped, ["f1"], "{query}");
        assert_eq!(result.items, [answer], "{query}");
        assert!(px.execute(&query).is_err(), "{query} without allow_partial");
    }
    let fallback = format!("for $i in {c} order by $i/Code return $i/Code");
    assert!(px.execute_with(&fallback, partial).is_err(), "a reconstruction degraded");
}

// ------------------------------------------------------ faulted runs --

/// Seeded injectors under the streaming transport: every answered stream
/// is the oracle answer; failures are typed; truncation cannot pass as
/// success (`StreamEnd` totals are validated by the client assembler).
#[test]
fn streamed_under_faults_returns_oracle_answer_or_typed_error() {
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
        let px = setup::horizontal_replicated(&docs, 4, 2);
        px.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(500)),
            ..RetryPolicy::default()
        });
        let on = On::new(px, Route::Coordinator);
        plan.install(&on.px);
        let label = format!("stream-faulted-{seed:#x}");
        for (k, (id, query)) in workload.iter().enumerate() {
            match on.client().query(query, STREAMED) {
                Ok(result) => assert_eq!(
                    canonical(&result.items),
                    oracle[k],
                    "{label}/{id}: faulted streamed run returned wrong data",
                ),
                // a typed error is acceptable under faults — wrong or
                // truncated data is not
                Err(StreamCallError::Remote { .. } | StreamCallError::Protocol(_)) => {}
            }
        }
    }
}

/// Killing the coordinator mid-workload: in-flight and subsequent
/// streams fail with typed errors; every stream that *did* complete
/// carries the full oracle answer — a dead server can truncate streams
/// but can never make a short stream look complete.
#[test]
fn killed_coordinator_mid_workload_yields_typed_error_never_truncation() {
    let docs = setup::quick_items(80);
    let mut on = On::new(setup::horizontal(&docs, 4), Route::Coordinator);
    let query = format!(r#"for $i in collection("{}")/Item return $i"#, setup::DIST);
    let expected = exact(&on.px.execute(&query).expect("healthy run").items);
    let (server, client) = on.coordinator.as_mut().expect("a coordinator");

    let outcomes: Vec<Result<StreamResult, StreamCallError>> = std::thread::scope(|scope| {
        let worker = {
            let client = &*client;
            let query = &query;
            scope.spawn(move || {
                let mut outcomes = Vec::new();
                for _ in 0..200 {
                    let outcome = client.query(query, STREAMED);
                    let dead = outcome.is_err();
                    outcomes.push(outcome);
                    if dead {
                        break;
                    }
                }
                outcomes
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        worker.join().expect("client worker")
    });

    let (ok, failed): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_ok);
    assert!(
        !failed.is_empty(),
        "killing the coordinator mid-workload must fail at least the in-flight stream"
    );
    for result in ok {
        let result = result.expect("partitioned Ok");
        assert_eq!(
            exact(&result.items),
            expected,
            "a stream that completed around the kill must carry the full answer",
        );
    }
    // and the failures are typed transport/remote errors, which the
    // type system already guarantees — the one outlawed outcome, an
    // `Ok` with a prefix of the answer, was ruled out above
}
