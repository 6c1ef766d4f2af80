//! Streamed-vs-buffered differential suite: the proof that `PXN2`
//! chunked streaming changes *when* bytes move, never *what* they say.
//! Every query family runs three ways against one coordinator — streamed
//! (`ItemChunk` frames as sub-queries complete), buffered (whole answer
//! materialized first; same wire format), and the in-process engine —
//! and the item sequences must be byte-identical *in order*, with the
//! horizontal families additionally checked against the centralized
//! oracle. The deterministic [`partix_net::StreamStats`] shipped in
//! `StreamEnd` must agree between the two transport modes, on a query's
//! first run (plan parsed) and on later ones (plan cached) alike.
//!
//! The faulted runs re-assert the dispatch contract through the
//! streaming stack: seeded injectors under a replicated cluster, and a
//! coordinator killed mid-workload, may fail queries with typed errors —
//! but an answered stream is always the oracle answer, never a silent
//! truncation (the `StreamEnd` totals make short streams detectable).

use partix::engine::{DispatchMode, ExecOptions, FaultPlan, PartiX, RetryPolicy};
use partix::frag::FragMode;
use partix::gen::{ArticleProfile, ItemProfile};
use partix::query::Item;
use partix_bench::oracle::{canonical, centralized_text};
use partix_bench::{queries, setup};
use partix_net::{
    serve_coordinator, StreamCallError, StreamClient, StreamClientConfig, StreamOpts,
    StreamResult, StreamServer, StreamServerConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// Exact serialization, order preserved: streamed and buffered runs of
/// the same query must agree item-for-item, not merely as sets.
fn exact(items: &[Item]) -> String {
    items.iter().map(Item::serialize).collect::<Vec<_>>().join("\n")
}

const STREAMED: StreamOpts = StreamOpts { allow_partial: false, buffered: false, tenant: None };
const BUFFERED: StreamOpts = StreamOpts { allow_partial: false, buffered: true, tenant: None };

/// Put one coordinator in front of `px` and hand back a connected
/// client. Dispatch goes to worker pools, the serving configuration.
fn serve(mut px: PartiX) -> (Arc<PartiX>, StreamServer, StreamClient) {
    px.set_dispatch(DispatchMode::Pool);
    let px = Arc::new(px);
    let server = serve_coordinator(
        "127.0.0.1:0",
        Arc::clone(&px),
        StreamServerConfig::default(),
    )
    .expect("bind coordinator");
    let client = StreamClient::connect(&server.addr().to_string(), StreamClientConfig::default())
        .expect("connect to coordinator");
    (px, server, client)
}

/// The differential proper: streamed ≡ buffered ≡ in-process, stats
/// deterministic across the two wire modes, oracle checked when the
/// setup publishes a centralized copy.
fn assert_streaming_differential(
    px: &PartiX,
    client: &StreamClient,
    workload: &[(&'static str, String)],
    label: &str,
    against_oracle: bool,
) {
    for (id, query) in workload {
        let streamed = client
            .query(query, STREAMED)
            .unwrap_or_else(|e| panic!("{label}/{id} streamed: {e}"));
        let buffered = client
            .query(query, BUFFERED)
            .unwrap_or_else(|e| panic!("{label}/{id} buffered: {e}"));
        let local = px
            .execute(query)
            .unwrap_or_else(|e| panic!("{label}/{id} local: {e}"));

        assert_eq!(
            exact(&streamed.items),
            exact(&buffered.items),
            "{label}/{id}: streamed and buffered item sequences diverge",
        );
        assert_eq!(
            exact(&streamed.items),
            exact(&local.items),
            "{label}/{id}: wire answer diverges from the in-process run",
        );
        if against_oracle {
            let oracle = px
                .execute_centralized(0, &centralized_text(query))
                .unwrap_or_else(|e| panic!("{label}/{id} centralized: {e}"));
            assert_eq!(
                canonical(&streamed.items),
                canonical(&oracle.items),
                "{label}/{id}: streamed answer diverges from the oracle",
            );
        }

        // the deterministic stats must not depend on the transport mode
        let (s, b) = (&streamed.stats, &buffered.stats);
        assert_eq!(s.sites, b.sites, "{label}/{id}: sites diverge across modes");
        assert_eq!(
            s.fragments_pruned, b.fragments_pruned,
            "{label}/{id}: pruning diverges across modes",
        );
        assert_eq!(
            s.docs_scanned, b.docs_scanned,
            "{label}/{id}: docs_scanned diverges across modes",
        );
        assert_eq!(s.partial, b.partial, "{label}/{id}: partial flag diverges");
        assert_eq!(
            s.catalog_epoch, b.catalog_epoch,
            "{label}/{id}: catalog epoch diverges across modes",
        );
        assert!(!s.partial, "{label}/{id}: fault-free run reported a partial answer");
    }
}

#[test]
fn horizontal_streamed_matches_buffered_and_oracle_cold_and_hot() {
    let docs = setup::quick_items(80);
    let workload = queries::horizontal(setup::DIST);
    for n in [2, 4, 8] {
        let (px, _server, client) = serve(setup::horizontal(&docs, n));

        // first pass: each query's plan is parsed on its first run
        assert_streaming_differential(&px, &client, &workload, &format!("hor{n}-cold"), true);
        // second pass: every plan comes out of the plan cache, and the
        // chunks must still be byte-identical with equal stats
        assert_streaming_differential(&px, &client, &workload, &format!("hor{n}-hot"), true);
    }
}

#[test]
fn vertical_streamed_matches_buffered() {
    let docs = partix::gen::gen_articles(10, ArticleProfile::SMALL, 29);
    let workload = queries::vertical(setup::DIST);
    let (px, _server, client) = serve(setup::vertical(&docs));
    assert_streaming_differential(&px, &client, &workload, "vert-streamed", false);
}

#[test]
fn hybrid_streamed_matches_buffered_both_frag_modes() {
    let store = partix::gen::gen_store(40, ItemProfile::Small, 31);
    for mode in [FragMode::SingleDoc, FragMode::ManySmallDocs] {
        let label = format!("{mode:?}-streamed");
        let (px, _server, client) = serve(setup::hybrid(&store, mode));
        let workload = queries::hybrid(setup::DIST);
        assert_streaming_differential(&px, &client, &workload, &label, false);
    }
}

/// The slices `execute_streamed_with` emits for `query`, in order.
fn stream_slices(px: &PartiX, query: &str) -> Vec<Vec<Item>> {
    let mut slices = Vec::new();
    px.execute_streamed_with(query, ExecOptions::default(), &mut |items| {
        slices.push(items);
        true
    })
    .unwrap_or_else(|e| panic!("streamed {query}: {e}"));
    slices
}

/// The buffered answer is the streamed one, collected: for every query
/// family of all three designs, in both dispatch modes, `execute` returns
/// exactly the concatenation of the slices a stream emits.
#[test]
fn buffered_answer_is_the_concatenated_stream_in_every_design_and_mode() {
    let items = setup::quick_items(60);
    let articles = partix::gen::gen_articles(8, ArticleProfile::SMALL, 29);
    let store = partix::gen::gen_store(40, ItemProfile::Small, 31);
    type Design<'a> = (&'a str, Box<dyn Fn() -> PartiX + 'a>, Vec<(&'static str, String)>);
    let designs: Vec<Design> = vec![
        ("hor", Box::new(|| setup::horizontal(&items, 4)), queries::horizontal(setup::DIST)),
        ("vert", Box::new(|| setup::vertical(&articles)), queries::vertical(setup::DIST)),
        (
            "hyb-single",
            Box::new(|| setup::hybrid(&store, FragMode::SingleDoc)),
            queries::hybrid(setup::DIST),
        ),
        (
            "hyb-many",
            Box::new(|| setup::hybrid(&store, FragMode::ManySmallDocs)),
            queries::hybrid(setup::DIST),
        ),
    ];
    for (label, build, workload) in &designs {
        for mode in [DispatchMode::Simulated, DispatchMode::Pool] {
            let mut px = build();
            px.set_dispatch(mode);
            for (id, query) in workload {
                let buffered = px.execute(query).unwrap_or_else(|e| panic!("{label}/{id}: {e}"));
                let streamed: Vec<Item> = stream_slices(&px, query).into_iter().flatten().collect();
                assert_eq!(
                    exact(&buffered.items),
                    exact(&streamed),
                    "{label}/{mode:?}/{id}: buffered answer is not the collected stream",
                );
            }
        }
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
    let slices: Vec<String> =
        stream_slices(&px, &query(setup::DIST)).iter().map(|s| exact(s)).collect();
    assert_eq!(slices, per_site);
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
        let (px, _server, client) = serve(px);
        plan.install(&px);
        let label = format!("stream-faulted-{seed:#x}");
        for (k, (id, query)) in workload.iter().enumerate() {
            match client.query(query, STREAMED) {
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
    let (px, mut server, client) = serve(setup::horizontal(&docs, 4));
    let query = format!(r#"for $i in collection("{}")/Item return $i"#, setup::DIST);
    let expected = exact(&px.execute(&query).expect("healthy run").items);

    let outcomes: Vec<Result<StreamResult, StreamCallError>> = std::thread::scope(|scope| {
        let worker = {
            let client = &client;
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
