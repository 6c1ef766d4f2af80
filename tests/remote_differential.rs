//! Local-vs-remote differential suite: the proof that the partix-net
//! transport is transparent. The fixed bench workloads and generated
//! cases of every family run with every node behind a loopback TCP node
//! server ([`partix_bench::remote::RemoteCluster`]), and each answer must
//! be the centralized oracle's — which the in-process route answers too.
//! The coordinator cannot tell the transports apart, so any divergence is
//! a wire-protocol bug (codec, framing, or pooling).
//!
//! The faulted variants re-run the dispatch-layer contract over sockets:
//! with injectors wrapping the *remote* drivers, a query returns either
//! the oracle answer or a typed error — never silently wrong data. A
//! killed node server must likewise surface as a typed error.

mod common;

use common::gen::Family;
use common::{assert_answer, assert_answers, route_holds, On, Route};
use partix::engine::{DriverError, FaultPlan, PartixDriver, RetryPolicy};
use partix::gen::ArticleProfile;
use partix::query::Query;
use partix::storage::QueryOutput;
use partix::xml::Document;
use partix_bench::oracle::canonical;
use partix_bench::remote::RemoteCluster;
use partix_bench::{queries, setup};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn horizontal_remote_matches_local_across_fragment_counts() {
    route_holds(&[Family::Horizontal], 16, |_| Route::Remote);
}

#[test]
fn vertical_remote_matches_local() {
    route_holds(&[Family::Vertical], 16, |_| Route::Remote);
}

/// A reconstruction reads only what the query reads over the wire too:
/// the node of a fragment outside the footprint sees no frame at all, and
/// a fetch whose filter rode the request brings back the pieces that
/// pass, not the fragment; a count summed per fragment brings back a
/// number.
#[test]
fn vertical_fetches_cross_the_wire_pruned_and_filtered() {
    let docs = partix::gen::gen_articles(10, ArticleProfile::SMALL, 29);
    let px = setup::vertical(&docs);
    let c = format!("collection(\"{}\")", setup::DIST);
    let qv4 = format!("for $a in {c}/article return ($a/prolog/title, $a/epilog/country)");
    let titles_where = |word: &str| {
        format!(
            "for $a in {c}/article where contains($a/body/abstract, \"{word}\") \
             return $a/prolog/title"
        )
    };
    let abstracts = format!("for $a in {c}/article return ($a/prolog/title, $a/body/abstract)");
    let workload: Vec<(&'static str, String)> = vec![
        ("QV4", qv4),
        ("QV7", titles_where("good")),
        ("QV7-none", titles_where("no such word")),
        ("abstracts", abstracts),
        ("QV10", format!("count({c}//p)")),
    ];
    let on = On::new(px, Route::Remote);
    // node 1 holds f_body and nothing else
    let body_node = || on.wire().driver(1).stats();
    let run = |k: usize| {
        let before = body_node();
        let (id, query) = &workload[k];
        let verdict = assert_answer(&on, query, id);
        let after = body_node();
        let result = (verdict.report.expect("answered"), verdict.items);
        (result, after.bytes_sent - before.bytes_sent, after.bytes_recv - before.bytes_recv)
    };
    // QV4 reads the prolog and the epilog: f_body is not requested
    let ((qv4, _), sent, received) = run(0);
    assert!(qv4.reconstructed);
    assert_eq!((sent, received), (0, 0), "QV4 contacted the node of f_body");
    assert_eq!(qv4.fragments_pruned, 1);
    assert!(qv4.sites.iter().all(|site| site.fragment != "f_body"));
    // QV7 and the abstracts both fetch f_body; QV7's request carries the
    // filter and its answer only the pieces that pass — none, for the last
    // word
    let (_, some_sent, some_received) = run(1);
    let ((_, none), none_sent, none_received) = run(2);
    let ((whole, _), whole_sent, whole_received) = run(3);
    assert!(whole.reconstructed);
    assert_eq!(none, 0);
    assert!(some_sent > whole_sent && none_sent > whole_sent, "no filter on the wire");
    assert!(none_received < some_received && some_received <= whole_received);
    assert!(none_received * 4 < whole_received, "{none_received} of {whole_received} bytes");
    // QV10 is counted where the paragraphs are: node 1 gets one sub-query
    // and answers a number, not its pieces
    let ((qv10, _), _, received) = run(4);
    assert!(!qv10.reconstructed);
    assert_eq!(qv10.sites.iter().filter(|site| site.node == 1).count(), 1);
    assert!(received < 1024, "QV10 brought back {received} bytes from f_body");
}

#[test]
fn hybrid_remote_matches_local_both_frag_modes() {
    route_holds(&[Family::Hybrid], 16, |_| Route::Remote);
}

// ------------------------------------------------------ faulted runs --

/// Replicated horizontal cluster over sockets with injectors wrapping
/// the remote drivers: same no-wrong-data contract as the in-process
/// suite, same seeds, now with real frames underneath the faults.
#[test]
fn horizontal_remote_under_faults_returns_oracle_answer_or_typed_error() {
    let docs = setup::quick_items(60);
    let workload = queries::horizontal(setup::DIST);
    for seed in [3u64, 0xBAD5EED, 0xC4A0_5EED] {
        let px = setup::horizontal_replicated(&docs, 4, 2);
        px.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(500)),
            ..RetryPolicy::default()
        });
        // transport first, faults second: injectors wrap RemoteDriver
        let _wire = RemoteCluster::attach(&px);
        let on = On::new(px, Route::Faulted(FaultPlan::from_seed(seed, 4, 0.8)));
        assert_answers(&on, &workload, &format!("remote-faulted-{seed:#x}"));
    }
}

/// A killed node server is a typed error, not wrong data: unreplicated
/// fragments on a dead listener must fail the query cleanly, and a
/// restart on the same port must heal it without rebuilding anything.
#[test]
fn killed_server_yields_typed_error_and_restart_heals() {
    let docs = setup::quick_items(40);
    let px = setup::horizontal(&docs, 2);
    px.set_retry_policy(RetryPolicy {
        timeout: Some(Duration::from_millis(500)),
        ..RetryPolicy::default()
    });
    let q = format!(r#"count(collection("{}")/Item)"#, setup::DIST);
    let mut wire = RemoteCluster::attach(&px);
    let healthy = canonical(&px.execute(&q).expect("healthy remote run").items);

    wire.kill(1);
    match px.execute(&q) {
        // no replica for f1: the failure must be a typed error
        Err(_) => {}
        Ok(result) => {
            // dispatch may legally answer only if the answer is right —
            // wrong data is the one outlawed outcome
            assert_eq!(
                canonical(&result.items),
                healthy,
                "query over a dead server returned wrong data",
            );
        }
    }

    wire.restart(1);
    let healed = px.execute(&q).expect("restarted server answers");
    assert_eq!(canonical(&healed.items), healthy);
}

/// Vertical kill matrix: every node of the vertical design killed in
/// turn, every query of the workload run against the hole. Queries that
/// read nothing the dead node holds keep answering — single-fragment ones
/// routed elsewhere, and reconstructions whose footprint does not reach
/// its fragments; queries that need the dead node — sub-queries and the
/// reconstruction fallback's fetches, filtered or whole, alike — fail
/// typed. The outlawed outcome is a reconstruction that silently joins an
/// empty fragment in place of the unreachable one. A restart heals every
/// query. `decorate` wraps every remote driver (see [`Forwarding`]) once
/// the cluster is on the wire.
fn vertical_kill_matrix(
    label: &str,
    decorate: impl Fn(Arc<dyn PartixDriver>) -> Arc<dyn PartixDriver>,
) {
    let docs = partix::gen::gen_articles(10, ArticleProfile::SMALL, 29);
    let workload = queries::vertical(setup::DIST);
    let px = setup::vertical(&docs);
    px.set_retry_policy(RetryPolicy {
        timeout: Some(Duration::from_millis(500)),
        ..RetryPolicy::default()
    });
    let mut wire = RemoteCluster::attach(&px);
    for node in px.cluster().nodes() {
        node.set_driver(decorate(Arc::clone(wire.driver(node.id)) as Arc<dyn PartixDriver>));
    }
    let healthy: Vec<String> = workload
        .iter()
        .map(|(id, query)| px.execute(query).unwrap_or_else(|e| panic!("{label}/{id}: {e}")))
        .map(|result| canonical(&result.items))
        .collect();
    // the nodes each query contacts, healthy
    let contacts: Vec<Vec<usize>> = workload
        .iter()
        .map(|(_, query)| {
            let report = px.execute(query).expect("healthy run").report;
            report.sites.iter().map(|site| site.node).collect()
        })
        .collect();
    // QV4 fetches three fragments and none from node 1, which holds f_body
    let prunes_a_node = |nodes: &Vec<usize>| nodes.len() == 3 && !nodes.contains(&1);
    assert!(contacts.iter().any(prunes_a_node), "no reconstruction leaves a node alone");

    for victim in 0..wire.len() {
        wire.kill(victim);
        let label = format!("{label}/n{victim}");
        // a query that reads nothing the dead node holds keeps its
        // answer; one that does fails typed, whatever else it fetched
        let mut answered = 0;
        for (k, (id, query)) in workload.iter().enumerate() {
            match px.execute(query) {
                Ok(result) => {
                    assert!(!contacts[k].contains(&victim), "{label}/{id}: answered over a hole");
                    assert_eq!(canonical(&result.items), healthy[k], "{label}/{id}");
                    answered += 1;
                }
                Err(error) => {
                    assert!(contacts[k].contains(&victim), "{label}/{id}: {error}");
                }
            }
        }

        assert!(answered < workload.len(), "{label}: no query noticed the dead node");
        wire.restart(victim);
        for (k, (id, query)) in workload.iter().enumerate() {
            let healed = px
                .execute(query)
                .unwrap_or_else(|e| panic!("{label}/{id} after restart: {e}"));
            assert_eq!(canonical(&healed.items), healthy[k], "{label}/{id} after restart");
        }
    }
}

#[test]
fn vertical_kill_matrix_yields_healthy_answer_or_typed_error() {
    vertical_kill_matrix("vert-kill", |driver| driver);
}

/// A driver decorator that adds nothing: every call goes to the wrapped
/// driver, `try_fetch_collection` included — the one forward a wrapper
/// must not leave to the trait's default, which answers through the
/// infallible `fetch_collection` and would hand the reconstruction an
/// empty fragment for an unreachable node. `try_fetch_filtered` is
/// forwarded so the filter still runs at the node; its default (fetch it
/// all through `try_fetch_collection`, filter here) would be as correct.
struct Forwarding(Arc<dyn PartixDriver>);

impl PartixDriver for Forwarding {
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        self.0.execute(query)
    }

    fn store(&self, collection: &str, docs: Vec<Document>) {
        self.0.store(collection, docs);
    }

    fn fetch_collection(&self, collection: &str) -> Vec<Arc<Document>> {
        self.0.fetch_collection(collection)
    }

    fn try_fetch_collection(&self, collection: &str) -> Result<Vec<Arc<Document>>, DriverError> {
        self.0.try_fetch_collection(collection)
    }

    fn try_fetch_filtered(
        &self,
        collection: &str,
        filter: &Query,
    ) -> Result<Vec<Arc<Document>>, DriverError> {
        self.0.try_fetch_filtered(collection, filter)
    }

    fn collections(&self) -> Vec<String> {
        self.0.collections()
    }

    fn counts_wire_bytes(&self) -> bool {
        self.0.counts_wire_bytes()
    }
}

/// The kill matrix holds behind a wrapped `RemoteDriver` too — the shape
/// every tracing or metering decorator has.
#[test]
fn vertical_kill_matrix_through_a_forwarding_decorator() {
    vertical_kill_matrix("vert-kill/decorated", |driver| Arc::new(Forwarding(driver)));
}
