//! Concurrent execution: many client threads sharing one `PartiX` in
//! `DispatchMode::Pool` must observe exactly the answers the sequential
//! `Simulated` reference produces, and a read after a publish sees the
//! new documents. A gather runs its attempts on the calling
//! thread or on their own nodes' workers, and a fatal task fails the
//! query without waiting for its siblings. An answer that lands after a
//! live rebalance moved its fragment is re-run on the new replica —
//! buffered, streamed and rebuilt alike (held deterministically by a
//! gate, not by sleeps).

use partix::engine::{
    DispatchMode, DriverError, ExecOptions, Node, PartiX, PartixDriver, PartixError, Placement,
    RetryPolicy,
};
use partix::gen::{gen_items, ItemProfile};
use partix::query::{Item, Query};
use partix::storage::QueryOutput;
use partix::xml::Document;
use partix_bench::oracle::canonical;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The 4-node horizontal experiment (`C_items` in four section groups)
/// loaded with `docs`, in the given dispatch mode.
fn setup(docs: &[partix::xml::Document], mode: DispatchMode) -> PartiX {
    let mut px = partix_bench::setup::horizontal(docs, 4);
    px.set_dispatch(mode);
    px
}

const QUERIES: [&str; 6] = [
    r#"for $i in collection("data")/Item where $i/Section = "TOY" return $i/Code"#,
    r#"count(for $i in collection("data")/Item return $i)"#,
    r#"sum(for $i in collection("data")/Item return number($i/Code))"#,
    r#"avg(for $i in collection("data")/Item return number($i/Code))"#,
    r#"for $i in collection("data")/Item where contains($i//Description, "good") return $i/Name"#,
    r#"max(for $i in collection("data")/Item return number($i/Code))"#,
];

/// N threads hammering one Pool-mode middleware with a mixed workload
/// get, on every single call, the answer the Simulated reference gives.
#[test]
fn pool_mode_concurrent_results_match_simulated() {
    let docs = gen_items(120, ItemProfile::Small, 7);
    let reference = setup(&docs, DispatchMode::Simulated);
    let expected: Vec<String> = QUERIES
        .iter()
        .map(|q| canonical(&reference.execute(q).unwrap().items))
        .collect();

    let px = setup(&docs, DispatchMode::Pool);
    const THREADS: usize = 8;
    const ROUNDS: usize = 5;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let px = &px;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // stagger so different threads hit different queries
                    // at the same time
                    let q = (t + round) % QUERIES.len();
                    let got = px.execute(QUERIES[q]).unwrap();
                    assert_eq!(
                        canonical(&got.items),
                        expected[q],
                        "thread {t} round {round}: {}",
                        QUERIES[q]
                    );
                }
            });
        }
    });
}

/// Count live worker-pool threads by name (`partix-pool-*`; /proc comm
/// is truncated to 15 bytes, which still covers the prefix).
fn pool_threads() -> usize {
    let mut n = 0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
                if comm.starts_with("partix-pool") {
                    n += 1;
                }
            }
        }
    }
    n
}

/// Chaos variant: 16 clients hammer a replicated Pool-mode middleware
/// while a background thread flips one node's availability at a time.
/// The run must not deadlock, answered queries must match the healthy
/// reference, and dropping the middleware must not leak pool workers.
#[test]
fn chaos_flapping_node_under_concurrent_clients() {
    use partix_bench::setup;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let docs = gen_items(100, ItemProfile::Small, 13);
    let workload = partix_bench::queries::horizontal(setup::DIST);
    // healthy Simulated reference = the oracle for every query
    let reference = setup::horizontal_replicated(&docs, 4, 2);
    let expected: Vec<String> = workload
        .iter()
        .map(|(_, q)| canonical(&reference.execute(q).unwrap().items))
        .collect();

    let baseline_threads = pool_threads();
    let failed = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    {
        let mut px = setup::horizontal_replicated(&docs, 4, 2);
        px.set_dispatch(DispatchMode::Pool);
        // a flap can land on every backoff window in a row; give the
        // retry loop enough attempts that this is vanishingly rare
        px.set_retry_policy(partix::engine::RetryPolicy {
            max_attempts: 6,
            ..partix::engine::RetryPolicy::default()
        });

        const CLIENTS: usize = 16;
        const ROUNDS: usize = 6;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // availability flipper: at most one node down at any moment,
            // so with 2 replicas every fragment stays answerable
            let flipper = scope.spawn(|| {
                let mut k = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let node = px.cluster().node(k % 4).unwrap();
                    node.set_available(false);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    node.set_available(true);
                    // a fully-up window between flips
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    k += 1;
                }
            });
            let clients: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let px = &px;
                    let workload = &workload;
                    let expected = &expected;
                    let failed = &failed;
                    let answered = &answered;
                    scope.spawn(move || {
                        for round in 0..ROUNDS {
                            let q = (t + round) % workload.len();
                            match px.execute(&workload[q].1) {
                                Ok(got) => {
                                    answered.fetch_add(1, Ordering::Relaxed);
                                    assert_eq!(
                                        canonical(&got.items),
                                        expected[q],
                                        "client {t} round {round}: {}",
                                        workload[q].0
                                    );
                                }
                                // a flap can exhaust the retry budget;
                                // that must surface as an error, never
                                // wrong data
                                Err(_) => {
                                    failed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("client thread");
            }
            stop.store(true, Ordering::Release);
            flipper.join().expect("flipper thread");
        });

        let total = CLIENTS * ROUNDS;
        let failed = failed.load(Ordering::Relaxed);
        assert!(
            failed * 20 <= total,
            "{failed}/{total} queries failed despite replication"
        );
        assert!(answered.load(Ordering::Relaxed) > 0);
    } // px dropped: its pool must shut down
    for _ in 0..100 {
        if pool_threads() <= baseline_threads {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        pool_threads() <= baseline_threads,
        "pool workers leaked after drop"
    );
}

/// Remote chaos variant: the cluster's nodes sit behind loopback TCP
/// servers ([`partix_bench::remote::RemoteCluster`]) and a background
/// thread kills and restarts one node *listener* at a time — real
/// connection refusals and mid-stream hangups, not simulated flags.
/// Replica failover must keep answering with oracle-identical data, the
/// drivers' connect/reconnect accounting must reconcile, and neither
/// client connection pools nor pool workers may leak.
#[test]
fn remote_chaos_killed_listener_under_concurrent_clients() {
    use partix_bench::remote::RemoteCluster;
    use partix_bench::setup;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    let docs = gen_items(80, ItemProfile::Small, 17);
    let workload = partix_bench::queries::horizontal(setup::DIST);
    let reference = setup::horizontal_replicated(&docs, 4, 2);
    let expected: Vec<String> = workload
        .iter()
        .map(|(_, q)| canonical(&reference.execute(q).unwrap().items))
        .collect();

    let baseline_threads = pool_threads();
    let failed = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    {
        let mut px = setup::horizontal_replicated(&docs, 4, 2);
        px.set_dispatch(DispatchMode::Pool);
        px.set_retry_policy(partix::engine::RetryPolicy {
            max_attempts: 6,
            timeout: Some(std::time::Duration::from_secs(2)),
            ..partix::engine::RetryPolicy::default()
        });
        let wire = Mutex::new(RemoteCluster::attach(&px));

        const CLIENTS: usize = 12;
        const ROUNDS: usize = 5;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // listener flapper: at most one node's server down at any
            // moment, so with 2 replicas every fragment stays answerable
            let flipper = scope.spawn(|| {
                let mut k = 0usize;
                while !stop.load(Ordering::Acquire) {
                    {
                        let mut wire = wire.lock().unwrap();
                        wire.kill(k % 4);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(3));
                    {
                        let mut wire = wire.lock().unwrap();
                        wire.restart(k % 4);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(3));
                    k += 1;
                }
            });
            let clients: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let px = &px;
                    let workload = &workload;
                    let expected = &expected;
                    let failed = &failed;
                    let answered = &answered;
                    scope.spawn(move || {
                        for round in 0..ROUNDS {
                            let q = (t + round) % workload.len();
                            match px.execute(&workload[q].1) {
                                Ok(got) => {
                                    answered.fetch_add(1, Ordering::Relaxed);
                                    assert_eq!(
                                        canonical(&got.items),
                                        expected[q],
                                        "client {t} round {round}: {}",
                                        workload[q].0
                                    );
                                }
                                // exhausted retries surface as an error,
                                // never as wrong data
                                Err(_) => {
                                    failed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("client thread");
            }
            stop.store(true, Ordering::Release);
            flipper.join().expect("flipper thread");
        });

        let total = CLIENTS * ROUNDS;
        let failed = failed.load(Ordering::Relaxed);
        assert!(answered.load(Ordering::Relaxed) > 0, "no query ever answered");
        assert!(
            failed * 4 <= total,
            "{failed}/{total} queries failed despite replication and retries"
        );

        let mut wire = wire.lock().unwrap();
        // every listener is back up: a fresh query round must succeed
        for i in 0..4 {
            wire.restart(i);
        }
        let (_, q) = &workload[0];
        let healed = px.execute(q).expect("healed cluster answers");
        assert_eq!(canonical(&healed.items), expected[0]);

        // accounting reconciles: reconnects are a subset of connects,
        // and the idle pools hold at most max_idle sockets per driver
        for i in 0..4 {
            let stats = wire.driver(i).stats();
            assert!(stats.connects >= 1, "node {i}: no connect recorded");
            assert!(
                stats.reconnects <= stats.connects,
                "node {i}: more reconnects than connects: {stats:?}"
            );
            assert!(
                wire.driver(i).pooled_connections() <= 4,
                "node {i}: idle pool exceeds max_idle"
            );
        }
        // flapped listeners forced at least one redial somewhere
        assert!(
            wire.connects() > 4,
            "listener flaps never forced a reconnect"
        );
        // draining the pools leaves no idle sockets behind
        for i in 0..4 {
            wire.driver(i).drain_pool();
        }
        assert_eq!(wire.pooled_connections(), 0, "connection pool leaked");
    } // px + wire dropped: pool workers and listeners must shut down
    for _ in 0..100 {
        if pool_threads() <= baseline_threads {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        pool_threads() <= baseline_threads,
        "pool workers leaked after drop"
    );
}

/// Publishing new documents between repeated reads: the next read sees
/// the new data, not an answer from before the publish.
#[test]
fn a_read_after_publish_sees_the_new_documents() {
    let docs = gen_items(60, ItemProfile::Small, 3);
    let px = setup(&docs, DispatchMode::Pool);

    let count_q = r#"count(for $i in collection("data")/Item return $i)"#;
    let first = px.execute(count_q).unwrap();
    assert_eq!(first.items[0].serialize(), "60");
    let second = px.execute(count_q).unwrap();
    assert_eq!(second.items[0].serialize(), "60");

    let more = gen_items(15, ItemProfile::Small, 4);
    px.publish(partix_bench::setup::DIST, &more).unwrap();

    let third = px.execute(count_q).unwrap();
    assert_eq!(third.items[0].serialize(), "75", "a read missed the published documents");
}

/// Forwards to the node's own driver, noting which thread ran each
/// query; optionally sleeping first, or dead (every call `Unavailable`,
/// as a node that crashed after the query was planned).
struct WatchedDriver {
    node: usize,
    inner: Arc<dyn PartixDriver>,
    nap: Duration,
    dead: bool,
    seen: Seen,
}

type Seen = Arc<Mutex<Vec<(usize, Option<String>)>>>;

impl WatchedDriver {
    /// Wrap every node of `px`: node `slow` sleeps 400 ms per query, node
    /// `dead` answers none.
    fn install(px: &PartiX, slow: Option<usize>, dead: Option<usize>) -> Seen {
        let seen = Seen::default();
        for node in px.cluster().nodes() {
            node.set_driver(Arc::new(WatchedDriver {
                node: node.id,
                inner: node.active_driver(),
                nap: Duration::from_millis(if slow == Some(node.id) { 400 } else { 0 }),
                dead: dead == Some(node.id),
                seen: Arc::clone(&seen),
            }));
        }
        seen
    }
}

impl PartixDriver for WatchedDriver {
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        let thread = std::thread::current().name().map(str::to_owned);
        self.seen.lock().unwrap().push((self.node, thread));
        if self.dead {
            return Err(DriverError::Unavailable("crashed after planning".into()));
        }
        std::thread::sleep(self.nap);
        self.inner.execute(query)
    }

    fn store(&self, collection: &str, docs: Vec<Document>) {
        self.inner.store(collection, docs);
    }

    fn fetch_collection(&self, collection: &str) -> Vec<Arc<Document>> {
        self.inner.fetch_collection(collection)
    }

    fn collections(&self) -> Vec<String> {
        self.inner.collections()
    }
}

/// Over pooled plans of 1, 2 and 4 tasks, every attempt runs on the
/// calling thread or on a worker of its own node, never a third thread.
/// Without a deadline exactly one attempt per gather runs on the caller;
/// with one, none does: the caller must stay free to abandon it.
#[test]
fn attempts_run_on_the_caller_or_on_their_own_nodes_workers() {
    use partix_bench::setup;
    let docs = gen_items(40, ItemProfile::Small, 21);
    let all = format!(r#"count(collection("{}")/Item)"#, setup::DIST);
    let caller = std::thread::current().name().map(str::to_owned);
    for tasks in [1, 2, 4] {
        for timeout in [None, Some(Duration::from_secs(5))] {
            let mut px = setup::horizontal(&docs, tasks);
            px.set_dispatch(DispatchMode::Pool);
            px.set_retry_policy(RetryPolicy { timeout, ..RetryPolicy::default() });
            let seen = WatchedDriver::install(&px, None, None);
            for round in 0..5 {
                let out = px.execute(&all).unwrap();
                assert_eq!(out.report.sites.len(), tasks);
                let attempts = std::mem::take(&mut *seen.lock().unwrap());
                let context = format!("{tasks} task(s), timeout {timeout:?}, round {round}");
                assert_eq!(attempts.len(), tasks, "{context}: {attempts:?}");
                let mut on_caller = 0;
                for (node, thread) in &attempts {
                    if *thread == caller {
                        on_caller += 1;
                        continue;
                    }
                    let name = thread.as_deref().unwrap_or("<unnamed>");
                    assert!(
                        name.starts_with(&format!("partix-pool-n{node}w")),
                        "{context}: node {node}'s attempt ran on {name}"
                    );
                }
                assert_eq!(on_caller, usize::from(timeout.is_none()), "{context}: {attempts:?}");
            }
        }
    }
}

/// Two fragments without replicas: one node crashed after planning, the
/// other sleeps 400 ms per query. The dead fragment's typed error
/// returns as soon as its retries are spent — it does not wait for the
/// sleeping attempt, whose late answer is dropped — and the same engine
/// then answers correctly. The sleeping attempt must be a job for the
/// caller to be free: so it comes first in plan order, or the policy
/// sets a deadline (which keeps every attempt off the caller).
#[test]
fn a_fatal_task_fails_the_query_without_waiting_for_its_siblings() {
    use partix_bench::setup;
    let docs = gen_items(40, ItemProfile::Small, 19);
    let all = format!(r#"count(collection("{}")/Item)"#, setup::DIST);
    let expected = setup::horizontal(&docs, 2).execute(&all).unwrap().items[0].serialize();
    for (dead, slow, timeout) in [(0, 1, Some(Duration::from_secs(2))), (1, 0, None)] {
        let mut px = setup::horizontal(&docs, 2);
        px.set_dispatch(DispatchMode::Pool);
        px.set_retry_policy(RetryPolicy { timeout, ..RetryPolicy::default() });
        WatchedDriver::install(&px, Some(slow), Some(dead));
        let begun = Instant::now();
        let err = px.execute(&all).expect_err("a fragment without a live replica");
        let took = begun.elapsed();
        assert!(
            matches!(err, PartixError::NodeUnavailable { node, .. } if node == dead),
            "node {dead} dead: {err}"
        );
        assert!(took < Duration::from_millis(200), "node {dead} dead: the error took {took:?}");
        px.cluster().node(dead).unwrap().clear_driver();
        let healed = px.execute(&all).expect("every node up");
        assert_eq!(healed.items[0].serialize(), expected, "node {dead} back up");
    }
}

/// Holds a node's first query-path call (an execute or a fetch) until
/// the test lets it through, forwarding everything else: a deterministic
/// way to land an answer after a rebalance moved the node's fragment.
struct Gate {
    inner: Arc<dyn PartixDriver>,
    /// Taken by the first query-path call: it reports in, then waits.
    hold: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl Gate {
    /// Wrap `node`'s driver. Returns the channel the held call reports
    /// on and the one that lets it through.
    fn install(node: &Node) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (arrived, reported) = mpsc::channel();
        let (release, released) = mpsc::channel();
        let hold = Mutex::new(Some((arrived, released)));
        node.set_driver(Arc::new(Gate { inner: node.active_driver(), hold }));
        (reported, release)
    }

    fn pass(&self) {
        let held = self.hold.lock().unwrap().take();
        if let Some((arrived, released)) = held {
            arrived.send(()).unwrap();
            released.recv().unwrap();
        }
    }
}

impl PartixDriver for Gate {
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        self.pass();
        self.inner.execute(query)
    }

    fn store(&self, collection: &str, docs: Vec<Document>) {
        self.inner.store(collection, docs);
    }

    fn fetch_collection(&self, collection: &str) -> Vec<Arc<Document>> {
        self.inner.fetch_collection(collection)
    }

    fn try_fetch_collection(&self, collection: &str) -> Result<Vec<Arc<Document>>, DriverError> {
        self.pass();
        self.inner.try_fetch_collection(collection)
    }

    fn try_fetch_filtered(
        &self,
        collection: &str,
        filter: &Query,
    ) -> Result<Vec<Arc<Document>>, DriverError> {
        self.pass();
        self.inner.try_fetch_filtered(collection, filter)
    }

    fn collections(&self) -> Vec<String> {
        self.inner.collections()
    }

    fn drop_collection(&self, collection: &str) {
        self.inner.drop_collection(collection);
    }
}

/// Run `query` on its own thread with node `held`'s first query-path call
/// held; meanwhile a live rebalance moves the collection to `target`
/// (retiring what left `held`); then let the call through and return
/// what `query` returned.
fn across_a_rebalance<T: Send>(
    px: &PartiX,
    held: usize,
    target: &[Placement],
    query: impl FnOnce() -> T + Send,
) -> T {
    use partix_advisor::rebalance;
    let (reported, release) = Gate::install(px.cluster().node(held).unwrap());
    // `release` moves in: a failing assertion drops it, which frees the
    // held call instead of leaving the scope waiting for it
    std::thread::scope(move |scope| {
        let running = scope.spawn(query);
        reported.recv_timeout(Duration::from_secs(60)).expect("the query reached the held node");
        let dist = partix_bench::setup::DIST;
        let report = rebalance(px, dist, target).expect("rebalance");
        assert!(report.verified);
        release.send(()).unwrap();
        running.join().expect("query thread")
    })
}

/// Both fragments of a two-node horizontal design onto node 1.
fn onto_node_1() -> Vec<Placement> {
    (0..2).map(|i| Placement { fragment: format!("f{i}"), node: 1 }).collect()
}

/// A buffered `count` whose sub-query on node 0 answers after a live
/// rebalance moved f0 to node 1 and dropped it from node 0: the answer
/// read there is discarded and that sub-query re-runs on f0's new
/// replica. The report puts the re-run on that site.
#[test]
fn an_answer_read_under_a_retired_placement_reruns_on_the_current_replica() {
    use partix_bench::setup;
    let docs = gen_items(40, ItemProfile::Small, 23);
    let px = setup::horizontal(&docs, 2);
    let count = format!(r#"count(collection("{}")/Item)"#, setup::DIST);
    let result = across_a_rebalance(&px, 0, &onto_node_1(), || px.execute(&count))
        .expect("the count answers across the rebalance");
    assert_eq!(result.items, vec![Item::Num(docs.len() as f64)]);
    let site = result.report.sites.iter().find(|s| s.fragment == "f0").expect("f0 answered");
    assert!(site.retries >= 1 && site.node == 1, "{:?}", result.report.sites);
}

/// A stream over the same interleaving finishes, with exactly the items,
/// in exactly the order, the buffered answer had before the rebalance.
#[test]
fn a_stream_finishes_across_a_live_rebalance() {
    use partix_bench::setup;
    let docs = gen_items(40, ItemProfile::Small, 29);
    let px = setup::horizontal(&docs, 2);
    let codes = format!(r#"for $i in collection("{}")/Item return $i/Code"#, setup::DIST);
    let serialize = |items: &[Item]| items.iter().map(Item::serialize).collect::<Vec<_>>();
    let expected = serialize(&px.execute(&codes).unwrap().items);
    let (streamed, result) = across_a_rebalance(&px, 0, &onto_node_1(), || {
        let mut streamed = Vec::new();
        let result = px.execute_streamed_with(&codes, ExecOptions::default(), &mut |slice| {
            streamed.extend(serialize(&slice));
            true
        });
        (streamed, result)
    });
    result.expect("the stream finishes across the rebalance");
    assert_eq!(streamed, expected);
}

/// A reconstruction whose epilog fetch lands after the rebalance moved
/// f_epilog from node 2 to node 1 and dropped it from node 2: the empty
/// read is discarded, the fetch re-runs on node 1, and the rebuilt answer
/// is the centralized one.
#[test]
fn a_reconstruction_fetch_landing_after_the_retire_is_refetched() {
    use partix_bench::oracle::oracle_answers;
    use partix_bench::{queries, setup};
    let docs = partix::gen::gen_articles(10, partix::gen::ArticleProfile::SMALL, 31);
    let px = setup::vertical(&docs);
    let workload: Vec<_> =
        queries::vertical(setup::DIST).into_iter().filter(|(id, _)| *id == "QV4").collect();
    let oracle = oracle_answers(&px, &workload);
    let target: Vec<Placement> = [("f_spine", 0), ("f_prolog", 0), ("f_body", 1), ("f_epilog", 1)]
        .into_iter()
        .map(|(fragment, node)| Placement { fragment: fragment.into(), node })
        .collect();
    let result = across_a_rebalance(&px, 2, &target, || px.execute(&workload[0].1))
        .expect("the reconstruction answers across the rebalance");
    assert!(result.report.reconstructed);
    assert_eq!(canonical(&result.items), oracle[0]);
    let site = result.report.sites.iter().find(|s| s.fragment == "f_epilog").expect("fetched");
    assert!(site.retries >= 1 && site.node == 1, "{:?}", result.report.sites);
}
