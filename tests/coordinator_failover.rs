//! Coordinator-replication failover differential: three stateless
//! coordinators front one shared cluster through an epoch-versioned
//! [`partix::engine::MetaService`]. One coordinator is killed
//! mid-workload while seeded fault injectors gnaw at the DBMS nodes;
//! [`partix_net::CoordinatorPool`] clients must fail over to the
//! survivors, every answered query must match the centralized oracle
//! (typed errors are allowed, wrong or truncated data is not), and after
//! a catalog rebalance every coordinator — including the one whose
//! transport died — must converge to the same meta epoch.

use partix::engine::{
    DispatchMode, Distribution, FaultPlan, MetaService, NetworkModel, PartiX, RetryPolicy,
};
use partix_bench::oracle::canonical;
use partix_bench::{queries, setup};
use partix_net::{
    serve_coordinator, CoordinatorPool, StreamClientConfig, StreamOpts, StreamServer,
    StreamServerConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const COORDINATORS: usize = 3;
const CLIENTS: usize = 6;
const QUERIES_PER_CLIENT: usize = 30;
const FRAGMENTS: usize = 4;
const REPLICAS: usize = 2;

/// Build the replica fleet: the base engine (which owns publishing)
/// plus `COORDINATORS - 1` stateless clones over the shared cluster,
/// all attached to one meta service.
fn coordinator_fleet(base: PartiX, meta: &Arc<MetaService>) -> Vec<Arc<PartiX>> {
    let mut base = base;
    base.set_dispatch(DispatchMode::Pool);
    base.attach_meta(Arc::clone(meta));
    let base = Arc::new(base);
    let mut engines = vec![Arc::clone(&base)];
    for _ in 1..COORDINATORS {
        let mut px = PartiX::with_cluster(base.cluster().share(), NetworkModel::default());
        px.set_dispatch(DispatchMode::Pool);
        px.attach_meta(Arc::clone(meta));
        engines.push(Arc::new(px));
    }
    engines
}

#[test]
fn killing_a_coordinator_mid_workload_fails_over_without_wrong_data() {
    let docs = setup::quick_items(60);
    let workload = queries::horizontal(setup::DIST);

    // oracle answers from an independent, fault-free engine
    let clean = setup::horizontal(&docs, FRAGMENTS);
    let oracle: Vec<String> = workload
        .iter()
        .map(|(id, q)| {
            canonical(&clean.execute(q).unwrap_or_else(|e| panic!("oracle {id}: {e}")).items)
        })
        .collect();

    let base = setup::horizontal_replicated(&docs, FRAGMENTS, REPLICAS);
    base.set_retry_policy(RetryPolicy {
        timeout: Some(Duration::from_millis(500)),
        ..RetryPolicy::default()
    });
    let meta = MetaService::with_catalog(base.catalog_snapshot());
    let engines = coordinator_fleet(base, &meta);
    for px in &engines[1..] {
        px.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(500)),
            ..RetryPolicy::default()
        });
    }

    // seeded node faults on the shared cluster — every coordinator sees
    // the same flaky DBMS nodes; the replicated placement keeps each
    // fragment answerable. Keep the clean drivers so the convergence
    // phase can run on a genuinely healthy cluster.
    let clean_drivers: Vec<_> = (0..FRAGMENTS)
        .map(|i| engines[0].cluster().node(i).expect("node").active_driver())
        .collect();
    let injectors = FaultPlan::from_seed(0xBAD5EED, FRAGMENTS, 0.8).install(&engines[0]);

    let mut servers: Vec<StreamServer> = engines
        .iter()
        .map(|px| {
            serve_coordinator("127.0.0.1:0", Arc::clone(px), StreamServerConfig::default())
                .expect("bind coordinator")
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();

    let successes = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let failovers = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let addrs = {
                // rotate so the fleet spreads first connections evenly
                let mut a = addrs.clone();
                a.rotate_left(client % COORDINATORS);
                a
            };
            let (workload, oracle) = (&workload, &oracle);
            let (successes, failures, failovers) = (&successes, &failures, &failovers);
            scope.spawn(move || {
                let pool = CoordinatorPool::new(addrs, StreamClientConfig::default());
                for k in 0..QUERIES_PER_CLIENT {
                    let (id, query) = &workload[k % workload.len()];
                    match pool.query(query, StreamOpts::default()) {
                        Ok(result) => {
                            assert_eq!(
                                canonical(&result.items),
                                oracle[k % oracle.len()],
                                "client {client}/{id}: failover run returned wrong data",
                            );
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        // a typed error under faults + a dying
                        // coordinator is within contract
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                failovers.fetch_add(pool.failovers(), Ordering::Relaxed);
            });
        }

        // kill the last coordinator while the fleet is mid-workload
        std::thread::sleep(Duration::from_millis(60));
        servers.last_mut().expect("three servers").shutdown();
    });

    let ok = successes.load(Ordering::Relaxed);
    assert!(
        ok > 0,
        "the surviving coordinators must keep answering (saw {} failures, 0 successes)",
        failures.load(Ordering::Relaxed),
    );
    assert!(
        failovers.load(Ordering::Relaxed) > 0,
        "killing a coordinator under load must trip at least one pool failover",
    );

    // -------------------------------------------- epoch convergence --
    // heal the cluster (uninstall the injectors), then rebalance:
    // re-register the collection's distribution through the meta service
    // (an epoch bump, exactly what a placement swap does)
    let injected = |inj: &Arc<partix::engine::FaultInjector>| {
        inj.stats().injected_errors + inj.stats().injected_outages
    };
    let injected: usize = injectors.iter().flatten().map(injected).sum();
    assert!(injected > 0, "the seeded fault plan never fired — the chaos run was a no-op");
    for (i, driver) in clean_drivers.into_iter().enumerate() {
        engines[0].cluster().node(i).expect("node").set_driver(driver);
    }
    let before = meta.epoch();
    let dist: Distribution = {
        let catalog = engines[0].catalog_snapshot();
        let dist = catalog.distribution(setup::DIST).expect("registered distribution");
        (**dist).clone()
    };
    engines[0].register_distribution(dist).expect("rebalance re-registration");
    let epoch = meta.wait_for(before + 1, Duration::from_secs(5));
    assert!(epoch > before, "the rebalance must bump the meta epoch");

    // survivors observe the new epoch on their next served query; the
    // killed coordinator's *engine* is stateless and converges the same
    // way once it executes again (as it would after a restart)
    for (i, px) in engines.iter().enumerate() {
        if i + 1 < COORDINATORS {
            let client = partix_net::StreamClient::connect(
                &addrs[i],
                StreamClientConfig::default(),
            )
            .expect("surviving coordinator accepts connections");
            let result = client
                .query(&workload[0].1, StreamOpts::default())
                .expect("post-rebalance query on a healthy cluster");
            assert_eq!(canonical(&result.items), oracle[0]);
            assert_eq!(
                result.stats.catalog_epoch, epoch,
                "coordinator {i} served a query without syncing to the rebalance epoch",
            );
        } else {
            px.execute(&workload[0].1).expect("killed coordinator's engine still executes");
        }
        assert_eq!(
            px.meta_epoch_seen(),
            epoch,
            "coordinator {i} did not converge to the rebalance epoch",
        );
    }
}
