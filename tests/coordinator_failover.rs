//! Coordinator-replication failover differential: three coordinators,
//! replicas of one engine ([`PartiX::replica`]), front one shared cluster
//! and one shared distribution catalog. One coordinator is killed
//! mid-workload while seeded fault injectors gnaw at the DBMS nodes;
//! [`partix_net::CoordinatorPool`] clients must fail over to the
//! survivors, every answered query must match the centralized oracle
//! (typed errors are allowed, wrong or truncated data is not), and after
//! a catalog rebalance every coordinator — including the one whose
//! transport died — must read the same, bumped catalog epoch.

use partix::engine::{DispatchMode, Distribution, FaultPlan, PartiX, RetryPolicy};
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

/// Build the fleet: `COORDINATORS` replicas of the base engine (which
/// owns publishing), over its nodes and its catalog, each with the
/// failover run's deadline.
fn coordinator_fleet(base: &PartiX) -> Vec<Arc<PartiX>> {
    let fleet = (0..COORDINATORS).map(|_| {
        let mut px = base.replica();
        px.set_dispatch(DispatchMode::Pool);
        px.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(500)),
            ..RetryPolicy::default()
        });
        Arc::new(px)
    });
    fleet.collect()
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
    let engines = coordinator_fleet(&base);

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
    // re-register the collection's distribution through one coordinator
    // (an epoch bump, exactly what a placement swap does)
    let injected = |inj: &Arc<partix::engine::FaultInjector>| {
        inj.stats().injected_errors + inj.stats().injected_outages
    };
    let injected: usize = injectors.iter().flatten().map(injected).sum();
    assert!(injected > 0, "the seeded fault plan never fired — the chaos run was a no-op");
    for (i, driver) in clean_drivers.into_iter().enumerate() {
        engines[0].cluster().node(i).expect("node").set_driver(driver);
    }
    let before = engines[0].catalog().epoch();
    let dist: Distribution = {
        let catalog = engines[0].catalog();
        let dist = catalog.distribution(setup::DIST).expect("registered distribution");
        (**dist).clone()
    };
    engines[0].register_distribution(dist).expect("rebalance re-registration");
    let epoch = base.catalog().epoch();
    assert_eq!(epoch, before + 1, "the rebalance must bump the catalog epoch once");

    // survivors serve their next query under the new epoch; the killed
    // coordinator's *engine* reads the same catalog and answers alike
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
            px.catalog().epoch(),
            epoch,
            "coordinator {i} does not read the rebalance epoch",
        );
    }
}
