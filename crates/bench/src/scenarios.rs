//! The five scenarios beyond the paper's figures, each a definition on
//! the one runner ([`crate::scenario`]): what is built, which fleets run,
//! what happens between them, and which verdicts the record carries.
//! All use the ItemsSHor dataset, the section-group horizontal design and
//! the QH1–QH8 workload; the paper itself assumes healthy nodes, one
//! caller and a read-only repository.
//!
//! * [`chaos`] — the dispatch layer's retry / deadline / failover machinery
//!   under a seeded [`FaultPlan`]: fault-free vs faulted (strict) vs
//!   faulted with `allow_partial`. The same `--seed` gives a byte-identical
//!   [`FaultPlan::describe`] and so the same per-node faults.
//! * [`rebalance`] — every fragment starts on node 0; the workload is
//!   measured, profiled, advised, migrated live under a probing client and
//!   measured again.
//! * [`scaleout`] — 1 / 2 / 3 stateless coordinator replicas over shared
//!   nodes and one epoch-versioned catalog, reached over the `PXN2`
//!   streaming transport, streamed vs buffered.
//! * [`multitenant`] — a well-behaved interactive tenant measured alone,
//!   then beside a quota-capped batch tenant flooding at 10× its load.
//! * [`writes`] — coordinator-routed `put` / `delete` mixed into the reads
//!   over WAL-backed nodes (append → fsync → apply) at 10 % and 50 %.
//!
//! Timings are data; the verdict fields (`verified`, `during_errors`,
//! `oracle_mismatches`, `isolation_held`) are what `scripts/verify.sh`
//! gates on. Fast-but-wrong is a failure.

use crate::oracle::{canonical, oracle_answers};
use crate::remote::RemoteCluster;
use crate::scenario::{turn, Fields, Fleet, Knobs, Op};
use crate::{queries, setup};
use partix_advisor::{advise_live, AdvisorConfig, RebalanceOptions, WorkloadProfiler};
use partix_engine::{
    AdmissionConfig, AdmissionController, DispatchMode, ExecOptions, FaultPlan, MetaService,
    NetworkModel, PartiX, PartixDriver, PartixError, PriorityClass, RetryPolicy, Tenancy,
    TenantId, TenantQuotas, TenantRegistry, TenantSpec,
};
use partix_gen::SECTIONS;
use partix_net::{
    serve_coordinator, CoordinatorPool, StreamClientConfig, StreamOpts, StreamServer,
    StreamServerConfig,
};
use partix_storage::{DurableDb, WriteOp};
use partix_xml::Document;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A scenario by its `harness` command name.
pub struct Scenario {
    pub name: &'static str,
    pub run: fn(&Knobs) -> Fields,
}

pub const SCENARIOS: [Scenario; 5] = [
    Scenario { name: "chaos", run: chaos },
    Scenario { name: "rebalance", run: rebalance },
    Scenario { name: "scaleout", run: scaleout },
    Scenario { name: "multitenant", run: multitenant },
    Scenario { name: "writes", run: writes },
];

fn transport(remote: bool) -> &'static str {
    if remote {
        " (remote TCP transport)"
    } else {
        ""
    }
}

/// Closed-loop QPS / latency under a seeded fault schedule.
pub fn chaos(knobs: &Knobs) -> Fields {
    let docs = knobs.dataset();
    let workload = queries::horizontal(setup::DIST);
    let (nodes, clients) = (knobs.fragments, knobs.most_clients());
    let plan = FaultPlan::from_seed(knobs.seed, nodes, knobs.rate);
    println!(
        "\n### chaos{}: ItemsSHor {} B, {nodes} nodes × {} replicas, {clients} clients × {} queries, deadline {} ms",
        transport(knobs.remote),
        knobs.db_bytes,
        knobs.replicas,
        knobs.ops_per_client,
        knobs.timeout_ms,
    );
    println!("fault schedule: {}", plan.describe());
    let mut runs = Vec::new();
    for (label, faulted, allow_partial) in
        [("fault-free", false, false), ("faulted", true, false), ("faulted-partial", true, true)]
    {
        let mut px = setup::horizontal_replicated(&docs, nodes, knobs.replicas);
        px.set_dispatch(DispatchMode::Pool);
        px.set_retry_policy(RetryPolicy {
            timeout: Some(Duration::from_millis(knobs.timeout_ms)),
            ..RetryPolicy::default()
        });
        // remote first, injectors second: the injectors must wrap the
        // network drivers so faults fire *on top of* the real transport
        let _wire = knobs.remote.then(|| RemoteCluster::attach(&px));
        let injectors = if faulted { plan.install(&px) } else { Vec::new() };
        let options = ExecOptions { allow_partial, ..ExecOptions::default() };
        let fleet = Fleet { clients, ops_per_client: knobs.ops_per_client, oracle: None };
        let tally = fleet.run(
            |_| (),
            |_, client, k| {
                let (query, text) = turn(&workload, client, k);
                match px.execute_with(text, options) {
                    Ok(result) => Op::answered(query, result),
                    Err(_) => Op::Failed,
                }
            },
        );
        let injected: Vec<_> = injectors.iter().flatten().map(|i| i.stats()).collect();
        // a run's throughput counts the queries that were answered
        let run = Fields::default()
            .text("label", label)
            .count("ok", tally.reads.len())
            .count("failed", tally.failed)
            .count("partial", tally.partial)
            .num("wall_s", tally.wall_s)
            .num("qps", tally.qps())
            .num("p50_ms", tally.read_ms(50.0))
            .num("p99_ms", tally.read_ms(99.0))
            .count("retries", tally.retries)
            .count("failovers", tally.failovers)
            .count("timeouts", tally.timeouts)
            .count("injected_errors", injected.iter().map(|s| s.injected_errors).sum())
            .count("injected_outages", injected.iter().map(|s| s.injected_outages).sum())
            .count("delayed_calls", injected.iter().map(|s| s.delayed_calls).sum());
        println!("  {run}");
        runs.push(tally.stage_fields(run));
    }
    knobs
        .record("chaos", &docs)
        .flag("remote", knobs.remote)
        // hex string: u64 seeds do not fit losslessly in a JSON double
        .text("seed", &format!("{:#x}", knobs.seed))
        .num("rate", knobs.rate)
        .count("replicas", knobs.replicas)
        .count("clients", clients)
        .count("queries_per_client", knobs.ops_per_client)
        .num("timeout_ms", knobs.timeout_ms as f64)
        .text("schedule", &plan.describe())
        .rows("runs", runs)
}

/// Skewed placement measured, advised, migrated live, re-measured.
pub fn rebalance(knobs: &Knobs) -> Fields {
    let docs = knobs.dataset();
    let workload = queries::horizontal(setup::DIST);
    let (nodes, clients) = (knobs.fragments, knobs.most_clients());
    let mut px = setup::skewed_horizontal(&docs, nodes, nodes);
    px.set_dispatch(DispatchMode::Pool);
    // when remote, the migration's copies travel as genuine frames too
    let wire = knobs.remote.then(|| RemoteCluster::attach(&px));
    println!(
        "\n### rebalance{}: {} B over {nodes} fragments, ALL on node 0 of {nodes}; {clients} clients × {} queries",
        transport(knobs.remote),
        knobs.db_bytes,
        knobs.ops_per_client,
    );

    // Profile one sequential pass (doubles as warm-up), then size the
    // fragments from the live placement.
    let profiler = WorkloadProfiler::new();
    for (_, query) in &workload {
        profiler.record(&px.execute(query).expect("profiling query").report);
    }
    profiler.observe_placement(&px, setup::DIST);
    let profile = profiler.snapshot();

    let fleet = Fleet { clients, ops_per_client: knobs.ops_per_client, oracle: None };
    let read = |_: &mut (), client, k| {
        let (query, text) = turn(&workload, client, k);
        Op::answered(query, px.execute(text).expect("rebalance query"))
    };
    let before = fleet.run(|_| (), read);

    let mut advisor = AdvisorConfig::new(nodes);
    advisor.seed = knobs.seed;
    let advice = advise_live(&px, setup::DIST, &profile, &advisor)
        .expect("advise")
        .expect("distribution registered");

    // Live migration, probed: a thread keeps asking an aggregate answered
    // before the migration and tallies any disagreement.
    let probe_query = &workload[6].1;
    let expected = px.execute(probe_query).expect("probe query").items;
    let done = AtomicBool::new(false);
    let (during_queries, during_errors) = (AtomicU64::new(0), AtomicU64::new(0));
    let report = std::thread::scope(|scope| {
        let probe = scope.spawn(|| {
            // check-after-query loop: even an instant migration gets at
            // least one mid-flight probe
            loop {
                if !matches!(px.execute(probe_query), Ok(result) if result.items == expected) {
                    during_errors.fetch_add(1, Ordering::Relaxed);
                }
                during_queries.fetch_add(1, Ordering::Relaxed);
                if done.load(Ordering::Relaxed) {
                    break;
                }
            }
        });
        let report = partix_advisor::rebalance(
            &px,
            setup::DIST,
            &advice.placements,
            &RebalanceOptions::default(),
        )
        .expect("live rebalance");
        done.store(true, Ordering::Relaxed);
        probe.join().expect("probe thread");
        report
    });

    let after = fleet.run(|_| (), read);
    let bytes_shipped = wire.as_ref().map_or(0, RemoteCluster::wire_bytes);
    let record = knobs
        .record("rebalance", &docs)
        .text("collection", setup::DIST)
        .count("clients", clients)
        .count("queries_per_client", knobs.ops_per_client)
        .num("seed", knobs.seed as f64)
        .num("before_qps", before.qps())
        .num("before_p50_ms", before.read_ms(50.0))
        .num("before_p99_ms", before.read_ms(99.0))
        .num("after_qps", after.qps())
        .num("after_p50_ms", after.read_ms(50.0))
        .num("after_p99_ms", after.read_ms(99.0))
        .count("migrated_fragments", report.moves.len())
        .num("migrated_docs", report.migrated_docs as f64)
        .num("migrated_bytes", report.migrated_bytes as f64)
        .num("rebalance_s", report.elapsed_s)
        .num("during_queries", during_queries.load(Ordering::Relaxed) as f64)
        .num("during_errors", during_errors.load(Ordering::Relaxed) as f64)
        .num("predicted_gain", advice.predicted_gain())
        // post-migration completeness / disjointness re-validation
        .flag("verified", report.verified)
        .flag("p99_improved", after.read_ms(99.0) < before.read_ms(99.0))
        .flag("qps_improved", after.qps() > before.qps())
        .flag("remote", knobs.remote)
        .num("bytes_shipped", bytes_shipped as f64);
    println!("  {record}");
    record
}

/// Coordinator-replica counts swept by [`scaleout`].
const COORDINATORS: [usize; 3] = [1, 2, 3];
/// Full sweeps; each cell reports its best run. Repeats alternate sweep
/// direction (1→N, then N→1) so scheduler drift over the process lifetime
/// cancels instead of biasing one cell.
const REPEATS: usize = 3;

/// One coordinator replica's serving configuration: pooled dispatch (a
/// large fleet would explode transient per-sub-query threads) and span
/// collection off (measurement, not diagnosis). Every query does its
/// work: each sub-query reaches its node.
fn serving(mut px: PartiX, meta: &Arc<MetaService>) -> Arc<PartiX> {
    px.set_dispatch(DispatchMode::Pool);
    px.set_tracing_enabled(false);
    px.attach_meta(Arc::clone(meta));
    Arc::new(px)
}

/// Coordinator scale-out over the streaming transport, every answer
/// oracle-checked; a cell's numbers only count when `verified` is true.
pub fn scaleout(knobs: &Knobs) -> Fields {
    let docs = knobs.dataset();
    let workload = queries::horizontal(setup::DIST);
    let clients = knobs.most_clients();
    println!(
        "\n### scaleout: ItemsSHor {} B, {} fragments, {clients} clients × {} queries, coordinators {COORDINATORS:?}",
        knobs.db_bytes, knobs.fragments, knobs.ops_per_client,
    );
    // the base engine owns catalog registration and document publishing;
    // it then becomes coordinator replica 0
    let base = setup::horizontal(&docs, knobs.fragments);
    let meta = MetaService::with_catalog(base.catalog_snapshot());
    let oracle = oracle_answers(&base, &workload);
    let mut engines = vec![serving(base, &meta)];
    for _ in 1..COORDINATORS[COORDINATORS.len() - 1] {
        let replica = PartiX::with_cluster(engines[0].cluster().share(), NetworkModel::default());
        engines.push(serving(replica, &meta));
    }

    // One cell: bind `coords` endpoints, warm them, drive the fleet.
    let measure = |coords: usize, mode: &'static str| {
        let opts =
            StreamOpts { allow_partial: false, buffered: mode == "buffered", ..StreamOpts::default() };
        let servers: Vec<StreamServer> = engines[..coords]
            .iter()
            .map(|px| {
                serve_coordinator("127.0.0.1:0", Arc::clone(px), StreamServerConfig::default())
                    .expect("bind coordinator")
            })
            .collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
        // warm every coordinator's plan cache and connections
        for addr in &addrs {
            let pool = CoordinatorPool::new(vec![addr.clone()], StreamClientConfig::default());
            for (_, query) in &workload {
                pool.query(query, opts.clone()).expect("warm-up query");
            }
        }
        let failovers = AtomicU64::new(0);
        let fleet = Fleet { clients, ops_per_client: knobs.ops_per_client, oracle: Some(&oracle) };
        let tally = fleet.run(
            // sticky with rotated primaries: fleet-level round-robin, one
            // warm connection per client (a colocated fleet with per-query
            // rotation would pay coords× the connections and server
            // threads, burying the scale-out signal under client overhead)
            |client| {
                let mut addrs = addrs.clone();
                addrs.rotate_left(client % coords);
                CoordinatorPool::new_sticky(addrs, StreamClientConfig::default())
            },
            |pool, client, k| {
                let (query, text) = turn(&workload, client, k);
                let items = pool.query(text, opts.clone()).expect("scaleout query").items;
                // the pool's own count, read once its client is done
                if k + 1 == knobs.ops_per_client {
                    failovers.fetch_add(pool.failovers(), Ordering::Relaxed);
                }
                Op::Read { query, items, report: None }
            },
        );
        drop(servers);
        Cell {
            coords,
            mode,
            qps: tally.qps(),
            p50_ms: tally.read_ms(50.0),
            p99_ms: tally.read_ms(99.0),
            verified: tally.mismatches == 0,
            failovers: failovers.load(Ordering::Relaxed),
        }
    };

    // a single-core host's scheduler noise dwarfs the effect size, so each
    // cell keeps its best observation (modal fast state) and comparisons
    // happen between equally-lucky cells
    let mut best: Vec<Cell> = Vec::new();
    for rep in 0..REPEATS {
        let mut order = COORDINATORS;
        if rep % 2 == 1 {
            order.reverse();
        }
        for coords in order {
            for mode in ["buffered", "streamed"] {
                let run = measure(coords, mode);
                println!("-- rep {rep} {}", run.row());
                match best.iter_mut().find(|c| c.coords == coords && c.mode == mode) {
                    None => best.push(run),
                    // correctness accumulates; performance keeps its best
                    Some(seen) => {
                        seen.verified &= run.verified;
                        seen.failovers += run.failovers;
                        seen.qps = seen.qps.max(run.qps);
                        seen.p50_ms = seen.p50_ms.min(run.p50_ms);
                        seen.p99_ms = seen.p99_ms.min(run.p99_ms);
                    }
                }
            }
        }
    }
    best.sort_by_key(|c| (c.coords, c.mode));
    for cell in &best {
        println!("== best {}", cell.row());
    }
    let cell = |coords: usize, mode: &str| {
        best.iter().find(|c| c.coords == coords && c.mode == mode).expect("cell measured")
    };
    let (fewest, most) = (COORDINATORS[0], COORDINATORS[COORDINATORS.len() - 1]);
    knobs
        .record("scaleout", &docs)
        .count("clients", clients)
        .count("queries_per_client", knobs.ops_per_client)
        .count("repeats", REPEATS)
        .rows("runs", best.iter().map(Cell::row).collect())
        .flag("qps_scales", cell(most, "streamed").qps > cell(fewest, "streamed").qps)
        .flag(
            "streamed_p99_le_buffered",
            cell(most, "streamed").p99_ms <= cell(most, "buffered").p99_ms,
        )
        .flag("verified", best.iter().all(|c| c.verified))
}

/// One (coordinator count × transport mode) cell of [`scaleout`].
struct Cell {
    coords: usize,
    mode: &'static str,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    verified: bool,
    failovers: u64,
}

impl Cell {
    fn row(&self) -> Fields {
        Fields::default()
            .count("coordinators", self.coords)
            .text("mode", self.mode)
            .num("qps", self.qps)
            .num("p50_ms", self.p50_ms)
            .num("p99_ms", self.p99_ms)
            .flag("verified", self.verified)
            .num("failovers", self.failovers as f64)
    }
}

/// The flooding batch tenant of [`multitenant`] runs this many clients per
/// well-behaved one, against this concurrency quota and queue depth.
const AGGRESSIVE_FACTOR: usize = 10;
const AGGRESSIVE_MAX_CONCURRENT: usize = 2;
const AGGRESSIVE_MAX_QUEUED: usize = 2;
/// `p99_contended` may be at most this multiple of `p99_alone`, itself
/// floored at 5 ms so sub-millisecond timing noise on small databases does
/// not decide the verdict.
const ISOLATION_BOUND: f64 = 8.0;
const P99_FLOOR_MS: f64 = 5.0;

/// Two tenants on one coordinator: `frontend` (interactive, generous
/// quotas) alone, then again while `analytics` (batch, tight quota, short
/// queue) floods and absorbs typed rejections. `isolation_held` means
/// nothing unless `verified` also holds: every admitted answer, from
/// either tenant in either phase, equals the oracle's, and any failure
/// other than a typed [`PartixError::AdmissionRejected`] aborts the run.
pub fn multitenant(knobs: &Knobs) -> Fields {
    let docs = knobs.dataset();
    let workload = queries::horizontal(setup::DIST);
    let clients = knobs.clients.iter().copied().min().unwrap_or(1);
    let mut px = setup::horizontal(&docs, knobs.fragments);
    px.set_dispatch(DispatchMode::Pool);
    let registry = Arc::new(TenantRegistry::new());
    registry
        .register(TenantSpec::new("frontend", PriorityClass::Interactive))
        .expect("register frontend");
    registry
        .register(TenantSpec {
            name: "analytics".to_owned(),
            class: PriorityClass::Batch,
            quotas: TenantQuotas {
                max_concurrent: AGGRESSIVE_MAX_CONCURRENT,
                max_queued: AGGRESSIVE_MAX_QUEUED,
                ..TenantQuotas::default()
            },
        })
        .expect("register analytics");
    let frontend = registry.by_name("frontend").expect("frontend").id;
    let analytics = registry.by_name("analytics").expect("analytics").id;
    px.attach_tenancy(Tenancy {
        registry,
        controller: AdmissionController::new(AdmissionConfig {
            // short queue wait: flood rejections resolve quickly, and the
            // well-behaved tenant never queues (generous quota)
            queue_wait: Duration::from_millis(250),
            retry_after_ms: 50,
            worker_capacity: 0,
        }),
    });
    println!(
        "\n### multitenant: ItemsSHor {} B, {} fragments, {clients} frontend clients × {} queries, analytics at {AGGRESSIVE_FACTOR}×",
        knobs.db_bytes, knobs.fragments, knobs.ops_per_client,
    );
    let oracle = oracle_answers(&px, &workload);
    // discarded warm-up pass (anonymous: admission not exercised)
    for (_, query) in &workload {
        px.execute(query).expect("warm-up query");
    }

    let drive = |tenant: TenantId, clients: usize| {
        let fleet = Fleet { clients, ops_per_client: knobs.ops_per_client, oracle: Some(&oracle) };
        fleet.run(
            |_| (),
            |_, client, k| {
                let (query, text) = turn(&workload, client, k);
                let options = ExecOptions { tenant: Some(tenant), ..ExecOptions::default() };
                match px.execute_with(text, options) {
                    Ok(result) => Op::answered(query, result),
                    Err(PartixError::AdmissionRejected { retry_after_ms, .. }) => {
                        Op::Rejected { retry_after_ms }
                    }
                    Err(other) => panic!("multitenant: untyped failure: {other}"),
                }
            },
        )
    };
    let alone = drive(frontend, clients);
    let (contended, flood) = std::thread::scope(|scope| {
        let flood = scope.spawn(|| drive(analytics, clients * AGGRESSIVE_FACTOR));
        (drive(frontend, clients), flood.join().expect("analytics fleet"))
    });

    let mut tenants = Vec::new();
    for (tenant, phase, fleet, tally) in [
        ("frontend", "alone", clients, &alone),
        ("frontend", "contended", clients, &contended),
        ("analytics", "contended", clients * AGGRESSIVE_FACTOR, &flood),
    ] {
        let row = Fields::default()
            .text("tenant", tenant)
            .text("phase", phase)
            .count("issued", fleet * knobs.ops_per_client)
            .count("admitted", tally.reads.len())
            .count("rejected", tally.rejected)
            .num("p50_ms", tally.read_ms(50.0))
            .num("p99_ms", tally.read_ms(99.0));
        println!("  {row}");
        tenants.push(row);
    }
    let (p99_alone, p99_contended) = (alone.read_ms(99.0), contended.read_ms(99.0));
    let isolation_factor = p99_contended / p99_alone.max(P99_FLOOR_MS);
    let checks = alone.checks + contended.checks + flood.checks;
    let mismatches = alone.mismatches + contended.mismatches + flood.mismatches;
    println!(
        "  isolation factor {isolation_factor:.2}x (bound {ISOLATION_BOUND:.1}x); oracle checks {checks}, mismatches {mismatches}",
    );
    knobs
        .record("multitenant", &docs)
        .count("clients", clients)
        .count("queries_per_client", knobs.ops_per_client)
        .count("aggressive_factor", AGGRESSIVE_FACTOR)
        .count("aggressive_max_concurrent", AGGRESSIVE_MAX_CONCURRENT)
        .num("isolation_bound", ISOLATION_BOUND)
        .rows("tenants", tenants)
        .num("p99_alone_ms", p99_alone)
        .num("p99_contended_ms", p99_contended)
        .num("isolation_factor", isolation_factor)
        .flag("isolation_held", isolation_factor <= ISOLATION_BOUND)
        .count("oracle_checks", checks)
        .count("oracle_mismatches", mismatches)
        .flag("verified", checks > 0 && mismatches == 0)
}

/// Fractions of operations that are writes, one fresh cluster each.
const WRITE_RATIOS: [f64; 2] = [0.10, 0.50];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Swap every node's driver for a [`DurableDb`] seeded from its published
/// fragments (the oracle collection stays on the raw node-0 database,
/// which `execute_centralized` reads directly).
fn attach_durable(px: &PartiX, root: &std::path::Path) -> Vec<Arc<DurableDb>> {
    let attach = |(i, node): (usize, &Arc<partix_engine::Node>)| {
        let durable =
            Arc::new(DurableDb::open(&root.join(format!("node{i}"))).expect("open wal dir"));
        for collection in PartixDriver::collections(&*node.db) {
            if collection != setup::CENTRAL {
                let docs: Vec<Document> = PartixDriver::fetch_collection(&*node.db, &collection)
                    .iter()
                    .map(|d| (**d).clone())
                    .collect();
                PartixDriver::store(&*durable, &collection, docs);
            }
        }
        durable.checkpoint().expect("seed checkpoint");
        node.set_driver(Arc::clone(&durable) as Arc<dyn PartixDriver>);
        durable
    };
    px.cluster().nodes().iter().enumerate().map(attach).collect()
}

/// What a [`writes`] client carries between operations. Clients write
/// disjoint name spaces (client k owns `c{k}-*`), so concurrent schedules
/// commute and the final state is oracle-checkable without a global order.
struct Writer {
    rng: u64,
    /// Names this client has live in the cluster.
    live: Vec<String>,
    serial: usize,
}

/// Mixed read / write QPS over WAL-backed nodes. `verified`: after the
/// run, a full scan of the fragmented collection is byte-identical to the
/// centralized copy that received every acknowledged write.
pub fn writes(knobs: &Knobs) -> Fields {
    let docs = knobs.dataset();
    let workload = queries::horizontal(setup::DIST);
    let clients = knobs.most_clients();
    println!(
        "\n### writes: ItemsSHor {} B, {} WAL-backed fragments, {clients} clients x {} ops",
        knobs.db_bytes, knobs.fragments, knobs.ops_per_client,
    );
    let root = std::env::temp_dir().join(format!("partix-bwrites-{}", std::process::id()));
    let mut runs = Vec::new();
    for (ratio_idx, ratio) in WRITE_RATIOS.into_iter().enumerate() {
        let px = setup::horizontal(&docs, knobs.fragments);
        let durables = attach_durable(&px, &root.join(format!("r{ratio_idx}")));
        let central = Arc::clone(&px.cluster().node(0).expect("node 0").db);
        let wal = || -> (u64, u64) {
            durables.iter().fold((0, 0), |(a, f), d| (a + d.wal().appends(), f + d.fsyncs()))
        };
        let (appends_before, fsyncs_before) = wal();
        let (puts, deletes) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let fleet = Fleet { clients, ops_per_client: knobs.ops_per_client, oracle: None };
        let tally = fleet.run(
            |client| Writer {
                rng: 0xB_E4C_0DE ^ ((ratio_idx as u64) << 32) ^ client as u64,
                live: Vec::new(),
                serial: 0,
            },
            |me, client, _| {
                if (splitmix(&mut me.rng) % 1_000) >= (ratio * 1e3) as u64 {
                    let query = (splitmix(&mut me.rng) as usize) % workload.len();
                    return Op::answered(query, px.execute(&workload[query].1).expect("read"));
                }
                // 1 in 4 writes deletes a live doc of our own; every write
                // is mirrored onto the centralized copy once acknowledged
                if splitmix(&mut me.rng).is_multiple_of(4) && !me.live.is_empty() {
                    let name = me.live.remove((splitmix(&mut me.rng) as usize) % me.live.len());
                    px.delete(setup::DIST, &name).expect("delete");
                    central.apply_write(&WriteOp::Delete { collection: setup::CENTRAL.into(), name });
                    deletes.fetch_add(1, Ordering::Relaxed);
                } else {
                    let name = format!("c{client}-{}", me.serial);
                    me.serial += 1;
                    let draw = splitmix(&mut me.rng);
                    let (code, section) = (draw % 10_000, SECTIONS[(draw as usize) % SECTIONS.len()]);
                    let mut doc = partix_xml::parse(&format!(
                        "<Item><Code>{code}</Code><Name>bench write {code}</Name>\
                         <Description>online write benchmark</Description>\
                         <Section>{section}</Section></Item>"
                    ))
                    .expect("benchmark doc");
                    doc.name = Some(name.clone());
                    px.put(setup::DIST, doc.clone()).expect("put");
                    central.apply_write(&WriteOp::Put { collection: setup::CENTRAL.into(), doc });
                    me.live.push(name);
                    puts.fetch_add(1, Ordering::Relaxed);
                }
                Op::Write
            },
        );
        let (appends, fsyncs) = wal();
        let scan = [("scan", format!(r#"for $i in collection("{}")/Item return $i"#, setup::DIST))];
        let verified = px
            .execute(&scan[0].1)
            .is_ok_and(|answer| canonical(&answer.items) == oracle_answers(&px, &scan)[0]);
        let run = Fields::default()
            .num("write_ratio", ratio)
            .count("total_ops", tally.reads.len() + tally.writes.len())
            .count("reads", tally.reads.len())
            .count("puts", puts.load(Ordering::Relaxed))
            .count("deletes", deletes.load(Ordering::Relaxed))
            .num("wall_s", tally.wall_s)
            .num("qps", tally.qps())
            .num("read_p50_ms", tally.read_ms(50.0))
            .num("read_p99_ms", tally.read_ms(99.0))
            .num("write_p50_ms", tally.write_ms(50.0))
            .num("write_p99_ms", tally.write_ms(99.0))
            .num("wal_appends", (appends - appends_before) as f64)
            .num("wal_fsyncs", (fsyncs - fsyncs_before) as f64)
            .flag("verified", verified);
        println!("  {run}");
        runs.push(run);
    }
    let _ = std::fs::remove_dir_all(&root);
    knobs
        .record("writes", &docs)
        .count("clients", clients)
        .count("ops_per_client", knobs.ops_per_client)
        .rows("runs", runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(db_bytes: usize, fragments: usize, clients: usize, ops_per_client: usize) -> Knobs {
        Knobs {
            db_bytes,
            fragments,
            clients: vec![clients],
            ops_per_client,
            seed: 7,
            rate: 1.0,
            replicas: 2,
            timeout_ms: 60,
            remote: false,
        }
    }

    #[test]
    fn chaos_schedule_is_deterministic_per_seed() {
        let a = FaultPlan::from_seed(7, 3, 1.0);
        assert_eq!(a.describe(), FaultPlan::from_seed(7, 3, 1.0).describe());
        assert_ne!(a.describe(), FaultPlan::from_seed(8, 3, 1.0).describe());
    }

    #[test]
    fn chaos_three_way_run_completes_and_serializes() {
        let knobs = knobs(20_000, 3, 2, 4);
        let record = chaos(&knobs);
        let runs = record.table("runs");
        assert_eq!(runs.len(), 3);
        for r in runs {
            assert_eq!(r.number("ok") + r.number("failed"), 8.0, "{r:?}");
        }
        let clean = &runs[0];
        assert_eq!(clean.number("failed"), 0.0);
        assert_eq!(clean.number("retries"), 0.0);
        assert_eq!(clean.number("injected_errors") + clean.number("injected_outages"), 0.0);
        // rate 1.0 faults every node: the faulted runs must observe them
        let faulted = &runs[1];
        assert!(
            faulted.number("injected_errors")
                + faulted.number("injected_outages")
                + faulted.number("delayed_calls")
                > 0.0,
            "no fault fired"
        );
        // stage attribution rides along: dispatch dominates clean runs
        assert!(clean.number("dispatch_p50_ms") > 0.0, "no dispatch stage time");
        let doc = record.to_json();
        assert!(doc.contains("\"experiment\":\"chaos\""));
        assert!(doc.contains("\"host_cores\":") && doc.contains("\"git_rev\":\""));
        assert!(doc.contains("\"remote\":false"));
        assert!(doc.contains("\"schedule\":\""));
        assert!(doc.contains("\"label\":\"faulted-partial\""));
        assert!(doc.contains("\"dispatch_p99_ms\":"));
        assert!(doc.starts_with('{') && doc.ends_with('}'));
    }

    #[test]
    fn rebalance_smoke_in_process_and_remote() {
        let record = rebalance(&knobs(20_000, 4, 2, 3));
        assert!(record.number("migrated_fragments") > 0.0, "skew must trigger moves");
        assert!(record.number("migrated_bytes") > 0.0);
        assert!(record.is("verified"));
        assert_eq!(record.number("during_errors"), 0.0, "probe answers must stay correct");
        assert!(record.number("during_queries") > 0.0);
        assert!(record.number("predicted_gain") > 0.0);
        let json = record.to_json();
        for field in ["\"before_p99_ms\":", "\"after_p99_ms\":", "\"p99_improved\":", "\"during_errors\":0"] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let remote = rebalance(&Knobs { remote: true, ..knobs(12_000, 2, 1, 2) });
        assert!(remote.number("migrated_fragments") > 0.0);
        assert_eq!(remote.number("during_errors"), 0.0);
        assert!(remote.is("remote"));
        assert!(remote.number("bytes_shipped") > 0.0, "remote run must ship frames");
    }

    #[test]
    fn scaleout_sweeps_every_cell_verified() {
        let record = scaleout(&knobs(20_000, 2, 3, 2));
        let runs = record.table("runs");
        assert_eq!(runs.len(), COORDINATORS.len() * 2);
        assert!(runs.iter().all(|r| r.is("verified") && r.number("qps") > 0.0), "{runs:?}");
        assert!(record.is("verified"));
        assert!(record.to_json().contains("\"mode\":\"streamed\""));
    }

    #[test]
    fn multitenant_isolation_smoke() {
        // gates correctness and typed rejection, not timing: tiny runs are
        // all noise
        let record = multitenant(&knobs(40_000, 2, 2, 4));
        assert!(record.is("verified"), "oracle mismatch");
        let [alone, contended, flood] = record.table("tenants") else { panic!("three rows") };
        assert_eq!(alone.number("rejected"), 0.0, "well-behaved tenant rejected alone");
        assert_eq!(contended.number("rejected"), 0.0, "well-behaved tenant rejected under contention");
        assert_eq!(alone.number("admitted"), alone.number("issued"), "well-behaved tenant lost queries");
        // the flood's quota (2 concurrent, 2 queued, 20 clients) must bite
        assert!(flood.number("rejected") > 0.0, "flood never rejected");
        assert!(flood.number("admitted") > 0.0, "flood never admitted");
        assert!(record.to_json().contains("\"experiment\":\"multitenant\""));
    }

    #[test]
    fn writes_verify_against_the_oracle_and_count_fsyncs() {
        let knobs = knobs(20_000, 2, 2, 12);
        let record = writes(&knobs);
        let runs = record.table("runs");
        assert_eq!(runs.len(), WRITE_RATIOS.len());
        for r in runs {
            assert_eq!(r.number("total_ops"), 24.0);
            assert!(r.is("verified"), "final state diverged from the oracle");
            assert!(r.number("qps") > 0.0);
            // each coordinator write touches every fragment (the put on its
            // home, stale-clearing / broadcast deletes on the rest), and
            // every appended record reaches its durability point
            let written = r.number("puts") + r.number("deletes");
            assert_eq!(r.number("wal_appends"), written * knobs.fragments as f64);
            assert!(r.number("wal_fsyncs") >= r.number("wal_appends"), "acknowledged without fsync");
        }
        let half = &runs[1];
        assert!(half.number("puts") > 0.0, "no puts issued at a 50% write ratio");
        assert!(half.number("reads") > 0.0, "no reads issued at a 50% write ratio");
    }
}
