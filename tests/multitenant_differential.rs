//! Multi-tenant differential suite: the serving-layer contract under
//! shared tenancy. Whatever two tenants do to each other — flooding,
//! suspended quotas, seeded node faults — every *admitted* query must
//! return the centralized oracle's answer byte-for-byte, every refusal
//! must be a *typed* admission error (code + retry hint), and a
//! rejection must leave the next answer equal to the oracle's. Both
//! transports are covered: the in-process engine path and loopback TCP
//! on the `PXN1` node protocol and the `PXN2` streaming protocol.

use partix::engine::{
    AdmissionConfig, AdmissionController, ExecOptions, FaultPlan, PartiX, PartixError,
    PriorityClass, RetryPolicy, Tenancy, TenantId, TenantQuotas, TenantRegistry, TenantSpec,
};
use partix_bench::oracle::{canonical, centralized_text};
use partix_bench::setup;
use std::sync::Arc;
use std::time::Duration;

/// The two-tenant registry every test uses: a generous interactive
/// tenant and a tightly quota-capped batch tenant.
fn registry() -> Arc<TenantRegistry> {
    let registry = Arc::new(TenantRegistry::new());
    registry
        .register(TenantSpec::new("frontend", PriorityClass::Interactive))
        .expect("register frontend");
    registry
        .register(TenantSpec {
            name: "analytics".to_owned(),
            class: PriorityClass::Batch,
            quotas: TenantQuotas {
                max_concurrent: 1,
                max_queued: 1,
                ..TenantQuotas::default()
            },
        })
        .expect("register analytics");
    registry
}

fn attach_two_tenants(px: &PartiX) -> (TenantId, TenantId, Arc<TenantRegistry>) {
    let registry = registry();
    let frontend = registry.by_name("frontend").expect("frontend").id;
    let analytics = registry.by_name("analytics").expect("analytics").id;
    px.attach_tenancy(Tenancy {
        registry: Arc::clone(&registry),
        controller: AdmissionController::new(AdmissionConfig {
            queue_wait: Duration::from_millis(100),
            retry_after_ms: 25,
            worker_capacity: 0,
        }),
    });
    (frontend, analytics, registry)
}

fn as_tenant(tenant: TenantId) -> ExecOptions {
    ExecOptions { tenant: Some(tenant), ..ExecOptions::default() }
}

/// Concurrent flood from both tenants over the in-process engine:
/// every admitted answer must equal the oracle, every refusal must be
/// [`PartixError::AdmissionRejected`] with the controller's retry hint.
#[test]
fn flooded_tenants_get_oracle_answers_or_typed_rejections() {
    let docs = setup::quick_items(60);
    let px = setup::horizontal(&docs, 4);
    let (frontend, analytics, _) = attach_two_tenants(&px);
    let workload = partix_bench::queries::horizontal(setup::DIST);
    let oracle: Vec<String> = workload
        .iter()
        .map(|(id, q)| {
            canonical(
                &px.execute_centralized(0, &centralized_text(q))
                    .unwrap_or_else(|e| panic!("{id} oracle: {e}"))
                    .items,
            )
        })
        .collect();

    let run_clients = |tenant: TenantId, clients: usize| -> (usize, usize) {
        let admitted = std::sync::atomic::AtomicUsize::new(0);
        let rejected = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for client in 0..clients {
                let (px, workload, oracle) = (&px, &workload, &oracle);
                let (admitted, rejected) = (&admitted, &rejected);
                scope.spawn(move || {
                    for k in 0..workload.len() {
                        let idx = (client + k) % workload.len();
                        match px.execute_with(&workload[idx].1, as_tenant(tenant)) {
                            Ok(result) => {
                                admitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                assert_eq!(
                                    canonical(&result.items),
                                    oracle[idx],
                                    "{}: admitted answer diverges from oracle",
                                    workload[idx].0,
                                );
                            }
                            Err(PartixError::AdmissionRejected {
                                tenant, retry_after_ms, reason,
                            }) => {
                                rejected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                assert_eq!(tenant, "analytics", "only the capped tenant rejects");
                                assert!(retry_after_ms > 0, "rejection lost its retry hint");
                                assert!(!reason.is_empty());
                            }
                            Err(other) => panic!("untyped failure: {other}"),
                        }
                    }
                });
            }
        });
        (
            admitted.load(std::sync::atomic::Ordering::Relaxed),
            rejected.load(std::sync::atomic::Ordering::Relaxed),
        )
    };

    std::thread::scope(|scope| {
        let fe = scope.spawn(|| run_clients(frontend, 3));
        let an = scope.spawn(|| run_clients(analytics, 8));
        let (fe_admitted, fe_rejected) = fe.join().expect("frontend clients");
        let (an_admitted, an_rejected) = an.join().expect("analytics clients");
        assert_eq!(fe_rejected, 0, "the generous tenant must never be rejected");
        assert_eq!(fe_admitted, 3 * workload.len());
        assert!(an_admitted > 0, "the capped tenant must still make progress");
        assert!(an_rejected > 0, "8 clients against a 1+1 quota must overflow");
    });
}

/// Unknown tenants and unconfigured tenancy are typed errors, not
/// panics or silent anonymous execution.
#[test]
fn unknown_tenant_and_missing_tenancy_are_typed() {
    let docs = setup::quick_items(12);
    let q = format!(r#"count(collection("{}")/Item)"#, setup::DIST);

    let bare = setup::horizontal(&docs, 2);
    match bare.resolve_tenant("frontend") {
        Err(PartixError::AdmissionRejected { reason, .. }) => {
            assert!(reason.contains("no tenancy"), "{reason}");
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }

    let px = setup::horizontal(&docs, 2);
    let (frontend, _, _) = attach_two_tenants(&px);
    assert!(px.resolve_tenant("nobody").is_err());
    // a dangling tenant id (registry from another server) is typed too
    let bogus = TenantId(7);
    match px.execute_with(&q, as_tenant(bogus)) {
        Err(PartixError::AdmissionRejected { reason, .. }) => {
            assert!(reason.contains("unknown tenant"), "{reason}");
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }
    // sanity: the real tenant still runs
    px.execute_with(&q, as_tenant(frontend)).expect("frontend query");
}

/// Seeded node faults on top of tenancy: an admitted tenant query
/// returns the oracle answer or a typed error — never wrong data, and
/// never an untyped hang-equivalent.
#[test]
fn faulted_multitenant_returns_oracle_answer_or_typed_error() {
    let docs = setup::quick_items(48);
    let px = setup::horizontal_replicated(&docs, 4, 2);
    px.set_retry_policy(RetryPolicy {
        timeout: Some(Duration::from_millis(60)),
        ..RetryPolicy::default()
    });
    let (frontend, analytics, _) = attach_two_tenants(&px);
    let workload = partix_bench::queries::horizontal(setup::DIST);
    let oracle: Vec<String> = workload
        .iter()
        .map(|(id, q)| {
            canonical(
                &px.execute_centralized(0, &centralized_text(q))
                    .unwrap_or_else(|e| panic!("{id} oracle: {e}"))
                    .items,
            )
        })
        .collect();

    let plan = FaultPlan::from_seed(0x007E_4A17, 4, 0.5);
    let _injectors = plan.install(&px);
    let mut answered = 0usize;
    for (round, tenant) in [frontend, analytics, frontend].into_iter().enumerate() {
        for (k, (id, q)) in workload.iter().enumerate() {
            match px.execute_with(q, as_tenant(tenant)) {
                Ok(result) => {
                    answered += 1;
                    assert_eq!(
                        canonical(&result.items),
                        oracle[k],
                        "round {round}/{id}: faulted answer diverges from oracle",
                    );
                }
                // typed engine errors are the accepted outcome under
                // faults; admission rejections stay possible for the
                // capped tenant
                Err(PartixError::AdmissionRejected { tenant, .. }) => {
                    assert_eq!(tenant, "analytics");
                }
                Err(_typed) => {}
            }
        }
    }
    assert!(answered > 0, "the fault schedule silenced every query");
}

/// A query over quota is a typed rejection with a retry hint, and it
/// leaves nothing behind: the next admitted answer equals the oracle.
#[test]
fn a_held_slot_is_a_typed_rejection_and_the_next_answer_matches_oracle() {
    let docs = setup::quick_items(36);
    let px = setup::horizontal(&docs, 2);
    let (frontend, analytics, registry) = attach_two_tenants(&px);

    // pin the analytics tenant's only concurrency slot with a side-door
    // permit (the controller gates purely on shared per-tenant state, so
    // any controller over the same registry contends for the same slot),
    // reject a query deterministically, then confirm the next query
    // still gets the oracle answer
    let q2 = format!(r#"count(collection("{}")/Item)"#, setup::DIST);
    let side = AdmissionController::new(AdmissionConfig {
        queue_wait: Duration::from_millis(100),
        retry_after_ms: 25,
        worker_capacity: 0,
    });
    let held = side
        .admit(&registry.by_name("analytics").expect("analytics"), 0)
        .expect("hold the single analytics slot");
    match px.execute_with(&q2, as_tenant(analytics)) {
        Err(PartixError::AdmissionRejected { tenant, retry_after_ms, .. }) => {
            assert_eq!(tenant, "analytics");
            assert!(retry_after_ms > 0, "rejection must carry a retry hint");
        }
        other => panic!("held slot must trip the quota, got {other:?}"),
    }
    drop(held);
    let verdict = px.execute_with(&q2, as_tenant(frontend)).expect("frontend after flood");
    assert_eq!(
        canonical(&verdict.items),
        canonical(&px.execute_centralized(0, &centralized_text(&q2)).expect("oracle").items),
        "answer after the rejection storm diverges from oracle",
    );
}

/// Loopback TCP, `PXN1` node protocol: `ExecuteAs` admitted answers are
/// byte-identical to direct database execution; over-quota and unknown
/// tenants get typed wire errors with the right code and retry hint.
#[test]
fn pxn1_loopback_gates_tenants_with_typed_wire_errors() {
    use partix::storage::Database;
    use partix_net::{ErrorCode, NodeServer, RemoteDriver, ServerConfig, ServerTenancy};

    let docs = setup::quick_items(24);
    let db = Database::new();
    db.store_all("items", docs.iter().cloned());
    let oracle = canonical(
        &db.execute(r#"count(collection("items")/Item)"#).expect("oracle").items,
    );

    let registry = registry();
    // a suspended tenant: registered, zero concurrency
    registry
        .register(TenantSpec {
            name: "suspended".to_owned(),
            class: PriorityClass::Batch,
            quotas: TenantQuotas { max_concurrent: 0, max_queued: 0, ..TenantQuotas::default() },
        })
        .expect("register suspended");
    let server = NodeServer::bind_driver(
        "127.0.0.1:0",
        Arc::new(db),
        ServerConfig {
            tenancy: Some(Arc::new(ServerTenancy {
                registry,
                controller: AdmissionController::default(),
            })),
        },
    )
    .expect("bind node server");
    let driver = RemoteDriver::connect(server.local_addr()).expect("dial");
    let query = partix::query::parse_query(r#"count(collection("items")/Item)"#).expect("parse");

    let out = driver
        .execute_as("frontend", &query)
        .expect("frontend admitted")
        .expect("collection exists");
    assert_eq!(canonical(&out.items), oracle);

    let err = driver.execute_as("suspended", &query).expect_err("suspended rejected");
    assert_eq!(err.code, ErrorCode::AdmissionRejected);
    assert!(!err.retryable, "admission rejections are not transport-retryable");
    assert!(err.retry_after_ms > 0, "rejection lost its retry hint");
    assert!(err.message.contains("quota"), "{}", err.message);

    let err = driver.execute_as("nobody", &query).expect_err("unknown rejected");
    assert_eq!(err.code, ErrorCode::UnknownTenant);
    assert!(err.message.contains("unknown tenant"), "{}", err.message);
}

/// Loopback TCP, `PXN2` streaming protocol: the tenant header flows to
/// the coordinator's engine-side admission, and rejections surface as
/// typed [`StreamCallError::Remote`] verdicts with the right code.
#[test]
fn pxn2_loopback_gates_tenants_with_typed_stream_errors() {
    use partix::storage::Database;
    use partix_net::{
        serve_coordinator, CoordinatorPool, ErrorCode, StreamCallError, StreamClientConfig,
        StreamOpts, StreamServerConfig,
    };

    let docs = setup::quick_items(24);
    let db = Database::new();
    db.store_all("items", docs.iter().cloned());
    let oracle = canonical(
        &db.execute(r#"count(collection("items")/Item)"#).expect("oracle").items,
    );

    let px = PartiX::new(1, partix::engine::NetworkModel::instantaneous());
    px.cluster().node(0).expect("node 0").set_driver(Arc::new(db));
    let registry = registry();
    registry
        .register(TenantSpec {
            name: "suspended".to_owned(),
            class: PriorityClass::Batch,
            quotas: TenantQuotas { max_concurrent: 0, max_queued: 0, ..TenantQuotas::default() },
        })
        .expect("register suspended");
    px.attach_tenancy(Tenancy::new(registry));
    let server =
        serve_coordinator("127.0.0.1:0", Arc::new(px), StreamServerConfig::default())
            .expect("bind coordinator");
    let pool =
        CoordinatorPool::new(vec![server.addr().to_string()], StreamClientConfig::default());
    let q = r#"count(collection("items")/Item)"#;
    let with_tenant = |tenant: &str| StreamOpts {
        tenant: Some(tenant.to_owned()),
        ..StreamOpts::default()
    };

    let result = pool.query(q, with_tenant("frontend")).expect("frontend admitted");
    assert_eq!(canonical(&result.items), oracle);
    // the anonymous path must keep working next to tenancy
    let result = pool.query(q, StreamOpts::default()).expect("anonymous admitted");
    assert_eq!(canonical(&result.items), oracle);

    match pool.query(q, with_tenant("suspended")) {
        Err(StreamCallError::Remote { retryable, code, message, .. }) => {
            assert_eq!(code, ErrorCode::AdmissionRejected);
            assert!(!retryable);
            assert!(message.contains("quota"), "{message}");
        }
        other => panic!("expected typed admission rejection, got {other:?}"),
    }
    match pool.query(q, with_tenant("nobody")) {
        Err(StreamCallError::Remote { code, message, .. }) => {
            assert_eq!(code, ErrorCode::UnknownTenant);
            assert!(message.contains("unknown tenant"), "{message}");
        }
        other => panic!("expected typed unknown-tenant error, got {other:?}"),
    }
}
