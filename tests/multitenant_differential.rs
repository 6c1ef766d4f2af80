//! Multi-tenant differential suite: the serving-layer contract under
//! shared tenancy. Whatever two tenants do to each other — flooding,
//! suspended quotas, seeded node faults — every *admitted* query must
//! return the centralized oracle's answer byte-for-byte, every refusal
//! must be a *typed* admission error (code + retry hint), and a
//! rejection must leave the next answer equal to the oracle's. Tenancy is
//! enforced once, where a query enters: the in-process engine path and
//! the coordinator's streams over loopback TCP are both covered.

use partix::engine::{
    AdmissionConfig, AdmissionController, ExecOptions, FaultPlan, PartiX, PartixError,
    PriorityClass, RetryPolicy, Tenancy, TenantId, TenantQuotas, TenantRegistry, TenantSpec,
};
mod common;

use common::check_answer;
use partix_bench::oracle::canonical;
use partix_bench::setup;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The two-tenant registry every test uses: a generous interactive
/// tenant and a tightly quota-capped batch tenant.
fn registry() -> Arc<TenantRegistry> {
    let registry = Arc::new(TenantRegistry::new());
    let quotas = TenantQuotas { max_concurrent: 1, max_queued: 1, ..TenantQuotas::default() };
    let analytics = TenantSpec { quotas, ..TenantSpec::new("analytics", PriorityClass::Batch) };
    let frontend = TenantSpec::new("frontend", PriorityClass::Interactive);
    registry.register(frontend).expect("register frontend");
    registry.register(analytics).expect("register analytics");
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
    let (frontend, analytics, registry) = attach_two_tenants(&px);
    let workload = partix_bench::queries::horizontal(setup::DIST);
    // the capped tenant's one slot stays taken until each of its clients
    // has tried once: the flood overflows by construction, not by timing
    let controller = &px.tenancy().expect("attached").controller;
    let slot = controller.admit(&registry.by_name("analytics").expect("analytics"), 0).ok();
    assert!(slot.is_some(), "the capped tenant's slot is free before the flood");
    let tried = Barrier::new(8 + 1);

    let run_clients = |tenant: TenantId, clients: usize| -> (usize, usize) {
        let (admitted, rejected) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for client in 0..clients {
                let (px, workload, tried) = (&px, &workload, &tried);
                let (admitted, rejected) = (&admitted, &rejected);
                scope.spawn(move || {
                    for k in 0..workload.len() {
                        let idx = (client + k) % workload.len();
                        let (id, query) = &workload[idx];
                        match px.execute_with(query, as_tenant(tenant)) {
                            Ok(result) => {
                                admitted.fetch_add(1, Relaxed);
                                check_answer(px, query, &result.items)
                                    .unwrap_or_else(|e| panic!("{id}: admitted answer: {e}"));
                            }
                            Err(PartixError::AdmissionRejected {
                                tenant, retry_after_ms, reason,
                            }) => {
                                rejected.fetch_add(1, Relaxed);
                                assert_eq!(tenant, "analytics", "only the capped tenant rejects");
                                assert!(retry_after_ms > 0, "rejection lost its retry hint");
                                assert!(!reason.is_empty());
                            }
                            Err(other) => panic!("untyped failure: {other}"),
                        }
                        if k == 0 && tenant == analytics {
                            tried.wait();
                        }
                    }
                });
            }
        });
        (admitted.load(Relaxed), rejected.load(Relaxed))
    };

    std::thread::scope(|scope| {
        let fe = scope.spawn(|| run_clients(frontend, 3));
        let an = scope.spawn(|| run_clients(analytics, 8));
        tried.wait();
        drop(slot);
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
    assert_eq!(bare.resolve_tenant("frontend"), None, "no tenancy attached");

    let px = setup::horizontal(&docs, 2);
    let (frontend, _, _) = attach_two_tenants(&px);
    assert_eq!(px.resolve_tenant("nobody"), None);
    assert_eq!(px.resolve_tenant("frontend"), Some(frontend));
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

    let plan = FaultPlan::from_seed(0x007E_4A17, 4, 0.5);
    let _injectors = plan.install(&px);
    let mut answered = 0usize;
    for (round, tenant) in [frontend, analytics, frontend].into_iter().enumerate() {
        for (id, q) in &workload {
            match px.execute_with(q, as_tenant(tenant)) {
                Ok(result) => {
                    answered += 1;
                    check_answer(&px, q, &result.items)
                        .unwrap_or_else(|e| panic!("round {round}/{id}: faulted answer: {e}"));
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
    check_answer(&px, &q2, &verdict.items)
        .unwrap_or_else(|e| panic!("answer after the rejection storm: {e}"));
}

/// Loopback TCP, the coordinator's streams: the tenant header flows to
/// the coordinator's engine-side admission, admitted answers equal the
/// oracle, and refusals surface as typed [`StreamCallError::Remote`]
/// verdicts with the right code and retry hint.
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
        Err(StreamCallError::Remote { retryable, code, retry_after_ms, message }) => {
            assert_eq!(code, ErrorCode::AdmissionRejected);
            assert!(!retryable, "admission rejections are not transport-retryable");
            assert!(retry_after_ms > 0, "rejection lost its retry hint");
            assert!(message.contains("quota"), "{message}");
        }
        other => panic!("expected typed admission rejection, got {other:?}"),
    }
    match pool.query(q, with_tenant("nobody")) {
        Err(StreamCallError::Remote { retryable, code, message, .. }) => {
            assert_eq!(code, ErrorCode::UnknownTenant);
            assert!(!retryable);
            assert!(message.contains("unknown tenant"), "{message}");
        }
        other => panic!("expected typed unknown-tenant error, got {other:?}"),
    }
}
