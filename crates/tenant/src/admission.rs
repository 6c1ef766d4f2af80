//! Typed admission control at query entry.
//!
//! The contract the rest of the stack builds on: every call to
//! [`AdmissionController::admit`] returns a [`Permit`] or a
//! [`Rejection`] within a bounded wall-clock window. There is no code
//! path that parks a caller indefinitely — queueing waits on a condvar
//! with a deadline, and a timeout is itself a typed rejection carrying
//! a `retry_after` hint.

use crate::registry::Tenant;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A typed admission rejection. Converted into `PartixError` /
/// wire-protocol error variants at the layers above — never a panic,
/// never a silent drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    pub tenant: String,
    pub retry_after_ms: u64,
    pub reason: String,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenant {:?} rejected: {} (retry after {} ms)",
            self.tenant, self.reason, self.retry_after_ms
        )
    }
}

impl std::error::Error for Rejection {}

/// Controller-wide policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Longest a queued query waits for a concurrency slot before the
    /// wait resolves to a rejection. This is the "never a hang" bound.
    pub queue_wait: Duration,
    /// Retry hint stamped on rejections.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig { queue_wait: Duration::from_secs(2), retry_after_ms: 100 }
    }
}

/// Applies [`TenantQuotas`](crate::TenantQuotas) at query entry.
#[derive(Debug, Clone, Default)]
pub struct AdmissionController {
    config: AdmissionConfig,
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController { config }
    }

    /// Admit a query of `queued_bytes` text bytes, waiting (bounded) in
    /// the tenant's queue if its concurrency slots are all busy.
    /// Returns a [`Permit`] whose drop releases the slot, or a typed
    /// [`Rejection`]. Never hangs: the queue wait is capped by
    /// [`AdmissionConfig::queue_wait`].
    pub fn admit(
        &self,
        tenant: &Arc<Tenant>,
        queued_bytes: usize,
    ) -> Result<Permit, Rejection> {
        let limit = tenant.quotas.max_concurrent;
        let reject = |reason: &str| Rejection {
            tenant: tenant.name.clone(),
            retry_after_ms: self.config.retry_after_ms,
            reason: reason.to_string(),
        };
        let mut state = tenant.state.lock().expect("tenant state lock");
        if limit == 0 {
            return Err(reject("concurrency quota is zero"));
        }
        if state.in_flight < limit {
            state.in_flight += 1;
            return Ok(Permit { tenant: Arc::clone(tenant), queued: Duration::ZERO });
        }
        if state.queued >= tenant.quotas.max_queued {
            return Err(reject("admission queue is full"));
        }
        if state.queued_bytes.saturating_add(queued_bytes) > tenant.quotas.max_queued_bytes {
            return Err(reject("admission queue byte quota exhausted"));
        }
        state.queued += 1;
        state.queued_bytes += queued_bytes;
        let enqueued = Instant::now();
        let deadline = enqueued + self.config.queue_wait;
        // Drop-safe dequeue: whichever way the wait ends, the queue
        // accounting is unwound before returning.
        let dequeue = |state: &mut crate::registry::AdmState| {
            state.queued -= 1;
            state.queued_bytes = state.queued_bytes.saturating_sub(queued_bytes);
        };
        loop {
            if state.in_flight < limit {
                dequeue(&mut state);
                state.in_flight += 1;
                return Ok(Permit {
                    tenant: Arc::clone(tenant),
                    queued: enqueued.elapsed(),
                });
            }
            let now = Instant::now();
            if now >= deadline {
                dequeue(&mut state);
                return Err(reject("queued past the admission deadline"));
            }
            let (next, _timed_out) = tenant
                .slot_freed
                .wait_timeout(state, deadline - now)
                .expect("tenant state lock");
            state = next;
        }
    }
}

/// RAII concurrency slot: holding a `Permit` is what `in_flight` counts.
/// Dropping it releases the slot and wakes one queued waiter.
pub struct Permit {
    tenant: Arc<Tenant>,
    queued: Duration,
}

impl Permit {
    /// How long this query waited in the admission queue before its
    /// slot freed (zero when admitted immediately).
    pub fn queued(&self) -> Duration {
        self.queued
    }

    pub fn tenant(&self) -> &Arc<Tenant> {
        &self.tenant
    }
}

impl fmt::Debug for Permit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Permit")
            .field("tenant", &self.tenant.name)
            .field("queued", &self.queued)
            .finish()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut state = self.tenant.state.lock().expect("tenant state lock");
        state.in_flight = state.in_flight.saturating_sub(1);
        drop(state);
        self.tenant.slot_freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::PriorityClass;
    use crate::registry::{TenantQuotas, TenantRegistry, TenantSpec};

    fn tenant_with(quotas: TenantQuotas) -> Arc<Tenant> {
        let reg = TenantRegistry::new();
        let mut spec = TenantSpec::new("t", PriorityClass::Standard);
        spec.quotas = quotas;
        let id = reg.register(spec).unwrap();
        reg.by_id(id).unwrap()
    }

    fn quick() -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            queue_wait: Duration::from_millis(50),
            retry_after_ms: 7,
        })
    }

    #[test]
    fn admit_until_concurrency_then_reject_when_queue_full() {
        let tenant = tenant_with(TenantQuotas {
            max_concurrent: 2,
            max_queued: 0,
            ..TenantQuotas::default()
        });
        let ctl = quick();
        let p1 = ctl.admit(&tenant, 10).unwrap();
        let p2 = ctl.admit(&tenant, 10).unwrap();
        assert_eq!(tenant.in_flight(), 2);
        let err = ctl.admit(&tenant, 10).unwrap_err();
        assert_eq!(err.retry_after_ms, 7);
        assert_eq!(err.tenant, "t");
        drop(p1);
        let _p3 = ctl.admit(&tenant, 10).unwrap();
        drop(p2);
        assert_eq!(tenant.in_flight(), 1);
    }

    #[test]
    fn zero_concurrency_rejects_everything() {
        let tenant = tenant_with(TenantQuotas {
            max_concurrent: 0,
            ..TenantQuotas::default()
        });
        let err = quick().admit(&tenant, 1).unwrap_err();
        assert!(err.reason.contains("quota is zero"), "{}", err.reason);
        assert_eq!(err.retry_after_ms, 7);
    }

    #[test]
    fn queued_query_is_admitted_when_a_slot_frees() {
        let tenant = tenant_with(TenantQuotas {
            max_concurrent: 1,
            max_queued: 4,
            ..TenantQuotas::default()
        });
        let ctl = AdmissionController::new(AdmissionConfig {
            queue_wait: Duration::from_secs(5),
            ..AdmissionConfig::default()
        });
        let permit = ctl.admit(&tenant, 1).unwrap();
        let waiter = {
            let tenant = Arc::clone(&tenant);
            let ctl = ctl.clone();
            std::thread::spawn(move || ctl.admit(&tenant, 1))
        };
        // give the waiter time to park in the queue, then free the slot
        while tenant.queued() == 0 {
            std::thread::yield_now();
        }
        drop(permit);
        let queued_permit = waiter.join().unwrap().unwrap();
        assert!(queued_permit.queued() > Duration::ZERO);
        assert_eq!(tenant.queued(), 0);
    }

    #[test]
    fn queue_wait_is_bounded_never_a_hang() {
        let tenant = tenant_with(TenantQuotas {
            max_concurrent: 1,
            max_queued: 4,
            ..TenantQuotas::default()
        });
        let ctl = quick();
        let _held = ctl.admit(&tenant, 1).unwrap();
        let begun = Instant::now();
        let err = ctl.admit(&tenant, 1).unwrap_err();
        assert!(err.reason.contains("deadline"), "{}", err.reason);
        assert!(begun.elapsed() < Duration::from_secs(2));
        // queue accounting fully unwound after the timeout
        assert_eq!(tenant.queued(), 0);
    }

    #[test]
    fn queued_bytes_quota_is_enforced() {
        let tenant =
            tenant_with(TenantQuotas { max_concurrent: 1, max_queued: 100, max_queued_bytes: 64 });
        let ctl = quick();
        let _held = ctl.admit(&tenant, 1).unwrap();
        let err = ctl.admit(&tenant, 65).unwrap_err();
        assert!(err.reason.contains("byte quota"), "{}", err.reason);
    }
}
