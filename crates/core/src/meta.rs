//! The epoch-versioned catalog meta service behind coordinator
//! replication.
//!
//! One [`MetaService`] holds the authoritative distribution catalog plus
//! a monotonically increasing *epoch*. Any number of [`crate::PartiX`]
//! coordinators attach to it ([`crate::PartiX::attach_meta`]) and become
//! stateless front-ends: every catalog mutation — schema or distribution
//! registration, a rebalance swapping placements — goes through the meta
//! service and bumps the epoch; each coordinator re-pulls the snapshot
//! the first time it serves a query after the bump. A data write changes
//! no catalog and leaves the epoch alone. The snapshot is cheap: the
//! catalog's values are `Arc`s, so a clone is two small `HashMap`s of
//! refcount bumps, not a deep copy of designs and placements.
//!
//! Watching: [`MetaService::wait_for`] blocks until the epoch passes a
//! threshold, which is how tests (and any future push-invalidation
//! plumbing) observe convergence without polling.

use crate::catalog::{Catalog, Distribution, DistributionError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct MetaState {
    epoch: u64,
    catalog: Catalog,
}

/// Shared, epoch-versioned catalog. See the module docs.
pub struct MetaService {
    state: Mutex<MetaState>,
    watch: Condvar,
}

impl MetaService {
    /// An empty catalog at epoch 1.
    pub fn new() -> Arc<MetaService> {
        MetaService::with_catalog(Catalog::new())
    }

    /// Seed the service from an existing catalog (e.g. the catalog a
    /// standalone coordinator built before replication was turned on).
    pub fn with_catalog(catalog: Catalog) -> Arc<MetaService> {
        Arc::new(MetaService {
            state: Mutex::new(MetaState { epoch: 1, catalog }),
            watch: Condvar::new(),
        })
    }

    /// Current catalog epoch. Monotonic; starts at 1.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// The current `(epoch, catalog)` pair, snapshotted atomically.
    pub fn snapshot(&self) -> (u64, Catalog) {
        let state = self.lock();
        (state.epoch, state.catalog.clone())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetaState> {
        // the service is infallible shared state: a poisoned lock means a
        // panic *inside* one of these short critical sections, which never
        // leaves the state half-mutated
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn mutate<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> (u64, R) {
        let mut state = self.lock();
        let r = f(&mut state.catalog);
        state.epoch += 1;
        let epoch = state.epoch;
        drop(state);
        self.watch.notify_all();
        (epoch, r)
    }

    /// Register a schema; bumps the epoch.
    pub fn register_schema(&self, schema: Arc<partix_schema::Schema>) -> u64 {
        self.mutate(|c| c.register_schema(schema)).0
    }

    /// Register (or replace) a distribution, validated against
    /// `cluster_len`; bumps the epoch on success.
    pub fn register_distribution_on(
        &self,
        dist: Distribution,
        cluster_len: usize,
    ) -> Result<u64, DistributionError> {
        let mut state = self.lock();
        state.catalog.register_distribution_on(dist, cluster_len)?;
        state.epoch += 1;
        let epoch = state.epoch;
        drop(state);
        self.watch.notify_all();
        Ok(epoch)
    }

    /// Block until the epoch reaches at least `min_epoch` (or the
    /// timeout passes); returns the epoch observed last. Watch/notify,
    /// not polling.
    pub fn wait_for(&self, min_epoch: u64, timeout: Duration) -> u64 {
        let started = Instant::now();
        let mut state = self.lock();
        while state.epoch < min_epoch {
            let waited = started.elapsed();
            if waited >= timeout {
                break;
            }
            let (guard, wait) = self
                .watch
                .wait_timeout(state, timeout - waited)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
            if wait.timed_out() {
                break;
            }
        }
        state.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<partix_schema::Schema> {
        Arc::new(partix_schema::builtin::virtual_store())
    }

    #[test]
    fn epoch_bumps_and_snapshots() {
        let meta = MetaService::new();
        assert_eq!(meta.epoch(), 1);
        assert_eq!(meta.register_schema(schema()), 2);
        let (epoch, _catalog) = meta.snapshot();
        assert_eq!(epoch, 2);
    }

    #[test]
    fn wait_for_observes_concurrent_bumps() {
        let meta = MetaService::new();
        let waiter = Arc::clone(&meta);
        let handle = std::thread::spawn(move || waiter.wait_for(3, Duration::from_secs(5)));
        meta.register_schema(schema());
        meta.register_schema(schema());
        assert!(handle.join().unwrap() >= 3);
    }

    #[test]
    fn wait_for_times_out() {
        let meta = MetaService::new();
        let seen = meta.wait_for(99, Duration::from_millis(20));
        assert_eq!(seen, 1);
    }
}
