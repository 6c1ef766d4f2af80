//! The Distributed Query Service.
//!
//! Receives an XQuery, consults the catalogs, decomposes it into
//! per-fragment sub-queries, runs them on their nodes, and composes the
//! final answer (paper Sec. 4 and Figure 5). Every query — streamed or
//! buffered, decomposed, reconstructed or passed through — takes the
//! same path, split here along the stages a [`QueryReport`] attributes
//! time to:
//!
//! * this module — configuration and the one query entry
//!   ([`PartiX::execute`] and friends are thin wrappers over it);
//! * `plan` — *localize*: catalog lookup, fragment pruning and the
//!   [`plan::Plan`]: the tasks to run and how to compose their answers;
//! * `dispatch` — *dispatch*: every task, a sub-query or a fragment
//!   fetch, runs through one retry / failover / deadline loop and one
//!   completion-order gather;
//! * `assemble` — *compose*: the composition step, and the one place
//!   that builds the report and feeds the metrics registry.
//!
//! Decomposition strategy by fragment family:
//!
//! * **horizontal** — the sub-query is the original query with the
//!   collection renamed to the fragment; results compose by `∪`
//!   (concatenation) or by distributive-aggregate combination.
//! * **hybrid, FragMode2** — fragment documents keep the source shape, so
//!   renaming suffices there too.
//! * **vertical / hybrid FragMode1** — paths are re-rooted onto the
//!   fragment's documents ([`partix_query::rewrite`]). When a query needs
//!   data from several vertical fragments at once (the rewrite fails),
//!   the service falls back to *reconstruct-then-evaluate*: it fetches
//!   the fragments the query reads — each filtered at its node by the
//!   `where` conjuncts that live entirely inside it — rebuilds the source
//!   documents that passed every filter with the Dewey join, and runs the
//!   original query over them at the coordinator: the expensive path the
//!   paper identifies for multi-fragment queries, cut down to what the
//!   query reads.

mod assemble;
mod dispatch;
mod error;
mod plan;

pub use error::PartixError;

use crate::cache::PlanCache;
use crate::catalog::{Catalog, Distribution};
use crate::cluster::{Cluster, NetworkModel};
use crate::metrics;
use crate::report::QueryReport;
use crate::runtime::{PoolConfig, WorkerPool};
use crate::trace::Trace;
use assemble::Timing;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use partix_query::{Query, Sequence};
use partix_storage::QueryOutput;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Result of a distributed query: the composed items plus the timing
/// breakdown.
#[derive(Debug, Clone)]
pub struct DistributedResult {
    pub items: Sequence,
    pub report: QueryReport,
}

/// How sub-queries reach their nodes. The pipeline and its retry loop
/// are the same in both modes; they differ only in where an attempt
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Run every sub-query inline on the calling thread, one after the
    /// other, and *model* parallelism: the parallel elapsed time is the
    /// slowest site. This is exactly the paper's measurement methodology
    /// (Sec. 5) and gives uncontended per-site times on shared hardware;
    /// it is also the sequential reference the concurrency suites compare
    /// [`DispatchMode::Pool`] against.
    #[default]
    Simulated,
    /// Persistent per-node worker pools ([`crate::runtime::WorkerPool`]):
    /// sub-queries overlap, each enqueued on its node's bounded task queue
    /// and served by long-lived workers, so thread count stays bounded
    /// under many concurrent [`PartiX::execute`] callers — the serving
    /// configuration. The calling thread drives every retry loop itself
    /// and runs one attempt of its own: the last task's first, in a slot
    /// of its node, when no deadline is set and nothing is queued there.
    Pool,
}

/// Retry/deadline policy applied to every dispatched sub-query.
///
/// Each sub-query gets up to `max_attempts` tries. A try that fails with
/// [`DriverError::Unavailable`], fails at the DBMS, or exceeds `timeout`
/// is retried — on the *next* replica of the fragment when one exists
/// (mid-flight failover), after an exponential backoff capped at
/// `backoff_max`. Nodes that crashed or timed out are marked *suspect*
/// for `suspect_cooldown` so replica selection routes around them until
/// they recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per sub-query (1 = no retries).
    pub max_attempts: usize,
    /// Per-attempt deadline. `None` waits forever — the default, so the
    /// paper-figure measurements never discard slow-but-correct answers.
    /// An attempt that runs on the calling thread cannot be interrupted:
    /// its deadline is enforced after the fact (the result is discarded).
    /// That is every attempt under [`DispatchMode::Simulated`]. Pooled
    /// dispatch abandons a late job mid-flight, and with a deadline set
    /// it keeps every attempt off the calling thread, which must stay
    /// free to abandon it; with `None` the caller runs one attempt itself.
    pub timeout: Option<Duration>,
    /// Backoff before the first retry; doubles per retry.
    pub backoff_base: Duration,
    /// Upper bound on the backoff.
    pub backoff_max: Duration,
    /// How long a crashed/timed-out node stays out of replica rotation.
    pub suspect_cooldown: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            timeout: None,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            suspect_cooldown: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based), doubling each time.
    fn backoff(&self, retry: usize) -> Duration {
        let factor = 1u32 << retry.min(16) as u32;
        self.backoff_base.saturating_mul(factor).min(self.backoff_max)
    }
}

/// Per-call execution options (see [`PartiX::execute_with`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Degraded mode: when a fragment's every replica is down (or every
    /// dispatch attempt fails), answer from the fragments that *did*
    /// respond instead of failing the query. The report flags the answer
    /// with [`QueryReport::partial`] and lists the missing fragments in
    /// [`QueryReport::skipped`]. Reconstruction-fallback queries stay
    /// all-or-nothing: a rebuilt document set missing a fragment would be
    /// silently wrong, not partial.
    pub allow_partial: bool,
    /// The tenant this query runs as, when the coordinator has a
    /// [`Tenancy`] attached: admission quotas apply at entry, the
    /// tenant's priority class rides along on every pooled sub-query
    /// job, and per-tenant metrics are recorded. `None` (or no tenancy
    /// attached) preserves the anonymous single-tenant behavior.
    pub tenant: Option<partix_tenant::TenantId>,
}

/// Multi-tenant serving state attached to a coordinator: the tenant
/// registry plus the admission controller applying its quotas at query
/// entry. One `Tenancy` is typically shared (via the `Arc`ed registry)
/// between the engine and the network servers fronting it.
pub struct Tenancy {
    pub registry: Arc<partix_tenant::TenantRegistry>,
    pub controller: partix_tenant::AdmissionController,
}

impl Tenancy {
    pub fn new(registry: Arc<partix_tenant::TenantRegistry>) -> Tenancy {
        Tenancy {
            registry,
            controller: partix_tenant::AdmissionController::default(),
        }
    }
}

/// The PartiX middleware instance.
pub struct PartiX {
    catalog: RwLock<Catalog>,
    cluster: Cluster,
    network: NetworkModel,
    dispatch: DispatchMode,
    localization: std::sync::atomic::AtomicBool,
    /// Lazily-built worker pool (first [`DispatchMode::Pool`] dispatch).
    pool: OnceLock<WorkerPool>,
    pool_config: PoolConfig,
    plan_cache: PlanCache,
    retry: RwLock<RetryPolicy>,
    /// Per-fragment round-robin counters driving replica rotation.
    rotation: Mutex<HashMap<String, usize>>,
    /// Gates per-query span collection ([`QueryReport::spans`]). Stage
    /// wall times in [`QueryReport::stages`] are always measured — they
    /// cost a handful of `Instant::now()` reads; spans allocate.
    tracing: std::sync::atomic::AtomicBool,
    /// The replicated-catalog meta service this coordinator follows
    /// (none = standalone coordinator owning its catalog).
    meta: OnceLock<Arc<crate::meta::MetaService>>,
    /// Last meta epoch this coordinator synced its catalog at.
    meta_seen: std::sync::atomic::AtomicU64,
    /// Multi-tenant admission + scheduling state (none = anonymous
    /// single-tenant serving, the historical behavior).
    tenancy: OnceLock<Tenancy>,
}

impl PartiX {
    /// A middleware over `nodes` fresh DBMS nodes.
    pub fn new(nodes: usize, network: NetworkModel) -> PartiX {
        PartiX::with_cluster(Cluster::new(nodes), network)
    }

    /// A middleware over an existing set of nodes — the replicated-
    /// coordinator constructor: several `PartiX` instances built over
    /// [`Cluster::share`]d views coordinate the same DBMS nodes.
    pub fn with_cluster(cluster: Cluster, network: NetworkModel) -> PartiX {
        PartiX {
            catalog: RwLock::new(Catalog::new()),
            cluster,
            network,
            dispatch: DispatchMode::default(),
            localization: std::sync::atomic::AtomicBool::new(true),
            pool: OnceLock::new(),
            pool_config: PoolConfig::default(),
            plan_cache: PlanCache::new(1024),
            retry: RwLock::new(RetryPolicy::default()),
            rotation: Mutex::new(HashMap::new()),
            tracing: std::sync::atomic::AtomicBool::new(true),
            meta: OnceLock::new(),
            meta_seen: std::sync::atomic::AtomicU64::new(0),
            tenancy: OnceLock::new(),
        }
    }

    /// Attach multi-tenant serving state. From here on, queries whose
    /// [`ExecOptions::tenant`] is set pass admission control and are
    /// scheduled under their tenant's priority class. Can only be
    /// attached once.
    pub fn attach_tenancy(&self, tenancy: Tenancy) {
        if self.tenancy.set(tenancy).is_err() {
            panic!("a coordinator can attach tenancy only once");
        }
    }

    /// The attached tenancy, if any.
    pub fn tenancy(&self) -> Option<&Tenancy> {
        self.tenancy.get()
    }

    /// Resolve a tenant name through the attached registry into the id
    /// [`ExecOptions::tenant`] wants. `Err` carries a typed
    /// [`PartixError::AdmissionRejected`] for unknown names, so network
    /// front-ends can forward it directly.
    pub fn resolve_tenant(
        &self,
        name: &str,
    ) -> Result<partix_tenant::TenantId, PartixError> {
        let Some(tenancy) = self.tenancy.get() else {
            return Err(PartixError::AdmissionRejected {
                tenant: name.to_string(),
                retry_after_ms: 0,
                reason: "server has no tenancy configured".to_string(),
            });
        };
        match tenancy.registry.by_name(name) {
            Some(tenant) => Ok(tenant.id),
            None => Err(PartixError::AdmissionRejected {
                tenant: name.to_string(),
                retry_after_ms: 0,
                reason: "unknown tenant".to_string(),
            }),
        }
    }

    /// The priority class this query's sub-queries are pooled under:
    /// the tenant's class when resolvable, else
    /// [`partix_tenant::PriorityClass::Standard`].
    fn class_for(&self, options: ExecOptions) -> partix_tenant::PriorityClass {
        options
            .tenant
            .and_then(|id| self.tenancy.get()?.registry.by_id(id))
            .map(|t| t.class)
            .unwrap_or_default()
    }

    /// Apply admission control for this query, returning the permit to
    /// hold for its whole execution. `Ok(None)` when the query is
    /// anonymous or no tenancy is attached. Records the per-tenant
    /// `queries` / `admitted` / `rejected` / `queued_ms` metrics.
    fn admit(
        &self,
        options: ExecOptions,
        query_bytes: usize,
    ) -> Result<Option<partix_tenant::Permit>, PartixError> {
        let (Some(id), Some(tenancy)) = (options.tenant, self.tenancy.get()) else {
            return Ok(None);
        };
        let Some(tenant) = tenancy.registry.by_id(id) else {
            return Err(PartixError::AdmissionRejected {
                tenant: id.to_string(),
                retry_after_ms: 0,
                reason: "unknown tenant id".to_string(),
            });
        };
        let reg = metrics::global();
        reg.counter(&format!("tenant.{}.queries", tenant.name)).inc();
        match tenancy.controller.admit(&tenant, query_bytes) {
            Ok(permit) => {
                reg.counter(&format!("tenant.{}.admitted", tenant.name)).inc();
                reg.histogram(&format!("tenant.{}.queued_ms", tenant.name))
                    .record_secs(permit.queued().as_secs_f64());
                Ok(Some(permit))
            }
            Err(rejection) => {
                reg.counter(&format!("tenant.{}.rejected", tenant.name)).inc();
                Err(PartixError::AdmissionRejected {
                    tenant: rejection.tenant,
                    retry_after_ms: rejection.retry_after_ms,
                    reason: rejection.reason,
                })
            }
        }
    }

    /// Attach this coordinator to a replicated-catalog meta service and
    /// pull its current snapshot. From here on the coordinator is
    /// *stateless*: catalog mutations route through the meta service
    /// (epoch bump), and every query entry point re-syncs when the epoch
    /// moved. Can only be attached once.
    pub fn attach_meta(&self, meta: Arc<crate::meta::MetaService>) {
        if self.meta.set(meta).is_err() {
            panic!("a coordinator can attach to a meta service only once");
        }
        self.sync_with_meta();
    }

    /// The attached meta service, if any.
    pub fn meta(&self) -> Option<&Arc<crate::meta::MetaService>> {
        self.meta.get()
    }

    /// The meta epoch this coordinator last synced at (0 = standalone or
    /// never synced). The failover differential asserts all coordinators
    /// converge to the same epoch after a rebalance.
    pub fn meta_epoch_seen(&self) -> u64 {
        self.meta_seen.load(std::sync::atomic::Ordering::Acquire)
    }

    /// A deep-enough copy of the current catalog (values are `Arc`s) for
    /// seeding a [`crate::meta::MetaService`] from a standalone
    /// coordinator's state.
    pub fn catalog_snapshot(&self) -> Catalog {
        self.catalog.read().clone()
    }

    /// When the meta epoch moved since the last sync, replace the local
    /// catalog with the meta snapshot. Cheap when nothing changed: one
    /// atomic load against the meta epoch.
    pub fn sync_with_meta(&self) {
        let Some(meta) = self.meta.get() else { return };
        let seen = self.meta_seen.load(std::sync::atomic::Ordering::Acquire);
        if meta.epoch() == seen {
            return;
        }
        let (epoch, catalog) = meta.snapshot();
        *self.catalog.write() = catalog;
        metrics::global().counter("partix.meta.syncs").inc();
        self.meta_seen.store(epoch, std::sync::atomic::Ordering::Release);
    }

    /// Enable/disable per-query span collection (on by default; see
    /// [`QueryReport::spans`]). Stage totals keep being measured either
    /// way — only the span list is gated.
    pub fn set_tracing_enabled(&self, enabled: bool) {
        self.tracing.store(enabled, std::sync::atomic::Ordering::Release);
    }

    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Install a dispatch [`RetryPolicy`] (applies to queries started
    /// after the call).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.write() = policy;
    }

    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.read()
    }

    /// Enable/disable data localization (fragment pruning). With it off,
    /// every fragment receives a sub-query — the ablation quantifying the
    /// paper's localization claim ("sub-queries are issued only to the
    /// corresponding fragments").
    pub fn set_localization_enabled(&self, enabled: bool) {
        self.localization
            .store(enabled, std::sync::atomic::Ordering::Release);
    }

    /// Whether data localization is enabled.
    pub fn localization_enabled(&self) -> bool {
        self.localization.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Select pooled or simulated dispatch (see [`DispatchMode`]).
    pub fn set_dispatch(&mut self, dispatch: DispatchMode) {
        self.dispatch = dispatch;
    }

    pub fn dispatch_mode(&self) -> DispatchMode {
        self.dispatch
    }

    /// Size the [`DispatchMode::Pool`] worker pools. Must be called
    /// before the first Pool-mode dispatch: the pool is built lazily,
    /// once, and keeps the configuration it was built with.
    pub fn set_pool_config(&mut self, config: PoolConfig) {
        self.pool_config = config;
    }

    pub fn pool_config(&self) -> PoolConfig {
        self.pool_config
    }

    /// Recompute the per-node placement gauges in the global metrics
    /// registry: `node.N.fragments` (distinct distributed fragment
    /// placements mapped to node N by the catalog) and
    /// `node.N.resident_bytes` (approximate bytes resident on the node
    /// across all collections its active driver holds). Called after
    /// every publish and rebalance move; the workload advisor and
    /// `partix stats` read them.
    pub fn refresh_node_gauges(&self) {
        let mut frag_counts = vec![0i64; self.cluster.len()];
        {
            let catalog = self.catalog.read();
            for coll in catalog.distributed_collections() {
                if let Some(dist) = catalog.distribution(&coll) {
                    for frag in &dist.design.fragments {
                        for node_id in dist.nodes_of(&frag.name) {
                            if let Some(count) = frag_counts.get_mut(node_id) {
                                *count += 1;
                            }
                        }
                    }
                }
            }
        }
        let registry = metrics::global();
        for node in self.cluster.nodes() {
            let driver = node.active_driver();
            let bytes: usize = driver
                .collections()
                .iter()
                .map(|c| {
                    driver
                        .fetch_collection(c)
                        .iter()
                        .map(|d| d.approx_size())
                        .sum::<usize>()
                })
                .sum();
            registry
                .gauge(&format!("node.{}.fragments", node.id))
                .set(frag_counts[node.id]);
            registry
                .gauge(&format!("node.{}.resident_bytes", node.id))
                .set(bytes as i64);
        }
    }

    fn pool(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| WorkerPool::new(&self.cluster, self.pool_config))
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub fn network(&self) -> NetworkModel {
        self.network
    }

    /// Change the network model (e.g. [`NetworkModel::instantaneous`] to
    /// report times "without transmission" as the paper's -NT series).
    pub fn set_network(&mut self, network: NetworkModel) {
        self.network = network;
    }

    pub fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog.read()
    }

    pub fn register_schema(&self, schema: Arc<partix_schema::Schema>) {
        if let Some(meta) = self.meta.get() {
            meta.register_schema(schema);
            self.sync_with_meta();
        } else {
            self.catalog.write().register_schema(schema);
        }
    }

    /// Register (or atomically replace) a collection's distribution.
    /// Placements are validated against the design *and* the cluster
    /// size: an unknown fragment name or out-of-range node index is a
    /// typed [`PartixError::InvalidDistribution`] instead of a silent
    /// mis-dispatch. Queries in flight keep their plan: a task whose
    /// answer lands after the swap is re-run on the new placements.
    pub fn register_distribution(&self, dist: Distribution) -> Result<(), PartixError> {
        if let Some(meta) = self.meta.get() {
            meta.register_distribution_on(dist, self.cluster.len())
                .map_err(PartixError::InvalidDistribution)?;
            self.sync_with_meta();
            Ok(())
        } else {
            self.catalog
                .write()
                .register_distribution_on(dist, self.cluster.len())
                .map_err(PartixError::InvalidDistribution)
        }
    }

    /// Execute an XQuery over the distributed repository. Repeated query
    /// texts reuse their parsed plan ([`QueryReport::plan_cache_hit`]).
    pub fn execute(&self, text: &str) -> Result<DistributedResult, PartixError> {
        self.execute_with(text, ExecOptions::default())
    }

    /// [`PartiX::execute`] with explicit [`ExecOptions`].
    pub fn execute_with(
        &self,
        text: &str,
        options: ExecOptions,
    ) -> Result<DistributedResult, PartixError> {
        self.collect(Source::Text(text), options)
    }

    /// Execute the centralized baseline: the query as-is against one
    /// node's database (which must hold the unfragmented collection).
    pub fn execute_centralized(
        &self,
        node: usize,
        text: &str,
    ) -> Result<QueryOutput, PartixError> {
        let node = self
            .cluster
            .node(node)
            .ok_or_else(|| PartixError::Internal(format!("node {node} missing")))?;
        node.db.execute(text).map_err(|e| PartixError::SubQuery {
            node: node.id,
            fragment: "<centralized>".into(),
            error: e.to_string(),
        })
    }

    /// Execute a parsed query.
    pub fn execute_query(&self, query: &Query) -> Result<DistributedResult, PartixError> {
        self.execute_query_with(query, ExecOptions::default())
    }

    /// [`PartiX::execute_query`] with explicit [`ExecOptions`].
    pub fn execute_query_with(
        &self,
        query: &Query,
        options: ExecOptions,
    ) -> Result<DistributedResult, PartixError> {
        self.collect(Source::Parsed(query), options)
    }

    /// Stream an answer: `emit` receives consecutive slices of the result
    /// sequence — in exactly the order [`PartiX::execute`] would return
    /// them — as sub-queries complete, instead of one buffered answer at
    /// the end. Returning `false` from `emit` cancels the stream
    /// (in-flight sub-queries finish; their output is discarded).
    ///
    /// Plain concatenations stream site-by-site, in every dispatch mode.
    /// Compositions that need every partial before the first item exists
    /// (aggregates, reconstruction joins) emit the finished answer as one
    /// slice, so every caller sees one uniform contract. The returned
    /// [`DistributedResult`] carries the report only — its `items` have
    /// already been emitted.
    ///
    /// A stream finishes across a live rebalance: a slice goes out only
    /// once its task's answer landed under the collection's current
    /// distribution, and a task whose answer was read under a replaced
    /// one is re-run on the new placements first.
    pub fn execute_streamed_with(
        &self,
        text: &str,
        options: ExecOptions,
        emit: &mut dyn FnMut(Sequence) -> bool,
    ) -> Result<DistributedResult, PartixError> {
        let report = self.run(Source::Text(text), options, &mut Sink::Stream(emit))?;
        Ok(DistributedResult { items: Vec::new(), report })
    }

    /// The buffered API: the streamed pipeline with a collecting sink.
    fn collect(
        &self,
        source: Source<'_>,
        options: ExecOptions,
    ) -> Result<DistributedResult, PartixError> {
        let mut items = Vec::new();
        let report = self.run(source, options, &mut Sink::Collect(&mut items))?;
        Ok(DistributedResult { items, report })
    }

    /// The one query entry: meta sync, admission (the permit is the
    /// tenant's concurrency slot, held until return), tracing, failure
    /// counting and the tenant's latency histogram around
    /// [`PartiX::run_admitted`].
    fn run(
        &self,
        source: Source<'_>,
        options: ExecOptions,
        sink: &mut Sink<'_>,
    ) -> Result<QueryReport, PartixError> {
        self.sync_with_meta();
        let query_bytes = match source {
            Source::Text(text) => text.len(),
            Source::Parsed(_) => 0,
        };
        let permit = self.admit(options, query_bytes)?;
        let started = Instant::now();
        let trace = if self.tracing_enabled() { Trace::new() } else { Trace::disabled() };
        let result = self.run_admitted(source, options, &trace, sink);
        let reg = metrics::global();
        if result.is_err() {
            // successes are counted by the report assembly, with their
            // stage detail
            reg.counter("partix.queries.failed").inc();
        }
        if let Some(permit) = &permit {
            // p99 of this histogram is the isolation bench's headline number
            reg.histogram(&format!("tenant.{}.latency", permit.tenant().name))
                .record_secs(started.elapsed().as_secs_f64());
        }
        result
    }

    /// Parse (or take the pre-parsed query), then [`PartiX::plan`]
    /// (localize) → [`PartiX::gather`] (dispatch) → [`PartiX::assemble`]
    /// (compose + report), once. A live rebalance swapping the
    /// collection's distribution mid-flight is the dispatch stage's
    /// concern: it re-runs the tasks whose answers landed after the swap.
    fn run_admitted(
        &self,
        source: Source<'_>,
        options: ExecOptions,
        trace: &Trace,
        sink: &mut Sink<'_>,
    ) -> Result<QueryReport, PartixError> {
        let parse_start = Instant::now();
        let parsed; // keeps a text query's plan alive
        let (query, plan_cache_hit, parse_s): (&Query, _, _) = match source {
            Source::Text(text) => {
                let hit;
                (parsed, hit) = self.plan_cache.get_or_parse(text).map_err(PartixError::Parse)?;
                let parse_s = parse_start.elapsed().as_secs_f64();
                trace.record("parse", 0, parse_start);
                (&parsed, hit, parse_s)
            }
            // pre-parsed entry: there was no parse stage to time
            Source::Parsed(query) => (query, false, 0.0),
        };
        let query_start = Instant::now();
        let plan = self.plan(query, options)?;
        let localize_s = query_start.elapsed().as_secs_f64();
        trace.record("localize", 0, query_start);
        let gathered = self.gather(&plan, options, trace, sink)?;
        let timing = Timing { parse_s, localize_s, query_start };
        let mut report = self.assemble(query, plan, gathered, timing, trace, sink)?;
        report.plan_cache_hit = plan_cache_hit;
        Ok(report)
    }
}

/// What a query enters the service as.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// Query text, parsed through the plan cache.
    Text(&'a str),
    /// A pre-parsed query (never consults the plan cache).
    Parsed(&'a Query),
}

/// Where a query's answer slices go.
enum Sink<'a> {
    /// Forward each slice to the caller as it becomes ready.
    Stream(&'a mut dyn FnMut(Sequence) -> bool),
    /// Append the slices to a buffer.
    Collect(&'a mut Sequence),
}

impl Sink<'_> {
    /// Deliver one non-empty slice; `false` means the consumer cancelled.
    fn emit(&mut self, items: Sequence) -> bool {
        match self {
            Sink::Stream(emit) => items.is_empty() || emit(items),
            Sink::Collect(buffer) => {
                buffer.extend(items);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests;
