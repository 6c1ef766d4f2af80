//! # partix-engine
//!
//! The PartiX middleware (paper Section 4): a coordinator that processes
//! XQuery queries over XML repositories fragmented across a cluster of
//! nodes, each running a sequential XML DBMS ([`partix_storage::Database`]).
//!
//! ```text
//!            ┌────────────────────── PartiX ──────────────────────┐
//!  XQuery ──▶│ Schema Catalog │ Distribution Catalog │ Publisher  │
//!            │          Distributed Query Service                 │
//!            └──────┬───────────────┬────────────────┬────────────┘
//!              sub-query        sub-query        sub-query
//!            ┌──────▼─────┐  ┌──────▼─────┐  ┌──────▼─────┐
//!            │  node 0    │  │  node 1    │  │  node n    │
//!            │ (XML DBMS) │  │ (XML DBMS) │  │ (XML DBMS) │
//!            └────────────┘  └────────────┘  └────────────┘
//! ```
//!
//! * [`catalog`] — the XML Schema Catalog Service and the XML
//!   Distribution Catalog Service: schemas, collections, fragmentation
//!   designs and fragment placement.
//! * [`cluster`] — nodes (each a [`partix_storage::Database`]), the
//!   cluster, and the network model used to charge transmission times
//!   (the paper: result bytes ÷ Gigabit Ethernet speed).
//! * [`publisher`] — the Distributed XML Data Publisher: fragments
//!   incoming documents per the registered design and ships each fragment
//!   to its node.
//! * [`localize`] — data localization: decides which fragments can
//!   contribute to a query, using predicate co-satisfiability (horizontal)
//!   and path-overlap analysis (vertical/hybrid).
//! * [`service`] — the Distributed Query Service: one plan → run →
//!   compose pipeline that decomposes a query into per-fragment tasks
//!   (sub-queries, or — for the reconstruction fallback — fetches of the
//!   fragments the query reads, filtered at their nodes), runs every task
//!   through the same retry / failover /
//!   deadline loop, composes the result (union / aggregate combination /
//!   reconstruction join) and reports the cluster-timing breakdown.
//! * [`runtime`] — persistent per-node worker pools backing
//!   [`DispatchMode::Pool`]: concurrent `execute` calls share a bounded
//!   set of node workers ([`DispatchMode::Simulated`] runs the same
//!   pipeline inline, one task after the other).
//! * [`cache`] — the coordinator's parsed-plan cache; every sub-query
//!   still reaches its node.
//! * [`faults`] — deterministic fault injection: seeded per-node fault
//!   schedules ([`faults::FaultPlan`]) wrapping any node's driver in a
//!   [`faults::FaultInjector`] (crashes, DBMS errors, latency,
//!   flip-flopping availability), exercising the dispatch layer's
//!   retry/deadline/failover machinery ([`service::RetryPolicy`]).
//! * [`trace`] — per-query spans on a monotonic clock, collapsed into a
//!   [`trace::StageBreakdown`] (parse / localize / dispatch / compose,
//!   plus per-sub-query queue-wait, execute and backoff) carried by each
//!   [`report::QueryReport`], exportable in Chrome trace-event format.
//! * [`metrics`] — the process-wide [`metrics::MetricsRegistry`]: named
//!   counters, gauges and lock-free log-bucket latency histograms
//!   (plan-cache hits, pool queue depth, retries, timeouts, bytes moved).
//! * [`wirespan`] — thread-local send/recv timing channel between
//!   socket-backed drivers (`partix-net`) and the dispatch loop, feeding
//!   the `send`/`recv` spans of each sub-query's stage breakdown.
//!
//! The *parallel elapsed time* in a [`report::QueryReport`] follows the
//! paper's methodology: the slowest site determines the parallel time,
//! and transmission time is modelled from result sizes and the configured
//! bandwidth (there is no inter-node communication).

pub mod cache;
pub mod catalog;
pub mod cluster;
pub mod compose;
pub mod driver;
pub mod faults;
pub mod localize;
pub mod meta;
pub mod metrics;
pub mod publisher;
pub mod report;
pub mod runtime;
pub mod service;
pub mod trace;
pub mod wirespan;
pub mod writes;

pub use catalog::{Catalog, Distribution, DistributionError, Placement};
pub use cluster::{Cluster, NetworkModel, Node};
pub use driver::{DriverError, PartixDriver};
pub use faults::{Fault, FaultInjector, FaultPlan, InjectionStats};
pub use meta::MetaService;
pub use metrics::{MetricsRegistry, Snapshot};
pub use report::{QueryReport, SiteReport, SkippedFragment};
pub use trace::{SpanRecord, StageBreakdown, SubQueryStage, Trace};
pub use partix_tenant::{
    Admission, AdmissionConfig, AdmissionController, PriorityClass, TenantId,
    TenantQuotas, TenantRegistry, TenantSpec,
};
pub use runtime::PoolConfig;
pub use service::{
    DispatchMode, DistributedResult, ExecOptions, PartiX, PartixError, RetryPolicy,
    Tenancy,
};
pub use writes::{WriteError, WriteReport};
