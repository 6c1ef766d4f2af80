//! # partix-advisor
//!
//! Workload-driven fragmentation advice and live rebalancing for the
//! PartiX middleware. Closes the loop the paper leaves open: PartiX
//! executes queries over whatever fragmentation/placement the user
//! registered — this crate observes how that design actually behaves
//! and moves the system toward a better one, without downtime.
//!
//! ```text
//!   QueryReports ──▶ WorkloadProfiler ──▶ WorkloadProfile (JSON)
//!                                              │
//!                           sample docs ──▶ advise() ──▶ Advice
//!                                              │     (design+placement,
//!                                              │      predicted costs)
//!                                              ▼
//!                                         rebalance()
//!                               copy → atomic swap → retire
//!                              (queries keep serving throughout)
//! ```
//!
//! * [`profile`] — aggregate per-fragment/per-node access statistics
//!   from [`QueryReport`](partix_engine::QueryReport)s into a
//!   serializable [`WorkloadProfile`].
//! * [`cost`] — the analytical cost model: bottleneck scan load +
//!   result-shipping + imbalance penalty.
//! * [`advise`] — candidate search (current design re-placed, plus
//!   horizontal re-splits) with greedy seeding and seeded local search;
//!   deterministic for a given seed.
//! * [`rebalance`] — live migration between placements: dual-placement
//!   copy, atomic catalog swap, retirement of old replicas, post-move
//!   correctness re-validation.

pub mod advise;
pub mod cost;
pub mod jsonio;
pub mod mining;
pub mod profile;
pub mod rebalance;

pub use advise::{advise, advise_live, collection_sample, Advice, AdviseError, AdvisorConfig};
pub use mining::{mine_predicates, mined_split_paths, MinedPredicate};
pub use cost::{score, CostReport, CostWeights, FragmentLoad};
pub use profile::{
    FragmentStats, NodeStats, StageTotals, WorkloadProfile, WorkloadProfiler,
};
pub use rebalance::{
    rebalance, rebalance_with_observer, MoveRecord, RebalanceError, RebalanceOptions,
    RebalancePhase, RebalanceReport,
};
