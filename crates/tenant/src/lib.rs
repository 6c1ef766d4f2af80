//! Multi-tenant serving primitives for PartiX.
//!
//! Three pieces, deliberately free of any engine dependency so core,
//! net, and cli can all use them without cycles:
//!
//! - [`TenantRegistry`] — named tenants with a [`PriorityClass`] and
//!   [`TenantQuotas`] (concurrent queries, queue slots, queued bytes).
//! - [`AdmissionController`] — the typed admit/queue/reject decision at
//!   query entry. Queueing is bounded by a wall-clock deadline, so a
//!   caller is *always* answered with either a [`Permit`] or a
//!   [`Rejection`] — never a hang.
//! - [`DrrScheduler`] — a deficit-round-robin queue over priority
//!   classes, the data structure behind the worker pool's weighted-fair
//!   draining. A non-empty class is visited every rotation, so a
//!   starved class always drains.

mod admission;
mod class;
mod drr;
mod registry;

pub use admission::{AdmissionConfig, AdmissionController, Permit, Rejection};
pub use class::PriorityClass;
pub use drr::DrrScheduler;
pub use registry::{
    valid_tenant_name, Tenant, TenantId, TenantQuotas, TenantRegistry,
    TenantSpec, MAX_TENANT_NAME,
};
