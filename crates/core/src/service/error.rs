//! The middleware's typed errors.

use std::fmt;

/// Errors surfaced by the middleware.
#[derive(Debug)]
pub enum PartixError {
    Parse(partix_query::QueryParseError),
    /// The query references a collection with no registered distribution
    /// and no centralized copy on node 0.
    NoDistribution(String),
    /// A distribution failed registration-time validation (unknown
    /// fragment, node out of range, missing or duplicate placement).
    InvalidDistribution(crate::catalog::DistributionError),
    /// A node required by the query is down.
    NodeUnavailable { node: usize, fragment: String },
    /// A sub-query failed on its node.
    SubQuery { node: usize, fragment: String, error: String },
    /// Fragment reconstruction failed (correctness violation at runtime).
    Reconstruction(String),
    /// The partial answers have no combined answer: `min` / `max` over
    /// fragments of which some hold only numbers and others a string.
    Composition(String),
    /// The tenant's admission quota rejected the query (or it queued
    /// past the admission deadline). Always a typed answer — admission
    /// never hangs and never panics — carrying a retry hint for the
    /// client. Mapped to dedicated error variants on both wire
    /// protocols.
    AdmissionRejected { tenant: String, retry_after_ms: u64, reason: String },
    Internal(String),
}

impl fmt::Display for PartixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartixError::Parse(e) => write!(f, "{e}"),
            PartixError::NoDistribution(c) => {
                write!(f, "collection {c:?} has no registered distribution")
            }
            PartixError::InvalidDistribution(e) => {
                write!(f, "invalid distribution: {e}")
            }
            PartixError::NodeUnavailable { node, fragment } => {
                write!(f, "node {node} (fragment {fragment}) is unavailable")
            }
            PartixError::SubQuery { node, fragment, error } => {
                write!(f, "sub-query on node {node} (fragment {fragment}) failed: {error}")
            }
            PartixError::Reconstruction(msg) => write!(f, "reconstruction failed: {msg}"),
            PartixError::Composition(msg) => write!(f, "composition failed: {msg}"),
            PartixError::AdmissionRejected { tenant, retry_after_ms, reason } => {
                write!(
                    f,
                    "tenant {tenant:?} rejected: {reason} (retry after {retry_after_ms} ms)"
                )
            }
            PartixError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for PartixError {}

/// The typed error for a consumer that returned `false` from its emit
/// callback: the stream stops and in-flight sub-queries are discarded.
pub(super) fn stream_cancelled() -> PartixError {
    PartixError::Internal("stream consumer cancelled".into())
}
