//! The coordinator endpoint: a [`StreamHandler`] that answers `PXN2`
//! stream queries by running them on an attached [`PartiX`] engine.
//!
//! Any number of these can serve the *same* repository: each coordinator
//! holds its own [`PartiX`] front-end sharing the cluster's nodes
//! ([`partix_engine::Cluster`] is `share()`-able) and attaches to one
//! [`partix_engine::MetaService`], which keeps their distribution
//! catalogs convergent through epoch bumps. Clients spread load with
//! [`crate::CoordinatorPool`] and fail over when a coordinator dies —
//! the coordinators are stateless, so any of them can answer any query.

use crate::stream::{StreamQuery, StreamStats};
use crate::stream_server::{
    ChunkSink, SinkClosed, StreamFailure, StreamHandler, StreamServer, StreamServerConfig,
};
use partix_engine::{ExecOptions, PartiX, PartixError, QueryReport};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Serve `PXN2` stream queries from `px`. The returned server owns its
/// threads; drop (or [`StreamServer::shutdown`]) to stop.
pub fn serve_coordinator(
    addr: &str,
    px: Arc<PartiX>,
    config: StreamServerConfig,
) -> io::Result<StreamServer> {
    StreamServer::bind(addr, Arc::new(CoordHandler { px }), config)
}

/// [`StreamHandler`] bridging the wire to [`PartiX`].
pub struct CoordHandler {
    pub px: Arc<PartiX>,
}

impl CoordHandler {
    fn stats(&self, report: &QueryReport, started: Instant) -> StreamStats {
        StreamStats {
            sites: report.sites.len() as u32,
            fragments_pruned: report.fragments_pruned as u32,
            docs_scanned: report.sites.iter().map(|s| s.docs_scanned as u64).sum(),
            partial: report.partial,
            catalog_epoch: self.px.meta_epoch_seen(),
            elapsed: started.elapsed().as_secs_f64(),
        }
    }
}

impl StreamHandler for CoordHandler {
    fn run(
        &self,
        query: &StreamQuery,
        sink: &dyn ChunkSink,
    ) -> Result<StreamStats, StreamFailure> {
        let started = Instant::now();
        let mut options =
            ExecOptions { allow_partial: query.allow_partial, ..ExecOptions::default() };
        if !query.tenant.is_empty() {
            options.tenant = Some(self.px.resolve_tenant(&query.tenant).map_err(failure_of)?);
        }
        let report = if query.buffered {
            // diagnostic mode: materialize the whole answer first, then
            // ship it — the baseline the streaming path is measured against
            let result = self
                .px
                .execute_with(&query.text, options)
                .map_err(failure_of)?;
            sink.emit(&result.items).map_err(closed_failure)?;
            result.report
        } else {
            let mut emit_failed = false;
            let result = self
                .px
                .execute_streamed_with(&query.text, options, &mut |items| {
                    match sink.emit(&items) {
                        Ok(()) => true,
                        Err(SinkClosed) => {
                            emit_failed = true;
                            false
                        }
                    }
                })
                .map_err(|e| {
                    if emit_failed {
                        // the engine's "consumer cancelled" error means
                        // *our* sink died (client gone / cancelled), not a
                        // query fault
                        closed_failure(SinkClosed)
                    } else {
                        failure_of(e)
                    }
                })?;
            result.report
        };
        Ok(self.stats(&report, started))
    }
}

fn closed_failure(_: SinkClosed) -> StreamFailure {
    StreamFailure::failure(false, "stream closed by client")
}

/// Map engine errors onto the wire's retryable/fatal split: transient
/// cluster states invite a client retry (possibly on another
/// coordinator); query defects do not. Admission rejections carry their
/// own error code plus the controller's back-off hint.
fn failure_of(err: PartixError) -> StreamFailure {
    if let PartixError::AdmissionRejected { ref tenant, retry_after_ms, ref reason } = err {
        let code = if reason.contains("unknown tenant") || reason.contains("no tenancy") {
            crate::message::ErrorCode::UnknownTenant
        } else {
            crate::message::ErrorCode::AdmissionRejected
        };
        return StreamFailure {
            retryable: false,
            code,
            retry_after_ms,
            message: format!("tenant {tenant:?}: {reason}"),
        };
    }
    let retryable = matches!(
        err,
        PartixError::CatalogSwapped | PartixError::NodeUnavailable { .. }
    );
    StreamFailure::failure(retryable, err.to_string())
}
