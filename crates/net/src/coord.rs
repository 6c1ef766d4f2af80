//! The coordinator leg: [`serve_coordinator`] answers stream queries from
//! a [`PartiX`] engine behind the one [`Server`]; [`StreamClient`] runs
//! them over the one [`Client`], and [`CoordinatorPool`] fails them over
//! across coordinator replicas.
//!
//! Any number of coordinators can serve the *same* repository: each is a
//! [`PartiX::replica`] of one engine, over the same nodes and the same
//! distribution catalog, so a registration through any of them is what
//! all of them read next. The coordinators hold no state a query needs
//! and queries are idempotent reads, so failover is a pure
//! retry: when one dies mid-stream (connect failure, mid-frame EOF, or a
//! retryable server verdict) the pool re-issues the query on the next.
//! Killing one coordinator mid-workload costs its in-flight queries one
//! retry each — not their answers.
//!
//! Reassembly goes through [`StreamAssembler`], so every protocol
//! violation a hostile or truncated server can produce surfaces as a
//! typed error — a stream that never reaches its end-of-stream is
//! [`ProtocolError::Truncated`], never a silently short result.

use crate::client::{Client, StreamClientConfig};
use crate::codec::frame_of;
use crate::frame::{FrameKind, ProtocolError};
use crate::message::{ErrorCode, WireError};
use crate::server::{ChunkSink, Handler, Server, SinkClosed};
use crate::stream::{
    ItemChunk, StreamAssembler, StreamEnd, StreamError, StreamOutcome, StreamQuery, StreamStats,
};
use partix_engine::{metrics, ExecOptions, PartiX, PartixError, QueryReport};
use partix_query::{Item, Sequence};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A running coordinator endpoint: the one [`Server`].
pub type StreamServer = Server;

/// What a coordinator endpoint can be told: nothing. Its tenancy is the
/// engine's ([`PartiX::attach_tenancy`]), and so is the bound on the
/// queries it runs at once (admission control).
#[derive(Debug, Clone, Default)]
pub struct StreamServerConfig {}

/// Serve stream queries from `px`. The returned server owns its threads;
/// drop (or [`Server::shutdown`]) to stop.
pub fn serve_coordinator(
    addr: &str,
    px: Arc<PartiX>,
    _config: StreamServerConfig,
) -> io::Result<StreamServer> {
    Server::bind(addr, Arc::new(CoordHandler { px }))
}

/// [`Handler`] bridging `OpenStream` frames to [`PartiX`].
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
            catalog_epoch: self.px.catalog().epoch(),
            elapsed: started.elapsed().as_secs_f64(),
        }
    }
}

impl Handler for CoordHandler {
    fn stream(&self, query: &StreamQuery, sink: &dyn ChunkSink) -> Result<StreamStats, WireError> {
        let started = Instant::now();
        let mut options =
            ExecOptions { allow_partial: query.allow_partial, ..ExecOptions::default() };
        if !query.tenant.is_empty() {
            let id = self.px.resolve_tenant(&query.tenant).ok_or_else(|| WireError {
                retryable: false,
                code: ErrorCode::UnknownTenant,
                retry_after_ms: 0,
                message: format!("unknown tenant {:?}", query.tenant),
            })?;
            options.tenant = Some(id);
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
                        // *our* sink died (client gone), not a query fault
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

fn closed_failure(_: SinkClosed) -> WireError {
    WireError::failure(false, "stream closed by client")
}

/// Map engine errors onto the wire's retryable/fatal split: transient
/// cluster states invite a client retry (possibly on another
/// coordinator); query defects do not. Admission rejections carry their
/// own error code plus the controller's back-off hint.
fn failure_of(err: PartixError) -> WireError {
    if let PartixError::AdmissionRejected { ref tenant, retry_after_ms, ref reason } = err {
        return WireError {
            retryable: false,
            code: ErrorCode::AdmissionRejected,
            retry_after_ms,
            message: format!("tenant {tenant:?}: {reason}"),
        };
    }
    let retryable = matches!(err, PartixError::NodeUnavailable { .. });
    WireError::failure(retryable, err.to_string())
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// Per-query knobs.
#[derive(Debug, Clone, Default)]
pub struct StreamOpts {
    pub allow_partial: bool,
    /// Ask the coordinator to materialize the whole answer before
    /// sending (benchmark baseline; the wire format is unchanged).
    pub buffered: bool,
    /// Execute as this tenant (the stream's tenant header). `None` is the
    /// anonymous compatibility path: no admission control applies.
    pub tenant: Option<String>,
}

/// A completed stream.
#[derive(Debug, Clone)]
pub struct StreamResult {
    pub items: Sequence,
    pub stats: StreamStats,
    /// Chunks the answer arrived in (≥ 1 stream frame even when empty).
    pub chunks: u32,
}

/// How a streamed query failed.
#[derive(Debug, Clone)]
pub enum StreamCallError {
    /// The coordinator answered with a typed [`StreamError`]. When
    /// `retryable`, the same query may succeed elsewhere. `code`
    /// distinguishes admission rejections (with a `retry_after_ms`
    /// back-off hint) from plain failures.
    Remote {
        retryable: bool,
        code: ErrorCode,
        retry_after_ms: u64,
        message: String,
    },
    /// Transport or protocol failure — connection lost mid-stream,
    /// malformed frames, reassembly violations, timeout. Always safe to
    /// retry on another coordinator (queries are idempotent reads).
    Protocol(ProtocolError),
}

impl std::fmt::Display for StreamCallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamCallError::Remote { retryable, code, retry_after_ms, message } => {
                write!(f, "coordinator error [{code:?}] (retryable={retryable}): {message}")?;
                if *retry_after_ms > 0 {
                    write!(f, " (retry after {retry_after_ms} ms)")?;
                }
                Ok(())
            }
            StreamCallError::Protocol(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for StreamCallError {}

/// A client of one coordinator. Share it across threads freely: every
/// query in flight has a connection to itself.
pub struct StreamClient {
    client: Client,
    chunk_items: u32,
}

impl StreamClient {
    /// A client for the coordinator at `addr`; connections are dialed as
    /// queries need them.
    fn new(addr: &str, config: StreamClientConfig) -> StreamClient {
        StreamClient {
            client: Client::new(addr.to_owned(), config.timeout),
            chunk_items: config.chunk_items,
        }
    }

    /// Dial the coordinator at `addr`, failing if it cannot be reached.
    pub fn connect(addr: &str, config: StreamClientConfig) -> Result<StreamClient, ProtocolError> {
        let client = StreamClient::new(addr, config);
        client.client.warm()?;
        Ok(client)
    }

    /// Run one query, buffering the streamed chunks into a final result.
    pub fn query(&self, text: &str, opts: StreamOpts) -> Result<StreamResult, StreamCallError> {
        self.query_with(text, opts, |_| {})
    }

    /// Run one query, observing each chunk as it arrives (time-to-first-
    /// item measurements, incremental consumers).
    pub fn query_with(
        &self,
        text: &str,
        opts: StreamOpts,
        mut on_chunk: impl FnMut(&[Item]),
    ) -> Result<StreamResult, StreamCallError> {
        let stream = self.client.next_stream();
        let open = StreamQuery {
            stream,
            text: text.to_owned(),
            allow_partial: opts.allow_partial,
            buffered: opts.buffered,
            chunk_items: self.chunk_items,
            tenant: opts.tenant.unwrap_or_default(),
        };
        // a query text over the frame cap is refused here, unsent
        let opening = frame_of(FrameKind::OpenStream, |w| open.put(w))
            .map_err(StreamCallError::Protocol)?;
        let mut asm = StreamAssembler::new(stream);
        let answer = self.client.exchange(&opening, true, |frame| match frame.kind {
            FrameKind::ItemChunk => {
                let before = asm.items().len();
                asm.accept_chunk(ItemChunk::decode(&frame.payload)?)?;
                on_chunk(&asm.items()[before..]);
                Ok(None)
            }
            FrameKind::StreamEnd => asm.finish(StreamEnd::decode(&frame.payload)?).map(Some),
            FrameKind::StreamError => asm.fail(StreamError::decode(&frame.payload)?).map(Some),
            other => Err(ProtocolError::Stream(format!(
                "unexpected {other:?} frame answering a stream"
            ))),
        });
        answer.map_err(StreamCallError::Protocol)?;
        match asm.into_result().map_err(StreamCallError::Protocol)? {
            (items, StreamOutcome::Complete(end)) => Ok(StreamResult {
                items,
                stats: end.stats,
                chunks: end.chunks,
            }),
            (_, StreamOutcome::Failed(StreamError { error, .. })) => Err(StreamCallError::Remote {
                retryable: error.retryable,
                code: error.code,
                retry_after_ms: error.retry_after_ms,
                message: error.message,
            }),
        }
    }
}

/// Round-robin client over N interchangeable coordinators: any
/// transport-level failure moves the query to the next one.
pub struct CoordinatorPool {
    clients: Vec<StreamClient>,
    next: AtomicUsize,
    failovers: AtomicU64,
    sticky: bool,
}

impl CoordinatorPool {
    pub fn new(addrs: Vec<String>, config: StreamClientConfig) -> CoordinatorPool {
        Self::build(addrs, config, false)
    }

    /// A pool pinned to `addrs[0]` as its primary: every query starts
    /// there and the rest of the list is failover order only. Sticky
    /// routing keeps one warm connection per client instead of one per
    /// coordinator; fleet-level balance comes from giving each client a
    /// differently rotated address list.
    pub fn new_sticky(addrs: Vec<String>, config: StreamClientConfig) -> CoordinatorPool {
        Self::build(addrs, config, true)
    }

    fn build(addrs: Vec<String>, config: StreamClientConfig, sticky: bool) -> CoordinatorPool {
        assert!(!addrs.is_empty(), "coordinator pool needs at least one address");
        let clients = addrs.iter().map(|addr| StreamClient::new(addr, config.clone())).collect();
        CoordinatorPool {
            clients,
            next: AtomicUsize::new(0),
            failovers: AtomicU64::new(0),
            sticky,
        }
    }

    /// Times a query had to move to another coordinator (or be sent
    /// again) because its first choice failed.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Run one query, failing over across coordinators. Each coordinator
    /// is tried at most twice before the pool gives up with the last
    /// error.
    pub fn query(&self, text: &str, opts: StreamOpts) -> Result<StreamResult, StreamCallError> {
        self.query_with(text, opts, |_| {})
    }

    pub fn query_with(
        &self,
        text: &str,
        opts: StreamOpts,
        mut on_chunk: impl FnMut(&[Item]),
    ) -> Result<StreamResult, StreamCallError> {
        let start = if self.sticky { 0 } else { self.next.fetch_add(1, Ordering::Relaxed) };
        let attempts = self.clients.len() * 2;
        let mut last =
            StreamCallError::Protocol(ProtocolError::Io("no coordinator reachable".into()));
        for attempt in 0..attempts {
            if attempt > 0 {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                metrics::global().counter("net.stream.failovers").inc();
            }
            let client = &self.clients[(start + attempt) % self.clients.len()];
            match client.query_with(text, opts.clone(), &mut on_chunk) {
                Ok(r) => return Ok(r),
                Err(fatal @ StreamCallError::Remote { retryable: false, .. }) => return Err(fatal),
                Err(retryable) => last = retryable,
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RemoteDriver;
    use partix_engine::{DriverError, PartixDriver};
    use std::net::TcpListener;
    use std::time::Duration;

    /// A peer that accepts and never answers costs a call or a query its
    /// deadline — a typed transport error, not a hang — and the connection
    /// it waited on is discarded, not pooled.
    #[test]
    fn a_silent_peer_is_a_typed_timeout_and_its_connection_is_discarded() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // the kernel completes the handshakes; nobody ever reads or writes
        let config = StreamClientConfig { timeout: Duration::from_millis(200), chunk_items: 0 };
        let bound = Duration::from_secs(5);

        let begun = Instant::now();
        let client = StreamClient::connect(&addr.to_string(), config.clone()).expect("dial");
        match client.query("1", StreamOpts::default()) {
            Err(StreamCallError::Protocol(ProtocolError::Io(message))) => {
                assert!(message.contains("timed out"), "{message}")
            }
            other => panic!("expected a transport timeout, got {other:?}"),
        }
        assert!(begun.elapsed() < bound, "query path: {:?}", begun.elapsed());
        assert_eq!(client.client.pooled_connections(), 0);

        let begun = Instant::now();
        let driver = RemoteDriver::with_config(addr, config);
        match driver.health_check() {
            Err(DriverError::Unavailable(message)) => {
                assert!(message.contains("timed out"), "{message}")
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert!(begun.elapsed() < bound, "call path: {:?}", begun.elapsed());
        assert_eq!(driver.pooled_connections(), 0);
        assert_eq!(driver.stats().reconnects, 0, "a fresh dial that times out is not redialled");
        drop(listener);
    }
}
