//! The PXN2 streaming client and the replicated-coordinator pool.
//!
//! [`StreamClient`] is one multiplexed connection: a background reader
//! thread demultiplexes incoming frames by stream id into per-call
//! channels, so any number of threads can run queries over the same
//! socket concurrently. Reassembly goes through [`StreamAssembler`], so
//! every protocol violation a hostile or truncated server can produce
//! surfaces as a typed error — a stream that never reaches its
//! end-of-stream is [`ProtocolError::Truncated`], never a silently
//! short result.
//!
//! [`CoordinatorPool`] layers coordinator replication on top: it
//! round-robins queries across N coordinator addresses and, because
//! queries are idempotent reads, transparently re-issues a query on the
//! next coordinator when one dies mid-stream (connect failure, mid-frame
//! EOF, or a retryable server verdict). Killing one coordinator
//! mid-workload costs its in-flight queries one retry each — not their
//! answers.

use crate::codec::frame_of;
use crate::frame::{self, FrameKind, ProtocolError};
use crate::stream::{
    CancelStream, ItemChunk, StreamAssembler, StreamEnd, StreamError, StreamOutcome, StreamQuery,
    StreamStats,
};
use partix_engine::metrics;
use partix_query::{Item, Sequence};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Client-side tuning.
#[derive(Debug, Clone)]
pub struct StreamClientConfig {
    /// Per-query deadline: a stream that makes no progress for this long
    /// fails with a typed timeout (and counts as a transport failure for
    /// failover purposes).
    pub timeout: Duration,
    /// Requested items per chunk (0 = server default).
    pub chunk_items: u32,
}

impl Default for StreamClientConfig {
    fn default() -> StreamClientConfig {
        StreamClientConfig { timeout: Duration::from_secs(30), chunk_items: 0 }
    }
}

/// Per-query knobs.
#[derive(Debug, Clone, Default)]
pub struct StreamOpts {
    pub allow_partial: bool,
    /// Ask the coordinator to materialize the whole answer before
    /// sending (benchmark baseline; the wire format is unchanged).
    pub buffered: bool,
    /// Execute as this tenant (PXN2 tenant header). `None` is the
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
        code: crate::message::ErrorCode,
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
            StreamCallError::Remote { retryable, message, .. } => {
                write!(f, "coordinator error (retryable={retryable}): {message}")
            }
            StreamCallError::Protocol(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for StreamCallError {}

type FrameEvent = Result<frame::Frame, ProtocolError>;
type Routes = Mutex<HashMap<u64, crossbeam::channel::Sender<FrameEvent>>>;

/// One multiplexed PXN2 connection. Cheap to share (`Arc`) across
/// threads; every concurrent query gets its own stream id.
pub struct StreamClient {
    sock: Mutex<TcpStream>,
    reader_sock: TcpStream,
    routes: Arc<Routes>,
    next_stream: AtomicU64,
    dead: Arc<AtomicBool>,
    config: StreamClientConfig,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl StreamClient {
    /// Connect and start the demultiplexing reader thread.
    pub fn connect(addr: &str, config: StreamClientConfig) -> Result<StreamClient, ProtocolError> {
        let sock = TcpStream::connect(addr).map_err(ProtocolError::from)?;
        sock.set_nodelay(true).ok();
        let reader_sock = sock.try_clone().map_err(ProtocolError::from)?;
        let routes: Arc<Routes> = Arc::new(Mutex::new(HashMap::new()));
        let dead = Arc::new(AtomicBool::new(false));
        // buffered: a header and a small payload arrive in one `read`
        let mut rs = BufReader::new(reader_sock.try_clone().map_err(ProtocolError::from)?);
        let thread_routes = Arc::clone(&routes);
        let thread_dead = Arc::clone(&dead);
        let reader = std::thread::Builder::new()
            .name("pxn2-demux".to_owned())
            .spawn(move || reader_loop(&mut rs, &thread_routes, &thread_dead))
            .map_err(|e| ProtocolError::Io(e.to_string()))?;
        metrics::global().counter("net.stream.client_connects").inc();
        Ok(StreamClient {
            sock: Mutex::new(sock),
            reader_sock,
            routes,
            next_stream: AtomicU64::new(1),
            dead,
            config,
            reader: Mutex::new(Some(reader)),
        })
    }

    /// True once the connection failed; the owner should reconnect.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
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
        if self.is_dead() {
            return Err(StreamCallError::Protocol(ProtocolError::Io(
                "connection already failed".to_owned(),
            )));
        }
        let stream = self.next_stream.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = crossbeam::channel::unbounded::<FrameEvent>();
        self.routes.lock().unwrap_or_else(|e| e.into_inner()).insert(stream, tx);
        let guard = RouteGuard { routes: &self.routes, stream };

        let open = StreamQuery {
            stream,
            text: text.to_owned(),
            allow_partial: opts.allow_partial,
            buffered: opts.buffered,
            chunk_items: self.config.chunk_items,
            tenant: opts.tenant.clone().unwrap_or_default(),
        };
        // a query text over the frame cap is refused here, unsent
        let bytes = frame_of(FrameKind::OpenStream, |w| open.put(w))
            .map_err(StreamCallError::Protocol)?;
        {
            let mut sock = self.sock.lock().unwrap_or_else(|e| e.into_inner());
            sock.write_all(&bytes).and_then(|()| sock.flush()).map_err(|e| {
                self.dead.store(true, Ordering::Release);
                StreamCallError::Protocol(ProtocolError::from(e))
            })?;
        }

        let mut asm = StreamAssembler::new(stream);
        let outcome = loop {
            let event = rx
                .recv_timeout(self.config.timeout)
                .map_err(|_| {
                    // Give up on the stream; tell the server (best effort).
                    self.cancel(stream);
                    StreamCallError::Protocol(ProtocolError::Io(format!(
                        "stream {stream} made no progress for {:?}",
                        self.config.timeout
                    )))
                })?
                .map_err(StreamCallError::Protocol)?;
            match event.kind {
                FrameKind::ItemChunk => {
                    let chunk = ItemChunk::decode(&event.payload)
                        .map_err(StreamCallError::Protocol)?;
                    let before = asm.items().len();
                    asm.accept_chunk(chunk).map_err(StreamCallError::Protocol)?;
                    on_chunk(&asm.items()[before..]);
                }
                FrameKind::StreamEnd => {
                    let end = StreamEnd::decode(&event.payload)
                        .map_err(StreamCallError::Protocol)?;
                    asm.finish(end).map_err(StreamCallError::Protocol)?;
                    break asm.into_result().map_err(StreamCallError::Protocol)?;
                }
                FrameKind::StreamError => {
                    let err = StreamError::decode(&event.payload)
                        .map_err(StreamCallError::Protocol)?;
                    asm.fail(err).map_err(StreamCallError::Protocol)?;
                    break asm.into_result().map_err(StreamCallError::Protocol)?;
                }
                other => {
                    return Err(StreamCallError::Protocol(ProtocolError::Stream(format!(
                        "unexpected {other:?} frame on a client connection"
                    ))));
                }
            }
        };
        drop(guard);
        match outcome {
            (items, StreamOutcome::Complete(end)) => Ok(StreamResult {
                items,
                stats: end.stats,
                chunks: end.chunks,
            }),
            (_, StreamOutcome::Failed(e)) => Err(StreamCallError::Remote {
                retryable: e.retryable,
                code: e.code,
                retry_after_ms: e.retry_after_ms,
                message: e.message,
            }),
        }
    }

    /// Best-effort cancel for an abandoned stream.
    fn cancel(&self, stream: u64) {
        let bytes = frame_of(FrameKind::CancelStream, |w| CancelStream { stream }.put(w))
            .expect("a stream id fits a frame");
        let mut sock = self.sock.lock().unwrap_or_else(|e| e.into_inner());
        let _ = sock.write_all(&bytes).and_then(|()| sock.flush());
    }
}

impl Drop for StreamClient {
    fn drop(&mut self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.reader_sock.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
    }
}

/// Deregisters a stream's route on scope exit (success, error, or
/// timeout alike), so the demux map cannot leak entries.
struct RouteGuard<'a> {
    routes: &'a Routes,
    stream: u64,
}

impl Drop for RouteGuard<'_> {
    fn drop(&mut self) {
        self.routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.stream);
    }
}

/// Peek the stream id every PXN2 payload starts with.
fn payload_stream_id(payload: &[u8]) -> Option<u64> {
    payload.get(..8).map(|b| {
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    })
}

fn reader_loop(sock: &mut BufReader<TcpStream>, routes: &Routes, dead: &AtomicBool) {
    let fatal = loop {
        match frame::read_frame(sock) {
            Ok(Some((f, _))) => {
                let Some(stream) = payload_stream_id(&f.payload) else {
                    break ProtocolError::Malformed("stream frame shorter than its id".into());
                };
                // Stream id 0 is a connection-level server fault: fail
                // every stream in flight with the typed error.
                if stream == 0 && f.kind == FrameKind::StreamError {
                    let msg = StreamError::decode(&f.payload)
                        .map(|e| e.message)
                        .unwrap_or_else(|e| e.to_string());
                    break ProtocolError::Stream(msg);
                }
                let target = routes
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get(&stream)
                    .cloned();
                match target {
                    Some(tx) => {
                        let _ = tx.send(Ok(f));
                    }
                    // Late chunks of a cancelled/timed-out stream — the
                    // protocol says to ignore them.
                    None => metrics::global().counter("net.stream.orphan_frames").inc(),
                }
            }
            Ok(None) => break ProtocolError::Truncated { context: "stream connection" },
            Err(e) => break e,
        }
    };
    dead.store(true, Ordering::Release);
    for (_, tx) in routes.lock().unwrap_or_else(|e| e.into_inner()).drain() {
        let _ = tx.send(Err(fatal.clone()));
    }
}

// ---------------------------------------------------------------------
// Replicated coordinators
// ---------------------------------------------------------------------

/// Round-robin client over N interchangeable coordinators. Stateless
/// coordinators + idempotent read queries make failover a pure retry:
/// any transport-level failure moves the query to the next coordinator.
pub struct CoordinatorPool {
    addrs: Vec<String>,
    clients: Vec<Mutex<Option<Arc<StreamClient>>>>,
    next: AtomicUsize,
    failovers: AtomicU64,
    config: StreamClientConfig,
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
        let clients = addrs.iter().map(|_| Mutex::new(None)).collect();
        CoordinatorPool {
            addrs,
            clients,
            next: AtomicUsize::new(0),
            failovers: AtomicU64::new(0),
            config,
            sticky,
        }
    }

    /// Coordinator addresses this pool rotates over.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Times a query had to move to another coordinator (or reconnect)
    /// because its first choice failed.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    fn client_at(&self, idx: usize) -> Result<Arc<StreamClient>, ProtocolError> {
        let mut slot = self.clients[idx].lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = slot.as_ref() {
            if !c.is_dead() {
                return Ok(Arc::clone(c));
            }
        }
        let fresh = Arc::new(StreamClient::connect(&self.addrs[idx], self.config.clone())?);
        *slot = Some(Arc::clone(&fresh));
        Ok(fresh)
    }

    fn invalidate(&self, idx: usize, client: &Arc<StreamClient>) {
        let mut slot = self.clients[idx].lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cur) = slot.as_ref() {
            if Arc::ptr_eq(cur, client) {
                *slot = None;
            }
        }
    }

    /// Run one query, failing over across coordinators. Each coordinator
    /// is tried at most twice (once on a possibly-stale pooled
    /// connection, once fresh) before the pool gives up with the last
    /// transport error.
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
        let attempts = self.addrs.len() * 2;
        let mut last = StreamCallError::Protocol(ProtocolError::Io("no coordinator reachable".into()));
        for attempt in 0..attempts {
            let idx = (start + attempt) % self.addrs.len();
            if attempt > 0 {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                metrics::global().counter("net.stream.failovers").inc();
            }
            let client = match self.client_at(idx) {
                Ok(c) => c,
                Err(e) => {
                    last = StreamCallError::Protocol(e);
                    continue;
                }
            };
            match client.query_with(text, opts.clone(), &mut on_chunk) {
                Ok(r) => return Ok(r),
                Err(StreamCallError::Protocol(e)) => {
                    self.invalidate(idx, &client);
                    last = StreamCallError::Protocol(e);
                }
                Err(err @ StreamCallError::Remote { retryable: true, .. }) => {
                    last = err;
                }
                Err(fatal @ StreamCallError::Remote { retryable: false, .. }) => {
                    return Err(fatal);
                }
            }
        }
        Err(last)
    }
}
