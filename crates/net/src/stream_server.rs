//! The non-blocking, event-driven streaming server.
//!
//! One *event-loop thread* owns the listener and every connection, all
//! in nonblocking mode: it accepts, reads bytes into per-connection
//! buffers (decoding PXN2 frames incrementally with
//! [`frame::decode_frame`]), and drains per-connection send queues with
//! partial-write tracking. It never blocks on any one peer, so a stalled
//! connection cannot stop the others — the readiness loop is the
//! "no new runtime deps" answer to an async executor.
//!
//! Query execution happens on a small pool of *worker threads*. When a
//! complete [`StreamQuery`] frame arrives, the event loop enqueues a job;
//! a worker runs the [`StreamHandler`] and pushes `ItemChunk` /
//! `StreamEnd` / `StreamError` frames into that connection's
//! [`SendQueue`].
//!
//! Backpressure is the send queue's byte bound: a producer pushing into a
//! full queue blocks *on that queue's condvar* until the event loop
//! drains it (i.e. until the client reads). A slow reader therefore
//! stalls only the workers serving *its* streams, holds at most
//! `send_queue_bytes` + one frame of coordinator memory, and never
//! touches the event loop — other clients keep streaming at full rate.
//! The global queue depth is exported as the `net.stream.queue_bytes`
//! gauge (peak in `net.stream.queue_peak`), which the backpressure test
//! asserts stays bounded.

use crate::frame::{self, encode_frame, Frame, FrameKind, ProtocolError};
use crate::stream::{
    CancelStream, ItemChunk, StreamError, StreamQuery, StreamStats, MAX_CHUNK_ITEMS,
};
use partix_engine::metrics;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning for [`StreamServer`].
#[derive(Debug, Clone)]
pub struct StreamServerConfig {
    /// Worker threads executing [`StreamHandler`] jobs.
    pub workers: usize,
    /// Per-connection send-queue byte bound. A producer blocks once the
    /// queue holds this many bytes (one frame may always be queued, so a
    /// single frame larger than the bound still makes progress).
    pub send_queue_bytes: usize,
    /// Event-loop sleep when no connection made progress.
    pub poll_interval: Duration,
    /// Cap on concurrently open streams per connection; an `OpenStream`
    /// beyond it is answered with a retryable [`StreamError`].
    pub max_streams_per_conn: usize,
}

impl Default for StreamServerConfig {
    fn default() -> StreamServerConfig {
        StreamServerConfig {
            workers: 8,
            send_queue_bytes: 256 * 1024,
            poll_interval: Duration::from_micros(500),
            max_streams_per_conn: 64,
        }
    }
}

/// Typed failure a handler may return for one stream.
#[derive(Debug, Clone)]
pub struct StreamFailure {
    pub retryable: bool,
    /// Machine-readable classification mirrored onto the wire, so a
    /// client can distinguish admission rejections from plain failures
    /// without parsing the message text.
    pub code: crate::message::ErrorCode,
    /// For admission rejections: how long the client should back off.
    pub retry_after_ms: u64,
    pub message: String,
}

impl StreamFailure {
    /// A plain (non-admission) failure with a generic code.
    pub fn failure(retryable: bool, message: impl Into<String>) -> StreamFailure {
        StreamFailure {
            retryable,
            code: crate::message::ErrorCode::Generic,
            retry_after_ms: 0,
            message: message.into(),
        }
    }
}

/// The producer side of a stream was torn down (client cancelled, the
/// connection died, or the server is shutting down). Handlers should
/// stop producing and return promptly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkClosed;

/// Where a handler emits result items. Each call ships one or more
/// `ItemChunk` frames (slices larger than the stream's chunk size are
/// split automatically, so a handler never violates the protocol cap).
pub trait ChunkSink {
    /// Emit items in final composition order. Blocks under backpressure.
    fn emit(&self, items: &[partix_query::Item]) -> Result<(), SinkClosed>;
    /// True once the stream was cancelled or the connection died —
    /// handlers doing long compute between emits may poll this to bail
    /// out early.
    fn is_closed(&self) -> bool;
}

/// Executes one stream's query, emitting chunks through the sink.
/// Returning `Ok(stats)` ends the stream with `StreamEnd`; `Err` with a
/// typed `StreamError`. A panic is caught by the worker and mapped to a
/// non-retryable `StreamError` (panic firewall, as in the node server).
pub trait StreamHandler: Send + Sync + 'static {
    fn run(&self, query: &StreamQuery, sink: &dyn ChunkSink) -> Result<StreamStats, StreamFailure>;
}

impl<F> StreamHandler for F
where
    F: Fn(&StreamQuery, &dyn ChunkSink) -> Result<StreamStats, StreamFailure>
        + Send
        + Sync
        + 'static,
{
    fn run(&self, query: &StreamQuery, sink: &dyn ChunkSink) -> Result<StreamStats, StreamFailure> {
        self(query, sink)
    }
}

// ---------------------------------------------------------------------
// Send queue
// ---------------------------------------------------------------------

/// Server-wide accounting shared by all queues (gauge + peak).
#[derive(Default)]
struct QueueAccounting {
    queued_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
    chunks_sent: AtomicU64,
}

impl QueueAccounting {
    fn add(&self, n: usize) {
        let now = self.queued_bytes.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_bytes.fetch_max(now, Ordering::Relaxed);
        metrics::global().gauge("net.stream.queue_bytes").set(now as i64);
    }

    fn sub(&self, n: usize) {
        let now = self.queued_bytes.fetch_sub(n, Ordering::Relaxed).saturating_sub(n);
        metrics::global().gauge("net.stream.queue_bytes").set(now as i64);
    }
}

struct QueueState {
    frames: std::collections::VecDeque<Vec<u8>>,
    queued_bytes: usize,
    /// Bytes of the front frame already written to the socket.
    front_written: usize,
}

/// Bounded per-connection outbound queue. Producers (workers) block on
/// `space` when full; the event-loop thread pops and writes.
struct SendQueue {
    state: Mutex<QueueState>,
    space: Condvar,
    closed: AtomicBool,
    capacity: usize,
    accounting: Arc<QueueAccounting>,
}

impl SendQueue {
    fn new(capacity: usize, accounting: Arc<QueueAccounting>) -> SendQueue {
        SendQueue {
            state: Mutex::new(QueueState {
                frames: std::collections::VecDeque::new(),
                queued_bytes: 0,
                front_written: 0,
            }),
            space: Condvar::new(),
            closed: AtomicBool::new(false),
            capacity,
            accounting,
        }
    }

    /// Queue one encoded frame, blocking while the queue is over its
    /// byte bound. Returns `Err(SinkClosed)` once the queue is closed.
    fn push(&self, bytes: Vec<u8>) -> Result<(), SinkClosed> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Err(SinkClosed);
            }
            if state.queued_bytes < self.capacity || state.frames.is_empty() {
                break;
            }
            let (next, _) = self
                .space
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
        state.queued_bytes += bytes.len();
        self.accounting.add(bytes.len());
        state.frames.push_back(bytes);
        Ok(())
    }

    /// Close the queue and wake every blocked producer.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let drained = state.queued_bytes;
        state.frames.clear();
        state.queued_bytes = 0;
        state.front_written = 0;
        drop(state);
        self.accounting.sub(drained);
        self.space.notify_all();
    }

    /// Write as much queued data as the socket accepts right now.
    /// Returns `(made_progress, io_result)`. The lock is held across the
    /// write, but the socket is nonblocking so the syscall returns
    /// immediately — producers wait microseconds, not a peer's RTT.
    fn drain_into(&self, sock: &mut TcpStream) -> (bool, io::Result<()>) {
        let mut progressed = false;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let Some(front) = state.frames.front() else {
                return (progressed, Ok(()));
            };
            let front_len = front.len();
            let offset = state.front_written;
            match sock.write(&front[offset..]) {
                Ok(0) => {
                    return (progressed, Err(io::Error::from(io::ErrorKind::WriteZero)));
                }
                Ok(n) => {
                    progressed = true;
                    state.front_written += n;
                    if state.front_written >= front_len {
                        state.frames.pop_front();
                        state.front_written = 0;
                        state.queued_bytes = state.queued_bytes.saturating_sub(front_len);
                        self.accounting.sub(front_len);
                        self.space.notify_all();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (progressed, Ok(())),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return (progressed, Err(e)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-stream sink
// ---------------------------------------------------------------------

struct StreamSink {
    stream: u64,
    chunk_items: usize,
    queue: Arc<SendQueue>,
    cancelled: Arc<AtomicBool>,
    seq: AtomicUsize,
    items_sent: AtomicU64,
}

impl StreamSink {
    fn next_seq(&self) -> Result<u32, SinkClosed> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        u32::try_from(seq).map_err(|_| SinkClosed)
    }

    fn send_chunk(&self, items: &[partix_query::Item]) -> Result<(), SinkClosed> {
        if self.cancelled.load(Ordering::Acquire) {
            return Err(SinkClosed);
        }
        let chunk = ItemChunk {
            stream: self.stream,
            seq: self.next_seq()?,
            items: items.to_vec(),
        };
        self.queue.push(encode_frame(FrameKind::ItemChunk, &chunk.encode()))?;
        self.items_sent.fetch_add(items.len() as u64, Ordering::Relaxed);
        self.queue.accounting.chunks_sent.fetch_add(1, Ordering::Relaxed);
        metrics::global().counter("net.stream.chunks").inc();
        Ok(())
    }
}

impl ChunkSink for StreamSink {
    fn emit(&self, items: &[partix_query::Item]) -> Result<(), SinkClosed> {
        let step = self.chunk_items.clamp(1, MAX_CHUNK_ITEMS);
        if items.is_empty() {
            return if self.is_closed() { Err(SinkClosed) } else { Ok(()) };
        }
        for slice in items.chunks(step) {
            self.send_chunk(slice)?;
        }
        Ok(())
    }

    fn is_closed(&self) -> bool {
        self.cancelled.load(Ordering::Acquire) || self.queue.closed.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// Connection state (owned by the event loop)
// ---------------------------------------------------------------------

/// Streams still producing on a connection, shared with workers so they
/// can deregister on completion and cancellation can reach them.
type LiveStreams = Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>>;

struct Conn {
    sock: TcpStream,
    read_buf: Vec<u8>,
    queue: Arc<SendQueue>,
    live: LiveStreams,
    /// Set after a protocol violation: stop reading, flush the queue,
    /// then drop the connection.
    poisoned: bool,
}

impl Conn {
    fn close(&self) {
        for (_, cancel) in self.live.lock().unwrap_or_else(|e| e.into_inner()).drain() {
            cancel.store(true, Ordering::Release);
        }
        self.queue.close();
        let _ = self.sock.shutdown(std::net::Shutdown::Both);
    }
}

struct Job {
    query: StreamQuery,
    queue: Arc<SendQueue>,
    cancel: Arc<AtomicBool>,
    live: LiveStreams,
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Handle to a running streaming server. Dropping it (or calling
/// [`StreamServer::shutdown`]) stops the event loop, cancels live
/// streams, and joins all threads.
pub struct StreamServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accounting: Arc<QueueAccounting>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl StreamServer {
    /// Bind `addr` and serve streams with `handler`. `addr` may be
    /// `"127.0.0.1:0"` to pick a free port — see [`StreamServer::addr`].
    pub fn bind(
        addr: &str,
        handler: Arc<dyn StreamHandler>,
        config: StreamServerConfig,
    ) -> io::Result<StreamServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accounting = Arc::new(QueueAccounting::default());
        let mut server = StreamServer {
            addr,
            stop: Arc::clone(&stop),
            accounting: Arc::clone(&accounting),
            event_loop: None,
            workers: Vec::new(),
        };
        // Declared after `server`, so when a spawn fails and `?` returns,
        // the sender is dropped first: the workers already running see the
        // channel close and end, and dropping `server` joins them.
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
        for i in 0..config.workers.max(1) {
            let rx = job_rx.clone();
            let handler = Arc::clone(&handler);
            let worker = thread::Builder::new()
                .name(format!("pxn2-worker-{i}"))
                .spawn(move || worker_loop(rx, handler))?;
            server.workers.push(worker);
        }
        let event_loop = thread::Builder::new()
            .name("pxn2-events".to_owned())
            .spawn(move || event_loop(listener, config, stop, accounting, job_tx))?;
        server.event_loop = Some(event_loop);
        Ok(server)
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bytes currently queued across all connections.
    pub fn queued_bytes(&self) -> usize {
        self.accounting.queued_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of [`StreamServer::queued_bytes`] — the bound the
    /// backpressure test asserts on.
    pub fn peak_queue_bytes(&self) -> usize {
        self.accounting.peak_bytes.load(Ordering::Relaxed)
    }

    /// Total `ItemChunk` frames shipped since bind.
    pub fn chunks_sent(&self) -> u64 {
        self.accounting.chunks_sent.load(Ordering::Relaxed)
    }

    /// Stop accepting, cancel live streams, close every connection, and
    /// join all threads. Clients with streams in flight observe a
    /// truncated stream (typed error), never a fabricated end-of-stream.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for StreamServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: crossbeam::channel::Receiver<Job>, handler: Arc<dyn StreamHandler>) {
    while let Ok(job) = rx.recv() {
        let sink = StreamSink {
            stream: job.query.stream,
            chunk_items: job.query.chunk_size(),
            queue: Arc::clone(&job.queue),
            cancelled: Arc::clone(&job.cancel),
            seq: AtomicUsize::new(0),
            items_sent: AtomicU64::new(0),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.run(&job.query, &sink)
        }));
        let cancelled = sink.is_closed();
        let frame_bytes = match outcome {
            Ok(Ok(stats)) => {
                let end = crate::stream::StreamEnd {
                    stream: job.query.stream,
                    chunks: sink.seq.load(Ordering::Relaxed) as u32,
                    items: sink.items_sent.load(Ordering::Relaxed),
                    stats,
                };
                encode_frame(FrameKind::StreamEnd, &end.encode())
            }
            Ok(Err(fail)) => {
                let err = StreamError {
                    stream: job.query.stream,
                    retryable: fail.retryable,
                    code: fail.code,
                    retry_after_ms: fail.retry_after_ms,
                    message: fail.message,
                };
                encode_frame(FrameKind::StreamError, &err.encode())
            }
            Err(_) => {
                metrics::global().counter("net.stream.handler_panics").inc();
                let err = StreamError::failure(
                    job.query.stream,
                    false,
                    "internal error: stream handler panicked",
                );
                encode_frame(FrameKind::StreamError, &err.encode())
            }
        };
        if !cancelled {
            let _ = job.queue.push(frame_bytes);
        }
        job.live
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&job.query.stream);
    }
}

fn event_loop(
    listener: TcpListener,
    config: StreamServerConfig,
    stop: Arc<AtomicBool>,
    accounting: Arc<QueueAccounting>,
    jobs: crossbeam::channel::Sender<Job>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    while !stop.load(Ordering::Acquire) {
        let mut progressed = false;

        // Accept everything ready.
        loop {
            match listener.accept() {
                Ok((sock, _)) => {
                    if sock.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = sock.set_nodelay(true);
                    metrics::global().gauge("net.stream.conns").inc();
                    conns.push(Conn {
                        sock,
                        read_buf: Vec::new(),
                        queue: Arc::new(SendQueue::new(
                            config.send_queue_bytes,
                            Arc::clone(&accounting),
                        )),
                        live: Arc::new(Mutex::new(HashMap::new())),
                        poisoned: false,
                    });
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }

        // Service every connection: read, parse, dispatch, write.
        let mut i = 0;
        while i < conns.len() {
            let mut dead = false;
            {
                let conn = &mut conns[i];
                if !conn.poisoned {
                    match service_reads(conn, &config, &jobs, &mut scratch) {
                        Ok(p) => progressed |= p,
                        Err(ConnFate::Dead) => dead = true,
                        Err(ConnFate::Poisoned) => conn.poisoned = true,
                    }
                }
                if !dead {
                    let (p, res) = conn.queue.drain_into(&mut conn.sock);
                    progressed |= p;
                    if res.is_err() {
                        dead = true;
                    }
                    // A poisoned connection is dropped once its typed
                    // protocol-error frame has been flushed.
                    if conn.poisoned {
                        let empty = conn
                            .queue
                            .state
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .frames
                            .is_empty();
                        let idle = conn
                            .live
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .is_empty();
                        if empty && idle {
                            dead = true;
                        }
                    }
                }
            }
            if dead {
                let conn = conns.swap_remove(i);
                conn.close();
                metrics::global().gauge("net.stream.conns").dec();
                progressed = true;
            } else {
                i += 1;
            }
        }

        if !progressed {
            thread::sleep(config.poll_interval);
        }
    }

    for conn in conns.drain(..) {
        conn.close();
        metrics::global().gauge("net.stream.conns").dec();
    }
    drop(jobs); // workers drain and exit
}

enum ConnFate {
    /// Connection closed or failed: tear it down now.
    Dead,
    /// Protocol violation: a typed error frame was queued; flush it,
    /// read nothing more, then tear down.
    Poisoned,
}

/// Read whatever is available and dispatch every complete frame.
fn service_reads(
    conn: &mut Conn,
    config: &StreamServerConfig,
    jobs: &crossbeam::channel::Sender<Job>,
    scratch: &mut [u8],
) -> Result<bool, ConnFate> {
    let mut progressed = false;
    loop {
        match conn.sock.read(scratch) {
            Ok(0) => return Err(ConnFate::Dead),
            Ok(n) => {
                progressed = true;
                conn.read_buf.extend_from_slice(&scratch[..n]);
                // Parse every complete frame in the buffer.
                loop {
                    match frame::decode_frame(&conn.read_buf) {
                        Ok(None) => break,
                        Ok(Some((frame, consumed))) => {
                            conn.read_buf.drain(..consumed);
                            dispatch_frame(conn, config, jobs, frame)?;
                        }
                        Err(e) => {
                            poison(conn, &e);
                            return Err(ConnFate::Poisoned);
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(progressed),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(ConnFate::Dead),
        }
    }
}

/// Queue a best-effort typed error for a protocol violation; the
/// connection is dropped after it flushes. Stream id 0 marks a
/// connection-level fault (no individual stream is at fault).
fn poison(conn: &mut Conn, err: &ProtocolError) {
    metrics::global().counter("net.stream.protocol_errors").inc();
    let e = StreamError::failure(0, false, format!("protocol violation: {err}"));
    let _ = conn.queue.push(encode_frame(FrameKind::StreamError, &e.encode()));
}

fn dispatch_frame(
    conn: &mut Conn,
    config: &StreamServerConfig,
    jobs: &crossbeam::channel::Sender<Job>,
    frame: Frame,
) -> Result<(), ConnFate> {
    match frame.kind {
        FrameKind::OpenStream => {
            let query = match StreamQuery::decode(&frame.payload) {
                Ok(q) => q,
                Err(e) => {
                    poison(conn, &e);
                    return Err(ConnFate::Poisoned);
                }
            };
            let mut live = conn.live.lock().unwrap_or_else(|e| e.into_inner());
            if live.contains_key(&query.stream) {
                drop(live);
                poison(
                    conn,
                    &ProtocolError::Stream(format!(
                        "stream id {} is already open on this connection",
                        query.stream
                    )),
                );
                return Err(ConnFate::Poisoned);
            }
            if live.len() >= config.max_streams_per_conn {
                drop(live);
                let e = StreamError::failure(
                    query.stream,
                    true,
                    format!("connection stream limit ({}) reached", config.max_streams_per_conn),
                );
                let _ = conn.queue.push(encode_frame(FrameKind::StreamError, &e.encode()));
                return Ok(());
            }
            let cancel = Arc::new(AtomicBool::new(false));
            live.insert(query.stream, Arc::clone(&cancel));
            drop(live);
            metrics::global().counter("net.stream.opens").inc();
            let job = Job {
                query,
                queue: Arc::clone(&conn.queue),
                cancel,
                live: Arc::clone(&conn.live),
            };
            if jobs.send(job).is_err() {
                return Err(ConnFate::Dead);
            }
            Ok(())
        }
        FrameKind::CancelStream => match CancelStream::decode(&frame.payload) {
            Ok(c) => {
                if let Some(cancel) = conn
                    .live
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get(&c.stream)
                {
                    cancel.store(true, Ordering::Release);
                }
                Ok(())
            }
            Err(e) => {
                poison(conn, &e);
                Err(ConnFate::Poisoned)
            }
        },
        // Server-bound connections must only carry client → coordinator
        // kinds; anything else (including well-formed v1 frames) is a
        // protocol violation here.
        other => {
            poison(
                conn,
                &ProtocolError::Stream(format!("unexpected {other:?} frame on a stream server")),
            );
            Err(ConnFate::Poisoned)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use partix_query::{Item, Sequence};

    fn echo_handler() -> Arc<dyn StreamHandler> {
        Arc::new(
            |q: &StreamQuery, sink: &dyn ChunkSink| -> Result<StreamStats, StreamFailure> {
                if q.text == "boom" {
                    return Err(StreamFailure::failure(false, "boom"));
                }
                if q.text == "panic" {
                    panic!("handler panic");
                }
                let n: usize = q.text.parse().unwrap_or(0);
                let items: Vec<Item> = (0..n).map(|i| Item::Num(i as f64)).collect();
                sink.emit(&items).map_err(|_| StreamFailure::failure(true, "sink closed"))?;
                Ok(StreamStats { sites: 1, ..StreamStats::default() })
            },
        )
    }

    fn read_outcome(
        sock: &mut TcpStream,
        stream: u64,
    ) -> Result<(Sequence, crate::stream::StreamOutcome), ProtocolError> {
        let mut asm = crate::stream::StreamAssembler::new(stream);
        loop {
            let (frame, _) = match frame::read_frame(sock)? {
                Some(f) => f,
                None => return Err(ProtocolError::Truncated { context: "stream" }),
            };
            match frame.kind {
                FrameKind::ItemChunk => {
                    asm.accept_chunk(ItemChunk::decode(&frame.payload)?)?;
                }
                FrameKind::StreamEnd => {
                    asm.finish(crate::stream::StreamEnd::decode(&frame.payload)?)?;
                    return asm.into_result();
                }
                FrameKind::StreamError => {
                    asm.fail(StreamError::decode(&frame.payload)?)?;
                    return asm.into_result();
                }
                k => return Err(ProtocolError::Stream(format!("unexpected {k:?}"))),
            }
        }
    }

    fn open(sock: &mut TcpStream, stream: u64, text: &str) {
        let q = StreamQuery {
            stream,
            text: text.into(),
            allow_partial: false,
            buffered: false,
            chunk_items: 10,
            tenant: String::new(),
        };
        write_frame(sock, FrameKind::OpenStream, &q.encode()).unwrap();
    }

    #[test]
    fn streams_chunks_and_ends() {
        let mut server =
            StreamServer::bind("127.0.0.1:0", echo_handler(), StreamServerConfig::default())
                .unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 42, "25");
        let (items, outcome) = read_outcome(&mut sock, 42).unwrap();
        assert_eq!(items.len(), 25);
        match outcome {
            crate::stream::StreamOutcome::Complete(end) => {
                assert_eq!(end.chunks, 3); // 25 items at 10/chunk
                assert_eq!(end.items, 25);
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn typed_error_and_panic_firewall() {
        let mut server =
            StreamServer::bind("127.0.0.1:0", echo_handler(), StreamServerConfig::default())
                .unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 1, "boom");
        let (_, outcome) = read_outcome(&mut sock, 1).unwrap();
        assert!(matches!(
            outcome,
            crate::stream::StreamOutcome::Failed(StreamError { retryable: false, .. })
        ));
        open(&mut sock, 2, "panic");
        let (_, outcome) = read_outcome(&mut sock, 2).unwrap();
        match outcome {
            crate::stream::StreamOutcome::Failed(e) => {
                assert!(e.message.contains("panicked"), "{}", e.message)
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn hostile_bytes_get_typed_error_then_close() {
        let mut server =
            StreamServer::bind("127.0.0.1:0", echo_handler(), StreamServerConfig::default())
                .unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.write_all(b"QQQQ-not-a-frame-at-all-").unwrap();
        sock.flush().unwrap();
        // the server answers with a typed stream-0 error frame, then closes
        let (frame, _) = frame::read_frame(&mut sock).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::StreamError);
        let err = StreamError::decode(&frame.payload).unwrap();
        assert_eq!(err.stream, 0);
        assert!(err.message.contains("protocol violation"), "{}", err.message);
        // ... and the connection reaches EOF
        let mut rest = Vec::new();
        let _ = sock.read_to_end(&mut rest);
        assert!(rest.is_empty());
        server.shutdown();
    }

    #[test]
    fn multiplexed_streams_on_one_connection() {
        let mut server =
            StreamServer::bind("127.0.0.1:0", echo_handler(), StreamServerConfig::default())
                .unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 10, "15");
        open(&mut sock, 11, "5");
        let mut a = crate::stream::StreamAssembler::new(10);
        let mut b = crate::stream::StreamAssembler::new(11);
        while !(a.is_done() && b.is_done()) {
            let (frame, _) = frame::read_frame(&mut sock).unwrap().unwrap();
            let route = |asm: &mut crate::stream::StreamAssembler,
                         frame: &Frame|
             -> Result<bool, ProtocolError> {
                match frame.kind {
                    FrameKind::ItemChunk => {
                        let c = ItemChunk::decode(&frame.payload)?;
                        if c.stream == asm.stream() {
                            asm.accept_chunk(c)?;
                            return Ok(true);
                        }
                    }
                    FrameKind::StreamEnd => {
                        let e = crate::stream::StreamEnd::decode(&frame.payload)?;
                        if e.stream == asm.stream() {
                            asm.finish(e)?;
                            return Ok(true);
                        }
                    }
                    _ => {}
                }
                Ok(false)
            };
            if !route(&mut a, &frame).unwrap() {
                assert!(route(&mut b, &frame).unwrap(), "frame routed nowhere");
            }
        }
        assert_eq!(a.items().len(), 15);
        assert_eq!(b.items().len(), 5);
        server.shutdown();
    }

    #[test]
    fn kill_mid_stream_truncates_with_typed_error() {
        let handler: Arc<dyn StreamHandler> = Arc::new(
            |_q: &StreamQuery, sink: &dyn ChunkSink| -> Result<StreamStats, StreamFailure> {
                let items: Vec<Item> = (0..10).map(|i| Item::Num(i as f64)).collect();
                for _ in 0..1000 {
                    sink.emit(&items).map_err(|_| StreamFailure::failure(true, "closed"))?;
                    thread::sleep(Duration::from_millis(2));
                }
                Ok(StreamStats::default())
            },
        );
        let mut server =
            StreamServer::bind("127.0.0.1:0", handler, StreamServerConfig::default()).unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 1, "big");
        // read one frame, then kill the server mid-stream
        let (first, _) = frame::read_frame(&mut sock).unwrap().unwrap();
        assert_eq!(first.kind, FrameKind::ItemChunk);
        server.shutdown();
        // the client must see a typed failure, never a clean StreamEnd
        let mut asm = crate::stream::StreamAssembler::new(1);
        asm.accept_chunk(ItemChunk::decode(&first.payload).unwrap()).unwrap();
        let err = loop {
            match frame::read_frame(&mut sock) {
                Ok(Some((frame, _))) => match frame.kind {
                    FrameKind::ItemChunk => {
                        asm.accept_chunk(ItemChunk::decode(&frame.payload).unwrap()).unwrap();
                    }
                    FrameKind::StreamEnd => panic!("killed server completed the stream"),
                    FrameKind::StreamError => break None,
                    k => panic!("unexpected {k:?}"),
                },
                Ok(None) => break Some(ProtocolError::Truncated { context: "stream" }),
                Err(e) => break Some(e),
            }
        };
        if let Some(e) = err {
            assert!(
                matches!(e, ProtocolError::Truncated { .. } | ProtocolError::Io(_)),
                "{e}"
            );
        }
    }
}
