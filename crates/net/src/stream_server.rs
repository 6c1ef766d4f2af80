//! The streaming server: blocking threads that are woken, never polled.
//!
//! An *accept thread* blocks in `accept`. Every connection gets two
//! threads of its own: a *reader* that blocks in `read`, decodes PXN2
//! frames ([`frame::read_frame`] over a buffered socket) and turns each
//! [`StreamQuery`] into a job, and a *writer* that sleeps on the
//! connection's [`SendQueue`] and is notified by every `push`, then
//! writes the frame with a blocking `write_all`. Between "bytes arrived
//! or a frame was queued" and "a thread acts on it" there is a kernel or
//! condvar wake-up and nothing else: no sleep, no timed poll, no idle
//! wake-ups. (std has no `epoll`; a thread blocked on its own socket is
//! the readiness notification a std-only workspace does have.)
//!
//! Query execution happens on a small pool of *worker threads* shared by
//! all connections. A worker runs the [`StreamHandler`] and pushes
//! `ItemChunk` / `StreamEnd` / `StreamError` frames — each encoded
//! straight into its frame buffer — into that connection's queue.
//!
//! Backpressure is the send queue's byte bound: a producer pushing into a
//! full queue blocks *on that queue's condvar* until the connection's
//! writer has put a frame on the socket (i.e. until the client reads). A
//! slow reader therefore blocks its own writer thread in `write`, fills
//! its own queue, and stalls only the workers serving *its* streams; it
//! holds at most `send_queue_bytes` + one frame of coordinator memory (a
//! frame stays counted until it is written out) and touches no thread
//! another connection depends on — other clients keep streaming at full
//! rate. The global queue depth is exported as the `net.stream.queue_bytes`
//! gauge (peak in `net.stream.queue_peak`), which the backpressure test
//! asserts stays bounded.
//!
//! Shutdown needs no poll either: the blocked `accept` is woken by a
//! throwaway connection (as [`crate::NodeServer`] does it), blocked reads
//! and writes by `shutdown(2)` on a handle to the same socket, blocked
//! producers and writers by closing the queue.

use crate::codec::frame_of;
use crate::frame::{self, Frame, FrameKind, ProtocolError};
use crate::stream::{
    put_chunk, CancelStream, StreamEnd, StreamError, StreamQuery, StreamStats, MAX_CHUNK_ITEMS,
};
use partix_engine::metrics::{self, Counter, Gauge};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
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
    /// Cap on concurrently open streams per connection; an `OpenStream`
    /// beyond it is answered with a retryable [`StreamError`].
    pub max_streams_per_conn: usize,
}

impl Default for StreamServerConfig {
    fn default() -> StreamServerConfig {
        StreamServerConfig {
            workers: 8,
            send_queue_bytes: 256 * 1024,
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

/// Server-wide accounting shared by all queues (gauge + peak), with the
/// metric handles looked up once at bind.
struct QueueAccounting {
    queued_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
    chunks_sent: AtomicU64,
    queue_gauge: Arc<Gauge>,
    chunks_counter: Arc<Counter>,
    conns_gauge: Arc<Gauge>,
}

impl QueueAccounting {
    fn new() -> QueueAccounting {
        let registry = metrics::global();
        QueueAccounting {
            queued_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            chunks_sent: AtomicU64::new(0),
            queue_gauge: registry.gauge("net.stream.queue_bytes"),
            chunks_counter: registry.counter("net.stream.chunks"),
            conns_gauge: registry.gauge("net.stream.conns"),
        }
    }

    fn add(&self, n: usize) {
        let now = self.queued_bytes.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_bytes.fetch_max(now, Ordering::Relaxed);
        self.queue_gauge.set(now as i64);
    }

    fn sub(&self, n: usize) {
        let now = self.queued_bytes.fetch_sub(n, Ordering::Relaxed).saturating_sub(n);
        self.queue_gauge.set(now as i64);
    }
}

struct QueueState {
    frames: VecDeque<Vec<u8>>,
    /// Bytes the bound is on: the queued frames plus the one being written.
    queued_bytes: usize,
    /// Length of the frame the writer has taken and not yet written out
    /// (0: none). It stays in `queued_bytes` until it is on the socket.
    writing: usize,
    /// Set after a protocol violation: nothing more is read; once the
    /// queue is flushed and no stream is live, the connection is dropped.
    draining: bool,
}

/// Bounded per-connection outbound queue. Producers (workers) block on
/// `space` when full; the connection's writer thread sleeps on `ready`
/// and is woken by `push`.
struct SendQueue {
    state: Mutex<QueueState>,
    space: Condvar,
    ready: Condvar,
    closed: AtomicBool,
    capacity: usize,
    accounting: Arc<QueueAccounting>,
}

impl SendQueue {
    fn new(capacity: usize, accounting: Arc<QueueAccounting>) -> SendQueue {
        SendQueue {
            state: Mutex::new(QueueState {
                frames: VecDeque::new(),
                queued_bytes: 0,
                writing: 0,
                draining: false,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
            capacity,
            accounting,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue one sealed frame and wake the writer, blocking while the
    /// queue is over its byte bound. Returns `Err(SinkClosed)` once the
    /// queue is closed.
    fn push(&self, bytes: Vec<u8>) -> Result<(), SinkClosed> {
        let mut state = self.lock();
        loop {
            // `close` flips the flag before it takes the lock to notify, so
            // a producer that saw it unset here is waiting by then
            if self.closed.load(Ordering::Acquire) {
                return Err(SinkClosed);
            }
            let idle = state.frames.is_empty() && state.writing == 0;
            if state.queued_bytes < self.capacity || idle {
                break;
            }
            state = self.space.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.queued_bytes += bytes.len();
        self.accounting.add(bytes.len());
        state.frames.push_back(bytes);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// The writer's wait: the next frame to put on the socket, or `None`
    /// once the queue is closed — or, when draining, flushed with no
    /// stream of `live` left to add to it.
    fn next(&self, live: &LiveStreams) -> Option<Vec<u8>> {
        let mut state = self.lock();
        loop {
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            if let Some(frame) = state.frames.pop_front() {
                state.writing = frame.len();
                return Some(frame);
            }
            if state.draining && live.lock().unwrap_or_else(|e| e.into_inner()).is_empty() {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The frame handed out by [`SendQueue::next`] is on the socket: its
    /// bytes leave the bound and blocked producers may go on.
    fn written(&self) {
        let mut state = self.lock();
        let len = std::mem::take(&mut state.writing);
        state.queued_bytes -= len;
        drop(state);
        self.accounting.sub(len);
        self.space.notify_all();
    }

    /// Stop taking input after a protocol violation; the writer drops the
    /// connection once what is queued (and what live streams still add)
    /// has been flushed.
    fn drain(&self) {
        self.lock().draining = true;
        self.ready.notify_one();
    }

    /// Have the writer look again: a stream finished, which may have been
    /// the last thing a draining connection waited for.
    fn stream_done(&self) {
        // through the lock, so a writer between its check and its wait
        // cannot miss this
        drop(self.lock());
        self.ready.notify_one();
    }

    /// Close the queue, drop what it holds and wake every blocked
    /// producer and the writer. False if it was closed already.
    fn close(&self) -> bool {
        if self.closed.swap(true, Ordering::AcqRel) {
            return false;
        }
        let mut state = self.lock();
        let drained = std::mem::take(&mut state.queued_bytes);
        state.frames.clear();
        state.writing = 0;
        drop(state);
        self.accounting.sub(drained);
        self.space.notify_all();
        self.ready.notify_one();
        true
    }
}

// ---------------------------------------------------------------------
// Per-stream sink
// ---------------------------------------------------------------------

struct StreamSink {
    stream: u64,
    chunk_items: usize,
    conn: Arc<Conn>,
    cancelled: Arc<AtomicBool>,
    seq: AtomicUsize,
    items_sent: AtomicU64,
    /// Why a chunk could not be framed (it outgrew the frame cap): the
    /// stream ends with this as a typed error instead of a frame no
    /// client would accept.
    refused: OnceLock<ProtocolError>,
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
        let seq = self.next_seq()?;
        let frame = frame_of(FrameKind::ItemChunk, |w| put_chunk(w, self.stream, seq, items))
            .map_err(|err| {
                let _ = self.refused.set(err);
                SinkClosed
            })?;
        self.conn.queue.push(frame)?;
        self.items_sent.fetch_add(items.len() as u64, Ordering::Relaxed);
        let accounting = &self.conn.queue.accounting;
        accounting.chunks_sent.fetch_add(1, Ordering::Relaxed);
        accounting.chunks_counter.inc();
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
        self.cancelled.load(Ordering::Acquire) || self.conn.queue.closed.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// Connection state (shared by its reader, its writer and the workers)
// ---------------------------------------------------------------------

/// Streams still producing on a connection, so that workers can
/// deregister on completion and cancellation can reach them.
type LiveStreams = Mutex<HashMap<u64, Arc<AtomicBool>>>;

struct Conn {
    /// A handle to the socket the reader and the writer block on, kept to
    /// shut it down under them.
    sock: TcpStream,
    queue: SendQueue,
    live: LiveStreams,
}

impl Conn {
    /// Cancel the live streams, release the queue and wake whatever is
    /// blocked on the socket. Idempotent: the reader, the writer and
    /// `shutdown` may each get here.
    fn close(&self) {
        if !self.queue.close() {
            return;
        }
        for (_, cancel) in self.live.lock().unwrap_or_else(|e| e.into_inner()).drain() {
            cancel.store(true, Ordering::Release);
        }
        let _ = self.sock.shutdown(Shutdown::Both);
        self.queue.accounting.conns_gauge.dec();
    }
}

/// A connection and the two threads serving it.
struct ConnThreads {
    conn: Arc<Conn>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

struct Job {
    query: StreamQuery,
    conn: Arc<Conn>,
    cancel: Arc<AtomicBool>,
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Handle to a running streaming server. Dropping it (or calling
/// [`StreamServer::shutdown`]) stops accepting, cancels live streams, and
/// joins all threads.
pub struct StreamServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accounting: Arc<QueueAccounting>,
    accept_thread: Option<JoinHandle<Vec<ConnThreads>>>,
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
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accounting = Arc::new(QueueAccounting::new());
        let mut server = StreamServer {
            addr,
            stop: Arc::clone(&stop),
            accounting: Arc::clone(&accounting),
            accept_thread: None,
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
        let accept_thread = thread::Builder::new()
            .name("pxn2-accept".to_owned())
            .spawn(move || accept_loop(listener, config, stop, accounting, job_tx))?;
        server.accept_thread = Some(accept_thread);
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
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(accept_thread) = self.accept_thread.take() {
            // The accept loop blocks in accept(); poke it awake with a
            // throwaway connection so it sees the flag.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
            let conns = accept_thread.join().unwrap_or_default();
            // closing a connection wakes its reader (socket shut down), its
            // writer and its blocked producers (queue closed)
            for served in &conns {
                served.conn.close();
            }
            for served in conns {
                let _ = served.reader.join();
                let _ = served.writer.join();
            }
        }
        // every job sender is gone with the threads above: workers drain
        // what is queued (against closed sinks) and exit
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
    while let Ok(Job { query, conn, cancel }) = rx.recv() {
        let sink = StreamSink {
            stream: query.stream,
            chunk_items: query.chunk_size(),
            conn,
            cancelled: cancel,
            seq: AtomicUsize::new(0),
            items_sent: AtomicU64::new(0),
            refused: OnceLock::new(),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.run(&query, &sink)
        }));
        let cancelled = sink.is_closed();
        let failure = |retryable: bool, message: String| {
            error_frame(&StreamError::failure(query.stream, retryable, message))
        };
        let last_frame = match (sink.refused.get(), outcome) {
            (Some(err), _) => failure(false, format!("chunk not sent: {err}")),
            (None, Ok(Ok(stats))) => {
                let end = StreamEnd {
                    stream: query.stream,
                    chunks: sink.seq.load(Ordering::Relaxed) as u32,
                    items: sink.items_sent.load(Ordering::Relaxed),
                    stats,
                };
                frame_of(FrameKind::StreamEnd, |w| end.put(w)).expect("fixed-size payload")
            }
            (None, Ok(Err(fail))) => error_frame(&StreamError {
                stream: query.stream,
                retryable: fail.retryable,
                code: fail.code,
                retry_after_ms: fail.retry_after_ms,
                message: fail.message,
            }),
            (None, Err(_)) => {
                metrics::global().counter("net.stream.handler_panics").inc();
                failure(false, "internal error: stream handler panicked".to_owned())
            }
        };
        let conn = sink.conn;
        if !cancelled {
            let _ = conn.queue.push(last_frame);
        }
        conn.live.lock().unwrap_or_else(|e| e.into_inner()).remove(&query.stream);
        conn.queue.stream_done();
    }
}

/// A `StreamError` frame. Its message is an error's `Display` — kilobytes
/// at most, far under the frame cap.
fn error_frame(err: &StreamError) -> Vec<u8> {
    frame_of(FrameKind::StreamError, |w| err.put(w)).expect("an error message fits a frame")
}

/// Accept until told to stop, giving every connection its reader and its
/// writer. Returns the connections still open, for `shutdown` to close
/// and join.
fn accept_loop(
    listener: TcpListener,
    config: StreamServerConfig,
    stop: Arc<AtomicBool>,
    accounting: Arc<QueueAccounting>,
    jobs: crossbeam::channel::Sender<Job>,
) -> Vec<ConnThreads> {
    let config = Arc::new(config);
    let mut conns: Vec<ConnThreads> = Vec::new();
    loop {
        match listener.accept() {
            Ok((sock, _)) => {
                if stop.load(Ordering::Acquire) {
                    // the shutdown poke (or a late client) — refuse
                    let _ = sock.shutdown(Shutdown::Both);
                    break;
                }
                conns.retain(|c| !(c.reader.is_finished() && c.writer.is_finished()));
                // a connection whose threads cannot be had is dropped
                if let Ok(served) = serve(sock, &config, &accounting, &jobs) {
                    conns.push(served);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    conns
}

/// Start the reader and the writer of one accepted connection.
fn serve(
    sock: TcpStream,
    config: &Arc<StreamServerConfig>,
    accounting: &Arc<QueueAccounting>,
    jobs: &crossbeam::channel::Sender<Job>,
) -> io::Result<ConnThreads> {
    let _ = sock.set_nodelay(true);
    let (read_half, write_half) = (sock.try_clone()?, sock.try_clone()?);
    let conn = Arc::new(Conn {
        sock,
        queue: SendQueue::new(config.send_queue_bytes, Arc::clone(accounting)),
        live: Mutex::new(HashMap::new()),
    });
    accounting.conns_gauge.inc();
    let spawned = (|| {
        let writer = {
            let conn = Arc::clone(&conn);
            thread::Builder::new()
                .name("pxn2-writer".to_owned())
                .spawn(move || write_loop(&conn, write_half))?
        };
        let reader = {
            let (conn, config, jobs) = (Arc::clone(&conn), Arc::clone(config), jobs.clone());
            thread::Builder::new()
                .name("pxn2-reader".to_owned())
                .spawn(move || read_loop(&conn, read_half, &config, &jobs))?
        };
        Ok((reader, writer))
    })();
    match spawned {
        Ok((reader, writer)) => Ok(ConnThreads { conn, reader, writer }),
        Err(e) => {
            // a writer already running ends on the closed queue
            conn.close();
            Err(e)
        }
    }
}

/// The connection's writer: sleep until a frame is queued, put it on the
/// socket, repeat. A peer that does not read blocks this thread only.
fn write_loop(conn: &Conn, mut sock: TcpStream) {
    while let Some(frame) = conn.queue.next(&conn.live) {
        if sock.write_all(&frame).is_err() {
            break;
        }
        conn.queue.written();
    }
    conn.close();
}

/// The connection's reader: block for the next frame, dispatch it.
fn read_loop(
    conn: &Arc<Conn>,
    sock: TcpStream,
    config: &StreamServerConfig,
    jobs: &crossbeam::channel::Sender<Job>,
) {
    // buffered: an `OpenStream` arrives in one `read`, header and payload
    let mut sock = BufReader::new(sock);
    loop {
        let fate = match frame::read_frame(&mut sock) {
            Ok(Some((frame, _))) => dispatch_frame(conn, config, jobs, frame),
            // the peer is gone (or `close` shut the socket down under us)
            Ok(None) | Err(ProtocolError::Truncated { .. } | ProtocolError::Io(_)) => {
                Err(ConnFate::Dead)
            }
            Err(violation) => {
                poison(conn, &violation);
                Err(ConnFate::Poisoned)
            }
        };
        match fate {
            Ok(()) => {}
            Err(ConnFate::Dead) => return conn.close(),
            // the writer flushes the typed error, then drops the connection
            Err(ConnFate::Poisoned) => return conn.queue.drain(),
        }
    }
}

enum ConnFate {
    /// Connection closed or failed: tear it down now.
    Dead,
    /// Protocol violation: a typed error frame was queued; flush it,
    /// read nothing more, then tear down.
    Poisoned,
}

/// Queue a best-effort typed error for a protocol violation; the
/// connection is dropped after it flushes. Stream id 0 marks a
/// connection-level fault (no individual stream is at fault).
fn poison(conn: &Conn, err: &ProtocolError) {
    metrics::global().counter("net.stream.protocol_errors").inc();
    let e = StreamError::failure(0, false, format!("protocol violation: {err}"));
    let _ = conn.queue.push(error_frame(&e));
}

fn dispatch_frame(
    conn: &Arc<Conn>,
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
                let _ = conn.queue.push(error_frame(&e));
                return Ok(());
            }
            let cancel = Arc::new(AtomicBool::new(false));
            live.insert(query.stream, Arc::clone(&cancel));
            drop(live);
            metrics::global().counter("net.stream.opens").inc();
            let job = Job { query, conn: Arc::clone(conn), cancel };
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
    use crate::stream::ItemChunk;
    use partix_query::{Item, Sequence};
    use std::io::Read;

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

    /// The query text is an item count; items go out in batches of 256, so
    /// a big stream is many frames and never one big allocation. "hold"
    /// produces nothing until its sink closes.
    fn count_handler() -> Arc<dyn StreamHandler> {
        Arc::new(
            |q: &StreamQuery, sink: &dyn ChunkSink| -> Result<StreamStats, StreamFailure> {
                let closed = |_| StreamFailure::failure(true, "sink closed");
                if q.text == "hold" {
                    while !sink.is_closed() {
                        thread::sleep(Duration::from_millis(1));
                    }
                    return Err(closed(SinkClosed));
                }
                let n: usize = q.text.parse().unwrap_or(0);
                let batch: Vec<Item> = (0..256).map(|i| Item::Num(i as f64)).collect();
                let mut sent = 0;
                while sent < n {
                    let take = batch.len().min(n - sent);
                    sink.emit(&batch[..take]).map_err(closed)?;
                    sent += take;
                }
                Ok(StreamStats::default())
            },
        )
    }

    /// `shutdown()` on its own thread; panics if it has not returned within
    /// `secs` — the bound is generous, a server that waits for a peer, a
    /// poll tick or a timeout blows through it.
    fn shutdown_within(mut server: StreamServer, secs: u64) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let stopper = thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(secs))
            .expect("shutdown() did not return in time");
        stopper.join().unwrap();
    }

    /// Open a stream far larger than queue and socket buffers on a raw
    /// socket that never reads, and wait until its producer is blocked at
    /// the queue bound.
    fn stall_a_reader(server: &StreamServer, queue_cap: usize) -> TcpStream {
        let mut stalled = TcpStream::connect(server.addr()).unwrap();
        open(&mut stalled, 1, "2000000");
        let begun = std::time::Instant::now();
        while server.queued_bytes() < queue_cap {
            assert!(begun.elapsed() < Duration::from_secs(10), "the queue never filled");
            thread::sleep(Duration::from_millis(1));
        }
        stalled
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

    #[test]
    fn shutdown_returns_with_an_idle_connection_open() {
        let server =
            StreamServer::bind("127.0.0.1:0", echo_handler(), StreamServerConfig::default())
                .unwrap();
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        // served once, so the connection's threads are known to be up
        open(&mut idle, 1, "3");
        assert_eq!(read_outcome(&mut idle, 1).unwrap().0.len(), 3);
        shutdown_within(server, 10);
        assert!(matches!(frame::read_frame(&mut idle), Ok(None) | Err(_)));
    }

    #[test]
    fn shutdown_returns_with_a_producer_blocked_on_a_reader_that_stopped() {
        const QUEUE_CAP: usize = 32 * 1024;
        let config = StreamServerConfig { send_queue_bytes: QUEUE_CAP, ..Default::default() };
        let server = StreamServer::bind("127.0.0.1:0", count_handler(), config).unwrap();
        let mut stalled = stall_a_reader(&server, QUEUE_CAP);
        shutdown_within(server, 10);
        // what did arrive is whole chunks, then the stream is cut short:
        // never a fabricated end-of-stream
        loop {
            match frame::read_frame(&mut stalled) {
                Ok(Some((frame, _))) => assert_eq!(frame.kind, FrameKind::ItemChunk),
                Ok(None) | Err(ProtocolError::Truncated { .. } | ProtocolError::Io(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn shutdown_returns_with_a_half_written_header_on_the_socket() {
        let server =
            StreamServer::bind("127.0.0.1:0", echo_handler(), StreamServerConfig::default())
                .unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 1, "3");
        assert_eq!(read_outcome(&mut sock, 1).unwrap().0.len(), 3);
        let q = StreamQuery {
            stream: 2,
            text: "3".into(),
            allow_partial: false,
            buffered: false,
            chunk_items: 10,
            tenant: String::new(),
        };
        let bytes = frame::encode_frame(FrameKind::OpenStream, &q.encode());
        sock.write_all(&bytes[..5]).unwrap();
        shutdown_within(server, 10);
    }

    #[test]
    fn a_connection_stalled_at_its_queue_bound_does_not_slow_another() {
        const QUEUE_CAP: usize = 32 * 1024;
        let config = StreamServerConfig { send_queue_bytes: QUEUE_CAP, ..Default::default() };
        let server = StreamServer::bind("127.0.0.1:0", count_handler(), config).unwrap();
        let _stalled = stall_a_reader(&server, QUEUE_CAP);
        // its writer is blocked in `write`, its producer on the queue; the
        // other connection has a reader, a writer and a queue of its own
        let mut fast = TcpStream::connect(server.addr()).unwrap();
        for stream in 1..=200 {
            open(&mut fast, stream, "25");
            let (items, outcome) = read_outcome(&mut fast, stream).unwrap();
            assert_eq!(items.len(), 25);
            assert!(matches!(outcome, crate::stream::StreamOutcome::Complete(_)));
        }
        // one batch frame of slack per connection over the bound
        let peak = server.peak_queue_bytes();
        assert!(peak <= QUEUE_CAP + 2 * 16 * 1024, "peak queue depth {peak} B");
        shutdown_within(server, 10);
    }

    #[test]
    fn a_cancelled_stream_frees_its_slot() {
        let config = StreamServerConfig { max_streams_per_conn: 1, ..Default::default() };
        let mut server = StreamServer::bind("127.0.0.1:0", count_handler(), config).unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 1, "hold");
        // frames are dispatched in order, so stream 1 holds the only slot
        open(&mut sock, 2, "5");
        match read_outcome(&mut sock, 2).unwrap().1 {
            crate::stream::StreamOutcome::Failed(e) => {
                assert!(e.retryable && e.message.contains("stream limit"), "{}", e.message)
            }
            other => panic!("{other:?}"),
        }
        write_frame(&mut sock, FrameKind::CancelStream, &CancelStream { stream: 1 }.encode())
            .unwrap();
        // the slot is free once the worker has seen the cancel: retry, as a
        // client told "retryable" would
        let begun = std::time::Instant::now();
        let mut stream = 3;
        let items = loop {
            open(&mut sock, stream, "5");
            match read_outcome(&mut sock, stream).unwrap() {
                (items, crate::stream::StreamOutcome::Complete(_)) => break items,
                (_, crate::stream::StreamOutcome::Failed(e)) => assert!(e.retryable),
            }
            assert!(begun.elapsed() < Duration::from_secs(10), "the slot was never freed");
            stream += 1;
        };
        assert_eq!(items.len(), 5);
        server.shutdown();
    }

    #[test]
    fn oversized_chunk_ends_the_stream_with_a_typed_error() {
        let handler: Arc<dyn StreamHandler> = Arc::new(
            |_q: &StreamQuery, sink: &dyn ChunkSink| -> Result<StreamStats, StreamFailure> {
                sink.emit(&[Item::Num(1.0)]).map_err(|_| StreamFailure::failure(true, "closed"))?;
                let big = Item::Str("x".repeat(frame::MAX_PAYLOAD + 1));
                sink.emit(&[big]).map_err(|_| StreamFailure::failure(true, "closed"))?;
                Ok(StreamStats::default())
            },
        );
        let mut server =
            StreamServer::bind("127.0.0.1:0", handler, StreamServerConfig::default()).unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 1, "big");
        let (items, outcome) = read_outcome(&mut sock, 1).unwrap();
        assert_eq!(items.len(), 1, "the chunk that fit arrived");
        match outcome {
            crate::stream::StreamOutcome::Failed(e) => {
                assert!(!e.retryable, "the same chunk would be as large on a retry");
                assert!(e.message.contains("exceeds the 67108864 B cap"), "{}", e.message);
            }
            other => panic!("{other:?}"),
        }
        // the connection is intact: nothing oversized went out
        open(&mut sock, 2, "small");
        assert!(read_outcome(&mut sock, 2).is_ok());
        server.shutdown();
    }
}
