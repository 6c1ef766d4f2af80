//! The one server: a listener, and one blocking thread per connection.
//!
//! An *accept thread* blocks in `accept` and gives every connection a
//! thread of its own. That thread reads a frame, runs the [`Handler`] on
//! itself, and the handler's answer goes straight to the socket: a
//! stream's [`ChunkSink`] writes each `ItemChunk` frame as it is emitted,
//! then one terminal frame (`StreamEnd`, `Reply` or `StreamError`) ends
//! the answer and the thread reads the next frame. There is no queue, no
//! worker pool and no hand-off: between "bytes arrived" and "a thread
//! acts on them" is one kernel wake-up.
//!
//! What follows from one thread per connection:
//! * A connection carries one answer at a time. A second opening frame
//!   sent before the first is answered waits in the socket buffer and is
//!   served after it, in order; concurrency is connections.
//! * Backpressure is the socket's. A client that stops reading blocks its
//!   own connection's thread in `write` and nothing else; the server holds
//!   one frame per connection.
//! * A client abandons a stream by closing its connection: the next chunk
//!   fails to write, the sink reports [`SinkClosed`], the handler returns
//!   and the thread exits. A `CancelStream` frame (a client of an older
//!   build sends one after a timeout) is read and ignored — by the time it
//!   is read, its stream has ended.
//!
//! Failure semantics on the way out:
//! * a handler's `Err` is sent as a `StreamError` frame carrying its
//!   [`WireError`] (retryability, code and retry hint intact);
//! * a panic inside a handler is caught and answered as a non-retryable
//!   error (one bad query must not take the endpoint down);
//! * an answer frame over the frame cap is not sent: the stream or call
//!   ends with a typed non-retryable error and the connection lives;
//! * a protocol violation — bad magic (a `PXN1` peer's included), unknown
//!   kind, checksum mismatch, an undecodable opening — gets a best-effort
//!   `StreamError` under stream id 0, then the connection is dropped (the
//!   byte stream can no longer be trusted).
//!
//! Shutdown, one rule for every handler: [`Server::shutdown`] stops the
//! listener (the blocked `accept` is woken by a throwaway connection),
//! shuts every open connection's socket down (`shutdown(2)` on a kept
//! handle wakes a thread blocked in `read` or `write`), and joins every
//! thread. An answer in flight is *truncated*, not finished: a peer that
//! has stopped reading cannot hold `shutdown` up, and the client sees a
//! transport error — never a fabricated end-of-stream.

use crate::codec::frame_of;
use crate::frame::{read_frame, Frame, FrameKind, ProtocolError};
use crate::message::{Call, Reply, Request, Response, WireError};
use crate::stream::{put_chunk, StreamEnd, StreamError, StreamQuery, StreamStats, MAX_CHUNK_ITEMS};
use partix_engine::metrics::{self, Counter, Gauge};
use partix_query::Item;
use std::cell::{Cell, RefCell};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long `shutdown` waits for its own wake-up connection to the
/// listener.
const WAKE_TIMEOUT: Duration = Duration::from_millis(250);

/// The stream's connection is gone (the client hung up or the server is
/// shutting down), or a chunk could not be framed. Handlers should stop
/// producing and return promptly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkClosed;

/// Where a handler emits result items. Each call ships one or more
/// `ItemChunk` frames (slices larger than the stream's chunk size are
/// split automatically, so a handler never violates the protocol cap).
pub trait ChunkSink {
    /// Emit items in final composition order. Blocks while the client is
    /// not reading.
    fn emit(&self, items: &[Item]) -> Result<(), SinkClosed>;
}

/// What an endpoint does with the two opening frames. A handler runs on
/// the thread of the connection that asked; returning `Err` ends the
/// stream or call with a typed `StreamError`, and so does panicking.
pub trait Handler: Send + Sync + 'static {
    /// Answer an `OpenStream`: emit the items through `sink`; `Ok(stats)`
    /// ends the stream with a `StreamEnd`.
    fn stream(&self, _: &StreamQuery, _: &dyn ChunkSink) -> Result<StreamStats, WireError> {
        Err(WireError::failure(false, "this endpoint serves no streams"))
    }

    /// Answer a `Call` with the one `Reply` it gets.
    fn call(&self, _request: Request<'static>) -> Result<Response, WireError> {
        Err(WireError::failure(false, "this endpoint serves no calls"))
    }
}

struct Shared {
    handler: Arc<dyn Handler>,
    stop: AtomicBool,
    conns: Arc<Gauge>,
    opens: Arc<Counter>,
    chunks: Arc<Counter>,
}

/// An accepted connection: the thread serving it, and a handle to its
/// socket kept to shut it down under that thread.
struct Served {
    sock: TcpStream,
    thread: JoinHandle<()>,
}

/// Handle to a running server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<Vec<Served>>>,
}

impl Server {
    /// Bind `addr` (port 0 lets the OS pick — see [`Server::addr`]) and
    /// answer with `handler`.
    pub fn bind(addr: impl ToSocketAddrs, handler: Arc<dyn Handler>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = metrics::global();
        let shared = Arc::new(Shared {
            handler,
            stop: AtomicBool::new(false),
            conns: registry.gauge("net.server.conns"),
            opens: registry.counter("net.stream.opens"),
            chunks: registry.counter("net.stream.chunks"),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name(format!("partix-net-accept-{}", addr.port()))
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server { addr, shared, accept_thread: Some(accept_thread) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, cut every connection (an answer in flight is
    /// truncated — see the module docs) and join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else { return };
        self.shared.stop.store(true, Ordering::SeqCst);
        // the accept loop blocks in accept(): a throwaway connection makes
        // it look at the flag
        let _ = TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
        let conns = accept_thread.join().unwrap_or_default();
        for served in &conns {
            let _ = served.sock.shutdown(Shutdown::Both);
        }
        for served in conns {
            let _ = served.thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept until told to stop, giving every connection its thread. Returns
/// the connections still open, for `shutdown` to cut and join.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<Served> {
    let mut conns: Vec<Served> = Vec::new();
    loop {
        match listener.accept() {
            Ok((sock, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    // the shutdown wake-up (or a late client): dropped
                    break;
                }
                conns.retain(|served| !served.thread.is_finished());
                // a connection whose thread cannot be had is dropped
                if let Ok(served) = serve(sock, shared) {
                    conns.push(served);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    conns
}

fn serve(sock: TcpStream, shared: &Arc<Shared>) -> io::Result<Served> {
    let _ = sock.set_nodelay(true);
    let handle = sock.try_clone()?;
    let shared = Arc::clone(shared);
    let thread = thread::Builder::new().name("partix-net-conn".to_owned()).spawn(move || {
        shared.conns.inc();
        serve_connection(&sock, &shared);
        shared.conns.dec();
    })?;
    Ok(Served { sock: handle, thread })
}

/// The one place a server puts a frame on a socket.
fn send(mut sock: &TcpStream, frame: &[u8]) -> io::Result<()> {
    sock.write_all(frame)
}

/// End an answer: the terminal frame, or the typed error in its place.
fn conclude(sock: &TcpStream, stream: u64, terminal: Result<Vec<u8>, WireError>) -> io::Result<()> {
    let frame = terminal.unwrap_or_else(|error| {
        // an error's message is a `Display` — kilobytes at most
        frame_of(FrameKind::StreamError, |w| StreamError { stream, error }.put(w))
            .expect("an error message fits a frame")
    });
    send(sock, &frame)
}

/// Read a frame, answer it on this thread, repeat — until the peer hangs
/// up, a write fails, `shutdown` cuts the socket, or the peer breaks the
/// protocol.
fn serve_connection(sock: &TcpStream, shared: &Shared) {
    // buffered: an opening frame arrives in one `read`, header and payload
    let mut reader = BufReader::new(sock);
    loop {
        let answered = match read_frame(&mut reader) {
            Ok(Some((frame, _))) => answer(sock, shared, frame),
            // the peer is gone, or `shutdown` cut the socket under us
            Ok(None) | Err(ProtocolError::Truncated { .. } | ProtocolError::Io(_)) => return,
            Err(violation) => Err(violation),
        };
        match answered {
            Ok(()) => {}
            Err(ProtocolError::Io(_)) => return,
            Err(violation) => {
                // best effort: say what was wrong, then drop the connection
                // — after a framing error the byte stream can't be trusted
                metrics::global().counter("net.stream.protocol_errors").inc();
                let error = WireError::failure(false, format!("protocol violation: {violation}"));
                let _ = conclude(sock, 0, Err(error));
                let _ = sock.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

/// Answer one frame. `Err(Io)`: the connection is gone; any other error
/// is the peer's protocol violation.
fn answer(sock: &TcpStream, shared: &Shared, frame: Frame) -> Result<(), ProtocolError> {
    match frame.kind {
        FrameKind::OpenStream => {
            let query = StreamQuery::decode(&frame.payload)?;
            shared.opens.inc();
            let sink = StreamSink {
                sock,
                chunks: &shared.chunks,
                stream: query.stream,
                step: query.chunk_size().clamp(1, MAX_CHUNK_ITEMS),
                seq: Cell::new(0),
                items: Cell::new(0),
                refused: RefCell::new(None),
                closed: Cell::new(false),
            };
            let outcome = firewall(|| shared.handler.stream(&query, &sink));
            if sink.closed.get() {
                return Err(ProtocolError::Io("connection lost mid-stream".to_owned()));
            }
            let terminal = match (sink.refused.take(), outcome) {
                (Some(err), _) => Err(WireError::failure(false, format!("chunk not sent: {err}"))),
                (None, Ok(stats)) => {
                    let end = StreamEnd {
                        stream: query.stream,
                        chunks: sink.seq.get(),
                        items: sink.items.get(),
                        stats,
                    };
                    Ok(frame_of(FrameKind::StreamEnd, |w| end.put(w)).expect("fixed-size payload"))
                }
                (None, Err(error)) => Err(error),
            };
            Ok(conclude(sock, query.stream, terminal)?)
        }
        FrameKind::Call => {
            let Call { stream, request } = Call::decode(&frame.payload)?;
            // an answer over the frame cap is the server's to refuse: sent,
            // the caller could only drop the connection
            let terminal = firewall(|| shared.handler.call(request)).and_then(|response| {
                frame_of(FrameKind::Reply, |w| Reply { stream, response }.put(w))
                    .map_err(|err| WireError::failure(false, format!("answer not sent: {err}")))
            });
            Ok(conclude(sock, stream, terminal)?)
        }
        FrameKind::CancelStream => Ok(()),
        other => Err(ProtocolError::Stream(format!("unexpected {other:?} frame at a server"))),
    }
}

/// Panic firewall: a pathological query must answer as an error, not kill
/// the connection's thread (and with it any trust in the endpoint's
/// liveness).
fn firewall<T>(run: impl FnOnce() -> Result<T, WireError>) -> Result<T, WireError> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
        metrics::global().counter("net.stream.handler_panics").inc();
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("opaque panic payload");
        Err(WireError::failure(false, format!("internal error: handler panicked: {message}")))
    })
}

/// The sink of one stream: chunks go from the handler's slice into a frame
/// and onto the socket, on the handler's thread.
struct StreamSink<'a> {
    sock: &'a TcpStream,
    chunks: &'a Counter,
    stream: u64,
    step: usize,
    seq: Cell<u32>,
    items: Cell<u64>,
    /// Why a chunk could not be framed (it outgrew the frame cap, or the
    /// sequence numbers ran out): the stream ends with this as a typed
    /// error instead of a frame no client would accept.
    refused: RefCell<Option<ProtocolError>>,
    /// A write failed: the connection is gone.
    closed: Cell<bool>,
}

impl ChunkSink for StreamSink<'_> {
    fn emit(&self, items: &[Item]) -> Result<(), SinkClosed> {
        if self.closed.get() || self.refused.borrow().is_some() {
            return Err(SinkClosed);
        }
        for slice in items.chunks(self.step) {
            let seq = self.seq.get();
            let framed = if seq == u32::MAX {
                Err(ProtocolError::Stream("chunk sequence overflow".to_owned()))
            } else {
                frame_of(FrameKind::ItemChunk, |w| put_chunk(w, self.stream, seq, slice))
            };
            let frame = framed.map_err(|err| {
                *self.refused.borrow_mut() = Some(err);
                SinkClosed
            })?;
            send(self.sock, &frame).map_err(|_| {
                self.closed.set(true);
                SinkClosed
            })?;
            self.seq.set(seq + 1);
            self.items.set(self.items.get() + slice.len() as u64);
            self.chunks.inc();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{self, encode_frame};
    use crate::stream::{ItemChunk, StreamAssembler, StreamOutcome};
    use partix_query::Sequence;
    use std::io::Read;
    use std::sync::mpsc;

    /// A stream-only endpoint around a closure.
    struct StreamFn<F>(F);

    impl<F> Handler for StreamFn<F>
    where
        F: Fn(&StreamQuery, &dyn ChunkSink) -> Result<StreamStats, WireError>
            + Send
            + Sync
            + 'static,
    {
        fn stream(&self, q: &StreamQuery, sink: &dyn ChunkSink) -> Result<StreamStats, WireError> {
            (self.0)(q, sink)
        }
    }

    fn bind(
        handler: impl Fn(&StreamQuery, &dyn ChunkSink) -> Result<StreamStats, WireError>
            + Send
            + Sync
            + 'static,
    ) -> Server {
        Server::bind("127.0.0.1:0", Arc::new(StreamFn(handler))).unwrap()
    }

    fn closed(_: SinkClosed) -> WireError {
        WireError::failure(true, "sink closed")
    }

    /// The query text is an item count ("boom" fails, "panic" panics).
    fn echo(q: &StreamQuery, sink: &dyn ChunkSink) -> Result<StreamStats, WireError> {
        if q.text == "boom" {
            return Err(WireError::failure(false, "boom"));
        }
        if q.text == "panic" {
            panic!("handler panic");
        }
        let n: usize = q.text.parse().unwrap_or(0);
        let items: Vec<Item> = (0..n).map(|i| Item::Num(i as f64)).collect();
        sink.emit(&items).map_err(closed)?;
        Ok(StreamStats { sites: 1, ..StreamStats::default() })
    }

    /// The query text is an item count; items go out in batches of 256, so
    /// a big stream is many frames and never one big allocation. The first
    /// batch of every stream is announced on `started`; a sink that closed
    /// on `dropped`.
    fn count_handler(
        started: mpsc::Sender<()>,
        dropped: mpsc::Sender<()>,
    ) -> impl Fn(&StreamQuery, &dyn ChunkSink) -> Result<StreamStats, WireError> + Send + Sync {
        let (started, dropped) = (std::sync::Mutex::new(started), std::sync::Mutex::new(dropped));
        move |q, sink| {
            let n: usize = q.text.parse().unwrap_or(0);
            let batch: Vec<Item> = (0..256).map(|i| Item::Num(i as f64)).collect();
            let mut sent = 0;
            while sent < n {
                let take = batch.len().min(n - sent);
                if sink.emit(&batch[..take]).is_err() {
                    let _ = dropped.lock().unwrap().send(());
                    return Err(closed(SinkClosed));
                }
                if sent == 0 {
                    let _ = started.lock().unwrap().send(());
                }
                sent += take;
            }
            Ok(StreamStats::default())
        }
    }

    /// `shutdown()` on its own thread; panics if it has not returned within
    /// `secs` — the bound is generous, a server that waits for a peer, a
    /// poll tick or a timeout blows through it.
    fn shutdown_within(mut server: Server, secs: u64) {
        let (done_tx, done_rx) = mpsc::channel();
        let stopper = thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(secs))
            .expect("shutdown() did not return in time");
        stopper.join().unwrap();
    }

    fn open_frame(stream: u64, text: &str) -> Vec<u8> {
        let q = StreamQuery {
            stream,
            text: text.into(),
            allow_partial: false,
            buffered: false,
            chunk_items: 10,
            tenant: String::new(),
        };
        encode_frame(FrameKind::OpenStream, &q.encode())
    }

    fn open(sock: &mut TcpStream, stream: u64, text: &str) {
        sock.write_all(&open_frame(stream, text)).unwrap();
    }

    fn read_outcome(
        sock: &mut TcpStream,
        stream: u64,
    ) -> Result<(Sequence, StreamOutcome), ProtocolError> {
        let mut asm = StreamAssembler::new(stream);
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
                    asm.finish(StreamEnd::decode(&frame.payload)?)?;
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

    /// Open a stream far larger than the socket buffers on a raw socket
    /// that never reads, and wait until its producer is running: from here
    /// on it can only end blocked in `write`.
    fn stall_a_reader(server: &Server, started: &mpsc::Receiver<()>) -> TcpStream {
        let mut stalled = TcpStream::connect(server.addr()).unwrap();
        open(&mut stalled, 1, "2000000");
        started.recv_timeout(Duration::from_secs(10)).expect("the stalled stream never began");
        stalled
    }

    #[test]
    fn streams_chunks_and_ends() {
        let mut server = bind(echo);
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 42, "25");
        let (items, outcome) = read_outcome(&mut sock, 42).unwrap();
        assert_eq!(items.len(), 25);
        match outcome {
            StreamOutcome::Complete(end) => {
                assert_eq!(end.chunks, 3); // 25 items at 10/chunk
                assert_eq!(end.items, 25);
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn typed_error_and_panic_firewall() {
        let mut server = bind(echo);
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 1, "boom");
        let (_, outcome) = read_outcome(&mut sock, 1).unwrap();
        assert!(matches!(
            outcome,
            StreamOutcome::Failed(StreamError { error: WireError { retryable: false, .. }, .. })
        ));
        open(&mut sock, 2, "panic");
        let (_, outcome) = read_outcome(&mut sock, 2).unwrap();
        match outcome {
            StreamOutcome::Failed(e) => {
                assert!(!e.error.retryable);
                assert!(e.error.message.contains("panicked"), "{}", e.error.message)
            }
            other => panic!("{other:?}"),
        }
        // the thread that caught the panic serves on
        open(&mut sock, 3, "4");
        assert_eq!(read_outcome(&mut sock, 3).unwrap().0.len(), 4);
        server.shutdown();
    }

    #[test]
    fn hostile_bytes_get_typed_error_then_close() {
        let mut server = bind(echo);
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.write_all(b"QQQQ-not-a-frame-at-all-").unwrap();
        // the server answers with a typed stream-0 error frame, then closes
        let (frame, _) = frame::read_frame(&mut sock).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::StreamError);
        let err = StreamError::decode(&frame.payload).unwrap();
        assert_eq!(err.stream, 0);
        assert!(err.error.message.contains("protocol violation"), "{}", err.error.message);
        // ... and the connection reaches EOF
        let mut rest = Vec::new();
        let _ = sock.read_to_end(&mut rest);
        assert!(rest.is_empty());
        server.shutdown();
    }

    #[test]
    fn answer_kinds_sent_to_a_server_are_a_violation_and_an_unserved_opening_is_not() {
        let mut server = bind(echo);
        // a stream-only endpoint refuses a call by its type, and serves on
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        let ping = Call { stream: 5, request: Request::Ping }.encode().unwrap();
        sock.write_all(&encode_frame(FrameKind::Call, &ping)).unwrap();
        let (frame, _) = frame::read_frame(&mut sock).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::StreamError);
        let err = StreamError::decode(&frame.payload).unwrap();
        assert_eq!((err.stream, err.error.retryable), (5, false));
        assert!(err.error.message.contains("serves no calls"), "{}", err.error.message);
        open(&mut sock, 6, "2");
        assert_eq!(read_outcome(&mut sock, 6).unwrap().0.len(), 2);
        // a frame only a server sends costs the connection
        let end = StreamEnd { stream: 7, chunks: 0, items: 0, stats: StreamStats::default() };
        sock.write_all(&encode_frame(FrameKind::StreamEnd, &end.encode())).unwrap();
        let (frame, _) = frame::read_frame(&mut sock).unwrap().unwrap();
        let err = StreamError::decode(&frame.payload).unwrap();
        assert_eq!(err.stream, 0);
        assert!(err.error.message.contains("unexpected StreamEnd"), "{}", err.error.message);
        assert!(matches!(frame::read_frame(&mut sock), Ok(None) | Err(_)));
        server.shutdown();
    }

    #[test]
    fn a_second_opening_on_a_busy_connection_is_served_after_the_first() {
        let mut server = bind(echo);
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        // both openings and a late cancel of the first in one write: the
        // answers come back whole and in order, the cancel is ignored
        let mut burst = open_frame(10, "15");
        burst.extend(open_frame(11, "5"));
        burst.extend(encode_frame(FrameKind::CancelStream, &10u64.to_le_bytes()));
        burst.extend(open_frame(12, "1"));
        sock.write_all(&burst).unwrap();
        for (stream, items) in [(10, 15), (11, 5), (12, 1)] {
            let (got, outcome) = read_outcome(&mut sock, stream).unwrap();
            assert_eq!(got.len(), items);
            assert!(matches!(outcome, StreamOutcome::Complete(_)));
        }
        server.shutdown();
    }

    #[test]
    fn kill_mid_stream_truncates_with_typed_error() {
        let mut server = bind(|_q: &StreamQuery, sink: &dyn ChunkSink| {
            let items: Vec<Item> = (0..10).map(|i| Item::Num(i as f64)).collect();
            for _ in 0..1000 {
                sink.emit(&items).map_err(closed)?;
                thread::sleep(Duration::from_millis(2));
            }
            Ok(StreamStats::default())
        });
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 1, "big");
        // read one frame, then kill the server mid-stream
        let (first, _) = frame::read_frame(&mut sock).unwrap().unwrap();
        assert_eq!(first.kind, FrameKind::ItemChunk);
        server.shutdown();
        // the client must see a typed failure, never a clean StreamEnd
        let mut asm = StreamAssembler::new(1);
        asm.accept_chunk(ItemChunk::decode(&first.payload).unwrap()).unwrap();
        let err = loop {
            match frame::read_frame(&mut sock) {
                Ok(Some((frame, _))) => match frame.kind {
                    FrameKind::ItemChunk => {
                        asm.accept_chunk(ItemChunk::decode(&frame.payload).unwrap()).unwrap();
                    }
                    FrameKind::StreamEnd => panic!("killed server completed the stream"),
                    k => panic!("unexpected {k:?}"),
                },
                Ok(None) => break ProtocolError::Truncated { context: "stream" },
                Err(e) => break e,
            }
        };
        assert!(matches!(err, ProtocolError::Truncated { .. } | ProtocolError::Io(_)), "{err}");
        assert!(asm.into_result().is_err(), "a cut stream never reads as a whole one");
    }

    #[test]
    fn shutdown_returns_with_an_idle_connection_open() {
        let server = bind(echo);
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        // served once, so the connection's thread is known to be up
        open(&mut idle, 1, "3");
        assert_eq!(read_outcome(&mut idle, 1).unwrap().0.len(), 3);
        shutdown_within(server, 10);
        assert!(matches!(frame::read_frame(&mut idle), Ok(None) | Err(_)));
    }

    #[test]
    fn shutdown_returns_with_a_producer_blocked_on_a_reader_that_stopped() {
        let (started_tx, started) = mpsc::channel();
        let server = bind(count_handler(started_tx, mpsc::channel().0));
        let mut stalled = stall_a_reader(&server, &started);
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
        let server = bind(echo);
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 1, "3");
        assert_eq!(read_outcome(&mut sock, 1).unwrap().0.len(), 3);
        sock.write_all(&open_frame(2, "3")[..5]).unwrap();
        shutdown_within(server, 10);
    }

    #[test]
    fn a_reader_that_stopped_stalls_only_its_own_connection() {
        let (started_tx, started) = mpsc::channel();
        let server = bind(count_handler(started_tx, mpsc::channel().0));
        let _stalled = stall_a_reader(&server, &started);
        // its thread ends up blocked in `write`; the other connection has a
        // thread of its own
        let mut fast = TcpStream::connect(server.addr()).unwrap();
        for stream in 1..=200 {
            open(&mut fast, stream, "25");
            let (items, outcome) = read_outcome(&mut fast, stream).unwrap();
            assert_eq!(items.len(), 25);
            assert!(matches!(outcome, StreamOutcome::Complete(_)));
        }
        shutdown_within(server, 10);
    }

    #[test]
    fn a_client_dropped_mid_stream_closes_the_sink_and_ends_the_thread() {
        let (started_tx, started) = mpsc::channel();
        let (dropped_tx, dropped) = mpsc::channel();
        let server = bind(count_handler(started_tx, dropped_tx));
        let stalled = stall_a_reader(&server, &started);
        drop(stalled);
        dropped
            .recv_timeout(Duration::from_secs(10))
            .expect("the abandoned stream's handler must see SinkClosed");
        // the endpoint serves on, and nothing of that connection is left
        // for `shutdown` to wait on
        let mut next = TcpStream::connect(server.addr()).unwrap();
        open(&mut next, 1, "5");
        assert_eq!(read_outcome(&mut next, 1).unwrap().0.len(), 5);
        shutdown_within(server, 10);
    }

    #[test]
    fn oversized_chunk_ends_the_stream_with_a_typed_error() {
        let mut server = bind(|_q: &StreamQuery, sink: &dyn ChunkSink| {
            sink.emit(&[Item::Num(1.0)]).map_err(closed)?;
            let big = Item::Str("x".repeat(frame::MAX_PAYLOAD + 1));
            sink.emit(&[big]).map_err(closed)?;
            Ok(StreamStats::default())
        });
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        open(&mut sock, 1, "big");
        let (items, outcome) = read_outcome(&mut sock, 1).unwrap();
        assert_eq!(items.len(), 1, "the chunk that fit arrived");
        match outcome {
            StreamOutcome::Failed(e) => {
                assert!(!e.error.retryable, "the same chunk would be as large on a retry");
                assert!(
                    e.error.message.contains("exceeds the 67108864 B cap"),
                    "{}",
                    e.error.message
                );
            }
            other => panic!("{other:?}"),
        }
        // the connection is intact: nothing oversized went out
        open(&mut sock, 2, "small");
        assert!(read_outcome(&mut sock, 2).is_ok());
        server.shutdown();
    }
}
