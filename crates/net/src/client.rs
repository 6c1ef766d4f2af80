//! The one client: blocking connections, checked out of a small idle
//! list.
//!
//! An exchange checks a connection out (or dials one), writes one opening
//! frame and reads the answer's frames until the terminal one, then checks
//! the connection back in. A connection carries one exchange at a time;
//! callers on other threads get connections of their own, and at most
//! [`MAX_IDLE`] are kept between exchanges.
//!
//! Deadlines are the socket's: a dial gives up after [`CONNECT_TIMEOUT`],
//! and every read and write after the configured
//! [`StreamClientConfig::timeout`] without progress — a silent peer costs
//! a typed transport error, never a hang.
//!
//! A connection that fails is discarded, never pooled: after a transport
//! error, a timeout or a frame the caller rejects, the position in its
//! byte stream is unknown. A pooled connection can also go stale (the
//! server restarted between exchanges); when a *reused* connection fails
//! before any frame of the answer arrived, an *idempotent* opening is sent
//! once more on a fresh dial. Openings that are not idempotent (`Store`,
//! `Write`) are never replayed — the server may already have applied them.

use crate::frame::{read_frame, Frame, FrameKind, ProtocolError};
use crate::stream::StreamError;
use parking_lot::Mutex;
use partix_engine::metrics;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a dial may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Idle connections kept for reuse; excess ones are closed on check-in.
pub(crate) const MAX_IDLE: usize = 4;

/// Client-side tuning.
#[derive(Debug, Clone)]
pub struct StreamClientConfig {
    /// Read / write deadline of every connection: an exchange that makes
    /// no progress for this long fails with a typed transport error (and
    /// counts as a transport failure for failover purposes).
    pub timeout: Duration,
    /// Requested items per chunk (0 = server default).
    pub chunk_items: u32,
}

impl Default for StreamClientConfig {
    fn default() -> StreamClientConfig {
        StreamClientConfig { timeout: Duration::from_secs(30), chunk_items: 0 }
    }
}

/// Snapshot of a client's wire accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    pub connects: u64,
    pub reconnects: u64,
    /// Connections closed on return because the idle list was full.
    pub closed: u64,
}

/// Wire bytes (header + payload) and wall time of one exchange.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Traffic {
    pub sent: u64,
    pub recv: u64,
    pub send_s: f64,
    pub recv_s: f64,
}

/// A pooled connection: reads are buffered (a header and a small payload
/// arrive in one `read`), writes go to the socket underneath.
type Conn = BufReader<TcpStream>;

/// Why an exchange on one connection failed, and whether any frame of the
/// answer had arrived by then.
struct Failed {
    err: ProtocolError,
    answered: bool,
}

/// Connections to one server.
pub(crate) struct Client {
    addr: String,
    timeout: Duration,
    idle: Mutex<Vec<Conn>>,
    next_stream: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    connects: AtomicU64,
    reconnects: AtomicU64,
    closed: AtomicU64,
}

impl Client {
    /// A client for the server at `addr` (`HOST:PORT`). Does not touch the
    /// network: connections are dialed as exchanges need them.
    pub(crate) fn new(addr: String, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            idle: Mutex::new(Vec::new()),
            next_stream: AtomicU64::new(1),
            bytes_sent: AtomicU64::new(0),
            bytes_recv: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            closed: AtomicU64::new(0),
        }
    }

    /// A stream id no other exchange of this client has used.
    pub(crate) fn next_stream(&self) -> u64 {
        self.next_stream.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    pub(crate) fn stats(&self) -> WireStats {
        WireStats {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn pooled_connections(&self) -> usize {
        self.idle.lock().len()
    }

    /// Close every pooled connection.
    pub(crate) fn drain_pool(&self) {
        let drained = std::mem::take(&mut *self.idle.lock());
        for conn in drained {
            self.discard(conn);
        }
    }

    /// Dial now and pool the connection: fails fast where the first
    /// exchange otherwise would.
    pub(crate) fn warm(&self) -> Result<(), ProtocolError> {
        self.checkin(self.dial()?);
        Ok(())
    }

    /// The one place a connection is dialled.
    fn dial(&self) -> Result<Conn, ProtocolError> {
        let unreachable =
            |e: std::io::Error| ProtocolError::Io(format!("connect {}: {e}", self.addr));
        let addr = self.addr.to_socket_addrs().map_err(unreachable)?.next().ok_or_else(|| {
            ProtocolError::Io(format!("connect {}: the name resolves to no address", self.addr))
        })?;
        let sock = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(unreachable)?;
        let _ = sock.set_nodelay(true);
        let _ = sock.set_read_timeout(Some(self.timeout));
        let _ = sock.set_write_timeout(Some(self.timeout));
        self.connects.fetch_add(1, Ordering::Relaxed);
        metrics::global().counter("net.connects").inc();
        metrics::global().gauge("net.conns.open").inc();
        Ok(BufReader::new(sock))
    }

    fn checkin(&self, conn: Conn) {
        let mut idle = self.idle.lock();
        if idle.len() >= MAX_IDLE {
            drop(idle);
            self.closed.fetch_add(1, Ordering::Relaxed);
            return self.discard(conn);
        }
        idle.push(conn);
    }

    fn discard(&self, conn: Conn) {
        drop(conn);
        metrics::global().gauge("net.conns.open").dec();
    }

    /// Send `opening` (a sealed frame) and hand the answer's frames to
    /// `on_frame` until it returns the exchange's value — which it does at
    /// the terminal frame. An error from `on_frame` fails the exchange and
    /// costs the connection. Stale-connection recovery as the module docs
    /// say: once, on a fresh dial, for an `idempotent` opening whose answer
    /// had not begun.
    pub(crate) fn exchange<T>(
        &self,
        opening: &[u8],
        idempotent: bool,
        mut on_frame: impl FnMut(Frame) -> Result<Option<T>, ProtocolError>,
    ) -> Result<(T, Traffic), ProtocolError> {
        let pooled = self.idle.lock().pop();
        let reused = pooled.is_some();
        let conn = pooled.map_or_else(|| self.dial(), Ok)?;
        let failed = match self.converse(conn, opening, &mut on_frame) {
            Ok(done) => return Ok(done),
            Err(failed) => failed,
        };
        let transport =
            matches!(failed.err, ProtocolError::Io(_) | ProtocolError::Truncated { .. });
        if !(reused && idempotent && transport && !failed.answered) {
            return Err(failed.err);
        }
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        metrics::global().counter("net.reconnects").inc();
        self.converse(self.dial()?, opening, &mut on_frame).map_err(|again| again.err)
    }

    /// One exchange on one connection, which is pooled again if it went
    /// through and discarded if it did not.
    fn converse<T>(
        &self,
        mut conn: Conn,
        opening: &[u8],
        on_frame: &mut impl FnMut(Frame) -> Result<Option<T>, ProtocolError>,
    ) -> Result<(T, Traffic), Failed> {
        let outcome = self.read_answer(&mut conn, opening, on_frame);
        match outcome {
            Ok(_) => self.checkin(conn),
            Err(_) => self.discard(conn),
        }
        outcome
    }

    fn read_answer<T>(
        &self,
        conn: &mut Conn,
        opening: &[u8],
        on_frame: &mut impl FnMut(Frame) -> Result<Option<T>, ProtocolError>,
    ) -> Result<(T, Traffic), Failed> {
        let send_begun = Instant::now();
        conn.get_mut()
            .write_all(opening)
            .map_err(|e| Failed { err: e.into(), answered: false })?;
        let send_s = send_begun.elapsed().as_secs_f64();
        // time spent waiting for and reading frames, not in `on_frame`
        let (mut recv, mut recv_s) = (0u64, 0.0);
        loop {
            let answered = recv > 0;
            let recv_begun = Instant::now();
            let frame = match read_frame(conn) {
                Ok(Some((frame, n))) => {
                    recv += n as u64;
                    recv_s += recv_begun.elapsed().as_secs_f64();
                    frame
                }
                // a dead peer is a truncated answer, never a short one
                Ok(None) => {
                    let err = ProtocolError::Truncated { context: "answer (connection closed)" };
                    return Err(Failed { err, answered });
                }
                Err(err) => return Err(Failed { err, answered }),
            };
            match connection_fault(&frame).map_or_else(Err, |()| on_frame(frame)) {
                Ok(None) => {}
                Ok(Some(value)) => {
                    let sent = opening.len() as u64;
                    self.bytes_sent.fetch_add(sent, Ordering::Relaxed);
                    self.bytes_recv.fetch_add(recv, Ordering::Relaxed);
                    return Ok((value, Traffic { sent, recv, send_s, recv_s }));
                }
                Err(err) => return Err(Failed { err, answered: true }),
            }
        }
    }
}

/// A `StreamError` under stream id 0 is the server's verdict on the
/// connection (it saw a protocol violation and is dropping it), not an
/// answer to any one opening.
fn connection_fault(frame: &Frame) -> Result<(), ProtocolError> {
    if frame.kind == FrameKind::StreamError && frame.payload.starts_with(&[0; 8]) {
        let message = StreamError::decode(&frame.payload)
            .map_or_else(|e| e.to_string(), |fault| fault.error.message);
        return Err(ProtocolError::Stream(message));
    }
    Ok(())
}

impl Drop for Client {
    fn drop(&mut self) {
        self.drain_pool();
    }
}
