//! [`RemoteDriver`]: the coordinator's end of the wire — a
//! connection-pooled [`PartixDriver`] talking to one [`NodeServer`].
//!
//! Because it implements the same trait the coordinator already
//! dispatches to, everything above it works unchanged over real
//! sockets: `DispatchMode::Pool`, retry/backoff/failover, deadlines,
//! fault injection (a `FaultInjector` can wrap a `RemoteDriver` like
//! any other driver), the result cache, and the trace/metrics layers.
//!
//! Failure mapping keeps the coordinator's recovery semantics intact:
//! * transport failures (connect refused, reset, timeout, malformed
//!   response) → [`DriverError::Unavailable`] — the dispatch loop may
//!   fail over to a replica;
//! * an `Error` frame from the node carries the node's own verdict:
//!   `retryable` → `Unavailable`, otherwise → [`DriverError::Failed`].
//!
//! A pooled connection can go stale (the server restarted between
//! requests). For *idempotent* requests the driver transparently
//! redials once and retries; a `Store` is never retried on an ambiguous
//! failure — the node may already have applied it.
//!
//! Every call records genuine wire bytes (header + payload, both
//! directions) into the global `net.wire.bytes_sent` /
//! `net.wire.bytes_recv` / `net.bytes_shipped` counters, and its
//! send/recv wall time into the dispatch loop's thread-local
//! [`wirespan`] channel, surfacing as `send`/`recv` spans in each
//! sub-query's stage breakdown.
//!
//! [`NodeServer`]: crate::server::NodeServer

use crate::codec::frame_of;
use crate::frame::{read_frame, Frame, FrameKind, ProtocolError};
use crate::message::{Request, Response, WireError};
use parking_lot::Mutex;
use partix_engine::metrics::{self, Counter};
use partix_engine::{wirespan, DriverError, PartixDriver};
use partix_query::Query;
use partix_storage::QueryOutput;
use partix_xml::Document;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for a remote driver.
#[derive(Debug, Clone)]
pub struct RemoteDriverConfig {
    pub connect_timeout: Duration,
    /// Per-frame read/write deadline. Dispatch-level deadlines
    /// ([`RetryPolicy::timeout`]) are usually tighter; this is the
    /// backstop that keeps a pooled connection from hanging forever.
    ///
    /// [`RetryPolicy::timeout`]: partix_engine::RetryPolicy
    pub io_timeout: Duration,
    /// Idle connections kept for reuse; excess ones are closed on
    /// check-in.
    pub max_idle: usize,
}

impl Default for RemoteDriverConfig {
    fn default() -> RemoteDriverConfig {
        RemoteDriverConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            max_idle: 4,
        }
    }
}

/// Snapshot of a driver's wire accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    pub connects: u64,
    pub reconnects: u64,
}

struct PooledConn {
    stream: TcpStream,
    /// A reused connection may be stale (server restarted since
    /// check-in); a just-dialed one cannot be.
    reused: bool,
}

/// One node's socket-backed driver.
pub struct RemoteDriver {
    addr: SocketAddr,
    config: RemoteDriverConfig,
    idle: Mutex<Vec<TcpStream>>,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    connects: AtomicU64,
    reconnects: AtomicU64,
    /// The global `net.wire.bytes_sent` / `net.wire.bytes_recv` /
    /// `net.bytes_shipped` counters, looked up once: every call adds to them.
    wire_sent: Arc<Counter>,
    wire_recv: Arc<Counter>,
    shipped: Arc<Counter>,
}

impl RemoteDriver {
    /// A driver for the node at `addr`. Does not touch the network —
    /// connections are dialed lazily per call.
    pub fn new(addr: SocketAddr) -> RemoteDriver {
        RemoteDriver::with_config(addr, RemoteDriverConfig::default())
    }

    pub fn with_config(addr: SocketAddr, config: RemoteDriverConfig) -> RemoteDriver {
        RemoteDriver {
            addr,
            config,
            idle: Mutex::new(Vec::new()),
            bytes_sent: AtomicU64::new(0),
            bytes_recv: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            wire_sent: metrics::global().counter("net.wire.bytes_sent"),
            wire_recv: metrics::global().counter("net.wire.bytes_recv"),
            shipped: metrics::global().counter("net.bytes_shipped"),
        }
    }

    /// Dial and health-check the node, returning the driver only if it
    /// answers a ping.
    pub fn connect(addr: SocketAddr) -> Result<Arc<RemoteDriver>, DriverError> {
        let driver = Arc::new(RemoteDriver::new(addr));
        driver.health_check()?;
        Ok(driver)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> WireStats {
        WireStats {
            bytes_sent: self.bytes_sent.load(Ordering::Acquire),
            bytes_recv: self.bytes_recv.load(Ordering::Acquire),
            connects: self.connects.load(Ordering::Acquire),
            reconnects: self.reconnects.load(Ordering::Acquire),
        }
    }

    /// Idle connections currently pooled (for leak assertions in tests).
    pub fn pooled_connections(&self) -> usize {
        self.idle.lock().len()
    }

    /// Close every pooled connection.
    pub fn drain_pool(&self) {
        self.idle.lock().clear();
    }

    fn checkout(&self) -> Result<PooledConn, DriverError> {
        if let Some(stream) = self.idle.lock().pop() {
            return Ok(PooledConn { stream, reused: true });
        }
        self.dial().map(|stream| PooledConn { stream, reused: false })
    }

    fn dial(&self) -> Result<TcpStream, DriverError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| DriverError::Unavailable(format!("connect {}: {e}", self.addr)))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.config.io_timeout));
        let _ = stream.set_write_timeout(Some(self.config.io_timeout));
        self.connects.fetch_add(1, Ordering::AcqRel);
        metrics::global().counter("net.connects").inc();
        metrics::global().gauge("net.conns.open").inc();
        Ok(stream)
    }

    fn checkin(&self, stream: TcpStream) {
        let mut idle = self.idle.lock();
        if idle.len() < self.config.max_idle {
            idle.push(stream);
            return;
        }
        drop(idle);
        metrics::global().gauge("net.conns.open").dec();
    }

    fn discard(&self, stream: TcpStream) {
        drop(stream);
        metrics::global().gauge("net.conns.open").dec();
    }

    fn account(&self, sent: u64, recv: u64, send_s: f64, recv_s: f64) {
        self.bytes_sent.fetch_add(sent, Ordering::AcqRel);
        self.bytes_recv.fetch_add(recv, Ordering::AcqRel);
        self.wire_sent.add(sent);
        self.wire_recv.add(recv);
        // Genuine shipped bytes, replacing the modeled count for this
        // site (see `PartixDriver::counts_wire_bytes`).
        self.shipped.add(sent + recv);
        wirespan::record(send_s, recv_s);
    }

    /// One request/response exchange on one connection: `request` is a
    /// sealed frame.
    fn exchange(&self, stream: &mut TcpStream, request: &[u8]) -> Result<Frame, ProtocolError> {
        let send_begun = Instant::now();
        stream.write_all(request)?;
        let sent = request.len();
        let send_s = send_begun.elapsed().as_secs_f64();
        let recv_begun = Instant::now();
        let answer = read_frame(stream)?;
        let recv_s = recv_begun.elapsed().as_secs_f64();
        match answer {
            Some((frame, recv)) => {
                self.account(sent as u64, recv as u64, send_s, recv_s);
                Ok(frame)
            }
            None => Err(ProtocolError::Io("connection closed before answer".into())),
        }
    }

    /// Run one request with stale-connection recovery: an I/O failure
    /// on a *reused* connection retries exactly once on a fresh dial —
    /// but only for idempotent requests.
    fn roundtrip(&self, request: &[u8], idempotent: bool) -> Result<Frame, DriverError> {
        let conn = self.checkout()?;
        let PooledConn { mut stream, reused } = conn;
        match self.exchange(&mut stream, request) {
            Ok(frame) => {
                self.checkin(stream);
                Ok(frame)
            }
            Err(first_err) => {
                self.discard(stream);
                let transport_failed = matches!(
                    first_err,
                    ProtocolError::Io(_) | ProtocolError::Truncated { .. }
                );
                if !(reused && idempotent && transport_failed) {
                    return Err(unavailable(&self.addr, first_err));
                }
                self.reconnects.fetch_add(1, Ordering::AcqRel);
                metrics::global().counter("net.reconnects").inc();
                let mut fresh = self.dial()?;
                match self.exchange(&mut fresh, request) {
                    Ok(frame) => {
                        self.checkin(fresh);
                        Ok(frame)
                    }
                    Err(err) => {
                        self.discard(fresh);
                        Err(unavailable(&self.addr, err))
                    }
                }
            }
        }
    }

    /// Execute a query as a named tenant ([`Request::ExecuteAs`]),
    /// preserving the server's typed error verdict — an admission
    /// rejection arrives as a [`WireError`] whose `code` and
    /// `retry_after_ms` the caller can act on, never a silent drop or a
    /// text-only failure.
    pub fn execute_as(
        &self,
        tenant: &str,
        query: &Query,
    ) -> Result<Option<QueryOutput>, WireError> {
        let req = Request::ExecuteAs { tenant: tenant.to_owned(), query: query.clone() };
        let frame = self.send(&req).map_err(|e| {
            WireError::failure(matches!(e, DriverError::Unavailable(_)), e.to_string())
        })?;
        match frame.kind {
            FrameKind::Result => match Response::decode(&frame.payload) {
                Ok(Response::Output(out)) => Ok(out),
                Ok(other) => Err(WireError::failure(
                    false,
                    format!("{}: mismatched response {other:?} to ExecuteAs", self.addr),
                )),
                Err(e) => Err(WireError::failure(true, format!("{}: {e}", self.addr))),
            },
            FrameKind::Error => Err(WireError::decode(&frame.payload)
                .unwrap_or_else(|e| WireError::failure(true, format!("{}: {e}", self.addr)))),
            other => Err(WireError::failure(
                true,
                format!("{}: unexpected {other:?} frame in response", self.addr),
            )),
        }
    }

    /// A `Fetch` round trip; the node applies `filter`, if any.
    fn fetch(
        &self,
        collection: &str,
        filter: Option<Query>,
    ) -> Result<Vec<Arc<Document>>, DriverError> {
        match self.request(&Request::Fetch { collection: collection.to_owned(), filter })? {
            Response::Docs(docs) => Ok(docs.into_iter().map(Arc::new).collect()),
            other => Err(DriverError::Unavailable(format!(
                "{}: mismatched response {other:?} to Fetch",
                self.addr
            ))),
        }
    }

    /// Frame `req` (encoded straight into its frame) and exchange it. A
    /// request over the frame cap fails here, unsent: no node would
    /// accept it, on this connection or another.
    fn send(&self, req: &Request) -> Result<Frame, DriverError> {
        let frame = frame_of(FrameKind::Request, |w| req.put(w))
            .map_err(|e| DriverError::Failed(format!("{}: request not sent: {e}", self.addr)))?;
        self.roundtrip(&frame, req.idempotent())
    }

    fn request(&self, req: &Request) -> Result<Response, DriverError> {
        let frame = self.send(req)?;
        match frame.kind {
            FrameKind::Result => Response::decode(&frame.payload)
                .map_err(|e| unavailable(&self.addr, e)),
            FrameKind::Error => {
                let wire = WireError::decode(&frame.payload)
                    .map_err(|e| unavailable(&self.addr, e))?;
                Err(if wire.retryable {
                    DriverError::Unavailable(wire.message)
                } else {
                    DriverError::Failed(wire.message)
                })
            }
            other => Err(DriverError::Unavailable(format!(
                "{}: unexpected {other:?} frame in response",
                self.addr
            ))),
        }
    }
}

fn unavailable(addr: &SocketAddr, err: impl std::fmt::Display) -> DriverError {
    DriverError::Unavailable(format!("{addr}: {err}"))
}

impl Drop for RemoteDriver {
    fn drop(&mut self) {
        for stream in self.idle.get_mut().drain(..) {
            drop(stream);
            metrics::global().gauge("net.conns.open").dec();
        }
    }
}

impl PartixDriver for RemoteDriver {
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        match self.request(&Request::Execute { query: query.clone() })? {
            Response::Output(out) => Ok(out),
            other => Err(DriverError::Failed(format!(
                "{}: mismatched response {other:?} to Execute",
                self.addr
            ))),
        }
    }

    fn store(&self, collection: &str, docs: Vec<Document>) {
        // The trait's store is infallible (publishing is verified by
        // reading back); surface wire failures in a counter instead of
        // swallowing them invisibly.
        let req = Request::Store { collection: collection.to_owned(), docs };
        if self.request(&req).is_err() {
            metrics::global().counter("net.store_errors").inc();
        }
    }

    fn fetch_collection(&self, collection: &str) -> Vec<Arc<Document>> {
        self.try_fetch_collection(collection).unwrap_or_default()
    }

    fn try_fetch_collection(&self, collection: &str) -> Result<Vec<Arc<Document>>, DriverError> {
        self.fetch(collection, None)
    }

    fn try_fetch_filtered(
        &self,
        collection: &str,
        filter: &Query,
    ) -> Result<Vec<Arc<Document>>, DriverError> {
        self.fetch(collection, Some(filter.clone()))
    }

    fn collections(&self) -> Vec<String> {
        match self.request(&Request::Collections) {
            Ok(Response::Names(names)) => names,
            _ => Vec::new(),
        }
    }

    fn drop_collection(&self, collection: &str) {
        let _ = self.request(&Request::Drop { collection: collection.to_owned() });
    }

    fn health_check(&self) -> Result<(), DriverError> {
        let ping = frame_of(FrameKind::HealthPing, |_| {}).expect("an empty payload fits");
        let frame = self.roundtrip(&ping, true)?;
        match frame.kind {
            FrameKind::HealthPong => Ok(()),
            other => Err(DriverError::Unavailable(format!(
                "{}: {other:?} frame answering ping",
                self.addr
            ))),
        }
    }

    fn counts_wire_bytes(&self) -> bool {
        true
    }

    fn write(&self, op: &partix_storage::WriteOp) -> Result<u32, DriverError> {
        // Never replayed on an ambiguous transport failure (the node may
        // have logged and applied it) — the coordinator gets a typed
        // Unavailable and decides; see Request::idempotent.
        match self.request(&Request::Write { op: op.clone() })? {
            Response::Written(affected) => Ok(affected),
            other => Err(DriverError::Failed(format!(
                "{}: mismatched response {other:?} to Write",
                self.addr
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::NodeServer;
    use partix_query::parse_query;
    use partix_storage::Database;
    use partix_xml::parse;

    fn spawn_node() -> (NodeServer, Arc<Database>) {
        let db = Database::new();
        for i in 0..6 {
            let mut d = parse(&format!("<Item><Code>{i}</Code></Item>")).unwrap();
            d.name = Some(format!("i{i}"));
            db.store("items", d);
        }
        let db = Arc::new(db);
        let server = NodeServer::bind("127.0.0.1:0", Arc::clone(&db)).unwrap();
        (server, db)
    }

    #[test]
    fn remote_matches_local_execution() {
        let (server, db) = spawn_node();
        let driver = RemoteDriver::connect(server.local_addr()).unwrap();
        assert!(driver.counts_wire_bytes());
        let q = parse_query(r#"for $i in collection("items")/Item where $i/Code > 2 return $i"#)
            .unwrap();
        let remote = driver.execute(&q).unwrap().unwrap();
        let local = PartixDriver::execute(&*db, &q).unwrap().unwrap();
        assert_eq!(remote.items, local.items);
        let stats = driver.stats();
        assert!(stats.bytes_sent > 0 && stats.bytes_recv > 0);
        // absent collection stays Ok(None) over the wire
        let q = parse_query(r#"count(collection("absent")/x)"#).unwrap();
        assert!(driver.execute(&q).unwrap().is_none());
    }

    #[test]
    fn connection_reuse_and_stale_reconnect() {
        let (mut server, db) = spawn_node();
        let addr = server.local_addr();
        let driver = RemoteDriver::connect(addr).unwrap();
        let q = parse_query(r#"count(collection("items")/Item)"#).unwrap();
        driver.execute(&q).unwrap();
        driver.execute(&q).unwrap();
        let after_two = driver.stats();
        assert_eq!(after_two.connects, 1, "calls share one pooled connection");
        assert_eq!(driver.pooled_connections(), 1);

        // Restart the listener on the same port: the pooled connection
        // is now stale, and the next idempotent call must transparently
        // reconnect.
        server.shutdown();
        let _server2 = NodeServer::bind(addr, db).unwrap();
        driver.execute(&q).unwrap();
        let after_restart = driver.stats();
        assert_eq!(after_restart.reconnects, 1);
        assert_eq!(driver.pooled_connections(), 1);
    }

    #[test]
    fn writes_apply_remotely_with_typed_errors() {
        use partix_storage::WriteOp;
        let (mut server, db) = spawn_node();
        let driver = RemoteDriver::connect(server.local_addr()).unwrap();
        // upsert an existing name, then a fresh one
        let mut d = parse("<Item><Code>99</Code></Item>").unwrap();
        d.name = Some("i0".into());
        let put = WriteOp::Put { collection: "items".into(), doc: d };
        assert_eq!(driver.write(&put).unwrap(), 1, "replaced i0");
        let mut d = parse("<Item><Code>7</Code></Item>").unwrap();
        d.name = Some("i9".into());
        let put = WriteOp::Put { collection: "items".into(), doc: d };
        assert_eq!(driver.write(&put).unwrap(), 0, "fresh insert");
        assert_eq!(db.collection_len("items").unwrap(), 7);
        let del = WriteOp::Delete { collection: "items".into(), name: "i9".into() };
        assert_eq!(driver.write(&del).unwrap(), 1);
        assert_eq!(driver.write(&del).unwrap(), 0, "idempotent re-delete");
        // a dead node answers Unavailable, not a silent drop
        server.shutdown();
        driver.drain_pool();
        match driver.write(&del) {
            Err(DriverError::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn down_node_is_unavailable() {
        let (mut server, _db) = spawn_node();
        let addr = server.local_addr();
        server.shutdown();
        let driver = RemoteDriver::new(addr);
        let q = parse_query(r#"count(collection("items")/Item)"#).unwrap();
        match driver.execute(&q) {
            Err(DriverError::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert!(RemoteDriver::connect(addr).is_err());
    }
}
