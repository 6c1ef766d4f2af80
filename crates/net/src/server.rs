//! [`NodeServer`]: a per-node TCP listener hosting fragments behind the
//! existing storage/driver stack.
//!
//! One accept thread hands each connection to its own handler thread.
//! Handlers poll for the *first* byte of each frame with a short read
//! timeout so they notice the stop flag between requests, but once a
//! frame has begun they read it to completion and answer it — shutdown
//! **drains in-flight sub-queries, then closes**, so test runs never
//! leave orphan listeners or half-answered coordinators.
//!
//! Failure semantics on the way out:
//! * driver errors → an `Error` frame tagged with retryability
//!   (`Unavailable` → retryable, `Failed` → not);
//! * a panic inside request handling is caught and answered as a
//!   non-retryable `Error` frame (one bad query must not take the node
//!   down);
//! * protocol errors from a malformed peer get a best-effort `Error`
//!   frame and the connection is dropped (the stream can no longer be
//!   trusted).

use crate::codec::frame_of;
use crate::frame::{read_frame_after, write_frame, FrameKind, ProtocolError};
use crate::message::{ErrorCode, Request, Response, WireError};
use partix_engine::{metrics, DriverError, PartixDriver};
use partix_tenant::{AdmissionController, TenantRegistry};
use partix_storage::Database;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Multi-tenant admission state a node server may enforce for
/// [`Request::ExecuteAs`] frames. Shared between servers (and with the
/// engine) via `Arc`.
pub struct ServerTenancy {
    pub registry: Arc<TenantRegistry>,
    pub controller: AdmissionController,
}

impl std::fmt::Debug for ServerTenancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerTenancy")
            .field("tenants", &self.registry.len())
            .field("controller", &self.controller)
            .finish()
    }
}

/// Tuning knobs for a node server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How often an idle handler wakes up to check the stop flag.
    pub poll_interval: Duration,
    /// Read deadline for the remainder of a frame once its first byte
    /// arrived (a peer that stalls mid-frame is cut loose).
    pub frame_timeout: Duration,
    /// When set, [`Request::ExecuteAs`] frames pass this admission
    /// control; when unset they answer a typed
    /// [`ErrorCode::UnknownTenant`] error. Plain `Execute` frames are
    /// never gated (the anonymous compatibility path).
    pub tenancy: Option<Arc<ServerTenancy>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            poll_interval: Duration::from_millis(50),
            frame_timeout: Duration::from_secs(10),
            tenancy: None,
        }
    }
}

struct ServerShared {
    driver: Arc<dyn PartixDriver>,
    stop: AtomicBool,
    /// Connections currently inside a request (for drain visibility).
    in_flight: AtomicUsize,
    open_connections: AtomicUsize,
    served: AtomicU64,
    config: ServerConfig,
}

/// A running node server. Dropping it shuts it down gracefully.
pub struct NodeServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl NodeServer {
    /// Bind `addr` (use port 0 to let the OS pick — the chosen address
    /// is available from [`NodeServer::local_addr`]) and serve `db`.
    pub fn bind(addr: impl ToSocketAddrs, db: Arc<Database>) -> io::Result<NodeServer> {
        NodeServer::bind_driver(addr, db as Arc<dyn PartixDriver>, ServerConfig::default())
    }

    /// Bind with an arbitrary driver and explicit config. Serving a
    /// driver rather than a database keeps the node side as pluggable
    /// as the coordinator side (paper Sec. 4: any XQuery-capable DBMS).
    pub fn bind_driver(
        addr: impl ToSocketAddrs,
        driver: Arc<dyn PartixDriver>,
        config: ServerConfig,
    ) -> io::Result<NodeServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            driver,
            stop: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            open_connections: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("partix-net-accept-{}", addr.port()))
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(NodeServer { shared, addr, accept_thread: Some(accept_thread) })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far (including error answers).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Acquire)
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::Acquire)
    }

    /// Stop accepting, let every in-flight request finish and be
    /// answered, then close all connections and join every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // The accept loop blocks in accept(); poke it awake with a
        // throwaway connection so it sees the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(handle) = self.accept_thread.take() {
            if let Ok(handlers) = handle.join() {
                for h in handlers {
                    let _ = h.join();
                }
            }
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) -> Vec<JoinHandle<()>> {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::Acquire) {
                    // the shutdown poke (or a late client) — refuse
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                handlers.retain(|h| !h.is_finished());
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("partix-net-conn".to_owned())
                    .spawn(move || handle_connection(stream, conn_shared));
                match spawned {
                    Ok(h) => handlers.push(h),
                    Err(_) => { /* thread exhaustion: drop the connection */ }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    handlers
}

fn handle_connection(stream: TcpStream, shared: Arc<ServerShared>) {
    shared.open_connections.fetch_add(1, Ordering::AcqRel);
    let _ = stream.set_nodelay(true);
    serve_connection(&stream, &shared);
    let _ = stream.shutdown(Shutdown::Both);
    shared.open_connections.fetch_sub(1, Ordering::AcqRel);
}

fn serve_connection(mut stream: &TcpStream, shared: &ServerShared) {
    loop {
        // Poll for the first byte of the next frame so the stop flag is
        // observed between requests without dropping any in-flight one.
        let first = match poll_first_byte(stream, shared) {
            Some(b) => b,
            None => return,
        };
        let _ = stream.set_read_timeout(Some(shared.config.frame_timeout));
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let outcome = read_frame_after(&mut stream, first)
            .and_then(|(frame, _)| answer_frame(stream, shared, frame));
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        shared.served.fetch_add(1, Ordering::AcqRel);
        match outcome {
            Ok(()) => {}
            Err(err) => {
                // Best-effort: tell the peer what was wrong with its
                // frame, then drop the connection — after a framing
                // error the stream position can't be trusted.
                let wire = WireError::failure(false, err.to_string());
                let _ = write_frame(&mut stream, FrameKind::Error, &wire.encode());
                return;
            }
        }
    }
}

/// Wait for the first header byte of the next frame, checking the stop
/// flag every poll interval. `None` means: connection closed, stop
/// requested, or the socket failed.
fn poll_first_byte(mut stream: &TcpStream, shared: &ServerShared) -> Option<u8> {
    let mut buf = [0u8; 1];
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return None;
        }
        let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(_) => return Some(buf[0]),
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => return None,
        }
    }
}

fn answer_frame(
    mut stream: &TcpStream,
    shared: &ServerShared,
    frame: crate::frame::Frame,
) -> Result<(), ProtocolError> {
    match frame.kind {
        FrameKind::HealthPing => {
            write_frame(&mut stream, FrameKind::HealthPong, &[])?;
            Ok(())
        }
        FrameKind::Request => {
            let request = Request::decode(&frame.payload)?;
            // Panic firewall: a pathological query must answer as an
            // error, not kill the handler (and with it the connection
            // and any trust in the node's liveness).
            let result = catch_unwind(AssertUnwindSafe(|| serve_request(shared, request)));
            let answer = match result {
                // an answer over the frame cap is the node's to refuse:
                // sent, the coordinator could only drop the connection
                Ok(Ok(response)) => frame_of(FrameKind::Result, |w| response.put(w))
                    .map_err(|err| WireError::failure(false, format!("answer not sent: {err}"))),
                Ok(Err(err)) => Err(err.into_wire()),
                Err(panic) => Err(WireError::failure(
                    false,
                    format!("node panicked: {}", panic_message(&panic)),
                )),
            };
            let frame = match answer {
                Ok(frame) => frame,
                Err(wire) => frame_of(FrameKind::Error, |w| wire.put(w))?,
            };
            stream.write_all(&frame)?;
            Ok(())
        }
        // A node server never receives responses — nor `PXN2` stream
        // frames, which belong to the coordinator endpoint
        // ([`crate::stream_server`]); answering them would desync the
        // request/response rhythm.
        FrameKind::Result
        | FrameKind::Error
        | FrameKind::HealthPong
        | FrameKind::OpenStream
        | FrameKind::ItemChunk
        | FrameKind::StreamEnd
        | FrameKind::StreamError
        | FrameKind::CancelStream => Err(ProtocolError::Malformed(format!(
            "unexpected {:?} frame on server",
            frame.kind
        ))),
    }
}

/// Failures a request handler can answer with: plain driver errors, or
/// typed admission errors carrying a [`ErrorCode`] the client can match
/// on without parsing the message text.
enum ServeError {
    Driver(DriverError),
    Admission { code: ErrorCode, retry_after_ms: u64, message: String },
}

impl ServeError {
    fn into_wire(self) -> WireError {
        match self {
            ServeError::Driver(err) => WireError::failure(
                matches!(err, DriverError::Unavailable(_)),
                err.to_string(),
            ),
            ServeError::Admission { code, retry_after_ms, message } => WireError {
                retryable: false,
                code,
                retry_after_ms,
                message,
            },
        }
    }
}

impl From<DriverError> for ServeError {
    fn from(err: DriverError) -> ServeError {
        ServeError::Driver(err)
    }
}

fn serve_request(shared: &ServerShared, request: Request) -> Result<Response, ServeError> {
    match request {
        Request::Execute { query } => {
            shared.driver.execute(&query).map(Response::Output).map_err(ServeError::from)
        }
        Request::ExecuteAs { tenant, query } => {
            let Some(tenancy) = shared.config.tenancy.as_ref() else {
                return Err(ServeError::Admission {
                    code: ErrorCode::UnknownTenant,
                    retry_after_ms: 0,
                    message: format!("tenant {tenant:?}: server has no tenancy configured"),
                });
            };
            let Some(entry) = tenancy.registry.by_name(&tenant) else {
                return Err(ServeError::Admission {
                    code: ErrorCode::UnknownTenant,
                    retry_after_ms: 0,
                    message: format!("unknown tenant {tenant:?}"),
                });
            };
            metrics::global().counter(&format!("tenant.{tenant}.queries")).inc();
            let permit = tenancy.controller.admit(&entry, 0).map_err(|rejection| {
                metrics::global().counter(&format!("tenant.{tenant}.rejected")).inc();
                // `WireError`'s Display re-appends the retry hint, so the
                // message carries only the tenant + reason.
                ServeError::Admission {
                    code: ErrorCode::AdmissionRejected,
                    retry_after_ms: rejection.retry_after_ms,
                    message: format!(
                        "tenant {:?} rejected: {}",
                        rejection.tenant, rejection.reason
                    ),
                }
            })?;
            metrics::global().counter(&format!("tenant.{tenant}.admitted")).inc();
            let result = shared.driver.execute(&query).map(Response::Output);
            drop(permit);
            result.map_err(ServeError::from)
        }
        Request::Store { collection, docs } => {
            shared.driver.store(&collection, docs);
            Ok(Response::Stored)
        }
        Request::Fetch { collection, filter } => {
            // fallibly, filtered or not: a driver that cannot read the
            // collection must not answer with an empty fragment
            let docs = match &filter {
                Some(filter) => shared.driver.try_fetch_filtered(&collection, filter),
                None => shared.driver.try_fetch_collection(&collection),
            }?;
            Ok(Response::Docs(docs.iter().map(|d| (**d).clone()).collect()))
        }
        Request::Collections => Ok(Response::Names(shared.driver.collections())),
        Request::Drop { collection } => {
            shared.driver.drop_collection(&collection);
            Ok(Response::Dropped)
        }
        Request::Write { op } => {
            shared.driver.write(&op).map(Response::Written).map_err(ServeError::from)
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frame;
    use partix_query::parse_query;
    use partix_storage::QueryOutput;
    use partix_xml::parse;

    fn items_db() -> Arc<Database> {
        let db = Database::new();
        for i in 0..4 {
            let mut d = parse(&format!("<Item><Code>{i}</Code></Item>")).unwrap();
            d.name = Some(format!("i{i}"));
            db.store("items", d);
        }
        Arc::new(db)
    }

    fn request(stream: &mut TcpStream, req: &Request) -> (FrameKind, Vec<u8>) {
        write_frame(stream, FrameKind::Request, &req.encode()).unwrap();
        let (frame, _) = read_frame(stream).unwrap().unwrap();
        (frame.kind, frame.payload)
    }

    #[test]
    fn serves_the_driver_vocabulary_end_to_end() {
        let mut server = NodeServer::bind("127.0.0.1:0", items_db()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();

        let q = parse_query(r#"count(collection("items")/Item)"#).unwrap();
        let (kind, payload) = request(&mut conn, &Request::Execute { query: q });
        assert_eq!(kind, FrameKind::Result);
        match Response::decode(&payload).unwrap() {
            Response::Output(Some(out)) => {
                assert_eq!(out.items[0], partix_query::Item::Num(4.0))
            }
            other => panic!("unexpected {other:?}"),
        }

        // absent collection stays the driver's Ok(None) contract
        let q = parse_query(r#"count(collection("absent")/x)"#).unwrap();
        let (kind, payload) = request(&mut conn, &Request::Execute { query: q });
        assert_eq!(kind, FrameKind::Result);
        assert!(matches!(Response::decode(&payload).unwrap(), Response::Output(None)));

        let (kind, payload) = request(&mut conn, &Request::Collections);
        assert_eq!(kind, FrameKind::Result);
        match Response::decode(&payload).unwrap() {
            Response::Names(names) => assert_eq!(names, ["items"]),
            other => panic!("unexpected {other:?}"),
        }

        let (kind, payload) = request(
            &mut conn,
            &Request::Store { collection: "extra".into(), docs: vec![parse("<x/>").unwrap()] },
        );
        assert_eq!(kind, FrameKind::Result);
        assert!(matches!(Response::decode(&payload).unwrap(), Response::Stored));

        let fetch = Request::Fetch { collection: "extra".into(), filter: None };
        let (kind, payload) = request(&mut conn, &fetch);
        assert_eq!(kind, FrameKind::Result);
        match Response::decode(&payload).unwrap() {
            Response::Docs(docs) => assert_eq!(docs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }

        // health ping answers pong
        write_frame(&mut conn, FrameKind::HealthPing, &[]).unwrap();
        let (frame, _) = read_frame(&mut conn).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::HealthPong);

        assert!(server.served() >= 5);
        server.shutdown();
    }

    #[test]
    fn malformed_payload_answers_error_and_drops_connection() {
        let mut server = NodeServer::bind("127.0.0.1:0", items_db()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut conn, FrameKind::Request, &[250, 1, 2]).unwrap();
        let (frame, _) = read_frame(&mut conn).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Error);
        let err = WireError::decode(&frame.payload).unwrap();
        assert!(!err.retryable);
        // the server hangs up after a framing error
        assert!(read_frame(&mut conn).unwrap().is_none());
        server.shutdown();
    }

    /// A driver whose every answer is one string just over the frame cap.
    struct HugeAnswers;

    impl PartixDriver for HugeAnswers {
        fn execute(&self, _: &partix_query::Query) -> Result<Option<QueryOutput>, DriverError> {
            let big = "x".repeat(crate::frame::MAX_PAYLOAD + 1);
            Ok(Some(QueryOutput {
                items: vec![partix_query::Item::Str(big)],
                stats: Default::default(),
            }))
        }
        fn store(&self, _: &str, _: Vec<partix_xml::Document>) {}
        fn fetch_collection(&self, _: &str) -> Vec<Arc<partix_xml::Document>> {
            Vec::new()
        }
        fn collections(&self) -> Vec<String> {
            Vec::new()
        }
    }

    #[test]
    fn oversized_answer_is_a_typed_error_and_the_connection_lives() {
        let mut server =
            NodeServer::bind_driver("127.0.0.1:0", Arc::new(HugeAnswers), ServerConfig::default())
                .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let q = parse_query(r#"collection("items")/Item"#).unwrap();
        let (kind, payload) = request(&mut conn, &Request::Execute { query: q });
        assert_eq!(kind, FrameKind::Error);
        let err = WireError::decode(&payload).unwrap();
        assert!(!err.retryable, "the same answer would be as large on a retry");
        assert!(err.message.contains("exceeds the 67108864 B cap"), "{}", err.message);
        // nothing oversized went out, so the stream position is intact
        let (kind, _) = request(&mut conn, &Request::Collections);
        assert_eq!(kind, FrameKind::Result);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let mut server = NodeServer::bind("127.0.0.1:0", items_db()).unwrap();
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        let q = parse_query(r#"count(collection("items")/Item)"#).unwrap();
        let (kind, _) = request(&mut conn, &Request::Execute { query: q });
        assert_eq!(kind, FrameKind::Result);
        server.shutdown();
        server.shutdown();
        // listener is gone: new connections are refused or die instantly
        match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            Err(_) => {}
            Ok(mut late) => {
                let _ = late.set_read_timeout(Some(Duration::from_millis(250)));
                assert!(matches!(read_frame(&mut late), Ok(None) | Err(_)));
            }
        }
    }
}
