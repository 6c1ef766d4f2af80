//! The node leg: [`NodeServer`] hosts a driver behind the one
//! [`Server`], [`RemoteDriver`] is a [`PartixDriver`] over the one
//! [`Client`] — the driver trait, carried by `Call` / `Reply` frames.
//!
//! Because `RemoteDriver` implements the same trait the coordinator
//! already dispatches to, everything above it works unchanged over real
//! sockets: the dispatch pool, retry/backoff/failover, deadlines, fault
//! injection (a `FaultInjector` can wrap a `RemoteDriver` like any other
//! driver), and the trace/metrics layers.
//!
//! Failure mapping keeps the coordinator's recovery semantics intact:
//! * at the node, driver errors become a [`WireError`] tagged with
//!   retryability (`Unavailable` → retryable, `Failed` → not);
//! * at the coordinator, transport failures (connect refused, reset,
//!   timeout, malformed answer) → [`DriverError::Unavailable`] — the
//!   dispatch loop may fail over to a replica — and a typed error from the
//!   node carries the node's own verdict: `retryable` → `Unavailable`,
//!   otherwise → [`DriverError::Failed`].
//!
//! Every call records genuine wire bytes (header + payload, both
//! directions) into the global `net.wire.bytes_sent` /
//! `net.wire.bytes_recv` / `net.bytes_shipped` counters, and its
//! send/recv wall time into the dispatch loop's thread-local
//! [`wirespan`] channel, surfacing as `send`/`recv` spans in each
//! sub-query's stage breakdown.

use crate::client::{Client, StreamClientConfig, Traffic, WireStats};
use crate::codec::frame_of;
use crate::frame::{FrameKind, ProtocolError};
use crate::message::{put_call, Reply, Request, Response, WireError};
use crate::server::{Handler, Server};
use crate::stream::StreamError;
use partix_engine::metrics::{self, Counter};
use partix_engine::{wirespan, DriverError, PartixDriver};
use partix_query::Query;
use partix_storage::{Database, QueryOutput, WriteOp};
use partix_xml::Document;
use std::borrow::Cow;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// What a node server can be told: nothing. A node runs what it is sent;
/// tenancy is enforced once, where a query enters — at the coordinator
/// (`PartiX::attach_tenancy`).
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {}

/// A running node server. Dropping it shuts it down.
pub struct NodeServer(Server);

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
        _config: ServerConfig,
    ) -> io::Result<NodeServer> {
        Server::bind(addr, Arc::new(NodeHandler { driver })).map(NodeServer)
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// [`Server::shutdown`]: stop accepting, cut every connection, join
    /// every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }
}

/// [`Handler`] bridging `Call` frames to a [`PartixDriver`].
struct NodeHandler {
    driver: Arc<dyn PartixDriver>,
}

fn driver_failure(err: DriverError) -> WireError {
    WireError::failure(matches!(err, DriverError::Unavailable(_)), err.to_string())
}

impl Handler for NodeHandler {
    fn call(&self, request: Request<'static>) -> Result<Response, WireError> {
        match request {
            Request::Execute { query } => {
                self.driver.execute(&query).map(Response::Output).map_err(driver_failure)
            }
            Request::Store { collection, docs } => {
                self.driver.store(&collection, docs);
                Ok(Response::Stored)
            }
            Request::Fetch { collection, filter } => {
                // fallibly, filtered or not: a driver that cannot read the
                // collection must not answer with an empty fragment
                match &filter {
                    Some(filter) => self.driver.try_fetch_filtered(&collection, filter),
                    None => self.driver.try_fetch_collection(&collection),
                }
                .map(Response::Docs)
                .map_err(driver_failure)
            }
            Request::Collections => Ok(Response::Names(self.driver.collections())),
            Request::Drop { collection } => {
                self.driver.drop_collection(&collection);
                Ok(Response::Dropped)
            }
            Request::Write { op } => {
                self.driver.write(&op).map(Response::Written).map_err(driver_failure)
            }
            Request::Ping => Ok(Response::Pong),
        }
    }
}

/// One node's socket-backed driver.
pub struct RemoteDriver {
    client: Client,
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
        RemoteDriver::with_config(addr, StreamClientConfig::default())
    }

    /// [`RemoteDriver::new`] with the client's read / write deadline set.
    pub fn with_config(addr: SocketAddr, config: StreamClientConfig) -> RemoteDriver {
        RemoteDriver {
            client: Client::new(addr.to_string(), config.timeout),
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

    pub fn stats(&self) -> WireStats {
        self.client.stats()
    }

    /// Idle connections currently pooled (for leak assertions in tests).
    pub fn pooled_connections(&self) -> usize {
        self.client.pooled_connections()
    }

    /// Close every pooled connection.
    pub fn drain_pool(&self) {
        self.client.drain_pool();
    }

    /// One call: `request` in a `Call` frame (encoded straight into it),
    /// the node's verdict out of the `Reply` or `StreamError` that answers
    /// it. A request over the frame cap, or whose query has no XQuery text,
    /// fails here, unsent: no node would accept it, on this connection or
    /// another. `Store` and `Write` are never replayed on a fresh
    /// connection (see [`Request::idempotent`]).
    fn call(&self, request: &Request) -> Result<Response, WireError> {
        let stream = self.client.next_stream();
        let mut printed = Ok(());
        let framed = frame_of(FrameKind::Call, |w| printed = put_call(w, stream, request));
        let opening = printed.and(framed).map_err(|e| {
            WireError::failure(false, format!("{}: request not sent: {e}", self.client.addr()))
        })?;
        let answer = self.client.exchange(&opening, request.idempotent(), |frame| {
            Ok(Some(match frame.kind {
                FrameKind::Reply => {
                    let reply = Reply::decode(&frame.payload)?;
                    check_stream(stream, reply.stream)?;
                    Ok(reply.response)
                }
                FrameKind::StreamError => {
                    let err = StreamError::decode(&frame.payload)?;
                    check_stream(stream, err.stream)?;
                    Err(err.error)
                }
                other => {
                    return Err(ProtocolError::Stream(format!(
                        "unexpected {other:?} frame answering a call"
                    )))
                }
            }))
        });
        // transport failures are retryable: a replica may answer
        let (verdict, traffic) =
            answer.map_err(|e| WireError::failure(true, format!("{}: {e}", self.client.addr())))?;
        self.account(traffic);
        verdict
    }

    fn account(&self, Traffic { sent, recv, send_s, recv_s }: Traffic) {
        self.wire_sent.add(sent);
        self.wire_recv.add(recv);
        // Genuine shipped bytes, replacing the modeled count for this
        // site (see `PartixDriver::counts_wire_bytes`).
        self.shipped.add(sent + recv);
        wirespan::record(send_s, recv_s);
    }

    /// [`RemoteDriver::call`] in the driver trait's error taxonomy.
    fn request(&self, request: &Request) -> Result<Response, DriverError> {
        self.call(request).map_err(|wire| {
            if wire.retryable {
                DriverError::Unavailable(wire.message)
            } else {
                DriverError::Failed(wire.message)
            }
        })
    }

    /// A `Fetch` call; the node applies `filter`, if any.
    fn fetch(
        &self,
        collection: &str,
        filter: Option<&Query>,
    ) -> Result<Vec<Arc<Document>>, DriverError> {
        let filter = filter.map(Cow::Borrowed);
        match self.request(&Request::Fetch { collection: collection.to_owned(), filter })? {
            Response::Docs(docs) => Ok(docs),
            other => Err(DriverError::Unavailable(self.mismatched(&other, "Fetch"))),
        }
    }

    fn mismatched(&self, response: &Response, to: &str) -> String {
        format!("{}: mismatched response {response:?} to {to}", self.client.addr())
    }
}

/// An answer frame must carry the stream id of the call it answers.
fn check_stream(sent: u64, got: u64) -> Result<(), ProtocolError> {
    if got == sent {
        return Ok(());
    }
    Err(ProtocolError::Stream(format!("answer for stream {got} to the call on stream {sent}")))
}

impl PartixDriver for RemoteDriver {
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        match self.request(&Request::Execute { query: Cow::Borrowed(query) })? {
            Response::Output(out) => Ok(out),
            other => Err(DriverError::Failed(self.mismatched(&other, "Execute"))),
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
        self.fetch(collection, Some(filter))
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
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(DriverError::Unavailable(self.mismatched(&other, "Ping"))),
        }
    }

    fn counts_wire_bytes(&self) -> bool {
        true
    }

    fn write(&self, op: &WriteOp) -> Result<u32, DriverError> {
        // Never replayed on an ambiguous transport failure (the node may
        // have logged and applied it) — the coordinator gets a typed
        // Unavailable and decides; see Request::idempotent.
        match self.request(&Request::Write { op: Cow::Borrowed(op) })? {
            Response::Written(affected) => Ok(affected),
            other => Err(DriverError::Failed(self.mismatched(&other, "Write"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MAX_IDLE;
    use crate::frame::{encode_frame, read_frame, MAX_PAYLOAD};
    use crate::message::Call;
    use crate::stream::StreamQuery;
    use partix_path::{PathExpr, Step};
    use partix_query::{parse_query, Expr, Item, PathSource, PathStart};
    use partix_xml::parse;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    const COUNT: &str = r#"count(collection("items")/Item)"#;

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

    /// One raw call: the verdict out of the `Reply` or `StreamError`.
    fn call(conn: &mut TcpStream, stream: u64, request: Request) -> Result<Response, WireError> {
        let payload = Call { stream, request }.encode().unwrap();
        conn.write_all(&encode_frame(FrameKind::Call, &payload)).unwrap();
        let (frame, _) = read_frame(conn).unwrap().unwrap();
        match frame.kind {
            FrameKind::Reply => {
                let reply = Reply::decode(&frame.payload).unwrap();
                assert_eq!(reply.stream, stream);
                Ok(reply.response)
            }
            FrameKind::StreamError => {
                let err = StreamError::decode(&frame.payload).unwrap();
                assert_eq!(err.stream, stream);
                Err(err.error)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serves_the_driver_vocabulary_end_to_end() {
        let (mut server, _db) = spawn_node();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();

        let query = parse_query(COUNT).unwrap();
        match call(&mut conn, 1, Request::Execute { query: Cow::Owned(query) }).unwrap() {
            Response::Output(Some(out)) => assert_eq!(out.items[0], Item::Num(6.0)),
            other => panic!("unexpected {other:?}"),
        }
        // absent collection stays the driver's Ok(None) contract
        let query = parse_query(r#"count(collection("absent")/x)"#).unwrap();
        assert!(matches!(
            call(&mut conn, 2, Request::Execute { query: Cow::Owned(query) }).unwrap(),
            Response::Output(None)
        ));
        match call(&mut conn, 3, Request::Collections).unwrap() {
            Response::Names(names) => assert_eq!(names, ["items"]),
            other => panic!("unexpected {other:?}"),
        }
        let store =
            Request::Store { collection: "extra".into(), docs: vec![parse("<x/>").unwrap()] };
        assert!(matches!(call(&mut conn, 4, store).unwrap(), Response::Stored));
        let fetch = Request::Fetch { collection: "extra".into(), filter: None };
        match call(&mut conn, 5, fetch).unwrap() {
            Response::Docs(docs) => assert_eq!(docs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(call(&mut conn, 6, Request::Ping).unwrap(), Response::Pong));
        // a node serves no streams: a typed refusal, and the connection lives
        let open = StreamQuery {
            stream: 7,
            text: COUNT.into(),
            allow_partial: false,
            buffered: false,
            chunk_items: 0,
            tenant: String::new(),
        };
        conn.write_all(&encode_frame(FrameKind::OpenStream, &open.encode())).unwrap();
        let (frame, _) = read_frame(&mut conn).unwrap().unwrap();
        let err = StreamError::decode(&frame.payload).unwrap();
        assert_eq!((err.stream, err.error.retryable), (7, false));
        assert!(matches!(call(&mut conn, 8, Request::Ping).unwrap(), Response::Pong));
        server.shutdown();
    }

    #[test]
    fn malformed_payload_answers_error_and_drops_connection() {
        let (mut server, _db) = spawn_node();
        // a request tag nobody assigned, and the retired tenant-headed execute
        for tag in [250, 6] {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            let mut payload = 3u64.to_le_bytes().to_vec();
            payload.extend_from_slice(&[tag, 1, 2]);
            conn.write_all(&encode_frame(FrameKind::Call, &payload)).unwrap();
            let (frame, _) = read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(frame.kind, FrameKind::StreamError);
            let err = StreamError::decode(&frame.payload).unwrap();
            assert_eq!((err.stream, err.error.retryable), (0, false));
            let bad_tag = format!("bad request tag {tag}");
            assert!(err.error.message.contains(&bad_tag), "{}", err.error.message);
            // the server hangs up after a framing error
            assert!(read_frame(&mut conn).unwrap().is_none());
        }
        // and keeps serving
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        assert!(matches!(call(&mut conn, 1, Request::Ping).unwrap(), Response::Pong));
        server.shutdown();
    }

    /// A driver whose every answer is one string just over the frame cap.
    struct HugeAnswers;

    impl PartixDriver for HugeAnswers {
        fn execute(&self, _: &Query) -> Result<Option<QueryOutput>, DriverError> {
            let big = "x".repeat(MAX_PAYLOAD + 1);
            Ok(Some(QueryOutput { items: vec![Item::Str(big)], stats: Default::default() }))
        }
        fn store(&self, _: &str, _: Vec<Document>) {}
        fn fetch_collection(&self, _: &str) -> Vec<Arc<Document>> {
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
        let query = parse_query(r#"collection("items")/Item"#).unwrap();
        let err = call(&mut conn, 1, Request::Execute { query: Cow::Owned(query) }).unwrap_err();
        assert!(!err.retryable, "the same answer would be as large on a retry");
        assert!(err.message.contains("exceeds the 67108864 B cap"), "{}", err.message);
        // nothing oversized went out, so the stream position is intact
        assert!(matches!(call(&mut conn, 2, Request::Collections).unwrap(), Response::Names(_)));
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_the_listener_is_gone() {
        let (mut server, _db) = spawn_node();
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        assert!(matches!(call(&mut conn, 1, Request::Ping).unwrap(), Response::Pong));
        server.shutdown();
        server.shutdown();
        // the open connection was cut, and new ones are refused or die instantly
        assert!(matches!(read_frame(&mut conn), Ok(None) | Err(_)));
        match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            Err(_) => {}
            Ok(mut late) => {
                let _ = late.set_read_timeout(Some(Duration::from_millis(250)));
                assert!(matches!(read_frame(&mut late), Ok(None) | Err(_)));
            }
        }
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
        let q = parse_query(COUNT).unwrap();
        driver.execute(&q).unwrap();
        driver.execute(&q).unwrap();
        let after_two = driver.stats();
        assert_eq!(after_two.connects, 1, "calls share one pooled connection");
        assert_eq!(driver.pooled_connections(), 1);

        // Restart the listener on the same port: the pooled connection
        // is now stale, and the next idempotent call must transparently
        // reconnect.
        server.shutdown();
        let mut server2 = NodeServer::bind(addr, Arc::clone(&db)).unwrap();
        driver.execute(&q).unwrap();
        let after_restart = driver.stats();
        assert_eq!(after_restart.reconnects, 1);
        assert_eq!(driver.pooled_connections(), 1);

        // Again, and the next call is a write: it surfaces Unavailable and
        // is not sent twice — the node may have applied the first.
        server2.shutdown();
        let _server3 = NodeServer::bind(addr, Arc::clone(&db)).unwrap();
        let mut d = parse("<Item><Code>77</Code></Item>").unwrap();
        d.name = Some("w1".into());
        let put = WriteOp::Put { collection: "items".into(), doc: d };
        match driver.write(&put) {
            Err(DriverError::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_eq!(driver.stats().reconnects, 1, "a write is never replayed");
        assert_eq!(driver.pooled_connections(), 0, "the stale connection was discarded");
        assert_eq!(db.collection_len("items").unwrap(), 6, "and never reached the new listener");
        assert_eq!(driver.write(&put).unwrap(), 0, "the caller's own retry dials afresh");
    }

    #[test]
    fn writes_apply_remotely_with_typed_errors() {
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

    /// A query no XQuery text parses back to fails typed, as an execute
    /// and as a fetch filter, and the node is never dialed: what it would
    /// have run is not the query the coordinator planned.
    fn refused_unsent(expr: Expr) {
        let (_server, _db) = spawn_node();
        let driver = RemoteDriver::new(_server.local_addr());
        let query = Query { expr };
        let outcomes = [
            driver.execute(&query).map(|_| ()),
            driver.try_fetch_filtered("items", &query).map(|_| ()),
        ];
        for outcome in outcomes {
            match outcome {
                Err(DriverError::Failed(m)) => {
                    assert!(m.contains("request not sent: no XQuery text"), "{m}")
                }
                other => panic!("{query:?}: expected a typed refusal, got {other:?}"),
            }
        }
        let stats = driver.stats();
        assert_eq!((stats.connects, stats.bytes_sent), (0, 0), "{query:?} reached the node");
    }

    fn var(name: &str) -> Expr {
        Expr::Path(PathSource {
            start: PathStart::Var(name.into()),
            path: PathExpr { absolute: false, steps: Vec::new() },
        })
    }

    #[test]
    fn a_negative_number_is_refused_unsent() {
        refused_unsent(Expr::Num(-1.0));
        refused_unsent(Expr::Num(-0.0));
    }

    #[test]
    fn a_non_finite_number_is_refused_unsent() {
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            refused_unsent(Expr::Num(n));
        }
    }

    #[test]
    fn a_string_holding_both_quote_kinds_is_refused_unsent() {
        refused_unsent(Expr::Str(r#"it's "quoted""#.into()));
    }

    #[test]
    fn a_one_term_and_is_refused_unsent() {
        refused_unsent(Expr::And(vec![var("x")]));
    }

    #[test]
    fn a_one_term_or_is_refused_unsent() {
        refused_unsent(Expr::Or(vec![var("x")]));
    }

    #[test]
    fn a_one_item_sequence_is_refused_unsent() {
        refused_unsent(Expr::Seq(vec![var("x")]));
    }

    #[test]
    fn a_call_named_collection_is_refused_unsent() {
        refused_unsent(Expr::Call { name: "collection".into(), args: vec![Expr::Str("items".into())] });
    }

    #[test]
    fn a_call_named_doc_is_refused_unsent() {
        refused_unsent(Expr::Call { name: "doc".into(), args: vec![Expr::Str("i1".into())] });
    }

    #[test]
    fn an_absolute_path_is_refused_unsent() {
        refused_unsent(Expr::Path(PathSource {
            start: PathStart::Collection("items".into()),
            path: PathExpr { absolute: true, steps: vec![Step::child("Item")] },
        }));
    }

    #[test]
    fn down_node_is_unavailable() {
        let (mut server, _db) = spawn_node();
        let addr = server.local_addr();
        server.shutdown();
        let driver = RemoteDriver::new(addr);
        let q = parse_query(COUNT).unwrap();
        match driver.execute(&q) {
            Err(DriverError::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert!(RemoteDriver::connect(addr).is_err());
    }

    /// What the shared pool of the retired client carried: any number of
    /// threads through one driver get the local answers, each over a
    /// connection of its own, and the idle list stays capped.
    #[test]
    fn eight_threads_share_one_driver() {
        const THREADS: usize = 8;
        let (_server, db) = spawn_node();
        let driver = RemoteDriver::connect(_server.local_addr()).unwrap();
        let query = parse_query(r#"for $i in collection("items")/Item return $i/Code"#).unwrap();
        let expected = PartixDriver::execute(&*db, &query).unwrap().unwrap().items;
        let stored = db.collection_len("items").unwrap();
        let begin = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (driver, query, expected, begin) = (&driver, &query, &expected, &begin);
                scope.spawn(move || {
                    begin.wait();
                    for i in 0..200 {
                        match (t + i) % 3 {
                            0 => {
                                let out = driver.execute(query).unwrap().unwrap();
                                assert_eq!(&out.items, expected)
                            }
                            1 => {
                                let docs = driver.try_fetch_collection("items").unwrap();
                                assert_eq!(docs.len(), stored)
                            }
                            _ => driver.health_check().unwrap(),
                        }
                    }
                });
            }
        });
        // a thread dials only when the idle list is empty, so no more than
        // THREADS connections are ever open at once; one returned to a
        // full idle list is closed, and the next checkout may dial again
        let stats = driver.stats();
        let open = (stats.connects - stats.closed) as usize;
        assert!(open <= THREADS, "{stats:?}");
        assert_eq!(open, driver.pooled_connections(), "{stats:?}");
        assert_eq!(stats.reconnects, 0);
        assert!(driver.pooled_connections() <= MAX_IDLE);
        driver.drain_pool();
        assert_eq!(driver.pooled_connections(), 0);
    }
}
