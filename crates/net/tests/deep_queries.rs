//! A query that nests thousands of levels must cost its sender a typed
//! error, not the server its process: the parser's and the codec's depth
//! bound answer before anything recurses that deep. (A stack overflow is
//! not a panic, so no firewall catches it.)
//!
//! * At a coordinator the text of a stream request is parsed — deep texts
//!   get a `StreamError`, and the same connection then serves the next
//!   query.
//! * At a node an `Execute` call carries the parsed query, a `Fetch` call
//!   may carry one as its filter; a `Call` frame whose tree is deeper than
//!   the bound — in nodes, `for` clauses or path steps — is refused, and
//!   the server goes on serving.

use partix_engine::{MetaService, NetworkModel, PartiX};
use partix_net::codec::Writer;
use partix_net::frame::{encode_frame, read_frame, FrameKind};
use partix_net::message::{Call, Reply, Request, Response};
use partix_net::{
    serve_coordinator, NodeServer, StreamCallError, StreamClient, StreamClientConfig, StreamOpts,
    StreamServerConfig,
};
use partix_path::{PathExpr, Step};
use partix_query::ast::{Binding, Clause, Expr, PathSource, PathStart};
use partix_query::{parse_query, Item, Query};
use partix_storage::Database;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

const COUNT: &str = r#"count(collection("items")/Item)"#;

fn items_db() -> Arc<Database> {
    let db = Database::new();
    for i in 0..4 {
        let mut doc = partix_xml::parse(&format!("<Item><Code>{i}</Code></Item>")).unwrap();
        doc.name = Some(format!("i{i}"));
        db.store("items", doc);
    }
    Arc::new(db)
}

fn nest(open: &str, core: &str, close: &str, n: usize) -> String {
    format!("{}{core}{}", open.repeat(n), close.repeat(n))
}

#[test]
fn coordinator_answers_deep_texts_with_an_error_and_keeps_serving() {
    let px = PartiX::new(1, NetworkModel::instantaneous());
    px.cluster().node(0).expect("node 0").set_driver(items_db());
    px.attach_meta(MetaService::with_catalog(px.catalog_snapshot()));
    let server = serve_coordinator("127.0.0.1:0", Arc::new(px), StreamServerConfig::default())
        .expect("bind coordinator");
    let client = StreamClient::connect(&server.addr().to_string(), StreamClientConfig::default())
        .expect("connect");
    let opts = || StreamOpts { allow_partial: false, buffered: false, tenant: None };

    for text in [
        nest("(", "1", ")", 1_000),
        nest("count(", "1", ")", 10_000),
        nest("if (1) then 1 else ", "1", "", 10_000),
        nest("<a>", "", "</a>", 30_000),
        nest("-", "1", "", 100_000),
        nest("1 + ", "1", "", 100_000),
    ] {
        match client.query(&text, opts()) {
            Err(StreamCallError::Remote { retryable: false, message, .. }) => {
                assert!(message.contains("deeper than"), "{message}");
            }
            other => panic!("a deep text must be a typed, final error: {other:?}"),
        }
        // the connection — and the process behind it — serves on
        let answer = client.query(COUNT, opts()).expect("next query is served");
        assert_eq!(answer.items, vec![Item::Num(4.0)]);
    }
}

#[test]
fn node_server_refuses_deep_query_frames_and_keeps_serving() {
    let mut server = NodeServer::bind("127.0.0.1:0", items_db()).unwrap();
    let one = || Expr::Num(1.0);
    let execute =
        |expr| Call { stream: 1, request: Request::Execute { query: Query { expr } } }.encode();
    // 10 000 nested negations around a number, as the codec writes them
    // (built as bytes: this thread could not even drop such a tree)
    let mut negations = vec![6u8; 10_000];
    negations.push(3);
    negations.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    let mut deep_frame = Writer::new();
    deep_frame.put_u64(1);
    deep_frame.put_u8(0);
    deep_frame.put_bytes(&negations);
    // the same tree as the filter of a fetch: one codec, one bound
    let mut deep_filter = Writer::new();
    deep_filter.put_u64(1);
    deep_filter.put_u8(7);
    deep_filter.put_str("items");
    deep_filter.put_bytes(&negations);
    let deep = [
        deep_frame.into_bytes(),
        deep_filter.into_bytes(),
        // one FLWOR of 10 000 clauses: flat in the tree, nested when run
        execute(Expr::Flwor {
            clauses: (0..10_000)
                .map(|i| Clause::For(Binding { var: format!("v{i}"), expr: one() }))
                .collect(),
            where_clause: None,
            order_by: None,
            ret: Box::new(one()),
        }),
        // a path of 10 000 steps
        execute(Expr::Path(PathSource {
            start: PathStart::Collection("items".into()),
            path: PathExpr { absolute: false, steps: vec![Step::child("Item"); 10_000] },
        })),
    ];
    for call in deep {
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(&encode_frame(FrameKind::Call, &call)).unwrap();
        let (frame, _) = read_frame(&mut conn).unwrap().expect("an answer");
        assert_eq!(frame.kind, FrameKind::StreamError);

        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let request = Request::Execute { query: parse_query(COUNT).unwrap() };
        let call = Call { stream: 2, request }.encode();
        conn.write_all(&encode_frame(FrameKind::Call, &call)).unwrap();
        let (frame, _) = read_frame(&mut conn).unwrap().expect("an answer");
        assert_eq!(frame.kind, FrameKind::Reply);
        match Reply::decode(&frame.payload).unwrap().response {
            Response::Output(Some(out)) => assert_eq!(out.items, vec![Item::Num(4.0)]),
            other => panic!("unexpected {other:?}"),
        }
    }
    server.shutdown();
}
