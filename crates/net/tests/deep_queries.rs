//! A query that nests thousands of levels must cost its sender a typed
//! error, not the server its process: the parser's depth bound answers
//! before anything recurses that deep. (A stack overflow is not a panic,
//! so no firewall catches it.)
//!
//! * At a coordinator the text of a stream request is parsed — deep texts
//!   get a `StreamError`, and the same connection then serves the next
//!   query.
//! * At a node an `Execute` call carries a query's text, a `Fetch` call
//!   may carry one as its filter, and the node parses both with the same
//!   parser; a text nested deeper than the bound — in negations, `for`
//!   clauses or path steps — is refused, and the server goes on serving.
//! * What the bound lets through prints back to a text the node accepts:
//!   the printer adds no nesting the grammar does not need.

use partix_engine::{NetworkModel, PartiX};
use partix_net::codec::{print_query, Writer};
use partix_net::frame::{encode_frame, read_frame, FrameKind};
use partix_net::message::{Call, Reply, Request, Response};
use partix_net::{
    serve_coordinator, NodeServer, StreamCallError, StreamClient, StreamClientConfig, StreamOpts,
    StreamServerConfig,
};
use partix_path::MAX_DEPTH;
use partix_query::{parse_query, Item};
use partix_storage::Database;
use std::borrow::Cow;
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
    let deep_texts = [
        nest("-", "1", "", 10_000),
        // one FLWOR of 10 000 clauses: flat in the tree, nested when run
        format!("{}return 1", "for $v in 1 ".repeat(10_000)),
        format!("collection(\"items\"){}", "/Item".repeat(10_000)),
    ];
    // built as bytes: no query this deep is ever printed
    let mut deep = Vec::new();
    for text in &deep_texts {
        let mut execute = Writer::new();
        execute.put_u64(1);
        execute.put_u8(0);
        execute.put_str(text);
        deep.push(execute.into_bytes());
        let mut fetch = Writer::new();
        fetch.put_u64(1);
        fetch.put_u8(7);
        fetch.put_str("items");
        fetch.put_str(text);
        deep.push(fetch.into_bytes());
    }
    for call in deep {
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(&encode_frame(FrameKind::Call, &call)).unwrap();
        let (frame, _) = read_frame(&mut conn).unwrap().expect("an answer");
        assert_eq!(frame.kind, FrameKind::StreamError);

        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let request = Request::Execute { query: Cow::Owned(parse_query(COUNT).unwrap()) };
        let call = Call { stream: 2, request }.encode().unwrap();
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

/// The nesting shapes of the query parser's own depth suite
/// (`crates/query/tests/depth.rs`).
fn hostile_queries(n: usize) -> Vec<(&'static str, String)> {
    vec![
        ("parentheses", nest("(", "1", ")", n)),
        ("calls", nest("count(", "1", ")", n)),
        ("conditionals", nest("if (1) then 1 else ", "1", "", n)),
        ("constructors", nest("<a>", "", "</a>", n)),
        ("unary minus", nest("-", "1", "", n)),
        ("braced constructors", nest("<a>{", "1", "}</a>", n)),
        ("operator chain", nest("1 + ", "1", "", n)),
        ("multiplication chain", nest("1 * ", "1", "", n)),
        ("clause chain", format!("for {} return 1", nest("$x in 1, ", "$y in 1", "", n))),
        ("long path", format!("collection(\"c\"){}", "/a".repeat(n))),
    ]
}

#[test]
fn the_deepest_accepted_queries_print_and_parse_back() {
    for (shape, _) in hostile_queries(1) {
        let text = |n| hostile_queries(n).into_iter().find(|(s, _)| *s == shape).unwrap().1;
        let deepest = (1..=MAX_DEPTH)
            .rev()
            .find(|&n| parse_query(&text(n)).is_ok())
            .unwrap_or_else(|| panic!("no depth of {shape} parses"));
        let query = parse_query(&text(deepest)).unwrap();
        let printed = print_query(&query).unwrap_or_else(|e| panic!("{shape}: {e}"));
        assert_eq!(parse_query(&printed).as_ref(), Ok(&query), "{shape} at depth {deepest}");
        // and it crosses the wire to a node as it is
        let request = Request::Execute { query: Cow::Owned(query) };
        let back = Request::decode(&request.encode().unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{request:?}"), "{shape}");
    }
}
