//! Wire-protocol property tests: every frame and payload type
//! round-trips byte-exactly, and *no* mutation of the bytes — truncation,
//! corruption, oversized lengths, unknown versions — can make the
//! decoder panic or allocate unboundedly: the outcome is always a typed
//! [`ProtocolError`].
//!
//! `PARTIX_PROPTEST_CASES` overrides every block's case count.

use partix_net::codec::{self, Reader, Writer};
use partix_net::frame::{
    self, crc32, encode_frame, read_frame, FrameKind, ProtocolError, HEADER_LEN, MAX_PAYLOAD,
    VERSION,
};
use partix_net::message::{Call, Reply, Request, Response, WireError};
use partix_net::stream::{
    ItemChunk, StreamAssembler, StreamEnd, StreamError, StreamOutcome, StreamQuery, StreamStats,
    MAX_CHUNK_ITEMS,
};
use partix_query::parse_query;
use partix_query::Item;
use partix_storage::{QueryOutput, QueryStats};
use partix_xml::Document;
use proptest::prelude::*;

/// Per-block case budget, overridable with `PARTIX_PROPTEST_CASES`.
fn cases(default_cases: u32) -> ProptestConfig {
    std::env::var("PARTIX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(ProptestConfig::with_cases)
        .unwrap_or_else(|| ProptestConfig::with_cases(default_cases))
}

// ------------------------------------------------------- strategies --

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop::sample::select(vec![
        FrameKind::OpenStream,
        FrameKind::ItemChunk,
        FrameKind::StreamEnd,
        FrameKind::StreamError,
        FrameKind::CancelStream,
        FrameKind::Call,
        FrameKind::Reply,
    ])
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0usize..256).prop_map(|b| b as u8), 0..300)
}

/// Random well-formed documents, via the generator the benches use.
fn arb_document() -> impl Strategy<Value = Document> {
    (0u64..1000).prop_map(|seed| {
        partix_gen::gen_items(1, partix_gen::ItemProfile::Small, seed)
            .into_iter()
            .next()
            .expect("one generated item")
    })
}

/// Query texts spanning every expression family the codec ships: FLWOR
/// with where/order/let, paths with predicates and descendant axes,
/// comparisons, arithmetic, boolean connectives, conditionals, function
/// calls, element constructors, and literal text.
fn arb_query_text() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        r#"count(collection("items")/Item)"#,
        r#"for $i in collection("items")/Item return $i/Name"#,
        r#"for $i in collection("items")/Item where $i/Section = "CD" return $i"#,
        r#"for $i in collection("items")/Item where $i/Quantity > 2 order by $i/Code return $i/Code"#,
        r#"for $i in collection("items")/Item let $n := $i/Name where contains($n, "good") return $n"#,
        r#"sum(for $i in collection("items")/Item return $i/Quantity)"#,
        r#"avg(collection("items")/Item/Quantity)"#,
        r#"for $i in collection("items")/Item return <hit id="1">{$i/Name}</hit>"#,
        r#"if (count(collection("items")/Item) > 0) then "some" else "none""#,
        r#"for $i in collection("items")/Item where $i/Section = "CD" and $i/Quantity >= 1 return $i"#,
        r#"for $i in collection("items")/Item where $i/Section = "CD" or $i/Section = "DVD" return $i/Code"#,
        r#"count(collection("items")//Picture)"#,
        r#"for $i in collection("items")/Item return $i/Quantity + 1"#,
        r#"-count(collection("items")/Item)"#,
    ])
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        Just(Item::Bool(true)).boxed(),
        Just(Item::Bool(false)).boxed(),
        (0u64..2_000_000_000)
            .prop_map(|v| Item::Num(v as f64 - 1e9))
            .boxed(),
        prop::sample::select(vec!["", "plain", "ma\u{e7}\u{e3}", "<&>\"'"])
            .prop_map(|s| Item::Str(s.to_owned()))
            .boxed(),
        arb_document()
            .prop_map(|doc| {
                let doc = std::sync::Arc::new(doc);
                let root = doc.root().id();
                Item::Node(doc, root)
            })
            .boxed(),
    ]
}

// ------------------------------------------------------- round-trips --

proptest! {
    #![proptest_config(cases(96))]

    #[test]
    fn frame_roundtrip(kind in arb_kind(), payload in arb_payload()) {
        let bytes = encode_frame(kind, &payload);
        prop_assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        prop_assert_eq!(&bytes[..4], b"PXN2");
        prop_assert_eq!(bytes[4], VERSION);
        let (frame, consumed) = read_frame(&mut bytes.as_slice())
            .expect("own frame decodes")
            .expect("not EOF");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(frame.kind, kind);
        prop_assert_eq!(frame.payload, payload);
    }

    #[test]
    fn query_payload_roundtrip(text in arb_query_text()) {
        let query = parse_query(text).expect("strategy queries parse");
        let bytes = codec::encode_query(&query);
        let back = codec::decode_query(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &query);
        // and re-encoding is byte-stable
        prop_assert_eq!(codec::encode_query(&back), bytes);
    }

    #[test]
    fn document_payload_roundtrip(doc in arb_document()) {
        let mut w = Writer::new();
        codec::put_document(&mut w, &doc);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = codec::get_document(&mut r).expect("own encoding decodes");
        r.finish().expect("no trailing bytes");
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn item_payload_roundtrip(item in arb_item()) {
        let mut w = Writer::new();
        codec::put_item(&mut w, &item);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = codec::get_item(&mut r).expect("own encoding decodes");
        r.finish().expect("no trailing bytes");
        // Item has no PartialEq: the serialization contract is equality
        prop_assert_eq!(back.serialize(), item.serialize());
    }

    #[test]
    fn request_and_call_roundtrip(
        text in arb_query_text(),
        docs in prop::collection::vec(arb_document(), 0..3),
        stream in 0u64..u64::MAX,
    ) {
        let query = parse_query(text).expect("strategy queries parse");
        for request in [
            Request::Execute { query: query.clone() },
            Request::Store { collection: "c".into(), docs: docs.clone() },
            Request::Fetch { collection: "c".into(), filter: None },
            Request::Fetch { collection: "c".into(), filter: Some(query.clone()) },
            Request::Collections,
            Request::Drop { collection: "c".into() },
            Request::Ping,
        ] {
            let bytes = request.encode();
            let back = Request::decode(&bytes).expect("own encoding decodes");
            // Request has no PartialEq (Document): byte-stability is the contract
            prop_assert_eq!(back.encode(), bytes.clone());
            prop_assert_eq!(back.idempotent(), request.idempotent());
            // a call: the stream id, then the request's bytes as they are
            let call = Call { stream, request }.encode();
            prop_assert_eq!(&call[..8], &stream.to_le_bytes());
            prop_assert_eq!(&call[8..], bytes.as_slice());
            let back = Call::decode(&call).expect("own encoding decodes");
            prop_assert_eq!(back.stream, stream);
            prop_assert_eq!(back.encode(), call.clone());
            // every proper prefix is a typed error
            for cut in 0..call.len() {
                prop_assert!(Call::decode(&call[..cut]).is_err(), "call prefix {cut}");
            }
        }
    }

    #[test]
    fn response_and_reply_roundtrip(
        items in prop::collection::vec(arb_item(), 0..4),
        docs in prop::collection::vec(arb_document(), 0..3),
        stream in 0u64..u64::MAX,
    ) {
        let output = QueryOutput {
            items: items.clone(),
            stats: QueryStats {
                collection_size: 7,
                docs_scanned: 3,
                index_used: true,
                elapsed: 0.25,
                result_bytes: 99,
                morsels: 2,
            },
        };
        for response in [
            Response::Output(Some(output)),
            Response::Output(None),
            Response::Stored,
            Response::Docs(docs.iter().cloned().map(std::sync::Arc::new).collect()),
            Response::Names(vec!["a".into(), "b".into()]),
            Response::Dropped,
            Response::Written(3),
            Response::Pong,
        ] {
            let bytes = response.encode();
            let back = Response::decode(&bytes).expect("own encoding decodes");
            prop_assert_eq!(back.encode(), bytes.clone());
            // a reply: the stream id, then the response's bytes as they are
            let reply = Reply { stream, response }.encode();
            prop_assert_eq!(&reply[..8], &stream.to_le_bytes());
            prop_assert_eq!(&reply[8..], bytes.as_slice());
            let back = Reply::decode(&reply).expect("own encoding decodes");
            prop_assert_eq!(back.stream, stream);
            prop_assert_eq!(back.encode(), reply.clone());
            for cut in 0..reply.len() {
                prop_assert!(Reply::decode(&reply[..cut]).is_err(), "reply prefix {cut}");
            }
        }
    }

    #[test]
    fn wire_error_roundtrip(
        retryable in prop::sample::select(vec![true, false]),
        msg in prop::sample::select(vec!["", "boom", "nó caiu"]),
        code in (0usize..3).prop_map(|c| c as u8),
        retry_after_ms in prop::sample::select(vec![0u64, 100, u64::MAX]),
    ) {
        let code = partix_net::ErrorCode::from_u8(code).unwrap();
        let err = WireError { retryable, code, retry_after_ms, message: msg.to_owned() };
        let back = WireError::decode(&err.encode()).expect("own encoding decodes");
        prop_assert_eq!(back.retryable, retryable);
        prop_assert_eq!(back.code, code);
        prop_assert_eq!(back.retry_after_ms, retry_after_ms);
        prop_assert_eq!(back.message, msg);
    }
}

proptest! {
    #![proptest_config(cases(96))]

    /// A hostile tenant header — control bytes, separators, oversized
    /// names — decodes to a typed [`ProtocolError::Malformed`] in both
    /// openings, never a panic and never a silently accepted identity.
    /// Valid names always round-trip.
    #[test]
    fn hostile_tenant_headers_are_typed_in_both_openings(
        raw in prop::collection::vec((0usize..256).prop_map(|b| b as u8), 0..100),
        stream in 1u64..1000,
    ) {
        let tenant = String::from_utf8_lossy(&raw).into_owned();
        let valid = !tenant.is_empty()
            && tenant.len() <= 64
            && tenant.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
        // a call: ExecuteAs carries the header
        let query = parse_query(r#"collection("c")/x"#).unwrap();
        let call = Call { stream, request: Request::ExecuteAs { tenant: tenant.clone(), query } };
        match Call::decode(&call.encode()) {
            Ok(_) => prop_assert!(valid, "invalid tenant {tenant:?} decoded in a call"),
            Err(e) => {
                prop_assert!(!valid, "valid tenant {tenant:?} rejected in a call: {e}");
                prop_assert!(matches!(e, ProtocolError::Malformed(_)));
            }
        }
        // a stream: StreamQuery carries it (empty = anonymous, always fine)
        let sq = StreamQuery {
            stream,
            text: "1".into(),
            allow_partial: false,
            buffered: false,
            chunk_items: 0,
            tenant: tenant.clone(),
        };
        match StreamQuery::decode(&sq.encode()) {
            Ok(back) => {
                prop_assert!(valid || tenant.is_empty(),
                    "invalid tenant {tenant:?} decoded in a stream");
                prop_assert_eq!(back.tenant, tenant);
            }
            Err(e) => {
                prop_assert!(!(valid || tenant.is_empty()),
                    "valid tenant {tenant:?} rejected in a stream: {e}");
                prop_assert!(matches!(e, ProtocolError::Malformed(_)));
            }
        }
    }
}

// -------------------------------------------------- hostile mutations --

proptest! {
    #![proptest_config(cases(96))]

    /// Every proper prefix of a valid frame is a typed error (or, before
    /// the first byte, a clean EOF) — never a panic.
    #[test]
    fn truncated_frames_are_typed_errors(kind in arb_kind(), payload in arb_payload()) {
        let bytes = encode_frame(kind, &payload);
        for cut in 0..bytes.len() {
            match read_frame(&mut &bytes[..cut]) {
                Ok(None) => prop_assert_eq!(cut, 0, "mid-frame EOF reported as clean"),
                Ok(Some(_)) => prop_assert!(false, "decoded a truncated frame (cut {cut})"),
                Err(e) => prop_assert!(
                    matches!(e, ProtocolError::Truncated { .. } | ProtocolError::Io(_)),
                    "cut {cut}: unexpected error {e:?}",
                ),
            }
        }
    }

    /// Flipping any single byte of a frame yields a typed error or — only
    /// when the flip lands in the length field and still describes a
    /// plausible frame — a short read; silently accepting changed payload
    /// bytes is outlawed by the checksum.
    #[test]
    fn corrupted_frames_never_decode_silently(kind in arb_kind(), payload in arb_payload(), pos in 0usize..100, flip in 1usize..256) {
        let mut bytes = encode_frame(kind, &payload);
        let pos = pos % bytes.len();
        bytes[pos] ^= flip as u8;
        match read_frame(&mut bytes.as_slice()) {
            // corrupting the length field can make the frame look longer
            // than the bytes present (Truncated) or shorter: a short,
            // checksum-failing frame. Both are detected outcomes.
            Err(_) => {}
            Ok(None) => prop_assert!(false, "corruption reported as clean EOF"),
            Ok(Some((frame, _))) => {
                // length-field shrink: the checksum over the shorter
                // payload cannot match the original CRC except by
                // constructing it — which a single XOR cannot do without
                // also hitting the CRC field. If we get here the flip hit
                // the CRC *and* produced the CRC of the same payload,
                // which is impossible for a non-zero flip.
                prop_assert!(
                    frame.payload != payload || frame.kind != kind,
                    "flipped frame decoded back to the original",
                );
            }
        }
    }

    /// A header advertising an oversized payload is rejected before any
    /// allocation of that size.
    #[test]
    fn oversized_length_is_rejected(kind in arb_kind(), extra in 1u64..1_000_000) {
        let mut bytes = encode_frame(kind, b"x");
        let huge = (MAX_PAYLOAD as u64 + extra).min(u32::MAX as u64) as u32;
        bytes[6..10].copy_from_slice(&huge.to_le_bytes());
        match read_frame(&mut bytes.as_slice()) {
            Err(ProtocolError::Oversized { len, max }) => {
                prop_assert_eq!(len, huge as usize);
                prop_assert_eq!(max, MAX_PAYLOAD);
            }
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
    }

    /// Unknown protocol versions and frame kinds are typed errors.
    #[test]
    fn unknown_version_and_kind_are_typed_errors(kind in arb_kind(), version in 3usize..256, bogus_kind in 13usize..256) {
        let mut bytes = encode_frame(kind, b"payload");
        bytes[4] = version as u8;
        match read_frame(&mut bytes.as_slice()) {
            Err(ProtocolError::UnsupportedVersion(v)) => prop_assert_eq!(v, version as u8),
            other => prop_assert!(false, "expected UnsupportedVersion, got {other:?}"),
        }
        let mut bytes = encode_frame(kind, b"payload");
        bytes[5] = bogus_kind as u8;
        match read_frame(&mut bytes.as_slice()) {
            Err(ProtocolError::UnknownFrame(k)) => prop_assert_eq!(k, bogus_kind as u8),
            other => prop_assert!(false, "expected UnknownFrame, got {other:?}"),
        }
    }

    /// Arbitrary bytes fed to the payload decoders are typed errors,
    /// never panics or runaway allocations.
    #[test]
    fn random_bytes_never_panic_payload_decoders(payload in arb_payload()) {
        let _ = codec::decode_query(&payload);
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
        let _ = WireError::decode(&payload);
        let _ = Call::decode(&payload);
        let _ = Reply::decode(&payload);
        let mut r = Reader::new(&payload);
        let _ = codec::get_document(&mut r);
        let mut r = Reader::new(&payload);
        let _ = codec::get_item(&mut r);
        let mut r = Reader::new(&payload);
        let _ = codec::get_output(&mut r);
    }

    /// Truncating a valid *payload* (inside an intact frame) is a typed
    /// error from the payload decoder — a fetch's, with and without its
    /// filter, like a bare query's.
    #[test]
    fn truncated_payloads_are_typed_errors(text in arb_query_text()) {
        let query = parse_query(text).expect("strategy queries parse");
        let bytes = codec::encode_query(&query);
        for cut in 0..bytes.len() {
            prop_assert!(
                codec::decode_query(&bytes[..cut]).is_err(),
                "prefix of length {cut} decoded as a full query",
            );
        }
        for filter in [Some(query), None] {
            let bytes = Request::Fetch { collection: "c".into(), filter }.encode();
            for cut in 0..bytes.len() {
                prop_assert!(
                    Request::decode(&bytes[..cut]).is_err(),
                    "prefix of length {cut} decoded as a full fetch",
                );
            }
        }
    }

    /// A fetch whose filter bytes are corrupted decodes to a typed error
    /// or to some well-formed request — it never panics, and a byte past
    /// the filter is never ignored.
    #[test]
    fn corrupted_fetch_filters_never_panic(
        text in arb_query_text(),
        pos in 0usize..4096,
        flip in 1usize..256,
    ) {
        let query = parse_query(text).expect("strategy queries parse");
        let mut bytes = Request::Fetch { collection: "c".into(), filter: Some(query) }.encode();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip as u8;
        if let Ok(back) = Request::decode(&bytes) {
            prop_assert_eq!(back.encode(), bytes, "a decoded request re-encodes to its bytes");
        }
        bytes.push(0);
        prop_assert!(Request::decode(&bytes).is_err(), "trailing byte accepted");
    }
}

// ----------------------------------------------------------- streams --

fn arb_stream_query() -> impl Strategy<Value = StreamQuery> {
    (
        0u64..u64::MAX,
        arb_query_text(),
        prop::sample::select(vec![true, false]),
        prop::sample::select(vec![true, false]),
        0u32..100_000,
        prop::sample::select(vec!["", "t1", "team-a", "analytics_prod", "a.b.c"]),
    )
        .prop_map(|(stream, text, allow_partial, buffered, chunk_items, tenant)| StreamQuery {
            stream,
            text: text.to_owned(),
            allow_partial,
            buffered,
            chunk_items,
            tenant: tenant.to_owned(),
        })
}

fn arb_stream_end() -> impl Strategy<Value = StreamEnd> {
    (
        0u64..u64::MAX,
        0u32..1000,
        0u64..100_000,
        0u32..64,
        0u32..64,
        0u64..100_000,
        prop::sample::select(vec![true, false]),
        0u64..u64::MAX,
    )
        .prop_map(
            |(stream, chunks, items, sites, pruned, docs, partial, epoch)| StreamEnd {
                stream,
                chunks,
                items,
                stats: StreamStats {
                    sites,
                    fragments_pruned: pruned,
                    docs_scanned: docs,
                    partial,
                    catalog_epoch: epoch,
                    elapsed: 0.125,
                },
            },
        )
}

/// One step of a hostile coordinator's output, as the assembler fuzz
/// sees it: chunks with arbitrary stream ids and sequence numbers,
/// ends with arbitrary totals, typed errors.
#[derive(Debug, Clone)]
enum StreamStep {
    Chunk { stream: u64, seq: u32, items: usize },
    End { stream: u64, chunks: u32, items: u64 },
    Fail { stream: u64 },
}

fn arb_stream_step() -> impl Strategy<Value = StreamStep> {
    prop_oneof![
        (0u64..4, 0u32..6, 0usize..5)
            .prop_map(|(stream, seq, items)| StreamStep::Chunk { stream, seq, items }),
        (0u64..4, 0u32..6, 0u64..20)
            .prop_map(|(stream, chunks, items)| StreamStep::End { stream, chunks, items }),
        (0u64..4).prop_map(|stream| StreamStep::Fail { stream }),
    ]
}

proptest! {
    #![proptest_config(cases(96))]

    /// Every stream payload type round-trips byte-exactly.
    #[test]
    fn stream_payloads_roundtrip(
        q in arb_stream_query(),
        end in arb_stream_end(),
        items in prop::collection::vec(arb_item(), 0..4),
        retryable in prop::sample::select(vec![true, false]),
    ) {
        prop_assert_eq!(StreamQuery::decode(&q.encode()).unwrap(), q.clone());
        prop_assert_eq!(StreamEnd::decode(&end.encode()).unwrap(), end);
        let chunk = ItemChunk { stream: q.stream, seq: 3, items };
        let back = ItemChunk::decode(&chunk.encode()).unwrap();
        prop_assert_eq!(back.stream, chunk.stream);
        prop_assert_eq!(back.seq, chunk.seq);
        let err = StreamError::failure(q.stream, retryable, "nó caiu");
        prop_assert_eq!(StreamError::decode(&err.encode()).unwrap(), err.clone());
        // its body is the one typed failure, behind the stream id
        prop_assert_eq!(err.encode()[8..].to_vec(), err.error.encode());
    }

    /// Hostile bytes against every stream payload decoder and the frame
    /// reader: typed errors, never panics.
    #[test]
    fn random_bytes_never_panic_stream_decoders(payload in arb_payload()) {
        let _ = StreamQuery::decode(&payload);
        let _ = ItemChunk::decode(&payload);
        let _ = StreamEnd::decode(&payload);
        let _ = StreamError::decode(&payload);
        let _ = read_frame(&mut payload.as_slice());
    }

    /// Every proper prefix of a valid stream payload is a typed error.
    #[test]
    fn truncated_stream_payloads_are_typed_errors(q in arb_stream_query(), end in arb_stream_end()) {
        let bytes = q.encode();
        for cut in 0..bytes.len() {
            prop_assert!(StreamQuery::decode(&bytes[..cut]).is_err(), "query prefix {cut}");
        }
        let bytes = end.encode();
        for cut in 0..bytes.len() {
            prop_assert!(StreamEnd::decode(&bytes[..cut]).is_err(), "end prefix {cut}");
        }
    }

    /// Fuzz the reassembly state machine with arbitrary interleavings of
    /// chunks (any stream id, any seq), ends, and errors: it never
    /// panics, rejects every frame not belonging to its stream, and a
    /// `Complete` outcome is only reachable through consecutive sequence
    /// numbers with truthful totals.
    #[test]
    fn assembler_rejects_every_out_of_contract_interleaving(
        target in 0u64..4,
        steps in prop::collection::vec(arb_stream_step(), 0..24),
    ) {
        let mut asm = StreamAssembler::new(target);
        let mut accepted_chunks: u32 = 0;
        let mut accepted_items: u64 = 0;
        for step in steps {
            match step {
                StreamStep::Chunk { stream, seq, items } => {
                    let chunk = ItemChunk {
                        stream,
                        seq,
                        items: (0..items).map(|i| Item::Num(i as f64)).collect(),
                    };
                    let in_contract = stream == target
                        && !asm.is_done()
                        && seq == accepted_chunks;
                    match asm.accept_chunk(chunk) {
                        Ok(added) => {
                            prop_assert!(in_contract, "accepted chunk out of contract");
                            prop_assert_eq!(added, items);
                            accepted_chunks += 1;
                            accepted_items += items as u64;
                        }
                        Err(e) => {
                            prop_assert!(!in_contract, "rejected in-contract chunk: {e}");
                            prop_assert!(matches!(e, ProtocolError::Stream(_)));
                        }
                    }
                }
                StreamStep::End { stream, chunks, items } => {
                    let truthful = stream == target
                        && !asm.is_done()
                        && chunks == accepted_chunks
                        && items == accepted_items;
                    match asm.finish(StreamEnd {
                        stream,
                        chunks,
                        items,
                        stats: StreamStats::default(),
                    }) {
                        Ok(()) => prop_assert!(truthful, "accepted untruthful end-of-stream"),
                        Err(e) => {
                            prop_assert!(!truthful, "rejected truthful end: {e}");
                            prop_assert!(matches!(e, ProtocolError::Stream(_)));
                        }
                    }
                }
                StreamStep::Fail { stream } => {
                    let in_contract = stream == target && !asm.is_done();
                    let err = StreamError::failure(stream, false, "x");
                    match asm.fail(err) {
                        Ok(()) => prop_assert!(in_contract),
                        Err(e) => prop_assert!(!in_contract, "rejected in-contract error: {e}"),
                    }
                }
            }
        }
        // a stream that never concluded is Truncated, not a silent prefix
        let done = asm.is_done();
        match asm.into_result() {
            Ok((items, outcome)) => {
                prop_assert!(done);
                if let StreamOutcome::Complete(end) = outcome {
                    prop_assert_eq!(end.items, items.len() as u64);
                }
            }
            Err(e) => {
                prop_assert!(!done);
                prop_assert!(matches!(e, ProtocolError::Truncated { .. }));
            }
        }
    }
}

/// A chunk claiming more items than [`MAX_CHUNK_ITEMS`] is rejected by
/// the payload decoder *and* the assembler — the per-chunk allocation
/// bound a hostile coordinator cannot talk its way around.
#[test]
fn oversized_chunk_is_rejected() {
    let oversized = ItemChunk {
        stream: 1,
        seq: 0,
        items: (0..MAX_CHUNK_ITEMS + 1).map(|_| Item::Bool(true)).collect(),
    };
    let bytes = oversized.encode();
    assert!(matches!(ItemChunk::decode(&bytes), Err(ProtocolError::Stream(_))));
    let mut asm = StreamAssembler::new(1);
    assert!(matches!(asm.accept_chunk(oversized), Err(ProtocolError::Stream(_))));
    assert!(asm.items().is_empty(), "oversized chunk leaked items into the assembly");
}

/// A frame of the retired `PXN1` protocol — here the health ping and the
/// `Collections` request a peer of the previous build opens with — is
/// refused by a typed error that names it, at a node and at a coordinator
/// alike: a best-effort `StreamError` under stream id 0, then the
/// connection is closed, not left hanging.
#[test]
fn a_pxn1_frame_gets_a_typed_error_naming_it_and_a_closed_connection() {
    use partix_engine::{NetworkModel, PartiX};
    use std::io::{Read, Write};

    let pxn1 = |kind: u8, payload: &[u8]| {
        let mut frame = encode_frame(FrameKind::CancelStream, payload);
        frame[..6].copy_from_slice(&[b'P', b'X', b'N', b'1', 1, kind]);
        frame
    };
    let err = read_frame(&mut pxn1(4, b"").as_slice()).unwrap_err();
    assert_eq!(err, ProtocolError::BadMagic(*b"PXN1"));
    assert!(err.to_string().contains("PXN1"), "{err}");

    let node = partix_net::NodeServer::bind(
        "127.0.0.1:0",
        std::sync::Arc::new(partix_storage::Database::new()),
    )
    .unwrap();
    let coordinator = partix_net::serve_coordinator(
        "127.0.0.1:0",
        std::sync::Arc::new(PartiX::new(1, NetworkModel::instantaneous())),
        partix_net::StreamServerConfig::default(),
    )
    .unwrap();
    for addr in [node.local_addr(), coordinator.addr()] {
        for frame in [pxn1(4, b""), pxn1(1, &Request::Collections.encode())] {
            let mut sock = std::net::TcpStream::connect(addr).unwrap();
            sock.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
            sock.write_all(&frame).unwrap();
            let (answer, _) = read_frame(&mut sock).unwrap().expect("a typed answer");
            assert_eq!(answer.kind, FrameKind::StreamError);
            let fault = StreamError::decode(&answer.payload).unwrap();
            assert_eq!(fault.stream, 0);
            assert!(!fault.error.retryable);
            assert!(fault.error.message.contains("PXN1"), "{}", fault.error.message);
            // closed: end of file (a timeout here would be a hang)
            let mut rest = Vec::new();
            assert_eq!(sock.read_to_end(&mut rest).unwrap(), 0);
        }
    }
}

/// The CRC implementation matches the IEEE reference vector, pinning the
/// wire format against silent table regressions.
#[test]
fn crc32_reference_vector() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(frame::MAGIC, *b"PXN2");
}
