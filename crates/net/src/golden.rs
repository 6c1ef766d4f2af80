//! Golden wire bytes: one `ItemChunk` frame and one node answer as the
//! commit *before* the one-buffer frame writer produced them
//! (`tests/fixtures/*.hex`, written there by this module's builders over
//! the old `encode_frame(kind, &message.encode())`). The writer must
//! reproduce them bit for bit — a coordinator client built then still
//! interoperates — and so must the payload-then-frame path that tests and
//! tools use.
//!
//! The node answer was a `PXN1` `Result` frame then. `reply_frame.hex` is
//! that file re-headed as the `Reply` frame that replaced it: magic,
//! version and kind changed, stream id 9 put in front of the payload (so
//! length and frame checksum moved with it), and the `Response` bytes
//! behind the id left as that encoder wrote them — the test holds them to
//! the old file's length and CRC.

use crate::codec::frame_of;
use crate::frame::{crc32, encode_frame, read_frame, FrameKind};
use crate::message::{Reply, Response};
use crate::stream::{put_chunk, ItemChunk};
use partix_query::{Item, Sequence};
use partix_storage::{QueryOutput, QueryStats};
use partix_xml::{binary, parse, Dewey, Document, NodeId, NodeKind, Origin};
use std::sync::Arc;

/// Every item shape the codec ships: an arena-backed and a page-backed
/// root (name and origin set, and dropped on the wire), inner elements of
/// both, an attribute, a text, a string, a number, a boolean.
fn golden_items() -> Sequence {
    let mut doc =
        parse(r#"<Item id="7"><Code>12</Code><Name>Dark &amp; Side</Name><Empty/></Item>"#)
            .unwrap();
    doc.name = Some("d1".into());
    doc.origin =
        Some(Origin { source_doc: "master".into(), dewey: Dewey::parse("1.2").unwrap() });
    let paged = Arc::new(Document::from_page(binary::encode(&doc)).unwrap());
    let doc = Arc::new(doc);
    let find = |kind: NodeKind, label: &str| {
        doc.get(NodeId::ROOT)
            .unwrap()
            .descendants_or_self()
            .find(|n| n.kind() == kind && (label.is_empty() || n.label() == label))
            .unwrap()
            .id()
    };
    vec![
        Item::Node(doc.clone(), NodeId::ROOT),
        Item::Node(paged.clone(), NodeId::ROOT),
        Item::Node(doc.clone(), find(NodeKind::Element, "Name")),
        Item::Node(paged, find(NodeKind::Element, "Code")),
        Item::Node(doc.clone(), find(NodeKind::Attribute, "")),
        Item::Node(doc.clone(), find(NodeKind::Text, "")),
        Item::Str("plain & simple".into()),
        Item::Num(12.5),
        Item::Bool(true),
    ]
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn reply_frame_is_reproduced_bit_for_bit() {
    let golden = unhex(include_str!("../tests/fixtures/reply_frame.hex"));
    let response = Response::Output(Some(QueryOutput {
        items: golden_items(),
        stats: QueryStats {
            collection_size: 100,
            docs_scanned: 42,
            index_used: true,
            elapsed: 0.0125,
            result_bytes: 4096,
            morsels: 3,
        },
    }));
    let reply = Reply { stream: 9, response };
    // what a node server sends
    assert_eq!(frame_of(FrameKind::Reply, |w| reply.put(w)).unwrap(), golden);
    assert_eq!(encode_frame(FrameKind::Reply, &reply.encode()), golden);
    // the response behind the stream id is the retired `Result` frame's
    // payload: its length and its checksum, from that frame's header
    let (frame, n) = read_frame(&mut golden.as_slice()).unwrap().unwrap();
    assert_eq!((frame.kind, n), (FrameKind::Reply, golden.len()));
    assert_eq!(frame.payload[..8], 9u64.to_le_bytes());
    assert_eq!((frame.payload[8..].len(), crc32(&frame.payload[8..])), (1012, 0x0DB6_D1D7));
    // and the bytes still read as what they said
    let Response::Output(Some(out)) = Reply::decode(&frame.payload).unwrap().response else {
        panic!("an output expected");
    };
    assert_eq!(out.items, golden_items());
}

#[test]
fn item_chunk_frame_is_reproduced_bit_for_bit() {
    let golden = unhex(include_str!("../tests/fixtures/item_chunk_frame.hex"));
    let chunk = ItemChunk { stream: 9, seq: 3, items: golden_items() };
    // what a stream sink sends
    let sent = frame_of(FrameKind::ItemChunk, |w| put_chunk(w, 9, 3, &chunk.items)).unwrap();
    assert_eq!(sent, golden);
    assert_eq!(encode_frame(FrameKind::ItemChunk, &chunk.encode()), golden);
    let (frame, _) = read_frame(&mut golden.as_slice()).unwrap().unwrap();
    assert_eq!(ItemChunk::decode(&frame.payload).unwrap(), chunk);
}
