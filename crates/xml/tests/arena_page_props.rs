//! Arena/page property tests: for random documents covering attributes,
//! mixed content, deep nesting and empty elements, `decode(encode(doc))`
//! reproduces the document exactly, a page-backed document agrees with
//! the arena on every read and copies itself on the first write, Dewey
//! ids survive the round trip — and hostile pages (truncated,
//! bit-flipped, links rewritten) give a typed error or a document every
//! reader terminates on. The text parser gets the same treatment: random
//! and mutated input gives a document that round-trips or a typed error.
//!
//! `PARTIX_PROPTEST_CASES` overrides every block's case count.

use partix_xml::{binary, to_string, Dewey, Document, NodeId, NodeKind, Origin, PageView, XmlError};
use proptest::prelude::*;

/// Per-block case budget, overridable with `PARTIX_PROPTEST_CASES`.
fn cases(default_cases: u32) -> ProptestConfig {
    std::env::var("PARTIX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(ProptestConfig::with_cases)
        .unwrap_or_else(|| ProptestConfig::with_cases(default_cases))
}

/// A small label alphabet so interning gets exercised.
const LABELS: &[&str] = &["Item", "Section", "Name", "Price", "a", "b", "xyz"];

#[derive(Debug, Clone)]
enum Tree {
    Elem { label: usize, attrs: Vec<(usize, String)>, children: Vec<Tree> },
    Text(String),
}

/// Values and text content: empty strings, ascii, and multi-byte
/// unicode (exercises the char-boundary checks in the page parser).
fn arb_text() -> BoxedStrategy<String> {
    let alphabet: Vec<char> = "abcXYZ 019_-/<&\u{3b1}\u{8a9e}\u{2713}".chars().collect();
    prop_oneof![
        Just(String::new()),
        prop::collection::vec(prop::sample::select(alphabet), 0..12)
            .prop_map(|cs| cs.into_iter().collect()),
    ]
}

fn arb_attrs() -> BoxedStrategy<Vec<(usize, String)>> {
    prop::collection::vec((0..LABELS.len(), arb_text()), 0..3).boxed()
}

/// `prop::option::of` stand-in: half `None`, half `Some(inner)`.
fn opt_of<T: Clone + 'static>(inner: BoxedStrategy<T>) -> BoxedStrategy<Option<T>> {
    prop_oneof![Just(None), inner.prop_map(Some)]
}

/// Random subtrees: empty elements, attribute-only elements, text leaves,
/// and mixed content (text and element children interleaved) all occur.
fn arb_tree() -> BoxedStrategy<Tree> {
    let leaf = prop_oneof![
        arb_text().prop_map(Tree::Text),
        (0..LABELS.len(), arb_attrs())
            .prop_map(|(label, attrs)| Tree::Elem { label, attrs, children: vec![] }),
    ];
    leaf.prop_recursive(5, 48, 4, |inner| {
        (0..LABELS.len(), arb_attrs(), prop::collection::vec(inner, 0..4)).prop_map(
            |(label, attrs, children)| Tree::Elem { label, attrs, children },
        )
    })
}

fn arb_name() -> BoxedStrategy<String> {
    let alphabet: Vec<char> = ('a'..='h').collect();
    prop::collection::vec(prop::sample::select(alphabet), 1..8)
        .prop_map(|cs| cs.into_iter().collect::<String>())
        .boxed()
}

fn arb_document() -> impl Strategy<Value = Document> {
    (
        (0..LABELS.len(), arb_attrs(), prop::collection::vec(arb_tree(), 0..4)),
        opt_of(arb_name()),
        opt_of((arb_name(), arb_dewey(), prop::collection::vec(arb_dewey(), 0..3)).boxed()),
    )
        .prop_map(|((label, attrs, children), name, origin)| {
            let mut doc = Document::new(LABELS[label]);
            for (a, v) in &attrs {
                doc.add_attribute(NodeId::ROOT, LABELS[*a], v);
            }
            for child in &children {
                build(&mut doc, NodeId::ROOT, child);
            }
            doc.name = name;
            doc.origin =
                origin.map(|(source_doc, dewey, units)| Origin { source_doc, dewey, units });
            doc
        })
}

fn arb_dewey() -> BoxedStrategy<Dewey> {
    prop::collection::vec(1u32..9, 0..4).prop_map(Dewey::from_vec).boxed()
}

fn build(doc: &mut Document, parent: NodeId, tree: &Tree) {
    match tree {
        Tree::Text(s) => {
            doc.add_text(parent, s);
        }
        Tree::Elem { label, attrs, children } => {
            let e = doc.add_element(parent, LABELS[*label]);
            for (a, v) in attrs {
                doc.add_attribute(e, LABELS[*a], v);
            }
            for c in children {
                build(doc, e, c);
            }
        }
    }
}

/// More than one arena chunk (1 024 nodes): a flat run of small items,
/// three nodes each.
fn arb_big_document() -> impl Strategy<Value = Document> {
    prop::collection::vec((0..LABELS.len(), arb_text(), arb_text()), 350..450).prop_map(|items| {
        let mut doc = Document::new("Store");
        for (label, id, text) in &items {
            let e = doc.add_element(NodeId::ROOT, LABELS[*label]);
            doc.add_attribute(e, "id", id);
            doc.add_text(e, text);
        }
        doc
    })
}

/// The PXB2 page of a document built by appends only, written from the
/// format description through the public read API — the reference the
/// sized writer (`binary::encode_into`) is held to. Appends intern labels
/// and lay values on the heap in node-id order, so both tables follow
/// from a walk over the ids.
fn reference_page(doc: &Document, identity: bool) -> Vec<u8> {
    const NONE: u32 = u32::MAX;
    let ids: Vec<NodeId> = doc.ids().collect();
    let mut symbols: Vec<&str> = Vec::new();
    let mut heap = String::new();
    let mut records = Vec::new();
    let link = |id: Option<NodeId>| id.map_or(NONE, |id| id.index() as u32);
    for &id in &ids {
        let node = doc.get(id).unwrap();
        let label = symbols.iter().position(|s| *s == node.label()).unwrap_or_else(|| {
            symbols.push(node.label());
            symbols.len() - 1
        });
        let value = match node.value() {
            None => (NONE, 0),
            Some(v) => {
                heap.push_str(v);
                ((heap.len() - v.len()) as u32, v.len() as u32)
            }
        };
        let siblings: Vec<NodeId> =
            node.parent().map(|p| p.children().map(|n| n.id()).collect()).unwrap_or_default();
        let at = siblings.iter().position(|s| *s == id);
        let prev = at.and_then(|at| at.checked_sub(1)).map(|at| siblings[at]);
        records.push(match node.kind() {
            NodeKind::Element => 0u8,
            NodeKind::Attribute => 1,
            NodeKind::Text => 2,
        });
        for field in [
            label as u32,
            value.0,
            value.1,
            link(doc.parent_of(id)),
            link(node.first_child().map(|n| n.id())),
            link(node.children().last().map(|n| n.id())),
            link(node.next_sibling().map(|n| n.id())),
            link(prev),
        ] {
            records.extend_from_slice(&field.to_le_bytes());
        }
    }
    let mut page = b"PXB2".to_vec();
    let sym_heap: String = symbols.concat();
    for len in [ids.len(), symbols.len(), sym_heap.len(), heap.len()] {
        page.extend_from_slice(&(len as u32).to_le_bytes());
    }
    let mut off = 0u32;
    for sym in &symbols {
        page.extend_from_slice(&off.to_le_bytes());
        page.extend_from_slice(&(sym.len() as u32).to_le_bytes());
        off += sym.len() as u32;
    }
    page.extend_from_slice(sym_heap.as_bytes());
    page.extend_from_slice(&records);
    page.extend_from_slice(heap.as_bytes());
    let put_str = |page: &mut Vec<u8>, s: &str| {
        page.extend_from_slice(&(s.len() as u32).to_le_bytes());
        page.extend_from_slice(s.as_bytes());
    };
    match doc.name.as_deref().filter(|_| identity) {
        None => page.push(0),
        Some(name) => {
            page.push(1);
            put_str(&mut page, name);
        }
    }
    let put_dewey = |page: &mut Vec<u8>, dewey: &Dewey| {
        page.extend_from_slice(&(dewey.components().len() as u32).to_le_bytes());
        for c in dewey.components() {
            page.extend_from_slice(&c.to_le_bytes());
        }
    };
    match doc.origin.as_ref().filter(|_| identity) {
        None => page.push(0),
        Some(origin) => {
            // an origin with units is tag 2: the tag-1 fields, then the units
            page.push(if origin.units.is_empty() { 1 } else { 2 });
            put_str(&mut page, &origin.source_doc);
            put_dewey(&mut page, &origin.dewey);
            if !origin.units.is_empty() {
                page.extend_from_slice(&(origin.units.len() as u32).to_le_bytes());
                origin.units.iter().for_each(|unit| put_dewey(&mut page, unit));
            }
        }
    }
    page
}

/// The two representations of one document must be indistinguishable
/// through the public read API.
fn assert_same_reads(arena: &Document, paged: &Document) {
    assert_eq!(paged, arena);
    assert_eq!(paged.len(), arena.len());
    assert_eq!(paged.name, arena.name);
    assert_eq!(paged.origin, arena.origin);
    assert_eq!(paged.root_label(), arena.root_label());
    assert_eq!(paged.element_count(), arena.element_count());
    assert_eq!(paged.approx_size(), arena.approx_size());
    assert_eq!(to_string(paged), to_string(arena));
    assert_eq!(paged.ids().collect::<Vec<_>>(), arena.ids().collect::<Vec<_>>());
    for id in arena.ids() {
        let (a, p) = (arena.get(id).unwrap(), paged.get(id).unwrap());
        assert_eq!(p.kind(), a.kind());
        assert_eq!(p.label(), a.label());
        assert_eq!(p.value(), a.value());
        assert_eq!(paged.kind_of(id), arena.kind_of(id));
        assert_eq!(paged.label_of(id), arena.label_of(id));
        assert_eq!(paged.value_of(id), arena.value_of(id));
        assert_eq!(paged.parent_of(id), arena.parent_of(id));
        assert_eq!(p.parent().map(|n| n.id()), a.parent().map(|n| n.id()));
        assert_eq!(p.first_child().map(|n| n.id()), a.first_child().map(|n| n.id()));
        assert_eq!(p.next_sibling().map(|n| n.id()), a.next_sibling().map(|n| n.id()));
        assert_eq!(
            p.children().map(|n| n.id()).collect::<Vec<_>>(),
            a.children().map(|n| n.id()).collect::<Vec<_>>()
        );
        assert_eq!(p.text(), a.text());
        let dewey = arena.dewey_of(id);
        assert_eq!(paged.dewey_of(id), dewey);
        assert_eq!(paged.node_at_dewey(&dewey), Some(id));
        if a.kind() == NodeKind::Element {
            assert_eq!(paged.subtree(id).unwrap(), arena.subtree(id).unwrap());
        } else {
            assert!(paged.subtree(id).is_err());
        }
    }
}

/// Everything a reader does to a document it was handed; on a validated
/// page all of it must terminate without a panic.
fn exercise(doc: &Document) {
    assert_eq!(doc.root().descendants_or_self().count(), doc.len());
    for id in doc.ids() {
        let node = doc.get(id).unwrap();
        let _ = (node.kind(), node.label(), node.value(), node.text());
        assert!(node.children().count() < doc.len());
        assert_eq!(doc.node_at_dewey(&doc.dewey_of(id)), Some(id));
    }
    let _ = (to_string(doc), doc.approx_size(), doc.element_count());
    assert_eq!(&doc.subtree(NodeId::ROOT).unwrap(), doc);
    let _ = binary::encode(doc);
}

/// Byte offset of link `slot` (0 parent, 1 first_child, 2 last_child,
/// 3 next_sibling, 4 prev_sibling) of node `id` in a PXB2 page — the
/// layout is spelled out in `partix_xml::binary`'s module docs.
fn link_at(page: &[u8], id: usize, slot: usize) -> usize {
    let u32_at = |at: usize| u32::from_le_bytes(page[at..at + 4].try_into().unwrap()) as usize;
    let (sym_count, sym_heap_len) = (u32_at(8), u32_at(12));
    20 + sym_count * 8 + sym_heap_len + id * 33 + 13 + slot * 4
}

fn set_link(page: &mut [u8], id: usize, slot: usize, to: u32) {
    let at = link_at(page, id, slot);
    page[at..at + 4].copy_from_slice(&to.to_le_bytes());
}

/// A typed error, or a document every reader terminates on.
fn decode_hostile(page: &[u8]) {
    match binary::decode(page) {
        Ok(doc) => exercise(&doc),
        Err(XmlError::CorruptBinary(_)) => assert!(PageView::parse(page).is_err()),
        Err(other) => panic!("untyped failure: {other:?}"),
    }
}

/// Regression: the validator range-checked links but not their shape, so
/// this page decoded `Ok` and `root().children()` never ended.
#[test]
fn link_cycle_is_rejected() {
    // <a><b>x</b><c/></a>: a = 0, b = 1, "x" = 2, c = 3
    let doc = partix_xml::parse("<a><b>x</b><c/></a>").unwrap();
    let mut page = binary::encode(&doc).to_vec();
    set_link(&mut page, 1, 3, 1); // b.next_sibling = b
    assert!(matches!(binary::decode(&page), Err(XmlError::CorruptBinary(_))));
    assert!(PageView::parse(&page).is_err());
}

#[test]
fn inconsistent_links_are_rejected() {
    let good = binary::encode(&partix_xml::parse("<a><b>x</b><c/></a>").unwrap()).to_vec();
    const NONE: u32 = u32::MAX;
    for (id, slot, to) in [
        (3, 0, 1),    // c claims b as parent
        (3, 4, NONE), // c forgets its predecessor
        (0, 2, 1),    // a's child chain ends at c, not b
        (1, 3, NONE), // c becomes unreachable
        (3, 1, 0),    // the root as somebody's child
        (2, 2, 2),    // a leaf with a last child
        (0, 3, 3),    // the root with a sibling
        (1, 3, 2),    // b's next sibling is its own child
    ] {
        let mut page = good.clone();
        set_link(&mut page, id, slot, to);
        assert!(binary::decode(&page).is_err(), "node {id} slot {slot} -> {to}");
    }
    decode_hostile(&good);
}

/// Overwrite the first `from` in `page` with `to` (same length).
fn overwrite(page: &mut [u8], from: &[u8], to: &[u8]) {
    let at = page.windows(from.len()).position(|w| w == from).expect("label is on the page");
    page[at..at + to.len()].copy_from_slice(to);
}

/// A label test compares symbol ids, so a PXB2 page — read in place — may
/// not list a label twice. The encoder never writes such a page; a
/// foreign one is corrupt, whichever way it comes in.
#[test]
fn page_listing_a_label_twice_is_rejected() {
    let doc = partix_xml::parse("<ab><cd/></ab>").unwrap();
    let mut page = binary::encode(&doc).to_vec();
    overwrite(&mut page, b"cd", b"ab"); // the symbol heap now reads "abab"
    assert!(matches!(binary::decode(&page), Err(XmlError::CorruptBinary(_))));
    assert!(matches!(Document::from_page(page.clone().into()), Err(XmlError::CorruptBinary(_))));
    assert!(PageView::parse(&page).is_err());
}

proptest! {
    #![proptest_config(cases(256))]

    /// decode(encode(doc)) reproduces the tree, metadata included, and
    /// every node keeps its Dewey id.
    #[test]
    fn v2_roundtrip_is_exact(doc in arb_document()) {
        let bytes = binary::encode(&doc);
        let decoded = binary::decode(&bytes).unwrap();
        prop_assert_eq!(&doc, &decoded);
        prop_assert_eq!(&doc.name, &decoded.name);
        prop_assert_eq!(&doc.origin, &decoded.origin);
        prop_assert_eq!(doc.len(), decoded.len());
        for id in doc.ids() {
            let dewey = doc.dewey_of(id);
            prop_assert_eq!(&decoded.dewey_of(id), &dewey);
            prop_assert_eq!(decoded.node_at_dewey(&dewey), Some(id));
        }
        // re-encoding the decoded document is byte-identical
        prop_assert_eq!(binary::encode(&decoded), bytes);
    }

    /// A page-backed document serves exactly what the arena serves, node
    /// for node, and re-encodes to the bytes it was made from.
    #[test]
    fn page_backed_document_agrees_on_every_read(doc in arb_document()) {
        let bytes = binary::encode(&doc);
        let view = PageView::parse(&bytes).unwrap();
        prop_assert_eq!(view.name(), doc.name.as_deref());
        prop_assert_eq!(view.origin(), doc.origin.clone());
        prop_assert_eq!(view.root_label(), doc.root_label());
        let paged = Document::from_page(bytes.clone()).unwrap();
        assert_same_reads(&doc, &paged);
        assert_same_reads(&doc, &paged.clone());
        prop_assert_eq!(binary::encode(&paged), bytes);
        // a reassigned name lives in the meta tail only
        let mut renamed = paged.clone();
        renamed.name = Some("renamed".into());
        let mut expect = doc.clone();
        expect.name = Some("renamed".into());
        prop_assert_eq!(binary::encode(&renamed), binary::encode(&expect));
        let mut bare = Vec::new();
        binary::encode_bare_into(&paged, &mut bare);
        prop_assert_eq!(binary::decode(&bare).unwrap().name, None);
    }

    /// The sized writer against the format spelled out field by field
    /// (`reference_page`): arena and page-backed, with the document's
    /// identity and bare, appended after whatever the buffer already
    /// holds — and what it wrote decodes to the document.
    #[test]
    fn encode_into_writes_the_reference_page(doc in arb_document(), prefix in 0usize..40) {
        let full = reference_page(&doc, true);
        let bare = reference_page(&doc, false);
        let paged = Document::from_page(full.clone().into()).unwrap();
        prop_assert_eq!(&binary::encode(&doc)[..], &full[..]);
        for sender in [&doc, &paged] {
            let mut out = vec![0xA5; prefix];
            binary::encode_into(sender, &mut out);
            prop_assert_eq!(&out[..prefix], &vec![0xA5; prefix][..]);
            prop_assert_eq!(&out[prefix..], &full[..]);
            prop_assert_eq!(&binary::decode(&out[prefix..]).unwrap(), &doc);
            let mut out = vec![0xA5; prefix];
            binary::encode_bare_into(sender, &mut out);
            prop_assert_eq!(&out[prefix..], &bare[..]);
            let back = binary::decode(&out[prefix..]).unwrap();
            prop_assert_eq!((&back.name, &back.origin), (&None, &None));
            prop_assert_eq!(&back, &doc);
        }
    }

    /// The first mutation of a page-backed document copies it: every
    /// existing node id keeps its meaning, the result is the document an
    /// arena would have become, and other clones of the page are untouched.
    #[test]
    fn first_mutation_copies_on_write(doc in arb_document(), extra in arb_tree(), which in 0usize..4) {
        let bytes = binary::encode(&doc);
        let paged = Document::from_page(bytes.clone()).unwrap();
        let mut donor = Document::new("donor");
        build(&mut donor, NodeId::ROOT, &extra);
        let mutate = |d: &mut Document| match which {
            0 => d.add_element(NodeId::ROOT, "added"),
            1 => d.add_text(NodeId::ROOT, "added text"),
            2 => d.add_attribute(NodeId::ROOT, "added", "value"),
            _ => d.graft(NodeId::ROOT, &donor, NodeId::ROOT),
        };
        let (mut edited, mut expect) = (paged.clone(), doc.clone());
        let (new_id, expect_id) = (mutate(&mut edited), mutate(&mut expect));
        prop_assert_eq!(new_id, expect_id);
        prop_assert_eq!(new_id.index(), doc.len());
        assert_same_reads(&expect, &edited);
        prop_assert_eq!(binary::encode(&edited), binary::encode(&expect));
        for id in doc.ids() {
            prop_assert_eq!(edited.kind_of(id), doc.kind_of(id));
            prop_assert_eq!(edited.label_of(id), doc.label_of(id));
            prop_assert_eq!(edited.value_of(id), doc.value_of(id));
            prop_assert_eq!(edited.parent_of(id), doc.parent_of(id));
        }
        assert_same_reads(&doc, &paged);
        prop_assert_eq!(binary::encode(&paged), bytes);
        // a page-backed document is as good a graft source as an arena
        let (mut into_a, mut into_b) = (Document::new("w"), Document::new("w"));
        into_a.graft(NodeId::ROOT, &paged, NodeId::ROOT);
        into_b.graft(NodeId::ROOT, &doc, NodeId::ROOT);
        prop_assert_eq!(&into_a, &into_b);
    }

    /// Every proper prefix of a page is rejected with a typed error.
    #[test]
    fn every_truncation_is_rejected(doc in arb_document()) {
        let bytes = binary::encode(&doc);
        for cut in 0..bytes.len() {
            prop_assert!(matches!(
                binary::decode(&bytes[..cut]),
                Err(XmlError::CorruptBinary(_))
            ), "prefix of {cut} B");
        }
    }

    /// Random byte flips: a typed error, or a document on which every
    /// traversal terminates.
    #[test]
    fn byte_flips_never_hang_or_panic(doc in arb_document(), flips in prop::collection::vec((any::<usize>(), 1u8..255), 1..4)) {
        let mut page = binary::encode(&doc).to_vec();
        for (at, mask) in flips {
            let at = at % page.len();
            page[at] ^= mask;
        }
        decode_hostile(&page);
    }

    /// Random link rewrites — the mutation the shape check exists for:
    /// in-range targets, so only the tree check can catch them.
    #[test]
    fn link_rewrites_never_hang_or_panic(doc in arb_document(), rewrites in prop::collection::vec((any::<usize>(), 0usize..5, any::<usize>()), 1..4)) {
        let mut page = binary::encode(&doc).to_vec();
        for (id, slot, to) in rewrites {
            // one in eight rewrites writes "none"
            let to = if to % 8 == 0 { u32::MAX } else { (to % doc.len()) as u32 };
            set_link(&mut page, id % doc.len(), slot, to);
        }
        decode_hostile(&page);
    }

    /// The text parser on hostile input — arbitrary bytes read as lossy
    /// UTF-8, and valid documents with bytes overwritten, cut out or
    /// spliced in: `Ok` or a typed `ParseError`, never a panic, and what
    /// parses serialises to text that parses back to the same document.
    #[test]
    fn parser_gives_a_document_or_a_typed_error_and_accepted_text_roundtrips(
        doc in arb_document(),
        noise in prop::collection::vec(any::<u8>(), 0..48),
        how in 0usize..4,
        at in any::<usize>(),
    ) {
        let mut text = to_string(&doc).into_bytes();
        let at = at % (text.len() + 1);
        match how {
            0 => text = noise,
            1 => text.truncate(at),
            2 => text.splice(at..at, noise).for_each(drop),
            _ => text.iter_mut().skip(at).zip(&noise).for_each(|(byte, n)| *byte = *n),
        }
        if let Ok(parsed) = partix_xml::parse(&String::from_utf8_lossy(&text)) {
            let again = partix_xml::parse(&to_string(&parsed));
            prop_assert_eq!(again.as_ref(), Ok(&parsed));
        }
    }

    /// Deep chains cross arena chunk boundaries without losing links.
    #[test]
    fn deep_nesting_roundtrips(depth in 1usize..2500) {
        let mut doc = Document::new("root");
        let mut cur = NodeId::ROOT;
        for i in 0..depth {
            cur = doc.add_element(cur, LABELS[i % LABELS.len()]);
        }
        doc.add_text(cur, "bottom");
        let decoded = binary::decode(&binary::encode(&doc)).unwrap();
        prop_assert_eq!(&doc, &decoded);
        prop_assert_eq!(decoded.dewey_of(cur).depth(), depth);
        prop_assert_eq!(decoded.root().text(), "bottom");
    }
}

proptest! {
    #![proptest_config(cases(16))]

    /// Documents spanning several arena chunks: same reads, same bytes,
    /// and the copy-on-write step keeps ids across chunk boundaries.
    #[test]
    fn big_documents_agree_too(doc in arb_big_document()) {
        prop_assert!(doc.len() > 1024);
        let bytes = binary::encode(&doc);
        let paged = Document::from_page(bytes.clone()).unwrap();
        assert_same_reads(&doc, &paged);
        let (mut edited, mut expect) = (paged.clone(), doc.clone());
        let last = doc.ids().last().unwrap();
        prop_assert_eq!(edited.add_text(last, "tail"), expect.add_text(last, "tail"));
        assert_same_reads(&expect, &edited);
        prop_assert_eq!(&bytes[..], &reference_page(&doc, true)[..]);
        prop_assert_eq!(binary::encode(&paged), bytes);
    }
}
