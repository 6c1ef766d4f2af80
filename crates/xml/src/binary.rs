//! Compact binary document format.
//!
//! The storage engine keeps documents in this pre-parsed form so that
//! loading a stored document avoids re-tokenizing XML text — the analogue
//! of eXist's paged DOM storage. There is one page format, **PXB2**. It
//! mirrors the in-memory arena layout exactly: a symbol table, one shared
//! text heap, and **fixed-width little-endian node records**. Because
//! records are fixed-width and keep the arena's node ids, a page is *read
//! in place*: [`Document::from_page`] validates it once and the resulting
//! document serves node kind / label / value / link reads straight from
//! the bytes. Nothing is decoded until the document is first mutated,
//! which copies it into an arena ([`Page::to_arena`]). [`PageView::parse`]
//! is the same validation over a borrowed slice. Bytes that do not start
//! with the PXB2 magic — a page of the retired PXB1 varint format
//! included — are [`XmlError::CorruptBinary`] naming the magic found.
//!
//! Validation is the only line of defence for a page read in place: every
//! span and link is range-checked, both heaps are UTF-8 with spans on
//! character boundaries, no label is listed twice (so a symbol id stands
//! for its label), and the links must form one tree — the
//! `first_child` / `next_sibling` walk from the root reaches every node
//! exactly once, and `parent`, `prev_sibling` and `last_child` agree with
//! that walk. Traversals of a validated page therefore terminate.
//!
//! ```text
//! PXB2 layout (all integers little-endian):
//!   magic "PXB2"
//!   header:  node_count u32, sym_count u32, sym_heap_len u32, text_heap_len u32
//!   symbols: sym_count × (off u32, len u32)      — spans into the symbol heap
//!   symheap: sym_heap_len bytes of UTF-8
//!   nodes:   node_count × 33-byte records:
//!              kind u8, label u32, val_off u32, val_len u32,
//!              parent u32, first_child u32, last_child u32,
//!              next_sibling u32, prev_sibling u32
//!            (u32::MAX = "none" for val_off and links)
//!   textheap: text_heap_len bytes of UTF-8
//!   meta:    name  u8 tag (0|1) [+ len u32 + bytes]
//!            origin u8 tag (0|1|2) [+ len u32 + bytes + dewey]
//!                   tag 2 adds: units u32 (≥ 1) + units × dewey
//!   dewey:   count u32 + count × u32
//! ```
//!
//! Tag 2 carries `Origin::units` and is written only when the list is
//! non-empty; every other origin is tag 1.

use crate::dewey::Dewey;
use crate::error::XmlError;
use crate::tree::{
    Arena, ArenaTree, Document, Node, NodeId, NodeKind, OptId, Origin, Repr, Sym, ValueSpan,
};
use bytes::{Buf, Bytes};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC_V2: &[u8; 4] = b"PXB2";

/// Fixed record width of a PXB2 node: kind byte + eight u32 fields.
const NODE_SIZE: usize = 1 + 8 * 4;
const HEADER_SIZE: usize = 16;
/// The symbol table follows the magic and the header.
const SYM_TABLE_AT: usize = 4 + HEADER_SIZE;
const NONE: u32 = u32::MAX;
/// Room reserved past a page body for its meta tail, so that a named
/// document's tail does not regrow the buffer the body was sized for.
const META_HINT: usize = 64;

#[inline]
fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

#[inline]
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn corrupt(what: &str) -> XmlError {
    XmlError::CorruptBinary(what.into())
}

fn kind_to_u8(kind: NodeKind) -> u8 {
    match kind {
        NodeKind::Element => 0,
        NodeKind::Attribute => 1,
        NodeKind::Text => 2,
    }
}

fn kind_from_u8(byte: u8) -> Result<NodeKind, XmlError> {
    match byte {
        0 => Ok(NodeKind::Element),
        1 => Ok(NodeKind::Attribute),
        2 => Ok(NodeKind::Text),
        k => Err(XmlError::CorruptBinary(format!("bad node kind {k}"))),
    }
}

/// Encode a document into the current (PXB2) binary page form. A
/// page-backed document whose meta tail still says what `name` / `origin`
/// say is not re-encoded: its page is shared.
pub fn encode(doc: &Document) -> Bytes {
    if let Repr::Page(page) = &doc.repr {
        let mut meta = Vec::with_capacity(64);
        put_meta(&mut meta, doc.name.as_deref(), doc.origin.as_ref());
        if page.bytes[page.layout.meta_at..] == meta[..] {
            return page.bytes.clone();
        }
    }
    let mut out = Vec::new();
    encode_into(doc, &mut out);
    Bytes::from(out)
}

/// Append the page [`encode`] returns to `out` — what lets a caller that
/// frames documents build its frame in one buffer.
pub fn encode_into(doc: &Document, out: &mut Vec<u8>) {
    write_page(doc, doc.name.as_deref(), doc.origin.as_ref(), out);
}

/// [`encode_into`] without `name` and `origin` — what a shipped result
/// item carries.
pub fn encode_bare_into(doc: &Document, out: &mut Vec<u8>) {
    write_page(doc, None, None, out);
}

fn put_meta(buf: &mut Vec<u8>, name: Option<&str>, origin: Option<&Origin>) {
    match name {
        None => buf.push(0),
        Some(name) => {
            buf.push(1);
            put_u32(buf, name.len() as u32);
            buf.extend_from_slice(name.as_bytes());
        }
    }
    match origin {
        None => buf.push(0),
        Some(origin) => {
            buf.push(if origin.units.is_empty() { 1 } else { 2 });
            put_u32(buf, origin.source_doc.len() as u32);
            buf.extend_from_slice(origin.source_doc.as_bytes());
            put_dewey(buf, &origin.dewey);
            if !origin.units.is_empty() {
                put_u32(buf, origin.units.len() as u32);
                origin.units.iter().for_each(|unit| put_dewey(buf, unit));
            }
        }
    }
}

fn put_dewey(buf: &mut Vec<u8>, dewey: &Dewey) {
    put_u32(buf, dewey.components().len() as u32);
    for &c in dewey.components() {
        put_u32(buf, c);
    }
}

/// The one PXB2 writer: the body sections, then the meta tail. A page's
/// body is copied as it is; an arena's is sized first and its fixed-width
/// records are written at their offsets.
fn write_page(doc: &Document, name: Option<&str>, origin: Option<&Origin>, out: &mut Vec<u8>) {
    match &doc.repr {
        Repr::Page(page) => {
            out.reserve(page.layout.meta_at + META_HINT);
            out.extend_from_slice(&page.bytes[..page.layout.meta_at]);
        }
        Repr::Arena(tree) => write_body(tree, out),
    }
    put_meta(out, name, origin);
}

fn write_body(tree: &ArenaTree, out: &mut Vec<u8>) {
    let sym_heap_len: usize = tree.symbols.iter().map(|s| s.len()).sum();
    let sym_heap_at = SYM_TABLE_AT + tree.symbols.len() * 8;
    let nodes_at = sym_heap_at + sym_heap_len;
    let text_at = nodes_at + tree.nodes.len() * NODE_SIZE;
    let meta_at = text_at + tree.text.len();
    let start = out.len();
    out.reserve(meta_at + META_HINT);
    out.resize(start + meta_at, 0);
    let body = &mut out[start..];

    body[..4].copy_from_slice(MAGIC_V2);
    for (slot, v) in [tree.nodes.len(), tree.symbols.len(), sym_heap_len, tree.text.len()]
        .into_iter()
        .enumerate()
    {
        body[4 + slot * 4..8 + slot * 4].copy_from_slice(&(v as u32).to_le_bytes());
    }
    let (table, heap) = body[SYM_TABLE_AT..nodes_at].split_at_mut(tree.symbols.len() * 8);
    let mut off = 0usize;
    for (sym, entry) in tree.symbols.iter().zip(table.chunks_exact_mut(8)) {
        entry[..4].copy_from_slice(&(off as u32).to_le_bytes());
        entry[4..].copy_from_slice(&(sym.len() as u32).to_le_bytes());
        heap[off..off + sym.len()].copy_from_slice(sym.as_bytes());
        off += sym.len();
    }
    let (nodes, text) = body[nodes_at..].split_at_mut(text_at - nodes_at);
    text.copy_from_slice(tree.text.as_bytes());
    for (node, rec) in tree.nodes.iter().zip(nodes.chunks_exact_mut(NODE_SIZE)) {
        let rec: &mut [u8; NODE_SIZE] = rec.try_into().expect("record width");
        let value = if node.value.is_none() { (NONE, 0) } else { (node.value.off, node.value.len) };
        rec[0] = kind_to_u8(node.kind);
        let fields = [
            node.label.0,
            value.0,
            value.1,
            node.parent.raw(),
            node.first_child.raw(),
            node.last_child.raw(),
            node.next_sibling.raw(),
            node.prev_sibling.raw(),
        ];
        for (field, slot) in fields.iter().zip(rec[1..].chunks_exact_mut(4)) {
            slot.copy_from_slice(&field.to_le_bytes());
        }
    }
}

/// Decode a binary page into a [`Document`]: the page is copied once and
/// adopted ([`Document::from_page`]).
pub fn decode(buf: &[u8]) -> Result<Document, XmlError> {
    Document::from_page(Bytes::copy_from_slice(buf))
}

/// Links by slot, as the records store them.
const PARENT: usize = 0;
const FIRST_CHILD: usize = 1;
const LAST_CHILD: usize = 2;
const NEXT_SIBLING: usize = 3;
const PREV_SIBLING: usize = 4;

/// Where the sections of a validated PXB2 page start. Reading through a
/// layout never fails on the page it was validated against.
#[derive(Debug, Clone, Copy)]
struct Layout {
    node_count: u32,
    sym_heap_at: usize,
    nodes_at: usize,
    text_at: usize,
    meta_at: usize,
}

/// The meta tail of a page.
struct Meta<'a> {
    name: Option<&'a str>,
    origin: Option<Origin>,
}

impl Layout {
    /// Validate `buf` as a PXB2 page (see the module docs for what that
    /// guarantees).
    fn validate(buf: &[u8]) -> Result<(Layout, Meta<'_>), XmlError> {
        if !buf.starts_with(MAGIC_V2) {
            let found = String::from_utf8_lossy(&buf[..buf.len().min(4)]);
            return Err(XmlError::CorruptBinary(format!(
                "unsupported page format {found:?} (only \"PXB2\" is read)"
            )));
        }
        if buf.len() < SYM_TABLE_AT {
            return Err(corrupt("page shorter than its header"));
        }
        let node_count = read_u32(buf, 4) as usize;
        let sym_count = read_u32(buf, 8) as usize;
        let sym_heap_len = read_u32(buf, 12) as usize;
        let text_heap_len = read_u32(buf, 16) as usize;
        if node_count == 0 {
            return Err(corrupt("document has no nodes"));
        }
        let body_len = (sym_count as u64) * 8
            + sym_heap_len as u64
            + (node_count as u64) * NODE_SIZE as u64
            + text_heap_len as u64;
        if body_len + SYM_TABLE_AT as u64 > buf.len() as u64 {
            return Err(corrupt("page shorter than header claims"));
        }
        let sym_heap_at = SYM_TABLE_AT + sym_count * 8;
        let nodes_at = sym_heap_at + sym_heap_len;
        let text_at = nodes_at + node_count * NODE_SIZE;
        let meta_at = text_at + text_heap_len;
        let sym_table = &buf[SYM_TABLE_AT..sym_heap_at];
        let sym_heap = std::str::from_utf8(&buf[sym_heap_at..nodes_at])
            .map_err(|_| corrupt("symbol heap not utf-8"))?;
        let nodes = &buf[nodes_at..text_at];
        let text_heap = std::str::from_utf8(&buf[text_at..meta_at])
            .map_err(|_| corrupt("text heap not utf-8"))?;

        for i in 0..sym_count {
            let off = read_u32(sym_table, i * 8) as u64;
            let len = read_u32(sym_table, i * 8 + 4) as u64;
            if off + len > sym_heap_len as u64
                || !sym_heap.is_char_boundary(off as usize)
                || !sym_heap.is_char_boundary((off + len) as usize)
            {
                return Err(corrupt("symbol span out of range"));
            }
        }
        if !distinct_symbols(sym_table, sym_heap.as_bytes(), sym_count) {
            return Err(corrupt("symbol listed twice"));
        }
        for rec in nodes.chunks_exact(NODE_SIZE) {
            kind_from_u8(rec[0])?;
            if read_u32(rec, 1) as usize >= sym_count {
                return Err(corrupt("label out of range"));
            }
            let voff = read_u32(rec, 5);
            if voff != NONE {
                let end = voff as u64 + read_u32(rec, 9) as u64;
                if end > text_heap_len as u64
                    || !text_heap.is_char_boundary(voff as usize)
                    || !text_heap.is_char_boundary(end as usize)
                {
                    return Err(corrupt("value span out of range"));
                }
            }
            for link in 0..5 {
                let raw = read_u32(rec, 13 + link * 4);
                if raw != NONE && raw as usize >= node_count {
                    return Err(corrupt("node link out of range"));
                }
            }
        }
        if nodes[0] != 0 {
            return Err(corrupt("root must be an element"));
        }
        check_tree(node_count, |id, slot| {
            read_u32(nodes, id as usize * NODE_SIZE + 13 + slot * 4)
        })?;

        let mut tail = &buf[meta_at..];
        let name = get_tagged_str(&mut tail)?;
        let origin = match get_u8(&mut tail)? {
            0 => None,
            tag @ (1 | 2) => {
                let source_doc = get_str_u32(&mut tail)?.to_owned();
                let dewey = get_dewey(&mut tail)?;
                let mut units = Vec::new();
                if tag == 2 {
                    // every unit takes at least its count's four bytes
                    let count = get_u32(&mut tail)? as usize;
                    if count == 0 || count > tail.len() / 4 {
                        return Err(corrupt("bad unit count"));
                    }
                    units = (0..count).map(|_| get_dewey(&mut tail)).collect::<Result<_, _>>()?;
                }
                Some(Origin { source_doc, dewey, units })
            }
            k => return Err(XmlError::CorruptBinary(format!("bad origin tag {k}"))),
        };
        let layout =
            Layout { node_count: node_count as u32, sym_heap_at, nodes_at, text_at, meta_at };
        Ok((layout, Meta { name, origin }))
    }

    #[inline]
    fn node(&self, buf: &[u8], id: NodeId) -> Node {
        let at = self.nodes_at + id.index() * NODE_SIZE;
        let rec: &[u8; NODE_SIZE] = buf[at..at + NODE_SIZE].try_into().expect("record width");
        let link = |slot: usize| OptId::from_raw(read_u32(rec, 13 + slot * 4));
        Node {
            kind: match rec[0] {
                0 => NodeKind::Element,
                1 => NodeKind::Attribute,
                _ => NodeKind::Text,
            },
            label: Sym(read_u32(rec, 1)),
            value: ValueSpan { off: read_u32(rec, 5), len: read_u32(rec, 9) },
            parent: link(PARENT),
            first_child: link(FIRST_CHILD),
            last_child: link(LAST_CHILD),
            next_sibling: link(NEXT_SIBLING),
            prev_sibling: link(PREV_SIBLING),
        }
    }

    #[inline]
    fn sym<'b>(&self, buf: &'b [u8], sym: Sym) -> &'b str {
        let entry = SYM_TABLE_AT + sym.0 as usize * 8;
        let at = self.sym_heap_at + read_u32(buf, entry) as usize;
        let len = read_u32(buf, entry + 4) as usize;
        std::str::from_utf8(&buf[at..at + len]).expect("span validated with the page")
    }
}

/// True if no two of the `sym_count` (validated) spans of `table` hold the
/// same bytes — what lets a label be tested by symbol id.
fn distinct_symbols(table: &[u8], heap: &[u8], sym_count: usize) -> bool {
    let mut spans: Vec<&[u8]> = (0..sym_count)
        .map(|i| {
            let off = read_u32(table, i * 8) as usize;
            &heap[off..off + read_u32(table, i * 8 + 4) as usize]
        })
        .collect();
    spans.sort_unstable();
    spans.windows(2).all(|pair| pair[0] != pair[1])
}

/// Check that `node_count` records linked through `link(id, slot)` (raw
/// values, in range) form one tree rooted at node 0: the pre-order walk
/// over `first_child` / `next_sibling` visits every node exactly once,
/// and `parent`, `prev_sibling` and `last_child` agree with it. A node
/// can only be entered from the one predecessor its own back links name,
/// so no node is visited twice; the count then proves none is missed.
fn check_tree(node_count: usize, link: impl Fn(u32, usize) -> u32) -> Result<(), XmlError> {
    let bad = || corrupt("node links do not form a tree");
    if [PARENT, NEXT_SIBLING, PREV_SIBLING].iter().any(|&slot| link(0, slot) != NONE) {
        return Err(corrupt("root must be a parentless element"));
    }
    let (mut cur, mut seen) = (0u32, 1usize);
    'walk: loop {
        if seen > node_count {
            return Err(bad());
        }
        let child = link(cur, FIRST_CHILD);
        if child != NONE {
            if link(child, PARENT) != cur || link(child, PREV_SIBLING) != NONE {
                return Err(bad());
            }
            (cur, seen) = (child, seen + 1);
            continue;
        }
        if link(cur, LAST_CHILD) != NONE {
            return Err(bad());
        }
        // subtree done: on to the next sibling, climbing while there is none
        while cur != 0 {
            let (parent, next) = (link(cur, PARENT), link(cur, NEXT_SIBLING));
            if next != NONE {
                if link(next, PARENT) != parent || link(next, PREV_SIBLING) != cur {
                    return Err(bad());
                }
                (cur, seen) = (next, seen + 1);
                continue 'walk;
            }
            if link(parent, LAST_CHILD) != cur {
                return Err(bad());
            }
            cur = parent;
        }
        break;
    }
    if seen == node_count {
        Ok(())
    } else {
        Err(bad())
    }
}

/// A validated PXB2 page, shared, with its layout: what a page-backed
/// [`Document`] reads from.
#[derive(Debug, Clone)]
pub(crate) struct Page {
    bytes: Bytes,
    layout: Layout,
}

static CONVERSIONS: AtomicU64 = AtomicU64::new(0);

/// Page → arena conversions made by this process so far (test support:
/// a read of a page-backed document must never add to it).
#[doc(hidden)]
pub fn page_conversions() -> u64 {
    CONVERSIONS.load(Ordering::Relaxed)
}

impl Page {
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    pub(crate) fn node_count(&self) -> usize {
        self.layout.node_count as usize
    }

    pub(crate) fn text_len(&self) -> usize {
        self.layout.meta_at - self.layout.text_at
    }

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> Node {
        self.layout.node(&self.bytes, id)
    }

    #[inline]
    pub(crate) fn sym(&self, sym: Sym) -> &str {
        self.layout.sym(&self.bytes, sym)
    }

    /// The symbol whose string is `label`, if the page lists it.
    pub(crate) fn find_sym(&self, label: &str) -> Option<Sym> {
        let sym_count = (self.layout.sym_heap_at - SYM_TABLE_AT) / 8;
        let (table, heap) = self.bytes[SYM_TABLE_AT..].split_at(sym_count * 8);
        (0..sym_count)
            .find(|&i| {
                let len = read_u32(table, i * 8 + 4) as usize;
                len == label.len() && {
                    let off = read_u32(table, i * 8) as usize;
                    &heap[off..off + len] == label.as_bytes()
                }
            })
            .map(|i| Sym(i as u32))
    }

    #[inline]
    pub(crate) fn value(&self, span: ValueSpan) -> Option<&str> {
        if span.is_none() {
            return None;
        }
        let at = self.layout.text_at + span.off as usize;
        Some(
            std::str::from_utf8(&self.bytes[at..at + span.len as usize])
                .expect("span validated with the page"),
        )
    }

    /// Transcribe the page into an owned arena — the copy-on-write step.
    /// Records are copied field for field (same node ids) and both heaps
    /// wholesale.
    pub(crate) fn to_arena(&self) -> ArenaTree {
        CONVERSIONS.fetch_add(1, Ordering::Relaxed);
        let mut nodes = Arena::with_capacity(self.node_count());
        for i in 0..self.layout.node_count {
            nodes.push(self.node(NodeId(i)));
        }
        let sym_count = (self.layout.sym_heap_at - SYM_TABLE_AT) / 8;
        let mut tree = ArenaTree { nodes, ..ArenaTree::default() };
        for i in 0..sym_count as u32 {
            // table order is id order; the symbols are distinct (validated)
            tree.intern(self.sym(Sym(i)));
        }
        let heap = &self.bytes[self.layout.text_at..self.layout.meta_at];
        tree.text = std::str::from_utf8(heap).expect("heap validated with the page").to_owned();
        tree
    }
}

impl Document {
    /// Validate `page` as a PXB2 page and adopt it: the document reads
    /// the page in place and shares it with every clone. Validation
    /// happens here, once; anything malformed is
    /// [`XmlError::CorruptBinary`].
    pub fn from_page(page: Bytes) -> Result<Document, XmlError> {
        let (layout, meta) = Layout::validate(&page)?;
        let (name, origin) = (meta.name.map(str::to_owned), meta.origin);
        Ok(Document { repr: Repr::Page(Page { bytes: page, layout }), name, origin })
    }
}

/// A validated view over a borrowed PXB2 page: [`PageView::parse`] is the
/// page validator ([`Document::from_page`] runs the same checks and keeps
/// the page).
pub struct PageView<'a> {
    buf: &'a [u8],
    layout: Layout,
    meta: Meta<'a>,
}

impl<'a> PageView<'a> {
    /// Validate `buf` as a PXB2 page.
    pub fn parse(buf: &'a [u8]) -> Result<PageView<'a>, XmlError> {
        let (layout, meta) = Layout::validate(buf)?;
        Ok(PageView { buf, layout, meta })
    }

    /// The page's document name, if any.
    pub fn name(&self) -> Option<&'a str> {
        self.meta.name
    }

    /// Fragment origin recorded on the page, if any.
    pub fn origin(&self) -> Option<Origin> {
        self.meta.origin.clone()
    }

    /// Label of the root element.
    pub fn root_label(&self) -> &'a str {
        self.layout.sym(self.buf, self.layout.node(self.buf, NodeId::ROOT).label)
    }
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, XmlError> {
    if buf.len() < 4 {
        return Err(XmlError::CorruptBinary("unexpected end of buffer".into()));
    }
    let v = read_u32(buf, 0);
    buf.advance(4);
    Ok(v)
}

fn get_str_u32<'a>(buf: &mut &'a [u8]) -> Result<&'a str, XmlError> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(XmlError::CorruptBinary("string extends past buffer".into()));
    }
    let s = std::str::from_utf8(&buf[..len])
        .map_err(|_| XmlError::CorruptBinary("invalid utf-8 string".into()))?;
    buf.advance(len);
    Ok(s)
}

fn get_dewey(buf: &mut &[u8]) -> Result<Dewey, XmlError> {
    let count = get_u32(buf)? as usize;
    if count > buf.len() / 4 {
        return Err(corrupt("dewey too long"));
    }
    let mut components = Vec::with_capacity(count);
    for _ in 0..count {
        components.push(get_u32(buf)?);
    }
    Ok(Dewey::from_vec(components))
}

fn get_tagged_str<'a>(buf: &mut &'a [u8]) -> Result<Option<&'a str>, XmlError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(get_str_u32(buf)?)),
        k => Err(XmlError::CorruptBinary(format!("bad option tag {k}"))),
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, XmlError> {
    if buf.is_empty() {
        return Err(XmlError::CorruptBinary("unexpected end of buffer".into()));
    }
    let b = buf[0];
    buf.advance(1);
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocBuilder;
    use crate::parser::parse;

    fn sample() -> Document {
        let mut doc = DocBuilder::new("Store")
            .open("Items")
            .open("Item")
            .attr("id", "1")
            .leaf("Name", "Dark Side")
            .leaf("Section", "CD")
            .close()
            .open("Item")
            .attr("id", "2")
            .leaf("Name", "Matrix")
            .leaf("Section", "DVD")
            .close()
            .close()
            .named("store0")
            .build();
        doc.origin = Some(Origin {
            source_doc: "master".into(),
            dewey: Dewey::parse("1.2").unwrap(),
            units: Vec::new(),
        });
        doc
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let doc = sample();
        let bytes = encode(&doc);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(doc, decoded);
        assert_eq!(decoded.name.as_deref(), Some("store0"));
        assert_eq!(decoded.origin, doc.origin);
    }

    #[test]
    fn v2_reencode_is_stable() {
        let doc = sample();
        let bytes = encode(&doc);
        let reencoded = encode(&decode(&bytes).unwrap());
        assert_eq!(bytes, reencoded);
    }

    #[test]
    fn roundtrip_from_parsed_xml() {
        let doc = parse("<a x=\"1\"><b>text &amp; more</b><c/></a>").unwrap();
        let decoded = decode(&encode(&doc)).unwrap();
        assert_eq!(doc, decoded);
    }

    #[test]
    fn page_view_reads_the_meta_tail_and_root() {
        let doc = sample();
        let bytes = encode(&doc);
        let view = PageView::parse(&bytes).unwrap();
        assert_eq!(view.name(), doc.name.as_deref());
        assert_eq!(view.origin(), doc.origin);
        assert_eq!(view.root_label(), doc.root_label());
    }

    #[test]
    fn page_backed_document_reads_in_place_and_shares_its_page() {
        let doc = sample();
        let bytes = encode(&doc);
        let paged = Document::from_page(bytes.clone()).unwrap();
        assert!(matches!(paged.repr, Repr::Page(_)));
        assert_eq!(paged, doc);
        assert_eq!(paged.approx_size(), doc.approx_size());
        assert_eq!(crate::to_string(&paged), crate::to_string(&doc));
        // unmodified: encode hands the page back, no copy
        assert_eq!(encode(&paged), bytes);
        // a reassigned name rewrites the tail only
        let mut renamed = paged.clone();
        renamed.name = Some("elsewhere".into());
        assert!(matches!(renamed.repr, Repr::Page(_)));
        let back = decode(&encode(&renamed)).unwrap();
        assert_eq!(back.name.as_deref(), Some("elsewhere"));
        assert_eq!(back, doc);
        let mut bare = Vec::new();
        encode_bare_into(&paged, &mut bare);
        assert_eq!(decode(&bare).unwrap().name, None);
    }

    #[test]
    fn first_mutation_copies_on_write() {
        let doc = sample();
        let paged = Document::from_page(encode(&doc)).unwrap();
        let mut edited = paged.clone();
        let ids: Vec<_> = paged.ids().collect();
        let added = edited.add_element(NodeId::ROOT, "Extra");
        assert!(matches!(edited.repr, Repr::Arena(_)));
        assert!(matches!(paged.repr, Repr::Page(_)), "other clones keep the page");
        assert_eq!(added.index(), doc.len(), "new ids continue after the page's");
        for id in ids {
            assert_eq!(edited.label_of(id), paged.label_of(id));
            assert_eq!(edited.value_of(id), paged.value_of(id));
        }
        assert_eq!(paged, doc);
        assert_ne!(edited, doc);
    }

    #[test]
    fn unit_labels_roundtrip_and_a_hostile_unit_count_is_corrupt() {
        let mut doc = sample();
        let origin = doc.origin.as_mut().unwrap();
        origin.units = vec![Dewey::parse("1.2").unwrap()];
        let bytes = encode(&doc).to_vec();
        assert_eq!(decode(&bytes).unwrap().origin, doc.origin);
        // the tail ends: unit count 1, then the label (count 2, 1, 2)
        let at = bytes.len() - 16;
        assert_eq!(read_u32(&bytes, at), 1);
        for count in [0, 2, u32::MAX] {
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&count.to_le_bytes());
            assert!(matches!(decode(&hostile), Err(XmlError::CorruptBinary(_))), "{count}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(decode(b"NOPE"), Err(XmlError::CorruptBinary(_))));
        assert!(matches!(decode(b""), Err(XmlError::CorruptBinary(_))));
        // the retired varint format is an unknown magic like any other,
        // and the error says which one it met
        let mut retired = encode(&sample()).to_vec();
        retired[..4].copy_from_slice(b"PXB1");
        for result in [decode(&retired), Document::from_page(retired.into())] {
            match result {
                Err(XmlError::CorruptBinary(what)) => assert!(what.contains("PXB1"), "{what}"),
                other => panic!("PXB1 page accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_buffer_rejected() {
        let bytes = encode(&sample());
        for cut in [5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn corrupted_bytes_never_panic() {
        // Flip every byte one at a time; decoding must never panic and the
        // result must either be an error or a structurally valid document.
        let bytes = encode(&sample());
        for i in 4..bytes.len() {
            let mut broken = bytes.to_vec();
            broken[i] ^= 0xff;
            let _ = decode(&broken);
        }
    }
}
