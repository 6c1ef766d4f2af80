//! Arena-based ordered labelled tree — the data tree `∆ := ⟨t, ℓ, Ψ⟩`.
//!
//! Nodes live in a chunked arena and are addressed by [`NodeId`] (a `u32`
//! index), giving compact memory layout and cheap traversal:
//!
//! * **Chunked allocation** — nodes are stored in chunks of 1024 (the
//!   first grows like a `Vec` up to that, so a small document holds only
//!   what it uses), so growing a large document never relocates more
//!   than one chunk and never pays a multi-megabyte `Vec` realloc copy
//!   while parsing the 5 MB document class.
//! * **Niche-packed links** — the five navigation links of a node are
//!   [`OptId`]s: a raw `u32` whose `u32::MAX` value means "none", so an
//!   optional link costs 4 bytes instead of the 8 an `Option<u32>` would.
//! * **Value heap** — attribute values and character data live in one
//!   shared `String` per document; nodes store `(offset, len)` spans.
//!   A node is 36 bytes flat, with no per-node heap allocation.
//!
//! Labels are interned per-document so repeated element names (the common
//! case in the paper's repositories: thousands of `Item` elements) cost
//! four bytes per node. The same layout is what the binary page format
//! serializes verbatim (see [`crate::binary`]): same node ids, same
//! links, same heap spans.
//!
//! That is why a [`Document`] has a second representation: instead of
//! owning an arena it can be **backed by a validated PXB2 page** and serve
//! every read straight from the page's records. The two are
//! observationally identical; the first mutation of a page-backed
//! document copies it into an arena (copy-on-write, node ids preserved).

use crate::binary::Page;
use crate::dewey::Dewey;
use crate::error::XmlError;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root node of every document.
    pub const ROOT: NodeId = NodeId(0);

    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned label identifier (element or attribute name) of one
/// [`Document`]: opaque, obtained from [`Document::sym`], and meaningful
/// only for the document that issued it. Within a document two labels are
/// equal exactly when their symbols are (pages listing a label twice are
/// rejected at validation), so a label test by `Sym` is one integer
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(pub(crate) u32);

/// A niche-packed optional [`NodeId`]: `u32::MAX` is "none". Keeps a
/// node's five links at 20 bytes total instead of 40.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OptId(u32);

impl OptId {
    pub(crate) const NONE: OptId = OptId(u32::MAX);

    #[inline]
    pub(crate) fn some(id: NodeId) -> OptId {
        OptId(id.0)
    }

    #[inline]
    pub(crate) fn get(self) -> Option<NodeId> {
        if self.0 == u32::MAX {
            None
        } else {
            Some(NodeId(self.0))
        }
    }

    /// Raw wire value (`u32::MAX` = none) — what the page format stores.
    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    #[inline]
    pub(crate) fn from_raw(raw: u32) -> OptId {
        OptId(raw)
    }
}

/// A `(offset, len)` span into the document's value heap;
/// `offset == u32::MAX` means "no value" (elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ValueSpan {
    pub(crate) off: u32,
    pub(crate) len: u32,
}

impl ValueSpan {
    pub(crate) const NONE: ValueSpan = ValueSpan { off: u32::MAX, len: 0 };

    #[inline]
    pub(crate) fn is_none(self) -> bool {
        self.off == u32::MAX
    }

    #[inline]
    pub(crate) fn get(self, heap: &str) -> Option<&str> {
        if self.is_none() {
            None
        } else {
            Some(&heap[self.off as usize..(self.off + self.len) as usize])
        }
    }
}

/// What a node is: an element, an attribute, or character data.
///
/// Attributes are modelled as children whose label is in the attribute name
/// set `A` and whose single child is a value in `D` (paper Sec. 3.1); for
/// ergonomics we flatten that representation into an `Attribute` node
/// carrying its value directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    Element,
    Attribute,
    Text,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) kind: NodeKind,
    /// Element/attribute name; for text nodes this is the empty symbol.
    pub(crate) label: Sym,
    /// Attribute or text value span into the heap; none for elements.
    pub(crate) value: ValueSpan,
    pub(crate) parent: OptId,
    pub(crate) first_child: OptId,
    pub(crate) last_child: OptId,
    pub(crate) next_sibling: OptId,
    pub(crate) prev_sibling: OptId,
}

/// log2 of the arena chunk size: 1024 nodes per chunk.
const CHUNK_BITS: usize = 10;
const CHUNK: usize = 1 << CHUNK_BITS;
/// The first chunk's first allocation: an item or a rebuilt article fits.
const FIRST: usize = 64;

/// Chunked node arena: indexable like a `Vec<Node>`, but growth past the
/// first chunk (which grows like a `Vec` up to `CHUNK` nodes) appends a
/// fresh fixed-capacity chunk instead of relocating every existing node.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena {
    chunks: Vec<Vec<Node>>,
    len: usize,
}

impl Arena {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn with_capacity(nodes: usize) -> Arena {
        let mut arena = Arena::default();
        if nodes > 0 {
            arena.chunks.push(Vec::with_capacity(nodes.min(CHUNK)));
        }
        arena
    }

    #[inline]
    pub(crate) fn get(&self, index: usize) -> &Node {
        &self.chunks[index >> CHUNK_BITS][index & (CHUNK - 1)]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, index: usize) -> &mut Node {
        &mut self.chunks[index >> CHUNK_BITS][index & (CHUNK - 1)]
    }

    pub(crate) fn push(&mut self, node: Node) -> u32 {
        assert!(self.len < u32::MAX as usize - 1, "document too large");
        if self.len >> CHUNK_BITS == self.chunks.len() {
            let capacity = if self.chunks.is_empty() { 0 } else { CHUNK };
            self.chunks.push(Vec::with_capacity(capacity));
        }
        let chunk = self.chunks.last_mut().expect("chunk exists");
        if chunk.len() == chunk.capacity() {
            // a chunk short of CHUNK (the first, or a copy's last) doubles
            // like a `Vec` from FIRST nodes, but never past CHUNK: a small
            // document holds about what it uses
            chunk.reserve_exact(chunk.len().max(FIRST).min(CHUNK - chunk.len()));
        }
        chunk.push(node);
        let id = self.len as u32;
        self.len += 1;
        id
    }

    /// All nodes in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Node> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

/// The owned, growable representation: node arena, value heap and the
/// interned labels.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArenaTree {
    pub(crate) nodes: Arena,
    /// Shared value heap: every attribute value and text-node content.
    pub(crate) text: String,
    pub(crate) symbols: Vec<Box<str>>,
    pub(crate) symbol_map: HashMap<Box<str>, Sym>,
}

impl ArenaTree {
    pub(crate) fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.symbol_map.get(s) {
            return sym;
        }
        let sym = Sym(self.symbols.len() as u32);
        let boxed: Box<str> = s.into();
        self.symbols.push(boxed.clone());
        self.symbol_map.insert(boxed, sym);
        sym
    }

    /// The symbol of `label`, if interned.
    fn find_sym(&self, label: &str) -> Option<Sym> {
        self.symbol_map.get(label).copied()
    }

    /// Append a string to the value heap, returning its span.
    fn push_value(&mut self, s: &str) -> ValueSpan {
        let off = self.text.len();
        assert!(
            off + s.len() < u32::MAX as usize,
            "document value heap too large"
        );
        self.text.push_str(s);
        ValueSpan { off: off as u32, len: s.len() as u32 }
    }

    /// Append a childless node as the last child of `parent`.
    fn push_node(
        &mut self,
        parent: Option<NodeId>,
        kind: NodeKind,
        label: &str,
        value: Option<&str>,
    ) -> NodeId {
        let label = self.intern(label);
        let value = value.map_or(ValueSpan::NONE, |v| self.push_value(v));
        let id = NodeId(self.nodes.push(Node {
            kind,
            label,
            value,
            parent: parent.map_or(OptId::NONE, OptId::some),
            first_child: OptId::NONE,
            last_child: OptId::NONE,
            next_sibling: OptId::NONE,
            prev_sibling: OptId::NONE,
        }));
        let Some(parent) = parent else { return id };
        let prev_last = self.nodes.get(parent.index()).last_child;
        match prev_last.get() {
            Some(last) => {
                self.nodes.get_mut(last.index()).next_sibling = OptId::some(id);
                self.nodes.get_mut(id.index()).prev_sibling = OptId::some(last);
            }
            None => self.nodes.get_mut(parent.index()).first_child = OptId::some(id),
        }
        self.nodes.get_mut(parent.index()).last_child = OptId::some(id);
        id
    }
}

/// What holds a document's tree: an owned arena, or a validated page
/// read in place. Nothing outside this crate can tell them apart.
#[derive(Debug, Clone)]
pub(crate) enum Repr {
    Arena(ArenaTree),
    Page(Page),
}

/// An XML document: a data tree with interned labels.
///
/// The root node (id [`NodeId::ROOT`]) is always an element. Documents may
/// carry a `name` (their identity inside a collection) and an `origin`
/// recording where a fragment's content came from in the source repository;
/// both are preserved by the binary format.
///
/// A document either owns its tree or reads it from a shared binary page
/// ([`Document::from_page`]); see the module docs.
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) repr: Repr,
    /// Identity of this document within its collection (e.g. `"item0042"`).
    pub name: Option<String>,
    /// Provenance of a fragment document: source document name plus the
    /// Dewey id of the projected subtree root. Used by the reconstruction
    /// join (paper Sec. 3.3).
    pub origin: Option<Origin>,
}

/// Provenance of a fragment document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Origin {
    pub source_doc: String,
    pub dewey: Dewey,
    /// The source labels of the units a document of units (a FragMode2
    /// hybrid fragment) holds, in its document order: the last element on
    /// its first-child chain holds them as its children. Empty elsewhere.
    pub units: Vec<Dewey>,
}

impl Document {
    /// Create a document whose root element is named `root_label`.
    pub fn new(root_label: &str) -> Document {
        let mut tree = ArenaTree::default();
        tree.push_node(None, NodeKind::Element, root_label, None);
        Document::from_arena(tree, None, None)
    }

    pub(crate) fn from_arena(
        tree: ArenaTree,
        name: Option<String>,
        origin: Option<Origin>,
    ) -> Document {
        Document { repr: Repr::Arena(tree), name, origin }
    }

    /// The tree for writing. A page-backed document is copied into an
    /// arena first; other clones of the page are untouched.
    fn arena_mut(&mut self) -> &mut ArenaTree {
        if let Repr::Page(page) = &self.repr {
            self.repr = Repr::Arena(page.to_arena());
        }
        match &mut self.repr {
            Repr::Arena(tree) => tree,
            Repr::Page(_) => unreachable!("converted above"),
        }
    }

    /// `doc` with an owned arena: itself, or a converted copy when it is
    /// page-backed.
    pub fn arena_backed(doc: Arc<Document>) -> Arc<Document> {
        match &doc.repr {
            Repr::Arena(_) => doc,
            Repr::Page(page) => Arc::new(Document::from_arena(
                page.to_arena(),
                doc.name.clone(),
                doc.origin.clone(),
            )),
        }
    }

    /// `doc` backed by its binary page: itself, or an encoded copy when
    /// it owns an arena.
    pub fn page_backed(doc: Arc<Document>) -> Arc<Document> {
        match &doc.repr {
            Repr::Page(_) => doc,
            Repr::Arena(_) => Arc::new(
                Document::from_page(crate::binary::encode(&doc))
                    .expect("the encoder writes valid pages"),
            ),
        }
    }

    /// Bytes this document occupies as held: the page length when
    /// page-backed, [`Document::approx_size`] for an arena.
    pub fn stored_bytes(&self) -> usize {
        match &self.repr {
            Repr::Arena(_) => self.approx_size(),
            Repr::Page(page) => page.len(),
        }
    }

    /// Number of nodes in the document (including the root).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Arena(tree) => tree.nodes.len(),
            Repr::Page(page) => page.node_count(),
        }
    }

    /// A document always has at least its root node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root element.
    pub fn root(&self) -> NodeRef<'_> {
        NodeRef { doc: self, id: NodeId::ROOT }
    }

    /// Name of the root element — `ℓ(root∆)`.
    pub fn root_label(&self) -> &str {
        self.label_of(NodeId::ROOT)
    }

    pub(crate) fn sym_str(&self, sym: Sym) -> &str {
        match &self.repr {
            Repr::Arena(tree) => &tree.symbols[sym.0 as usize],
            Repr::Page(page) => page.sym(sym),
        }
    }

    /// The symbol of `label` in this document, or `None` when no node
    /// carries it (an arena probes its map, a page scans its — at most a
    /// few dozen — symbols). Resolve a label once, then test nodes with
    /// [`NodeRef::is`].
    pub fn sym(&self, label: &str) -> Option<Sym> {
        match &self.repr {
            Repr::Arena(tree) => tree.find_sym(label),
            Repr::Page(page) => page.find_sym(label),
        }
    }

    /// The record of `id`, by value: an arena slot or a decoded page
    /// record (unused fields cost nothing once inlined).
    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> Node {
        match &self.repr {
            Repr::Arena(tree) => *tree.nodes.get(id.index()),
            Repr::Page(page) => page.node(id),
        }
    }

    /// Borrow a node by id.
    pub fn get(&self, id: NodeId) -> Option<NodeRef<'_>> {
        if id.index() < self.len() {
            Some(NodeRef { doc: self, id })
        } else {
            None
        }
    }

    /// Label (element or attribute name) of `id`; empty for text nodes.
    pub fn label_of(&self, id: NodeId) -> &str {
        self.sym_str(self.node(id).label)
    }

    /// Kind of `id`.
    pub fn kind_of(&self, id: NodeId) -> NodeKind {
        self.node(id).kind
    }

    /// Direct value of `id` (text content of a text node, value of an
    /// attribute). `None` for elements.
    pub fn value_of(&self, id: NodeId) -> Option<&str> {
        let span = self.node(id).value;
        match &self.repr {
            Repr::Arena(tree) => span.get(&tree.text),
            Repr::Page(page) => page.value(span),
        }
    }

    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent.get()
    }

    /// Append a child element under `parent`, returning the new node's id.
    pub fn add_element(&mut self, parent: NodeId, label: &str) -> NodeId {
        self.arena_mut().push_node(Some(parent), NodeKind::Element, label, None)
    }

    /// Append an attribute `name="value"` to element `parent`.
    ///
    /// Attributes precede element children in sibling order, matching the
    /// convention that `@a` steps address them positionally before content.
    pub fn add_attribute(&mut self, parent: NodeId, name: &str, value: &str) -> NodeId {
        self.arena_mut().push_node(Some(parent), NodeKind::Attribute, name, Some(value))
    }

    /// Append a text child under `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.arena_mut().push_node(Some(parent), NodeKind::Text, "", Some(text))
    }

    /// Deep-copy the subtree rooted at `src_id` in `src` as the last child
    /// of `dst_parent` in `self`. Returns the id of the copied root.
    pub fn graft(&mut self, dst_parent: NodeId, src: &Document, src_id: NodeId) -> NodeId {
        let src_node = src.node(src_id);
        let new_id = self.arena_mut().push_node(
            Some(dst_parent),
            src_node.kind,
            src.sym_str(src_node.label),
            src.value_of(src_id),
        );
        let mut child = src_node.first_child.get();
        while let Some(c) = child {
            self.graft(new_id, src, c);
            child = src.node(c).next_sibling.get();
        }
        new_id
    }

    /// Extract the subtree rooted at `id` as a fresh document.
    ///
    /// Fails with [`XmlError::WrongNodeKind`] if `id` is not an element
    /// (attribute/text subtrees are not well-formed documents).
    pub fn subtree(&self, id: NodeId) -> Result<Document, XmlError> {
        if id.index() >= self.len() {
            return Err(XmlError::InvalidNodeId);
        }
        if self.kind_of(id) != NodeKind::Element {
            return Err(XmlError::WrongNodeKind { expected: "element" });
        }
        let mut out = Document::new(self.label_of(id));
        let mut child = self.node(id).first_child.get();
        while let Some(c) = child {
            out.graft(NodeId::ROOT, self, c);
            child = self.node(c).next_sibling.get();
        }
        Ok(out)
    }

    /// Compute the Dewey identifier of `id`: the sequence of 1-based child
    /// ordinals on the path from the root. The root's Dewey id is empty.
    pub fn dewey_of(&self, id: NodeId) -> Dewey {
        let mut rev = Vec::new();
        let mut cur = id;
        while let Some(parent) = self.node(cur).parent.get() {
            let mut ord = 1u32;
            let mut sib = self.node(parent).first_child.get();
            while let Some(s) = sib {
                if s == cur {
                    break;
                }
                ord += 1;
                sib = self.node(s).next_sibling.get();
            }
            rev.push(ord);
            cur = parent;
        }
        rev.reverse();
        Dewey::from_vec(rev)
    }

    /// Resolve a Dewey identifier back to a node id, if it addresses an
    /// existing node.
    pub fn node_at_dewey(&self, dewey: &Dewey) -> Option<NodeId> {
        let mut cur = NodeId::ROOT;
        for &ord in dewey.components() {
            let mut child = self.node(cur).first_child.get()?;
            for _ in 1..ord {
                child = self.node(child).next_sibling.get()?;
            }
            cur = child;
        }
        Some(cur)
    }

    /// Total number of element nodes.
    pub fn element_count(&self) -> usize {
        self.nodes().filter(|n| n.kind == NodeKind::Element).count()
    }

    /// Approximate serialized size in bytes (used by the transmission-time
    /// model without actually serializing).
    pub fn approx_size(&self) -> usize {
        let mut size = match &self.repr {
            Repr::Arena(tree) => tree.text.len(),
            Repr::Page(page) => page.text_len(),
        };
        for node in self.nodes() {
            size += match node.kind {
                // <label></label>
                NodeKind::Element => 2 * self.sym_str(node.label).len() + 5,
                // label="value" (value bytes already counted via the heap)
                NodeKind::Attribute => self.sym_str(node.label).len() + 4,
                NodeKind::Text => 0,
            };
        }
        size
    }

    /// Every node record, in id order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        (0..self.len() as u32).map(|i| self.node(NodeId(i)))
    }

    /// All node ids in document order (pre-order).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        DescendantIds { doc: self, next: Some(NodeId::ROOT), stop: NodeId::ROOT }
    }
}

/// A borrowed view of one node, carrying its document for navigation.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    pub(crate) doc: &'a Document,
    pub(crate) id: NodeId,
}

impl fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            NodeKind::Element => write!(f, "<{}>", self.label()),
            NodeKind::Attribute => {
                write!(f, "@{}={:?}", self.label(), self.value().unwrap_or(""))
            }
            NodeKind::Text => write!(f, "text({:?})", self.value().unwrap_or("")),
        }
    }
}

impl<'a> NodeRef<'a> {
    pub fn id(self) -> NodeId {
        self.id
    }

    pub fn document(self) -> &'a Document {
        self.doc
    }

    pub fn kind(self) -> NodeKind {
        self.doc.kind_of(self.id)
    }

    pub fn label(self) -> &'a str {
        self.doc.label_of(self.id)
    }

    /// True if this node is of `kind` and labelled `label` — a symbol of
    /// this node's document ([`Document::sym`]). One record read, no
    /// string comparison.
    #[inline]
    pub fn is(self, kind: NodeKind, label: Sym) -> bool {
        let node = self.doc.node(self.id);
        node.kind == kind && node.label == label
    }

    /// Direct value (attribute value or text content). `None` for elements.
    pub fn value(self) -> Option<&'a str> {
        self.doc.value_of(self.id)
    }

    pub fn parent(self) -> Option<NodeRef<'a>> {
        self.doc.parent_of(self.id).map(|id| NodeRef { doc: self.doc, id })
    }

    pub fn first_child(self) -> Option<NodeRef<'a>> {
        self.doc.node(self.id).first_child.get().map(|id| NodeRef { doc: self.doc, id })
    }

    pub fn next_sibling(self) -> Option<NodeRef<'a>> {
        self.doc.node(self.id).next_sibling.get().map(|id| NodeRef { doc: self.doc, id })
    }

    /// All children (attributes, elements and text), in order.
    pub fn children(self) -> Children<'a> {
        Children { doc: self.doc, next: self.doc.node(self.id).first_child.get() }
    }

    /// Element children only.
    pub fn child_elements(self) -> impl Iterator<Item = NodeRef<'a>> {
        self.children().filter(|c| c.kind() == NodeKind::Element)
    }

    /// Attribute children only.
    pub fn attributes(self) -> impl Iterator<Item = NodeRef<'a>> {
        self.children().filter(|c| c.kind() == NodeKind::Attribute)
    }

    /// The value of attribute `name`, if present.
    pub fn attribute(self, name: &str) -> Option<&'a str> {
        self.attributes().find(|a| a.label() == name).and_then(|a| a.value())
    }

    /// First element child with the given label.
    pub fn child_element(self, label: &str) -> Option<NodeRef<'a>> {
        self.child_elements().find(|c| c.label() == label)
    }

    /// Pre-order traversal of this node and everything below it.
    pub fn descendants_or_self(self) -> Descendants<'a> {
        Descendants { doc: self.doc, next: Some(self.id), stop: self.id }
    }

    /// Concatenated text content of the subtree (the string value).
    pub fn text(self) -> String {
        self.text_cow().into_owned()
    }

    /// [`NodeRef::text`] without the copy where there is nothing to
    /// concatenate: borrowed while the subtree holds at most one text
    /// node (every leaf element), owned from the second one on.
    fn text_cow(self) -> Cow<'a, str> {
        let mut out = Cow::Borrowed("");
        for n in self.descendants_or_self() {
            if n.kind() == NodeKind::Text {
                let piece = n.value().unwrap_or("");
                if out.is_empty() {
                    out = Cow::Borrowed(piece);
                } else {
                    out.to_mut().push_str(piece);
                }
            }
        }
        out
    }

    /// The XPath string value: the direct value of an attribute or text
    /// node, the concatenated text content of an element. Borrowed from
    /// the document except for an element with several text nodes below
    /// it.
    pub fn string_value(self) -> Cow<'a, str> {
        match self.kind() {
            NodeKind::Element => self.text_cow(),
            NodeKind::Attribute | NodeKind::Text => Cow::Borrowed(self.value().unwrap_or("")),
        }
    }

    /// Text content parsed as a number, if the subtree's string value is a
    /// valid decimal.
    pub fn number(self) -> Option<f64> {
        self.text_cow().trim().parse().ok()
    }

    /// Dewey identifier of this node.
    pub fn dewey(self) -> Dewey {
        self.doc.dewey_of(self.id)
    }
}

/// Iterator over a node's direct children.
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl<'a> Iterator for Children<'a> {
    type Item = NodeRef<'a>;

    fn next(&mut self) -> Option<NodeRef<'a>> {
        let id = self.next?;
        self.next = self.doc.node(id).next_sibling.get();
        Some(NodeRef { doc: self.doc, id })
    }
}

/// Pre-order iterator over a subtree.
pub struct Descendants<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
    stop: NodeId,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeRef<'a>;

    fn next(&mut self) -> Option<NodeRef<'a>> {
        let id = self.next?;
        self.next = next_preorder(self.doc, id, self.stop);
        Some(NodeRef { doc: self.doc, id })
    }
}

struct DescendantIds<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
    stop: NodeId,
}

impl Iterator for DescendantIds<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = next_preorder(self.doc, id, self.stop);
        Some(id)
    }
}

fn next_preorder(doc: &Document, id: NodeId, stop: NodeId) -> Option<NodeId> {
    let node = doc.node(id);
    if let Some(child) = node.first_child.get() {
        return Some(child);
    }
    let mut cur = id;
    loop {
        if cur == stop {
            return None;
        }
        let n = doc.node(cur);
        if let Some(sib) = n.next_sibling.get() {
            return Some(sib);
        }
        cur = n.parent.get()?;
    }
}

impl PartialEq for Document {
    /// Structural equality: same tree shape, labels, kinds and values.
    /// Document `name`/`origin` metadata is ignored.
    fn eq(&self, other: &Document) -> bool {
        fn eq_subtree(a: NodeRef<'_>, b: NodeRef<'_>) -> bool {
            if a.kind() != b.kind() || a.label() != b.label() || a.value() != b.value() {
                return false;
            }
            let mut ac = a.children();
            let mut bc = b.children();
            loop {
                match (ac.next(), bc.next()) {
                    (None, None) => return true,
                    (Some(x), Some(y)) => {
                        if !eq_subtree(x, y) {
                            return false;
                        }
                    }
                    _ => return false,
                }
            }
        }
        eq_subtree(self.root(), other.root())
    }
}

impl Eq for Document {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        let mut doc = Document::new("Store");
        let sections = doc.add_element(NodeId::ROOT, "Sections");
        let s1 = doc.add_element(sections, "Section");
        doc.add_attribute(s1, "id", "1");
        let name = doc.add_element(s1, "Name");
        doc.add_text(name, "CD");
        let s2 = doc.add_element(sections, "Section");
        let name2 = doc.add_element(s2, "Name");
        doc.add_text(name2, "DVD");
        doc
    }

    #[test]
    fn the_first_chunk_fits_the_document_and_later_chunks_are_whole() {
        let mut doc = Document::new("r");
        for _ in 0..29 {
            doc.add_element(NodeId::ROOT, "c");
        }
        let capacity = |doc: &Document, chunk: usize| match &doc.repr {
            Repr::Arena(tree) => tree.nodes.chunks[chunk].capacity(),
            Repr::Page(_) => unreachable!("built in an arena"),
        };
        assert_eq!(capacity(&doc, 0), FIRST);
        for _ in 30..2 * CHUNK + 10 {
            doc.add_element(NodeId::ROOT, "c");
        }
        assert_eq!([0, 1, 2].map(|chunk| capacity(&doc, chunk)), [CHUNK; 3]);
        assert_eq!(doc.root().children().count(), 2 * CHUNK + 9);
        // a copy's chunks are as long as they are full: its last doubles
        let mut copy = doc.clone();
        copy.add_element(NodeId::ROOT, "c");
        assert_eq!(capacity(&copy, 2), 10 + FIRST);
        assert_eq!(copy.root().children().count(), 2 * CHUNK + 10);
    }

    #[test]
    fn navigation_basics() {
        let doc = sample();
        assert_eq!(doc.root_label(), "Store");
        let sections = doc.root().child_element("Sections").unwrap();
        let kids: Vec<_> = sections.child_elements().collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].label(), "Section");
        assert_eq!(kids[0].attribute("id"), Some("1"));
        assert_eq!(kids[1].attribute("id"), None);
        assert_eq!(kids[0].child_element("Name").unwrap().text(), "CD");
    }

    #[test]
    fn descendants_preorder() {
        let doc = sample();
        let labels: Vec<String> = doc
            .root()
            .descendants_or_self()
            .filter(|n| n.kind() == NodeKind::Element)
            .map(|n| n.label().to_owned())
            .collect();
        assert_eq!(
            labels,
            ["Store", "Sections", "Section", "Name", "Section", "Name"]
        );
    }

    #[test]
    fn descendants_of_inner_node_stop_at_subtree() {
        let doc = sample();
        let sections = doc.root().child_element("Sections").unwrap();
        let first = sections.child_elements().next().unwrap();
        let count = first.descendants_or_self().count();
        // Section, @id, Name, text
        assert_eq!(count, 4);
    }

    #[test]
    fn text_concatenation() {
        let doc = sample();
        assert_eq!(doc.root().text(), "CDDVD");
    }

    #[test]
    fn dewey_roundtrip_every_node() {
        let doc = sample();
        for id in doc.ids() {
            let dewey = doc.dewey_of(id);
            assert_eq!(doc.node_at_dewey(&dewey), Some(id), "dewey {dewey}");
        }
    }

    #[test]
    fn dewey_of_root_is_empty() {
        let doc = sample();
        assert!(doc.dewey_of(NodeId::ROOT).components().is_empty());
    }

    #[test]
    fn subtree_extraction() {
        let doc = sample();
        let sections = doc.root().child_element("Sections").unwrap();
        let sub = doc.subtree(sections.id()).unwrap();
        assert_eq!(sub.root_label(), "Sections");
        assert_eq!(sub.root().child_elements().count(), 2);
        assert_eq!(sub.root().text(), "CDDVD");
    }

    #[test]
    fn subtree_of_text_is_error() {
        let mut doc = Document::new("a");
        let t = doc.add_text(NodeId::ROOT, "hi");
        assert!(matches!(
            doc.subtree(t),
            Err(XmlError::WrongNodeKind { .. })
        ));
    }

    #[test]
    fn graft_copies_deeply() {
        let src = sample();
        let mut dst = Document::new("Wrapper");
        let sections = src.root().child_element("Sections").unwrap();
        dst.graft(NodeId::ROOT, &src, sections.id());
        let grafted = dst.root().child_element("Sections").unwrap();
        assert_eq!(grafted.child_elements().count(), 2);
        assert_eq!(grafted.text(), "CDDVD");
    }

    #[test]
    fn structural_equality_ignores_metadata() {
        let mut a = sample();
        let b = sample();
        assert_eq!(a, b);
        a.name = Some("renamed".into());
        assert_eq!(a, b);
    }

    #[test]
    fn structural_inequality_on_value_change() {
        let a = sample();
        let mut b = Document::new("Store");
        let sections = b.add_element(NodeId::ROOT, "Sections");
        let s1 = b.add_element(sections, "Section");
        b.add_attribute(s1, "id", "2"); // differs
        assert_ne!(a, b);
    }

    #[test]
    fn number_parses_numeric_text() {
        let mut doc = Document::new("Price");
        doc.add_text(NodeId::ROOT, " 19.90 ");
        assert_eq!(doc.root().number(), Some(19.90));
    }

    #[test]
    fn interning_reuses_symbols() {
        let mut doc = Document::new("a");
        let root_sym = doc.node(NodeId::ROOT).label;
        let a = doc.add_element(NodeId::ROOT, "a");
        let b = doc.add_element(NodeId::ROOT, "a");
        assert_eq!(doc.node(a).label, root_sym);
        assert_eq!(doc.node(b).label, root_sym);
    }

    #[test]
    fn approx_size_counts_content() {
        let doc = sample();
        let exact = crate::serializer::to_string(&doc).len();
        let approx = doc.approx_size();
        // within 2x either way — it is a model, not a measurement
        assert!(approx >= exact / 2 && approx <= exact * 2, "{approx} vs {exact}");
    }

    #[test]
    fn chunked_arena_survives_chunk_boundaries() {
        // build a flat document big enough to span several chunks, then
        // verify navigation, dewey ids and values across the boundaries
        let mut doc = Document::new("R");
        let n = 3 * CHUNK + 17;
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            let e = doc.add_element(NodeId::ROOT, "e");
            doc.add_text(e, &i.to_string());
            ids.push(e);
        }
        assert_eq!(doc.len(), 1 + 2 * n);
        assert_eq!(doc.root().child_elements().count(), n);
        // spot-check around every chunk boundary
        for &i in &[0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, n - 1] {
            let e = doc.get(ids[i]).unwrap();
            assert_eq!(e.text(), i.to_string());
            assert_eq!(doc.dewey_of(ids[i]).components(), &[i as u32 + 1]);
        }
        // deep nesting across chunks keeps parent links intact
        let mut deep = Document::new("D");
        let mut cur = NodeId::ROOT;
        for _ in 0..2 * CHUNK {
            cur = deep.add_element(cur, "n");
        }
        assert_eq!(deep.dewey_of(cur).depth(), 2 * CHUNK);
        let mut up = cur;
        let mut hops = 0;
        while let Some(p) = deep.parent_of(up) {
            up = p;
            hops += 1;
        }
        assert_eq!(hops, 2 * CHUNK);
    }

    #[test]
    fn node_is_compact() {
        // the niche-packed layout is the point of the refactor: five
        // links at 4 bytes each, a 8-byte value span, label + kind
        assert!(std::mem::size_of::<Node>() <= 36, "{}", std::mem::size_of::<Node>());
        assert_eq!(std::mem::size_of::<OptId>(), 4);
        assert_eq!(std::mem::size_of::<Option<NodeId>>(), 8);
    }
}
