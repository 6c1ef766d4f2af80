//! Binary encoding of the payloads that ride inside frames: queries
//! (full AST, so no re-parse on the node side), result sequences, and
//! documents (via the existing `partix-xml` binary format).
//!
//! A payload is encoded either on its own ([`Writer::new`]) or straight
//! into the frame that carries it (`frame_of`): documents and items are
//! written in place through `binary::encode_into`, so what a server
//! sends was assembled in one buffer.
//!
//! Decoding is defensive end to end: every read is bounds-checked, every
//! collection length is validated against the bytes actually remaining,
//! and expression nesting is capped — malformed payloads yield
//! [`ProtocolError::Malformed`], never a panic or an unbounded
//! allocation.

use crate::frame::{self, FrameKind, ProtocolError};
use partix_path::{Axis, CmpOp, NodeTest, PathExpr, Step};
use partix_query::ast::{ArithOp, Binding, Clause, SortDir};
use partix_query::{Expr, Item, PathSource, PathStart, Query, Sequence};
use partix_storage::{QueryOutput, QueryStats};
use partix_xml::{binary, Document, NodeId, NodeKind};
use std::borrow::Borrow;
use std::sync::Arc;

/// Decoder recursion cap: deeper expression trees are rejected so a
/// hostile payload cannot overflow the stack — of this decoder, or of
/// anything that walks the tree afterwards. The same bound, counted the
/// same way, as the query parser's ([`partix_path::MAX_DEPTH`]): one
/// level per node, one per `for` / `let` clause (each scopes what follows
/// it, and the evaluator nests accordingly), and as many steps per path.
pub const MAX_EXPR_DEPTH: usize = partix_path::MAX_DEPTH;

fn malformed(what: &str) -> ProtocolError {
    ProtocolError::Malformed(what.to_owned())
}

// ---------------------------------------------------------------------
// Bounds-checked cursor primitives
// ---------------------------------------------------------------------

/// Append-only byte sink for payload encoding.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// [`Writer::put_bytes`] of bytes that `fill` appends in place: the
    /// length prefix is written once they are there.
    fn put_bytes_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        let at = self.buf.len();
        self.put_u32(0);
        fill(&mut self.buf);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// The bare payload `put` writes — what a message's `encode()` returns.
pub(crate) fn payload_of(put: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    put(&mut w);
    w.into_bytes()
}

/// The sealed frame of `kind` whose payload `put` writes: the writer it is
/// handed starts after the frame's header, so the payload is encoded where
/// it will be sent from. [`ProtocolError::Oversized`] if it outgrew the
/// frame cap.
pub(crate) fn frame_of(
    kind: FrameKind,
    put: impl FnOnce(&mut Writer),
) -> Result<Vec<u8>, ProtocolError> {
    let mut w = Writer { buf: frame::begin_frame(kind) };
    put(&mut w);
    frame::seal_frame(w.buf)
}

/// Bounds-checked read cursor over a payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decoding must consume the whole payload — trailing garbage is a
    /// peer bug worth surfacing, not ignoring.
    pub fn finish(&self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(malformed("trailing bytes after payload"));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtocolError> {
        if n > self.remaining() {
            return Err(ProtocolError::Malformed(format!(
                "short read: {what} needs {n} B, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn bool(&mut self, what: &str) -> Result<bool, ProtocolError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ProtocolError::Malformed(format!("{what}: bad bool byte {other}"))),
        }
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, ProtocolError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, ProtocolError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn f64(&mut self, what: &str) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub fn str(&mut self, what: &str) -> Result<String, ProtocolError> {
        let len = self.u32(what)? as usize;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| ProtocolError::Malformed(format!("{what}: invalid utf-8")))
    }

    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], ProtocolError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// A collection length, sanity-checked against the bytes left (every
    /// element costs ≥ 1 byte) so a corrupted count can't drive a huge
    /// pre-allocation.
    pub fn seq_len(&mut self, what: &str) -> Result<usize, ProtocolError> {
        let len = self.u32(what)? as usize;
        if len > self.remaining() {
            return Err(ProtocolError::Malformed(format!(
                "{what}: count {len} exceeds remaining payload"
            )));
        }
        Ok(len)
    }
}

// ---------------------------------------------------------------------
// Query AST
// ---------------------------------------------------------------------

pub fn encode_query(q: &Query) -> Vec<u8> {
    payload_of(|w| put_expr(w, &q.expr))
}

pub fn decode_query(payload: &[u8]) -> Result<Query, ProtocolError> {
    let mut r = Reader::new(payload);
    let expr = get_expr(&mut r, 0)?;
    r.finish()?;
    Ok(Query { expr })
}

fn put_expr(w: &mut Writer, expr: &Expr) {
    match expr {
        Expr::Flwor { clauses, where_clause, order_by, ret } => {
            w.put_u8(0);
            w.put_u32(clauses.len() as u32);
            for clause in clauses {
                match clause {
                    Clause::For(b) => {
                        w.put_u8(0);
                        put_binding(w, b);
                    }
                    Clause::Let(b) => {
                        w.put_u8(1);
                        put_binding(w, b);
                    }
                }
            }
            put_opt(w, where_clause.as_deref(), put_expr);
            match order_by {
                None => w.put_u8(0),
                Some((key, dir)) => {
                    w.put_u8(1);
                    put_expr(w, key);
                    w.put_u8(match dir {
                        SortDir::Ascending => 0,
                        SortDir::Descending => 1,
                    });
                }
            }
            put_expr(w, ret);
        }
        Expr::Path(ps) => {
            w.put_u8(1);
            put_path_source(w, ps);
        }
        Expr::Str(s) => {
            w.put_u8(2);
            w.put_str(s);
        }
        Expr::Num(n) => {
            w.put_u8(3);
            w.put_f64(*n);
        }
        Expr::Cmp { lhs, op, rhs } => {
            w.put_u8(4);
            put_expr(w, lhs);
            w.put_u8(cmp_op_tag(*op));
            put_expr(w, rhs);
        }
        Expr::Arith { lhs, op, rhs } => {
            w.put_u8(5);
            put_expr(w, lhs);
            w.put_u8(match op {
                ArithOp::Add => 0,
                ArithOp::Sub => 1,
                ArithOp::Mul => 2,
                ArithOp::Div => 3,
                ArithOp::Mod => 4,
            });
            put_expr(w, rhs);
        }
        Expr::Neg(e) => {
            w.put_u8(6);
            put_expr(w, e);
        }
        Expr::If { cond, then, els } => {
            w.put_u8(7);
            put_expr(w, cond);
            put_expr(w, then);
            put_expr(w, els);
        }
        Expr::And(es) => {
            w.put_u8(8);
            put_expr_vec(w, es);
        }
        Expr::Or(es) => {
            w.put_u8(9);
            put_expr_vec(w, es);
        }
        Expr::Call { name, args } => {
            w.put_u8(10);
            w.put_str(name);
            put_expr_vec(w, args);
        }
        Expr::Element { name, attrs, children } => {
            w.put_u8(11);
            w.put_str(name);
            w.put_u32(attrs.len() as u32);
            for (k, v) in attrs {
                w.put_str(k);
                w.put_str(v);
            }
            put_expr_vec(w, children);
        }
        Expr::Text(t) => {
            w.put_u8(12);
            w.put_str(t);
        }
        Expr::Seq(es) => {
            w.put_u8(13);
            put_expr_vec(w, es);
        }
    }
}

fn put_expr_vec(w: &mut Writer, es: &[Expr]) {
    w.put_u32(es.len() as u32);
    for e in es {
        put_expr(w, e);
    }
}

fn put_opt<T>(w: &mut Writer, v: Option<&T>, enc: impl Fn(&mut Writer, &T)) {
    match v {
        None => w.put_u8(0),
        Some(v) => {
            w.put_u8(1);
            enc(w, v);
        }
    }
}

fn put_binding(w: &mut Writer, b: &Binding) {
    w.put_str(&b.var);
    put_expr(w, &b.expr);
}

fn put_path_source(w: &mut Writer, ps: &PathSource) {
    match &ps.start {
        PathStart::Collection(name) => {
            w.put_u8(0);
            w.put_str(name);
        }
        PathStart::Doc(name) => {
            w.put_u8(1);
            w.put_str(name);
        }
        PathStart::Var(name) => {
            w.put_u8(2);
            w.put_str(name);
        }
    }
    put_path_expr(w, &ps.path);
}

fn put_path_expr(w: &mut Writer, p: &PathExpr) {
    w.put_bool(p.absolute);
    w.put_u32(p.steps.len() as u32);
    for step in &p.steps {
        w.put_u8(match step.axis {
            Axis::Child => 0,
            Axis::Descendant => 1,
        });
        match &step.test {
            NodeTest::Name(n) => {
                w.put_u8(0);
                w.put_str(n);
            }
            NodeTest::AnyElement => w.put_u8(1),
            NodeTest::Attribute(n) => {
                w.put_u8(2);
                w.put_str(n);
            }
        }
        match step.position {
            None => w.put_u8(0),
            Some(p) => {
                w.put_u8(1);
                w.put_u32(p);
            }
        }
    }
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn get_expr(r: &mut Reader<'_>, depth: usize) -> Result<Expr, ProtocolError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(malformed("expression nesting exceeds depth cap"));
    }
    let tag = r.u8("expr tag")?;
    Ok(match tag {
        0 => {
            let n = r.seq_len("flwor clauses")?;
            let mut clauses = Vec::with_capacity(n);
            for i in 0..n {
                let binding_kind = r.u8("clause tag")?;
                let binding = get_binding(r, depth + 1 + i)?;
                clauses.push(match binding_kind {
                    0 => Clause::For(binding),
                    1 => Clause::Let(binding),
                    other => {
                        return Err(ProtocolError::Malformed(format!("bad clause tag {other}")))
                    }
                });
            }
            // what follows the clauses sits below all of them
            let depth = depth + clauses.len();
            let where_clause = if r.bool("where present")? {
                Some(Box::new(get_expr(r, depth + 1)?))
            } else {
                None
            };
            let order_by = if r.bool("order-by present")? {
                let key = Box::new(get_expr(r, depth + 1)?);
                let dir = match r.u8("sort dir")? {
                    0 => SortDir::Ascending,
                    1 => SortDir::Descending,
                    other => {
                        return Err(ProtocolError::Malformed(format!("bad sort dir {other}")))
                    }
                };
                Some((key, dir))
            } else {
                None
            };
            let ret = Box::new(get_expr(r, depth + 1)?);
            Expr::Flwor { clauses, where_clause, order_by, ret }
        }
        1 => Expr::Path(get_path_source(r)?),
        2 => Expr::Str(r.str("string literal")?),
        3 => Expr::Num(r.f64("numeric literal")?),
        4 => {
            let lhs = Box::new(get_expr(r, depth + 1)?);
            let op = get_cmp_op(r)?;
            let rhs = Box::new(get_expr(r, depth + 1)?);
            Expr::Cmp { lhs, op, rhs }
        }
        5 => {
            let lhs = Box::new(get_expr(r, depth + 1)?);
            let op = match r.u8("arith op")? {
                0 => ArithOp::Add,
                1 => ArithOp::Sub,
                2 => ArithOp::Mul,
                3 => ArithOp::Div,
                4 => ArithOp::Mod,
                other => {
                    return Err(ProtocolError::Malformed(format!("bad arith op {other}")))
                }
            };
            let rhs = Box::new(get_expr(r, depth + 1)?);
            Expr::Arith { lhs, op, rhs }
        }
        6 => Expr::Neg(Box::new(get_expr(r, depth + 1)?)),
        7 => {
            let cond = Box::new(get_expr(r, depth + 1)?);
            let then = Box::new(get_expr(r, depth + 1)?);
            let els = Box::new(get_expr(r, depth + 1)?);
            Expr::If { cond, then, els }
        }
        8 => Expr::And(get_expr_vec(r, depth)?),
        9 => Expr::Or(get_expr_vec(r, depth)?),
        10 => {
            let name = r.str("call name")?;
            let args = get_expr_vec(r, depth)?;
            Expr::Call { name, args }
        }
        11 => {
            let name = r.str("element name")?;
            let n = r.seq_len("element attrs")?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let k = r.str("attr name")?;
                let v = r.str("attr value")?;
                attrs.push((k, v));
            }
            let children = get_expr_vec(r, depth)?;
            Expr::Element { name, attrs, children }
        }
        12 => Expr::Text(r.str("text literal")?),
        13 => Expr::Seq(get_expr_vec(r, depth)?),
        other => return Err(ProtocolError::Malformed(format!("bad expr tag {other}"))),
    })
}

fn get_expr_vec(r: &mut Reader<'_>, depth: usize) -> Result<Vec<Expr>, ProtocolError> {
    let n = r.seq_len("expr list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_expr(r, depth + 1)?);
    }
    Ok(out)
}

fn get_binding(r: &mut Reader<'_>, depth: usize) -> Result<Binding, ProtocolError> {
    let var = r.str("binding var")?;
    let expr = get_expr(r, depth)?;
    Ok(Binding { var, expr })
}

fn get_path_source(r: &mut Reader<'_>) -> Result<PathSource, ProtocolError> {
    let start = match r.u8("path start tag")? {
        0 => PathStart::Collection(r.str("collection name")?),
        1 => PathStart::Doc(r.str("doc name")?),
        2 => PathStart::Var(r.str("var name")?),
        other => return Err(ProtocolError::Malformed(format!("bad path start tag {other}"))),
    };
    let path = get_path_expr(r)?;
    Ok(PathSource { start, path })
}

fn get_path_expr(r: &mut Reader<'_>) -> Result<PathExpr, ProtocolError> {
    let absolute = r.bool("path absolute")?;
    let n = r.seq_len("path steps")?;
    if n > MAX_EXPR_DEPTH {
        return Err(malformed("path longer than the depth cap"));
    }
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        let axis = match r.u8("axis")? {
            0 => Axis::Child,
            1 => Axis::Descendant,
            other => return Err(ProtocolError::Malformed(format!("bad axis tag {other}"))),
        };
        let test = match r.u8("node test tag")? {
            0 => NodeTest::Name(r.str("step name")?),
            1 => NodeTest::AnyElement,
            2 => NodeTest::Attribute(r.str("attribute name")?),
            other => return Err(ProtocolError::Malformed(format!("bad node test tag {other}"))),
        };
        let position = if r.bool("position present")? {
            Some(r.u32("position")?)
        } else {
            None
        };
        steps.push(Step { axis, test, position });
    }
    Ok(PathExpr { absolute, steps })
}

fn get_cmp_op(r: &mut Reader<'_>) -> Result<CmpOp, ProtocolError> {
    Ok(match r.u8("cmp op")? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        other => return Err(ProtocolError::Malformed(format!("bad cmp op {other}"))),
    })
}

// ---------------------------------------------------------------------
// Documents
// ---------------------------------------------------------------------

/// The document's page, written in place (a page-backed document's body
/// is copied as it is).
pub fn put_document(w: &mut Writer, doc: &Document) {
    w.put_bytes_with(|buf| binary::encode_into(doc, buf));
}

/// One copy out of the frame, validated and adopted: the document reads
/// the page in place.
pub fn get_document(r: &mut Reader<'_>) -> Result<Document, ProtocolError> {
    let raw = r.bytes("document")?;
    binary::decode(raw).map_err(|e| ProtocolError::Malformed(format!("document: {e}")))
}

/// A document list, encoded from wherever the documents live: a `Store`
/// holds them by value, a `Fetch` answer behind the `Arc`s storage handed
/// out.
pub fn put_documents<D: Borrow<Document>>(w: &mut Writer, docs: &[D]) {
    w.put_u32(docs.len() as u32);
    for doc in docs {
        put_document(w, doc.borrow());
    }
}

pub fn get_documents(r: &mut Reader<'_>) -> Result<Vec<Document>, ProtocolError> {
    let n = r.seq_len("document list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_document(r)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Items and query output
// ---------------------------------------------------------------------

/// Wrapper-document root label for shipped attribute/text items. The
/// wrapper never serializes (only the wrapped node does), so the label
/// is invisible to result equality.
const WIRE_WRAPPER: &str = "wire";

pub fn put_item(w: &mut Writer, item: &Item) {
    match item {
        Item::Node(doc, id) => {
            let node = doc.get(*id).expect("node belongs to doc");
            match node.kind() {
                NodeKind::Element => {
                    w.put_u8(0);
                    // a whole document goes out as it is (minus name and
                    // origin, like any subtree); only an inner element
                    // needs the deep copy
                    if *id == NodeId::ROOT {
                        w.put_bytes_with(|buf| binary::encode_bare_into(doc, buf));
                    } else {
                        put_document(w, &doc.subtree(*id).expect("element subtree"));
                    }
                }
                NodeKind::Attribute => {
                    w.put_u8(1);
                    w.put_str(node.label());
                    w.put_str(node.value().unwrap_or(""));
                }
                NodeKind::Text => {
                    w.put_u8(2);
                    w.put_str(node.value().unwrap_or(""));
                }
            }
        }
        Item::Str(s) => {
            w.put_u8(3);
            w.put_str(s);
        }
        Item::Num(n) => {
            w.put_u8(4);
            w.put_f64(*n);
        }
        Item::Bool(b) => {
            w.put_u8(5);
            w.put_bool(*b);
        }
    }
}

pub fn get_item(r: &mut Reader<'_>) -> Result<Item, ProtocolError> {
    Ok(match r.u8("item tag")? {
        0 => {
            let doc = get_document(r)?;
            Item::Node(Arc::new(doc), NodeId::ROOT)
        }
        1 => {
            let label = r.str("attribute label")?;
            let value = r.str("attribute value")?;
            let mut doc = Document::new(WIRE_WRAPPER);
            let id = doc.add_attribute(NodeId::ROOT, &label, &value);
            Item::Node(Arc::new(doc), id)
        }
        2 => {
            let value = r.str("text value")?;
            let mut doc = Document::new(WIRE_WRAPPER);
            let id = doc.add_text(NodeId::ROOT, &value);
            Item::Node(Arc::new(doc), id)
        }
        3 => Item::Str(r.str("string item")?),
        4 => Item::Num(r.f64("numeric item")?),
        5 => Item::Bool(r.bool("boolean item")?),
        other => return Err(ProtocolError::Malformed(format!("bad item tag {other}"))),
    })
}

pub fn put_sequence(w: &mut Writer, items: &[Item]) {
    w.put_u32(items.len() as u32);
    for item in items {
        put_item(w, item);
    }
}

pub fn get_sequence(r: &mut Reader<'_>) -> Result<Sequence, ProtocolError> {
    let n = r.seq_len("item sequence")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_item(r)?);
    }
    Ok(out)
}

pub fn put_output(w: &mut Writer, out: &QueryOutput) {
    put_sequence(w, &out.items);
    w.put_u64(out.stats.collection_size as u64);
    w.put_u64(out.stats.docs_scanned as u64);
    w.put_bool(out.stats.index_used);
    w.put_f64(out.stats.elapsed);
    w.put_u64(out.stats.result_bytes as u64);
    w.put_u64(out.stats.morsels as u64);
}

pub fn get_output(r: &mut Reader<'_>) -> Result<QueryOutput, ProtocolError> {
    let items = get_sequence(r)?;
    let collection_size = r.u64("collection_size")? as usize;
    let docs_scanned = r.u64("docs_scanned")? as usize;
    let index_used = r.bool("index_used")?;
    let elapsed = r.f64("elapsed")?;
    let result_bytes = r.u64("result_bytes")? as usize;
    let morsels = r.u64("morsels")? as usize;
    Ok(QueryOutput {
        items,
        stats: QueryStats {
            collection_size,
            docs_scanned,
            index_used,
            elapsed,
            result_bytes,
            morsels,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_query::parse_query;
    use partix_xml::parse;

    fn roundtrip_query(text: &str) {
        let q = parse_query(text).unwrap();
        let bytes = encode_query(&q);
        let back = decode_query(&bytes).unwrap();
        assert_eq!(q, back, "query codec roundtrip for {text}");
    }

    #[test]
    fn query_roundtrips() {
        roundtrip_query(r#"collection("items")/Item/Section"#);
        roundtrip_query(
            r#"for $i in collection("items")/Item
               let $s := $i/Section
               where $s = "CD" and $i/Price < 20
               order by $i/Name descending
               return <hit id="1">{$i/Name}</hit>"#,
        );
        roundtrip_query(r#"count(collection("items")//Picture[1]/@path)"#);
        roundtrip_query(r#"if (1 < 2) then -(1 + 2 div 3) else (1, 2, 3)"#);
        // the parser emits Expr::Text only inside constructors; cover the
        // tag with a hand-built AST
        let q = Query {
            expr: Expr::Element {
                name: "hit".into(),
                attrs: vec![("id".into(), "1".into())],
                children: vec![Expr::Text("label".into())],
            },
        };
        assert_eq!(decode_query(&encode_query(&q)).unwrap(), q);
    }

    #[test]
    fn item_kinds_roundtrip_by_serialization() {
        let doc = Arc::new(parse(r#"<a k="v"><b>text</b></a>"#).unwrap());
        let attr = doc
            .get(NodeId::ROOT)
            .unwrap()
            .descendants_or_self()
            .find(|n| n.kind() == NodeKind::Attribute)
            .unwrap()
            .id();
        let text = doc
            .get(NodeId::ROOT)
            .unwrap()
            .descendants_or_self()
            .find(|n| n.kind() == NodeKind::Text)
            .unwrap()
            .id();
        let items: Sequence = vec![
            Item::Node(doc.clone(), NodeId::ROOT),
            Item::Node(doc.clone(), attr),
            Item::Node(doc.clone(), text),
            Item::Str("plain".into()),
            Item::Num(12.5),
            Item::Bool(true),
        ];
        let mut w = Writer::new();
        put_sequence(&mut w, &items);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_sequence(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(items.len(), back.len());
        for (a, b) in items.iter().zip(back.iter()) {
            assert_eq!(a.serialize(), b.serialize());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn root_item_ships_the_document_itself_minus_its_identity() {
        let mut doc = parse(r#"<a k="v"><b>text</b><c/></a>"#).unwrap();
        doc.name = Some("d1".into());
        // arena and page-backed senders, and a relay of a received item
        let paged = Document::from_page(binary::encode(&doc)).unwrap();
        let mut frames = Vec::new();
        for sender in [Arc::new(doc.clone()), Arc::new(paged)] {
            let mut w = Writer::new();
            put_item(&mut w, &Item::Node(sender, NodeId::ROOT));
            frames.push(w.into_bytes());
        }
        let Item::Node(received, id) = get_item(&mut Reader::new(&frames[0])).unwrap() else {
            panic!("node item expected");
        };
        assert_eq!((&*received, id), (&doc, NodeId::ROOT));
        assert_eq!(received.name, None, "items carry no document identity");
        let mut relay = Writer::new();
        put_item(&mut relay, &Item::Node(received, id));
        frames.push(relay.into_bytes());
        // exactly what shipping the deep copy used to write
        let mut expect = Writer::new();
        expect.put_u8(0);
        put_document(&mut expect, &doc.subtree(NodeId::ROOT).unwrap());
        let expect = expect.into_bytes();
        for frame in &frames {
            assert_eq!(frame, &expect);
        }
    }

    #[test]
    fn document_page_listing_a_label_twice_is_malformed() {
        // the encoder never writes such a page; read in place it would
        // answer label tests wrongly, so the frame is refused
        let mut w = Writer::new();
        put_document(&mut w, &parse("<ab><cd/></ab>").unwrap());
        let mut frame = w.into_bytes();
        let at = frame.windows(2).position(|w| w == b"cd").unwrap();
        frame[at..at + 2].copy_from_slice(b"ab");
        let err = get_document(&mut Reader::new(&frame)).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(ref m) if m.contains("twice")), "{err}");
    }

    #[test]
    fn output_roundtrips_stats() {
        let out = QueryOutput {
            items: vec![Item::Num(7.0)],
            stats: QueryStats {
                collection_size: 100,
                docs_scanned: 42,
                index_used: true,
                elapsed: 0.0125,
                result_bytes: 8,
                morsels: 3,
            },
        };
        let mut w = Writer::new();
        put_output(&mut w, &out);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_output(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.items, out.items);
        assert_eq!(back.stats.collection_size, 100);
        assert_eq!(back.stats.docs_scanned, 42);
        assert!(back.stats.index_used);
        assert_eq!(back.stats.result_bytes, 8);
        assert_eq!(back.stats.morsels, 3);
    }

    #[test]
    fn truncated_and_garbage_payloads_are_typed_errors() {
        let q = parse_query(r#"for $i in collection("c")/x return $i"#).unwrap();
        let bytes = encode_query(&q);
        for cut in 0..bytes.len() {
            assert!(decode_query(&bytes[..cut]).is_err(), "cut at {cut} must not decode");
        }
        assert!(decode_query(&[200, 1, 2, 3]).is_err());
        // trailing garbage is rejected too
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_query(&padded).is_err());
    }

    #[test]
    fn depth_cap_stops_deep_nesting() {
        // Neg(Neg(...Num)) deeper than the cap: tag 6 repeated
        let mut bytes = vec![6u8; MAX_EXPR_DEPTH + 8];
        bytes.push(3);
        bytes.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        let err = decode_query(&bytes).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(ref m) if m.contains("depth")), "{err}");
    }

    #[test]
    fn depth_cap_counts_clauses_and_steps() {
        // every clause nests the evaluation of what follows it, and the
        // step matcher recurses per step: both count towards the cap
        let clause = |i: usize| {
            Clause::For(Binding { var: format!("v{i}"), expr: Expr::Num(1.0) })
        };
        let flwor = |clauses: usize| Query {
            expr: Expr::Flwor {
                clauses: (0..clauses).map(clause).collect(),
                where_clause: None,
                order_by: None,
                ret: Box::new(Expr::Num(1.0)),
            },
        };
        assert!(decode_query(&encode_query(&flwor(MAX_EXPR_DEPTH - 1))).is_ok());
        let err = decode_query(&encode_query(&flwor(10 * MAX_EXPR_DEPTH))).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(ref m) if m.contains("depth")), "{err}");

        let path = |steps: usize| Query {
            expr: Expr::Path(PathSource {
                start: PathStart::Collection("c".into()),
                path: PathExpr {
                    absolute: false,
                    steps: vec![Step::child("a"); steps],
                },
            }),
        };
        assert!(decode_query(&encode_query(&path(MAX_EXPR_DEPTH))).is_ok());
        let err = decode_query(&encode_query(&path(MAX_EXPR_DEPTH + 1))).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(ref m) if m.contains("depth")), "{err}");
    }

    #[test]
    fn corrupt_count_does_not_overallocate() {
        // And-list claiming u32::MAX entries with an empty tail
        let mut bytes = vec![8u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_query(&bytes).is_err());
    }
}
