//! Encoding of the payloads that ride inside frames: queries (as XQuery
//! text, which the node parses), result sequences, and documents (via the
//! existing `partix-xml` binary format).
//!
//! A payload is encoded either on its own ([`Writer::new`]) or straight
//! into the frame that carries it (`frame_of`): documents and items are
//! written in place through `binary::encode_into`, so what a server
//! sends was assembled in one buffer.
//!
//! Decoding is defensive end to end: every read is bounds-checked, every
//! collection length is validated against the bytes actually remaining,
//! and a query is read by the query parser, under its nesting bound —
//! malformed payloads yield [`ProtocolError::Malformed`], never a panic
//! or an unbounded allocation.

use crate::frame::{self, FrameKind, ProtocolError};
use partix_path::{Axis, NodeTest};
use partix_query::ast::{ArithOp, Clause, SortDir};
use partix_query::lexer::{tokenize, Token};
use partix_query::{parse_query, Expr, Item, PathSource, PathStart, Query, Sequence};
use partix_storage::{QueryOutput, QueryStats};
use partix_xml::{binary, Document, NodeId, NodeKind};
use std::borrow::Borrow;
use std::sync::Arc;

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
            return Err(ProtocolError::Malformed("trailing bytes after payload".into()));
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
// Queries, as XQuery text
// ---------------------------------------------------------------------

/// A query's wire form: the text [`print_query`] writes. Debug builds
/// check that it parses back to the query itself.
pub fn put_query(w: &mut Writer, query: &Query) -> Result<(), ProtocolError> {
    let text = print_query(query)?;
    debug_assert_eq!(parse_query(&text).ok().as_ref(), Some(query), "{text}");
    w.put_str(&text);
    Ok(())
}

/// A query's text, parsed: [`parse_query`] is a node's one query input,
/// and a text it refuses (one nested past [`partix_path::MAX_DEPTH`], say)
/// is [`ProtocolError::Malformed`].
pub fn get_query(r: &mut Reader<'_>, what: &str) -> Result<Query, ProtocolError> {
    let malformed = |e: &dyn std::fmt::Display| ProtocolError::Malformed(format!("{what}: {e}"));
    let text = std::str::from_utf8(r.bytes(what)?).map_err(|e| malformed(&e))?;
    parse_query(text).map_err(|e| malformed(&e))
}

/// The text [`parse_query`] reads back to `query` exactly, with only the
/// parentheses the grammar needs, so it nests no deeper than the query.
/// [`ProtocolError::Unprintable`] for a query no text parses to: a
/// negative or non-finite number, a string holding both quote kinds, a
/// one-term `and` / `or` / sequence, a call named `collection`, `doc` or
/// like a keyword, an absolute path, a name the lexer would split.
pub fn print_query(query: &Query) -> Result<String, ProtocolError> {
    let mut out = String::new();
    print(&mut out, &query.expr, EXPR, false)?;
    Ok(out)
}

/// The levels of the grammar's `expr` and `or_expr`: anything, and
/// anything but a FLWOR.
const EXPR: u8 = 0;
const OR_EXPR: u8 = 1;

/// The grammar level `expr` parses at, loosest first: a FLWOR, `or`,
/// `and`, a comparison, `+ -`, `* div mod`, unary `-`, a primary.
fn level(expr: &Expr) -> u8 {
    match expr {
        Expr::Flwor { .. } => EXPR,
        Expr::Or(_) => OR_EXPR,
        Expr::And(_) => 2,
        Expr::Cmp { .. } => 3,
        Expr::Arith { op: ArithOp::Add | ArithOp::Sub, .. } => 4,
        Expr::Arith { .. } => 5,
        Expr::Neg(_) => 6,
        _ => 7,
    }
}

fn unprintable(what: impl Into<String>) -> ProtocolError {
    ProtocolError::Unprintable(what.into())
}

/// `expr` where the grammar takes level `min` or a tighter one.
/// `followed`: an operator comes next, which would extend an `if`'s
/// `else` branch.
fn print(out: &mut String, expr: &Expr, min: u8, followed: bool) -> Result<(), ProtocolError> {
    if level(expr) < min || followed && matches!(expr, Expr::If { .. }) {
        return list(out, std::slice::from_ref(expr));
    }
    match expr {
        Expr::Flwor { clauses, .. } if clauses.is_empty() => {
            return Err(unprintable("a FLWOR without clauses"))
        }
        Expr::Flwor { clauses, where_clause, order_by, ret } => {
            for clause in clauses {
                let (keyword, binding, binds) = match clause {
                    Clause::For(b) => ("for", b, "in"),
                    Clause::Let(b) => ("let", b, ":="),
                };
                let var = lexed(Token::Var(binding.var.clone()))?;
                out.push_str(&format!("{keyword} {var} {binds} "));
                print(out, &binding.expr, OR_EXPR, false)?;
                out.push(' ');
            }
            if let Some(filter) = where_clause {
                out.push_str("where ");
                print(out, filter, OR_EXPR, false)?;
                out.push(' ');
            }
            if let Some((key, dir)) = order_by {
                out.push_str("order by ");
                print(out, key, OR_EXPR, false)?;
                out.push_str(if *dir == SortDir::Descending { " descending " } else { " " });
            }
            out.push_str("return ");
            print(out, ret, EXPR, false)?;
        }
        Expr::And(terms) | Expr::Or(terms) if terms.len() < 2 => {
            return Err(unprintable(format!("a {}-term and / or", terms.len())))
        }
        Expr::Or(_) => infix(out, " or ", expr, followed)?,
        Expr::And(_) => infix(out, " and ", expr, followed)?,
        Expr::Cmp { op, .. } => infix(out, &format!(" {op} "), expr, followed)?,
        Expr::Arith { op, .. } => infix(out, &format!(" {op} "), expr, followed)?,
        Expr::Neg(operand) => {
            out.push('-');
            print(out, operand, level(expr), followed)?;
        }
        Expr::Num(n) => out.push_str(&lexed(Token::Num(*n))?),
        Expr::Str(s) => out.push_str(&quoted(s)?),
        Expr::Path(PathSource { path, .. }) if path.absolute => {
            return Err(unprintable("an absolute path"))
        }
        Expr::Path(PathSource { start, path }) => {
            out.push_str(&match start {
                PathStart::Collection(source) => format!("collection({})", quoted(source)?),
                PathStart::Doc(source) => format!("doc({})", quoted(source)?),
                PathStart::Var(var) => lexed(Token::Var(var.clone()))?,
            });
            for step in &path.steps {
                out.push_str(if step.axis == Axis::Child { "/" } else { "//" });
                out.push_str(&match &step.test {
                    NodeTest::Name(n) => lexed(Token::Name(n.clone()))?,
                    NodeTest::AnyElement => "*".to_owned(),
                    NodeTest::Attribute(n) => format!("@{}", lexed(Token::Name(n.clone()))?),
                });
                match step.position {
                    Some(0) => return Err(unprintable("a step at position 0")),
                    Some(p) => out.push_str(&format!("[{p}]")),
                    None => {}
                }
            }
        }
        Expr::If { cond, then, els } => {
            for (keyword, part) in [("if (", cond), (") then ", then), (" else ", els)] {
                out.push_str(keyword);
                print(out, part, EXPR, false)?;
            }
        }
        Expr::Call { name, args } => {
            if matches!(name.as_str(), "collection" | "doc" | "if" | "for" | "let") {
                return Err(unprintable(format!("a call named {name}")));
            }
            out.push_str(&lexed(Token::Name(name.clone()))?);
            list(out, args)?;
        }
        Expr::Seq(items) if items.len() == 1 => return Err(unprintable("a one-item sequence")),
        Expr::Seq(items) => list(out, items)?,
        Expr::Element { name, attrs, children } => {
            out.push_str(&lexed(Token::TagOpen(name.clone()))?);
            for (attr, value) in attrs {
                out.push_str(&format!(" {}={}", lexed(Token::Name(attr.clone()))?, quoted(value)?));
            }
            out.push('>');
            for child in children {
                out.push('{');
                print(out, child, EXPR, false)?;
                out.push('}');
            }
            out.push_str(&format!("</{name}>"));
        }
    }
    Ok(())
}

/// `expr`'s operands joined by `op`. Each binds tighter than `expr` but
/// the left one of an arithmetic chain, which nests to the left.
fn infix(out: &mut String, op: &str, expr: &Expr, followed: bool) -> Result<(), ProtocolError> {
    let terms = expr.children();
    for (i, term) in terms.iter().enumerate() {
        let chained = i == 0 && matches!(expr, Expr::Arith { .. });
        out.push_str(if i > 0 { op } else { "" });
        print(out, term, level(expr) + u8::from(!chained), followed || i + 1 < terms.len())?;
    }
    Ok(())
}

/// `(e1, e2, …)`.
fn list(out: &mut String, items: &[Expr]) -> Result<(), ProtocolError> {
    out.push('(');
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i > 0 { ", " } else { "" });
        print(out, item, EXPR, false)?;
    }
    out.push(')');
    Ok(())
}

/// The lexer's own text for `token`, if the lexer reads it back as
/// `token` and nothing else: no name or literal is written that the
/// parser would read otherwise.
fn lexed(token: Token) -> Result<String, ProtocolError> {
    let text = token.to_string();
    match tokenize(&text).as_deref() {
        Ok([one, _eof]) if one.token == token => Ok(text),
        _ => Err(unprintable(format!("the token {text}"))),
    }
}

/// A string literal: the lexer knows no escapes, so one holding a `"`
/// takes the other quotes.
fn quoted(s: &str) -> Result<String, ProtocolError> {
    if s.contains('"') && !s.contains('\'') {
        return Ok(format!("'{s}'"));
    }
    lexed(Token::Str(s.to_owned()))
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
    use partix_xml::parse;

    /// The text printed for `q`, checked to parse back to `q` exactly.
    fn printed(q: &Query) -> String {
        let text = print_query(q).unwrap_or_else(|e| panic!("{q:?}: {e}"));
        assert_eq!(parse_query(&text).as_ref(), Ok(q), "{text}");
        text
    }

    #[test]
    fn query_texts_print_back_to_themselves() {
        for text in [
            r#"collection("items")/Item/Section"#,
            r#"for $i in collection("items")/Item let $s := $i/Section where $s = "CD" and $i/Price < 20 order by $i/Name descending return <hit id="1">{$i/Name}</hit>"#,
            r#"count(collection("items")//Picture[1]/@path)"#,
            r#"if (1 < 2) then -(1 + 2 div 3) else (1, 2, 3)"#,
            r#"<a k='say "hi"'>{<b></b>}{"text"}{()}</a>"#,
            r#"doc("d1")/Item/* * 2 - -0.5 mod 3"#,
            r#"($a or $b) and ($c or $d) and $e != 1"#,
            r#"(1 = 2) = (3 < 4)"#,
            r#"1 - (2 - 3) * (4 div (5 mod 6))"#,
            r#"sum(for $x in $y/z return $x) + count(for $x in $y return $x)"#,
            r#"(if (1) then 2 else 3) + (if (4) then 5 else 6) + if (7) then 8 else 9"#,
            r#"-(if (1) then 2 else 3) * 4 or 5 and if (6) then 7 else 8"#,
            r#"for $x in if (1) then 2 else 3 where if (4) then 5 else 6 order by if (7) then 8 else 9 return 10"#,
            r#"(for $x in (1, 2) return $x, 3)"#,
        ] {
            let q = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(printed(&q), text);
        }
    }

    #[test]
    fn nested_operators_print_with_the_parentheses_they_need() {
        let num = |n: f64| Box::new(Expr::Num(n));
        let var = |v: &str| Expr::Path(PathSource {
            start: PathStart::Var(v.into()),
            path: partix_path::PathExpr { absolute: false, steps: Vec::new() },
        });
        let arith = |lhs: Box<Expr>, op, rhs: Box<Expr>| Box::new(Expr::Arith { lhs, op, rhs });
        for (expr, text) in [
            (Expr::And(vec![Expr::And(vec![var("a"), var("b")]), var("c")]), "($a and $b) and $c"),
            (Expr::Or(vec![var("a"), Expr::Or(vec![var("b"), var("c")])]), "$a or ($b or $c)"),
            (
                *arith(num(1.0), ArithOp::Add, arith(num(2.0), ArithOp::Sub, num(3.0))),
                "1 + (2 - 3)",
            ),
            (Expr::Neg(Box::new(Expr::Neg(num(1.0)))), "--1"),
            (Expr::Seq(vec![Expr::Seq(Vec::new()), Expr::Seq(Vec::new())]), "((), ())"),
            (
                Expr::Element {
                    name: "a".into(),
                    attrs: Vec::new(),
                    children: vec![Expr::Seq(vec![var("x"), var("y")])],
                },
                "<a>{($x, $y)}</a>",
            ),
        ] {
            assert_eq!(printed(&Query { expr }), text);
        }
    }

    #[test]
    fn numbers_print_exactly_without_exponents() {
        for n in [0.0, 0.1, 1.0 / 3.0, 1e-7, 5e-324, 1e21, f64::MAX, 4294967296.5] {
            let text = printed(&Query { expr: Expr::Num(n) });
            assert!(text.bytes().all(|b| b.is_ascii_digit() || b == b'.'), "{text}");
        }
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
}
