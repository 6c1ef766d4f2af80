//! The evaluation data model: items and sequences.

use partix_path::CmpOp;
use partix_xml::{Document, NodeId, NodeKind, Serializer};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// One item of a sequence.
#[derive(Debug, Clone)]
pub enum Item {
    /// A node within a shared document.
    Node(Arc<Document>, NodeId),
    Str(String),
    Num(f64),
    Bool(bool),
}

/// A borrowed view of one item: what flows through the evaluator's sinks.
/// A sink that keeps an item copies it ([`ItemRef::to_item`]); one that
/// only tests or counts it allocates nothing.
#[derive(Debug, Clone, Copy)]
pub enum ItemRef<'a> {
    Node(&'a Arc<Document>, NodeId),
    Str(&'a str),
    Num(f64),
    Bool(bool),
}

impl Item {
    /// Borrow this item.
    pub fn as_ref(&self) -> ItemRef<'_> {
        match self {
            Item::Node(doc, id) => ItemRef::Node(doc, *id),
            Item::Str(s) => ItemRef::Str(s),
            Item::Num(n) => ItemRef::Num(*n),
            Item::Bool(b) => ItemRef::Bool(*b),
        }
    }

    /// The item's string value (XPath `string()` semantics).
    pub fn string_value(&self) -> String {
        self.as_ref().string_value().into_owned()
    }

    /// The item's numeric value, if its string value parses.
    pub fn number_value(&self) -> Option<f64> {
        self.as_ref().number_value()
    }

    /// Serialize for output: XML for nodes, text otherwise.
    pub fn serialize(&self) -> String {
        match self {
            Item::Node(doc, id) => {
                let node = doc.get(*id).expect("node belongs to doc");
                match node.kind() {
                    NodeKind::Element => {
                        let sub = doc.subtree(*id).expect("element subtree");
                        Serializer::compact().serialize(&sub)
                    }
                    NodeKind::Attribute => {
                        format!("{}=\"{}\"", node.label(), node.value().unwrap_or(""))
                    }
                    NodeKind::Text => node.value().unwrap_or("").to_owned(),
                }
            }
            other => other.string_value(),
        }
    }

    /// Approximate wire size in bytes when shipped between nodes — feeds
    /// the transmission-time model.
    pub fn wire_size(&self) -> usize {
        match self {
            Item::Node(doc, id) => {
                let node = doc.get(*id).expect("node belongs to doc");
                match node.kind() {
                    NodeKind::Element => node
                        .descendants_or_self()
                        .map(|n| match n.kind() {
                            NodeKind::Element => 2 * n.label().len() + 5,
                            NodeKind::Attribute => {
                                n.label().len() + n.value().unwrap_or("").len() + 4
                            }
                            NodeKind::Text => n.value().unwrap_or("").len(),
                        })
                        .sum(),
                    _ => node.label().len() + node.value().unwrap_or("").len() + 4,
                }
            }
            Item::Str(s) => s.len(),
            Item::Num(_) => 8,
            Item::Bool(_) => 5,
        }
    }
}

impl<'a> ItemRef<'a> {
    /// An owned copy (a refcount bump for a node).
    pub fn to_item(self) -> Item {
        match self {
            ItemRef::Node(doc, id) => Item::Node(Arc::clone(doc), id),
            ItemRef::Str(s) => Item::Str(s.to_owned()),
            ItemRef::Num(n) => Item::Num(n),
            ItemRef::Bool(b) => Item::Bool(b),
        }
    }

    /// The item's string value (XPath `string()` semantics), borrowed
    /// wherever it lies in one piece.
    pub fn string_value(self) -> Cow<'a, str> {
        match self {
            ItemRef::Node(doc, id) => {
                doc.get(id).expect("node belongs to doc").string_value()
            }
            ItemRef::Str(s) => Cow::Borrowed(s),
            ItemRef::Num(n) => Cow::Owned(format_number(n)),
            ItemRef::Bool(b) => Cow::Borrowed(if b { "true" } else { "false" }),
        }
    }

    /// The item's numeric value, if its string value parses.
    pub fn number_value(self) -> Option<f64> {
        match self {
            ItemRef::Num(n) => Some(n),
            ItemRef::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            _ => self.string_value().trim().parse().ok(),
        }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.serialize())
    }
}

/// Structural equality for test assertions: nodes compare by subtree
/// content, not identity.
impl PartialEq for Item {
    fn eq(&self, other: &Item) -> bool {
        match (self, other) {
            (Item::Num(a), Item::Num(b)) => a == b,
            (Item::Bool(a), Item::Bool(b)) => a == b,
            (Item::Str(a), Item::Str(b)) => a == b,
            (a @ Item::Node(..), b @ Item::Node(..)) => a.serialize() == b.serialize(),
            _ => false,
        }
    }
}

/// A sequence of items — every expression evaluates to one.
pub type Sequence = Vec<Item>;

/// The documents whose root element is an item of `items`, in order —
/// how a fetch carries whole documents, name and origin intact, where a
/// sequence of items is expected.
pub fn root_documents(items: Sequence) -> Vec<Arc<Document>> {
    items
        .into_iter()
        .filter_map(|item| match item {
            Item::Node(doc, NodeId::ROOT) => Some(doc),
            _ => None,
        })
        .collect()
}

/// XPath *effective boolean value*: empty = false, single boolean = its
/// value, single number = non-zero, otherwise (any node / non-empty
/// string) = true.
pub fn effective_boolean(seq: &Sequence) -> bool {
    let mut ebv = Ebv::default();
    seq.iter().for_each(|item| ebv.push(item.as_ref()));
    ebv.value()
}

/// The effective boolean value of a sequence seen one item at a time.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Ebv {
    /// What the sequence is worth so far.
    value: bool,
    seen: bool,
}

impl Ebv {
    pub(crate) fn push(&mut self, item: ItemRef<'_>) {
        self.value = self.seen
            || match item {
                ItemRef::Bool(b) => b,
                ItemRef::Num(n) => n != 0.0 && !n.is_nan(),
                ItemRef::Str(s) => !s.is_empty(),
                ItemRef::Node(..) => true,
            };
        self.seen = true;
    }

    pub(crate) fn value(self) -> bool {
        self.value
    }
}

/// General comparison with existential semantics: true iff *some* pair of
/// items from the two sequences satisfies `op`. Numeric comparison is used
/// when either side is a number; string comparison otherwise.
pub fn general_compare(lhs: &Sequence, op: CmpOp, rhs: &Sequence) -> bool {
    lhs.iter().any(|a| rhs.iter().any(|b| value_compare(a.as_ref(), op, b.as_ref())))
}

/// One pair of a general comparison.
pub(crate) fn value_compare(a: ItemRef<'_>, op: CmpOp, b: ItemRef<'_>) -> bool {
    let numeric = matches!(a, ItemRef::Num(_)) || matches!(b, ItemRef::Num(_));
    if numeric {
        match (a.number_value(), b.number_value()) {
            (Some(x), Some(y)) => op.holds(&x, &y),
            _ => false,
        }
    } else {
        op.holds(&&*a.string_value(), &&*b.string_value())
    }
}

/// Render a float like XQuery: integers without a decimal point.
pub fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_xml::parse;

    fn node_item(xml: &str) -> Item {
        Item::Node(Arc::new(parse(xml).unwrap()), NodeId::ROOT)
    }

    #[test]
    fn string_values() {
        assert_eq!(node_item("<a><b>x</b><c>y</c></a>").string_value(), "xy");
        assert_eq!(Item::Num(3.0).string_value(), "3");
        assert_eq!(Item::Num(3.5).string_value(), "3.5");
        assert_eq!(Item::Bool(true).string_value(), "true");
    }

    #[test]
    fn serialize_node_is_xml() {
        assert_eq!(node_item("<a><b>x</b></a>").serialize(), "<a><b>x</b></a>");
    }

    #[test]
    fn effective_boolean_rules() {
        assert!(!effective_boolean(&vec![]));
        assert!(!effective_boolean(&vec![Item::Bool(false)]));
        assert!(effective_boolean(&vec![Item::Bool(true)]));
        assert!(!effective_boolean(&vec![Item::Num(0.0)]));
        assert!(effective_boolean(&vec![Item::Num(2.0)]));
        assert!(!effective_boolean(&vec![Item::Str(String::new())]));
        assert!(effective_boolean(&vec![Item::Str("x".into())]));
        assert!(effective_boolean(&vec![node_item("<a/>")]));
        assert!(effective_boolean(&vec![Item::Num(0.0), Item::Num(0.0)]));
    }

    #[test]
    fn general_compare_existential() {
        let lhs = vec![Item::Str("CD".into()), Item::Str("DVD".into())];
        let rhs = vec![Item::Str("CD".into())];
        assert!(general_compare(&lhs, CmpOp::Eq, &rhs));
        assert!(general_compare(&lhs, CmpOp::Ne, &rhs)); // DVD != CD
        assert!(!general_compare(&rhs, CmpOp::Ne, &rhs));
        assert!(!general_compare(&vec![], CmpOp::Eq, &rhs));
    }

    #[test]
    fn numeric_coercion_in_compare() {
        let node = node_item("<p>12.5</p>");
        assert!(general_compare(&vec![node.clone()], CmpOp::Lt, &vec![Item::Num(20.0)]));
        assert!(!general_compare(
            &vec![node_item("<p>abc</p>")],
            CmpOp::Lt,
            &vec![Item::Num(20.0)]
        ));
        // string vs string is lexicographic
        assert!(general_compare(
            &vec![Item::Str("abc".into())],
            CmpOp::Lt,
            &vec![Item::Str("abd".into())]
        ));
    }

    #[test]
    fn wire_size_tracks_content() {
        let small = node_item("<a>x</a>").wire_size();
        let large = node_item("<a>xxxxxxxxxxxxxxxxxxxxxxxx</a>").wire_size();
        assert!(large > small);
    }
}
