//! Item values as the reference interpreter read them: every string
//! value an owned `String`, built by walking the subtree.

use partix_path::CmpOp;
use partix_query::{Item, Sequence};
use partix_xml::{NodeKind, NodeRef};

/// Concatenated text content of the subtree.
fn text(node: NodeRef<'_>) -> String {
    let mut out = String::new();
    for n in node.descendants_or_self() {
        if n.kind() == NodeKind::Text {
            out.push_str(n.value().unwrap_or(""));
        }
    }
    out
}

/// The reference's own reading of an item (the library's `Item` methods
/// now borrow; these are what they were).
pub trait Legacy {
    fn legacy_string_value(&self) -> String;
    fn legacy_number_value(&self) -> Option<f64>;
}

impl Legacy for Item {
    /// The item's string value (XPath `string()` semantics).
    fn legacy_string_value(&self) -> String {
        match self {
            Item::Node(doc, id) => {
                let node = doc.get(*id).expect("node belongs to doc");
                match node.kind() {
                    NodeKind::Element => text(node),
                    _ => node.value().unwrap_or("").to_owned(),
                }
            }
            Item::Str(s) => s.clone(),
            Item::Num(n) => format_number(*n),
            Item::Bool(b) => b.to_string(),
        }
    }

    /// The item's numeric value, if its string value parses.
    fn legacy_number_value(&self) -> Option<f64> {
        match self {
            Item::Num(n) => Some(*n),
            Item::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => self.legacy_string_value().trim().parse().ok(),
        }
    }
}

/// XPath *effective boolean value*: empty = false, single boolean = its
/// value, single number = non-zero, otherwise (any node / non-empty
/// string) = true.
pub fn effective_boolean(seq: &Sequence) -> bool {
    match seq.as_slice() {
        [] => false,
        [Item::Bool(b)] => *b,
        [Item::Num(n)] => *n != 0.0 && !n.is_nan(),
        [Item::Str(s)] => !s.is_empty(),
        _ => true,
    }
}

/// General comparison with existential semantics: true iff *some* pair of
/// items from the two sequences satisfies `op`. Numeric comparison is used
/// when either side is a number; string comparison otherwise.
pub fn general_compare(lhs: &Sequence, op: CmpOp, rhs: &Sequence) -> bool {
    for a in lhs {
        for b in rhs {
            if value_compare(a, op, b) {
                return true;
            }
        }
    }
    false
}

fn value_compare(a: &Item, op: CmpOp, b: &Item) -> bool {
    let numeric = matches!(a, Item::Num(_)) || matches!(b, Item::Num(_));
    if numeric {
        match (a.legacy_number_value(), b.legacy_number_value()) {
            (Some(x), Some(y)) => op.holds(&x, &y),
            _ => false,
        }
    } else {
        op.holds(&a.legacy_string_value().as_str(), &b.legacy_string_value().as_str())
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
