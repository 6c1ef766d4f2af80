//! XML serialization: compact and pretty-printed writers.

use crate::tree::{Document, NodeKind, NodeRef};
use std::fmt::Write as _;

/// Serialize `doc` without insignificant whitespace.
pub fn to_string(doc: &Document) -> String {
    let mut out = String::with_capacity(doc.approx_size());
    Serializer::compact().write_node(&mut out, doc.root());
    out
}

/// Serialize `doc` with two-space indentation.
pub fn to_string_pretty(doc: &Document) -> String {
    let mut out = String::with_capacity(doc.approx_size() * 2);
    Serializer::pretty().write_node(&mut out, doc.root());
    out
}

/// Configurable XML writer.
#[derive(Debug, Clone)]
pub struct Serializer {
    indent: Option<usize>,
}

impl Serializer {
    pub fn compact() -> Serializer {
        Serializer { indent: None }
    }

    pub fn pretty() -> Serializer {
        Serializer { indent: Some(2) }
    }

    /// Serialize a whole document to a string.
    pub fn serialize(&self, doc: &Document) -> String {
        let mut out = String::with_capacity(doc.approx_size());
        self.write_node(&mut out, doc.root());
        out
    }

    fn write_node(&self, out: &mut String, node: NodeRef<'_>) {
        self.write_element(out, node, 0);
    }

    fn write_element(&self, out: &mut String, node: NodeRef<'_>, depth: usize) {
        debug_assert_eq!(node.kind(), NodeKind::Element);
        self.write_indent(out, depth);
        out.push('<');
        out.push_str(node.label());
        for attr in node.attributes() {
            out.push(' ');
            out.push_str(attr.label());
            out.push_str("=\"");
            escape_into(out, attr.value().unwrap_or(""), true);
            out.push('"');
        }
        let content: Vec<NodeRef<'_>> = node
            .children()
            .filter(|c| c.kind() != NodeKind::Attribute)
            .collect();
        if content.is_empty() {
            out.push_str("/>");
            self.write_newline(out);
            return;
        }
        out.push('>');
        // Text-only content stays on one line even in pretty mode, so
        // round-tripping never injects whitespace into values.
        let text_only = content.iter().all(|c| c.kind() == NodeKind::Text);
        if !text_only {
            self.write_newline(out);
        }
        for child in &content {
            match child.kind() {
                NodeKind::Text => {
                    if !text_only {
                        self.write_indent(out, depth + 1);
                    }
                    escape_into(out, child.value().unwrap_or(""), false);
                    if !text_only {
                        self.write_newline(out);
                    }
                }
                NodeKind::Element => self.write_element(out, *child, depth + 1),
                NodeKind::Attribute => unreachable!("filtered above"),
            }
        }
        if !text_only {
            self.write_indent(out, depth);
        }
        out.push_str("</");
        out.push_str(node.label());
        out.push('>');
        self.write_newline(out);
    }

    fn write_indent(&self, out: &mut String, depth: usize) {
        if let Some(width) = self.indent {
            for _ in 0..depth * width {
                out.push(' ');
            }
        }
    }

    fn write_newline(&self, out: &mut String) {
        if self.indent.is_some() {
            out.push('\n');
        }
    }
}

/// Escape XML special characters into `out`. Attribute context also escapes
/// quotes and newlines (to survive attribute-value normalization).
pub fn escape_into(out: &mut String, s: &str, attr: bool) {
    for ch in s.chars() {
        match ch {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if attr => out.push_str("&quot;"),
            '\n' | '\t' | '\r' if attr => {
                let _ = write!(out, "&#{};", ch as u32);
            }
            _ => out.push(ch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::tree::{Document, NodeId};

    #[test]
    fn compact_roundtrip() {
        let src = r#"<Store name="ACME &amp; co"><Item><Name>a&lt;b</Name></Item><Item/></Store>"#;
        let doc = parse(src).unwrap();
        let out = to_string(&doc);
        assert_eq!(out, src);
    }

    #[test]
    fn pretty_then_parse_is_identity() {
        let mut doc = Document::new("Store");
        let item = doc.add_element(NodeId::ROOT, "Item");
        doc.add_attribute(item, "id", "1");
        let name = doc.add_element(item, "Name");
        doc.add_text(name, "A CD with spaces  inside");
        let pretty = to_string_pretty(&doc);
        let reparsed = parse(&pretty).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn attribute_escaping() {
        let mut doc = Document::new("a");
        doc.add_attribute(NodeId::ROOT, "v", "say \"hi\" <now>\n& done");
        let s = to_string(&doc);
        let reparsed = parse(&s).unwrap();
        assert_eq!(
            reparsed.root().attribute("v"),
            Some("say \"hi\" <now>\n& done")
        );
    }

    #[test]
    fn empty_element_short_form() {
        let doc = parse("<a><b></b></a>").unwrap();
        assert_eq!(to_string(&doc), "<a><b/></a>");
    }
}
