//! XML 1.0 parser, written from scratch.
//!
//! Supports the constructs used by the paper's repositories: elements,
//! attributes, character data, CDATA sections, comments, processing
//! instructions, the XML declaration, a `<!DOCTYPE ...>` prologue (skipped),
//! the five predefined entities and numeric character references.
//!
//! Namespaces are not resolved; prefixed names are kept verbatim as labels
//! (the paper's schemas use no namespaces).

use crate::error::{ParseError, ParseErrorKind, Pos};
use crate::tree::{Document, NodeId};

/// Deepest element nesting [`parse`] accepts. The parser recurses once
/// per open element, and a stack overflow is an abort no firewall
/// catches; real repositories nest a dozen levels, and what this lets
/// through parses, serialises and drops on the 2 MiB stack pool workers
/// and connection threads run on.
pub const MAX_DEPTH: usize = 256;

/// Parse an XML document. Text is trimmed, and a text node of only
/// whitespace between elements (indentation) is dropped: the data model
/// has no mixed content.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    let mut parser = Parser { input: input.as_bytes(), pos: 0, line: 1, line_start: 0, depth: 0 };
    parser.document()
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    line: u32,
    line_start: usize,
    /// Elements open around the one being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn position(&self) -> Pos {
        Pos {
            line: self.line,
            col: (self.pos - self.line_start) as u32 + 1,
            offset: self.pos,
        }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError { pos: self.position(), kind }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn eat(&mut self, s: &[u8]) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &[u8], what: &'static str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            match self.peek() {
                Some(b) => Err(self.err(ParseErrorKind::Unexpected {
                    found: b as char,
                    expected: what,
                })),
                None => Err(self.err(ParseErrorKind::UnexpectedEof(what))),
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// document ::= prolog element Misc*
    fn document(&mut self) -> Result<Document, ParseError> {
        self.prolog()?;
        if self.peek() != Some(b'<') {
            return Err(self.err(ParseErrorKind::BadDocumentStructure(
                "expected root element",
            )));
        }
        let mut doc = self.root_element()?;
        // trailing Misc
        loop {
            self.skip_ws();
            if self.pos >= self.input.len() {
                break;
            }
            if self.starts_with(b"<!--") {
                self.comment()?;
            } else if self.starts_with(b"<?") {
                self.processing_instruction()?;
            } else {
                return Err(self.err(ParseErrorKind::BadDocumentStructure(
                    "content after root element",
                )));
            }
        }
        doc.name = None;
        Ok(doc)
    }

    fn prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with(b"<?") {
                self.processing_instruction()?;
            } else if self.starts_with(b"<!--") {
                self.comment()?;
            } else if self.starts_with(b"<!DOCTYPE") {
                self.doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn processing_instruction(&mut self) -> Result<(), ParseError> {
        self.expect(b"<?", "processing instruction")?;
        loop {
            if self.eat(b"?>") {
                return Ok(());
            }
            if self.bump().is_none() {
                return Err(self.err(ParseErrorKind::UnexpectedEof("processing instruction")));
            }
        }
    }

    fn comment(&mut self) -> Result<(), ParseError> {
        self.expect(b"<!--", "comment")?;
        loop {
            if self.eat(b"-->") {
                return Ok(());
            }
            if self.bump().is_none() {
                return Err(self.err(ParseErrorKind::UnexpectedEof("comment")));
            }
        }
    }

    /// Skip `<!DOCTYPE ...>` including a bracketed internal subset.
    fn doctype(&mut self) -> Result<(), ParseError> {
        self.expect(b"<!DOCTYPE", "doctype")?;
        let mut depth = 0i32;
        loop {
            match self.bump() {
                Some(b'[') => depth += 1,
                Some(b']') => depth -= 1,
                Some(b'>') if depth <= 0 => return Ok(()),
                Some(_) => {}
                None => return Err(self.err(ParseErrorKind::UnexpectedEof("doctype"))),
            }
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => {
                self.bump();
            }
            Some(b) => {
                return Err(self.err(ParseErrorKind::Unexpected {
                    found: b as char,
                    expected: "name",
                }))
            }
            None => return Err(self.err(ParseErrorKind::UnexpectedEof("name"))),
        }
        while matches!(self.peek(), Some(b) if is_name_char(b)) {
            self.bump();
        }
        // Names are ASCII-or-UTF8 byte runs; keep multi-byte sequences.
        while matches!(self.peek(), Some(b) if b >= 0x80) {
            self.bump();
            while matches!(self.peek(), Some(b) if is_name_char(b) || b >= 0x80) {
                self.bump();
            }
        }
        let s = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err(ParseErrorKind::BadName("<invalid utf-8>".into())))?;
        Ok(s.to_owned())
    }

    fn root_element(&mut self) -> Result<Document, ParseError> {
        self.expect(b"<", "element")?;
        let label = self.name()?;
        let mut doc = Document::new(&label);
        self.element_rest(&mut doc, NodeId::ROOT, &label)?;
        Ok(doc)
    }

    /// Parse attributes + content of an element whose `<name` has been
    /// consumed and whose node already exists, one level down.
    fn element_rest(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        label: &str,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(ParseErrorKind::TooDeep));
        }
        self.depth += 1;
        let result = self.element_body(doc, node, label);
        self.depth -= 1;
        result
    }

    fn element_body(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        label: &str,
    ) -> Result<(), ParseError> {
        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect(b"/>", "self-closing tag")?;
                    return Ok(());
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(b) if is_name_start(b) => {
                    let attr_name = self.name()?;
                    if doc
                        .get(node)
                        .expect("node exists")
                        .attributes()
                        .any(|a| a.label() == attr_name)
                    {
                        return Err(self.err(ParseErrorKind::DuplicateAttribute(attr_name)));
                    }
                    self.skip_ws();
                    self.expect(b"=", "= after attribute name")?;
                    self.skip_ws();
                    let value = self.attribute_value()?;
                    doc.add_attribute(node, &attr_name, &value);
                }
                Some(b) => {
                    return Err(self.err(ParseErrorKind::Unexpected {
                        found: b as char,
                        expected: "attribute, '>' or '/>'",
                    }))
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof("start tag"))),
            }
        }
        // content
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnexpectedEof("element content"))),
                Some(b'<') => {
                    if self.starts_with(b"</") {
                        self.flush_text(doc, node, &mut text);
                        self.expect(b"</", "end tag")?;
                        let close = self.name()?;
                        if close != label {
                            return Err(self.err(ParseErrorKind::MismatchedTag {
                                open: label.to_owned(),
                                close,
                            }));
                        }
                        self.skip_ws();
                        self.expect(b">", "'>' of end tag")?;
                        return Ok(());
                    } else if self.starts_with(b"<!--") {
                        self.comment()?;
                    } else if self.starts_with(b"<![CDATA[") {
                        self.cdata(&mut text)?;
                    } else if self.starts_with(b"<?") {
                        self.processing_instruction()?;
                    } else {
                        self.flush_text(doc, node, &mut text);
                        self.expect(b"<", "start tag")?;
                        let child_label = self.name()?;
                        let child = doc.add_element(node, &child_label);
                        self.element_rest(doc, child, &child_label)?;
                    }
                }
                Some(b'&') => {
                    self.char_ref(&mut text)?;
                }
                Some(_) => {
                    let b = self.bump().expect("peeked");
                    // Raw bytes are valid UTF-8 (input is &str); push as-is.
                    text.push_str(
                        std::str::from_utf8(std::slice::from_ref(&b)).unwrap_or("\u{fffd}"),
                    );
                    if b >= 0x80 {
                        // continuation bytes of a multi-byte char
                        text.pop();
                        let start = self.pos - 1;
                        while matches!(self.peek(), Some(nb) if nb & 0xC0 == 0x80) {
                            self.bump();
                        }
                        text.push_str(
                            std::str::from_utf8(&self.input[start..self.pos])
                                .unwrap_or("\u{fffd}"),
                        );
                    }
                }
            }
        }
    }

    fn flush_text(&mut self, doc: &mut Document, node: NodeId, text: &mut String) {
        let content = text.trim();
        if !content.is_empty() {
            doc.add_text(node, content);
        }
        text.clear();
    }

    fn cdata(&mut self, text: &mut String) -> Result<(), ParseError> {
        self.expect(b"<![CDATA[", "CDATA section")?;
        let start = self.pos;
        loop {
            if self.starts_with(b"]]>") {
                text.push_str(
                    std::str::from_utf8(&self.input[start..self.pos]).unwrap_or("\u{fffd}"),
                );
                self.eat(b"]]>");
                return Ok(());
            }
            if self.bump().is_none() {
                return Err(self.err(ParseErrorKind::UnexpectedEof("CDATA section")));
            }
        }
    }

    fn attribute_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump();
                q
            }
            Some(b) => {
                return Err(self.err(ParseErrorKind::Unexpected {
                    found: b as char,
                    expected: "quoted attribute value",
                }))
            }
            None => return Err(self.err(ParseErrorKind::UnexpectedEof("attribute value"))),
        };
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnexpectedEof("attribute value"))),
                Some(b) if b == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some(b'&') => self.char_ref(&mut value)?,
                Some(b'<') => {
                    return Err(self.err(ParseErrorKind::Unexpected {
                        found: '<',
                        expected: "attribute value content",
                    }))
                }
                Some(b) => {
                    self.bump();
                    if b < 0x80 {
                        value.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        while matches!(self.peek(), Some(nb) if nb & 0xC0 == 0x80) {
                            self.bump();
                        }
                        value.push_str(
                            std::str::from_utf8(&self.input[start..self.pos])
                                .unwrap_or("\u{fffd}"),
                        );
                    }
                }
            }
        }
    }

    /// Consume `&...;` and append the referenced character(s) to `out`.
    fn char_ref(&mut self, out: &mut String) -> Result<(), ParseError> {
        self.expect(b"&", "entity reference")?;
        let start = self.pos;
        loop {
            match self.bump() {
                Some(b';') => break,
                Some(_) if self.pos - start <= 12 => {}
                _ => return Err(self.err(ParseErrorKind::UnknownEntity("<unterminated>".into()))),
            }
        }
        let name = std::str::from_utf8(&self.input[start..self.pos - 1]).unwrap_or("");
        match name {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if name.starts_with('#') => {
                let digits = &name[1..];
                let code = if let Some(hex) = digits.strip_prefix('x').or(digits.strip_prefix('X'))
                {
                    u32::from_str_radix(hex, 16)
                } else {
                    digits.parse()
                }
                .map_err(|_| self.err(ParseErrorKind::BadCharRef(digits.to_owned())))?;
                let ch = char::from_u32(code)
                    .ok_or_else(|| self.err(ParseErrorKind::BadCharRef(digits.to_owned())))?;
                out.push(ch);
            }
            _ => return Err(self.err(ParseErrorKind::UnknownEntity(name.to_owned()))),
        }
        Ok(())
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseErrorKind;

    #[test]
    fn minimal_document() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.root_label(), "a");
        assert_eq!(doc.len(), 1);
    }

    #[test]
    fn nested_elements_and_text() {
        let doc = parse("<Store><Name>Acme</Name><Open>yes</Open></Store>").unwrap();
        assert_eq!(doc.root().child_element("Name").unwrap().text(), "Acme");
        assert_eq!(doc.root().child_element("Open").unwrap().text(), "yes");
    }

    #[test]
    fn attributes_both_quote_styles() {
        let doc = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(doc.root().attribute("x"), Some("1"));
        assert_eq!(doc.root().attribute("y"), Some("two"));
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let doc = parse("<a>\n  <b>hi</b>\n  <c>ho</c>\n</a>").unwrap();
        let kids: Vec<_> = doc.root().children().collect();
        assert_eq!(kids.len(), 2);
    }

    #[test]
    fn predefined_entities() {
        let doc = parse("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos;</a>").unwrap();
        assert_eq!(doc.root().text(), "<tag> & \"q\" 'a'");
    }

    #[test]
    fn numeric_char_refs() {
        let doc = parse("<a>&#65;&#x42;&#x1F600;</a>").unwrap();
        assert_eq!(doc.root().text(), "AB😀");
    }

    #[test]
    fn cdata_section() {
        let doc = parse("<a><![CDATA[x < y && z]]></a>").unwrap();
        assert_eq!(doc.root().text(), "x < y && z");
    }

    #[test]
    fn comments_and_pis_are_skipped() {
        let doc = parse(
            "<?xml version=\"1.0\"?><!-- c --><a><!-- inner --><b/><?pi data?></a><!-- t -->",
        )
        .unwrap();
        assert_eq!(doc.root().child_elements().count(), 1);
    }

    #[test]
    fn doctype_is_skipped() {
        let doc = parse("<!DOCTYPE store [<!ELEMENT a (b)>]><a><b/></a>").unwrap();
        assert_eq!(doc.root_label(), "a");
    }

    #[test]
    fn utf8_text_and_names() {
        let doc = parse("<Seção>maçã</Seção>").unwrap();
        assert_eq!(doc.root_label(), "Seção");
        assert_eq!(doc.root().text(), "maçã");
    }

    #[test]
    fn mismatched_tag_is_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn duplicate_attribute_is_error() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn trailing_content_is_error() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadDocumentStructure(_)));
    }

    #[test]
    fn unknown_entity_is_error() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn unterminated_element_is_error() {
        let err = parse("<a><b>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedEof(_)));
    }

    #[test]
    fn error_position_reported() {
        let err = parse("<a>\n<b></c>\n</a>").unwrap_err();
        assert_eq!(err.pos.line, 2);
    }

    #[test]
    fn adjacent_text_and_cdata_merge() {
        let doc = parse("<a>one<![CDATA[two]]>three</a>").unwrap();
        let kids: Vec<_> = doc.root().children().collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(doc.root().text(), "onetwothree");
    }
}
