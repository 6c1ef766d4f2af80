//! Error types for XML parsing and manipulation.

use std::fmt;

/// Position of an error in the input text (1-based line / column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    pub line: u32,
    pub col: u32,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An error produced while parsing XML text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub pos: Pos,
    pub kind: ParseErrorKind,
}

/// The specific failure encountered by the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended while a construct was still open.
    UnexpectedEof(&'static str),
    /// A character that is not legal at this point.
    Unexpected { found: char, expected: &'static str },
    /// End tag does not match the open element.
    MismatchedTag { open: String, close: String },
    /// `&name;` with an unknown entity name.
    UnknownEntity(String),
    /// Invalid numeric character reference.
    BadCharRef(String),
    /// Document has no root element, or trailing content after the root.
    BadDocumentStructure(&'static str),
    /// Duplicate attribute on one element.
    DuplicateAttribute(String),
    /// A name (element/attribute) is empty or starts with an illegal char.
    BadName(String),
    /// Elements nest deeper than [`crate::MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}: ", self.pos)?;
        match &self.kind {
            ParseErrorKind::UnexpectedEof(what) => {
                write!(f, "unexpected end of input while parsing {what}")
            }
            ParseErrorKind::Unexpected { found, expected } => {
                write!(f, "unexpected character {found:?}, expected {expected}")
            }
            ParseErrorKind::MismatchedTag { open, close } => {
                write!(f, "mismatched end tag </{close}> for element <{open}>")
            }
            ParseErrorKind::UnknownEntity(name) => write!(f, "unknown entity &{name};"),
            ParseErrorKind::BadCharRef(s) => write!(f, "invalid character reference &#{s};"),
            ParseErrorKind::BadDocumentStructure(what) => write!(f, "{what}"),
            ParseErrorKind::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute {name:?}")
            }
            ParseErrorKind::BadName(name) => write!(f, "invalid name {name:?}"),
            ParseErrorKind::TooDeep => {
                write!(f, "elements nest deeper than {} levels", crate::MAX_DEPTH)
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Errors from non-parsing XML operations (tree surgery, binary decoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// A [`crate::NodeId`] does not belong to the document it was used with.
    InvalidNodeId,
    /// Attempted an operation only valid on a specific node kind.
    WrongNodeKind { expected: &'static str },
    /// Binary page decoding failed.
    CorruptBinary(String),
    /// The operation would create a document with zero or multiple roots.
    NotWellFormed(&'static str),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::InvalidNodeId => write!(f, "node id does not belong to this document"),
            XmlError::WrongNodeKind { expected } => {
                write!(f, "operation requires a {expected} node")
            }
            XmlError::CorruptBinary(msg) => write!(f, "corrupt binary document: {msg}"),
            XmlError::NotWellFormed(msg) => write!(f, "document not well-formed: {msg}"),
        }
    }
}

impl std::error::Error for XmlError {}
