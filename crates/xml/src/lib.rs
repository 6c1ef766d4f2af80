//! # partix-xml
//!
//! The XML data model underlying PartiX, following the formalization in
//! Section 3.1 of the paper: an XML document is a data tree
//! `∆ := ⟨t, ℓ, Ψ⟩` where `t` is a finite ordered tree, `ℓ` labels nodes
//! with element or attribute names, and `Ψ` maps leaf nodes to data values.
//!
//! This crate provides:
//!
//! * [`Document`] — an ordered labelled tree with O(1) child / sibling
//!   navigation and cheap subtree copies; it either owns a growable arena
//!   or reads a validated binary page in place (copy-on-write).
//! * [`Dewey`] — Dewey ordinal node identifiers, stable across
//!   fragmentation, used by the reconstruction join (paper Sec. 3.3:
//!   *"We keep an ID in each vertical fragment for reconstruction
//!   purposes"*).
//! * [`parse`] / [`Serializer`] — an
//!   XML 1.0 parser and serializer written from scratch (no external XML
//!   dependencies), round-trip tested.
//! * A compact binary page format ([`binary`]) used by the storage engine.
//!
//! Mixed content is intentionally not modelled, mirroring the paper's
//! simplification: a node mapped into the value domain `D` has no siblings.
//! Adjacent character data is merged into a single text node per parent.

pub mod binary;
pub mod builder;
pub mod dewey;
pub mod error;
pub mod parser;
pub mod serializer;
pub mod tree;

pub use binary::PageView;
pub use builder::DocBuilder;
pub use dewey::Dewey;
pub use error::{ParseError, ParseErrorKind, XmlError};
pub use parser::{parse, parse_with, ParseOptions, MAX_DEPTH};
pub use serializer::{to_string, to_string_pretty, Serializer};
pub use tree::{Document, NodeId, NodeKind, NodeRef, Origin, Sym};
