//! # partix-algebra
//!
//! The tree-algebra operators PartiX's fragmentation model is defined in
//! terms of (the paper follows the semantics of TLC \[16], an extension of
//! TAX \[10], because those algebras operate on *collections of documents*):
//!
//! * [`select`] — σ: keep the documents of a collection satisfying a
//!   predicate. Defines **horizontal** fragments.
//! * [`project`] — π<sub>P,Γ</sub>: extract the subtrees rooted at nodes
//!   selected by `P`, pruning the descendants selected by the expressions
//!   in `Γ` (the *prune criterion*). Defines **vertical** fragments.
//! * [`union`] — ∪: reconstruction operator for horizontal fragmentation.
//! * [`reconstruct`] — ⋈: reconstruction join for
//!   vertical fragmentation, re-nesting projected subtrees at their
//!   original positions via the Dewey ids carried in each fragment's
//!   [`Origin`](partix_xml::Origin); [`reconstruct_keeping`] copies only
//!   what a [`Keep`] set reaches (π before ⋈).

pub mod join;
pub mod ops;

pub use join::{reconstruct, reconstruct_keeping, Coverage, Keep, ReconstructError};
pub use ops::{project, select, union, Projection};
