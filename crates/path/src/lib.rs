//! # partix-path
//!
//! Path expressions and simple predicates as formalized in Section 3.1 of
//! the PartiX paper:
//!
//! * A **path expression** `P` is a sequence `/e1/…/{ek | @ak}` over
//!   element names and attribute names, optionally containing `*` (any
//!   element), `//` (any sequence of descendants), and positional steps
//!   `e[i]` (the i-th occurrence of `e`).
//! * A **simple predicate** is
//!   `p := P θ value | φv(P) θ value | φb(P) | Q` with
//!   `θ ∈ {=, <, >, ≠, ≤, ≥}`, `φv` a value function (e.g. `count`),
//!   `φb` a boolean function (e.g. `contains`, `empty`), and `Q` an
//!   existential path test.
//!
//! Besides parsing ([`PathExpr::parse`], [`Predicate::parse`]) and
//! evaluation over documents, this crate provides the *static analysis*
//! PartiX uses for data localization (paper Sec. 4): [`analysis`] decides
//! whether a query's footprint can possibly touch a fragment, letting the
//! middleware prune irrelevant sub-queries.

pub mod analysis;
pub mod ast;
pub mod eval;
pub mod parse;
pub mod pred;

pub use ast::{Axis, NodeTest, PathExpr, Step};
pub use eval::{eval_path, eval_path_from, Matcher, Resolved};
pub use parse::{PathParseError, MAX_DEPTH};
pub use pred::{CmpOp, Predicate, Value};
