//! # partix-query
//!
//! An XQuery subset engine — the query language PartiX decomposes and its
//! per-node DBMSs evaluate (the paper ran eXist under each node; this
//! crate is our from-scratch stand-in).
//!
//! ## Supported language
//!
//! * FLWOR expressions: `for $v in …`, `let $v := …`, `where …`,
//!   `order by … [ascending|descending]`, `return …`.
//! * Path expressions rooted at `collection("name")`, `doc("name")` or a
//!   variable: `collection("items")/Item/Section`, `$i//Description`,
//!   with `*`, `//`, positional steps `e[1]` and attribute steps `@a`.
//! * General comparisons with existential semantics: `=`, `!=`, `<`,
//!   `<=`, `>`, `>=`.
//! * Boolean connectives `and`, `or` and functions `not`, `empty`,
//!   `exists`, `contains`, `starts-with`.
//! * Aggregates `count`, `sum`, `avg`, `min`, `max`; plus `string`,
//!   `number`, `string-length`, `concat`, `data`, `distinct-values`.
//! * Direct element constructors with embedded expressions:
//!   `<hit>{$i/Name}</hit>`.
//!
//! This covers every query shape in the paper's evaluation: selections
//! with predicates, text searches, existential tests, and aggregations.
//!
//! ## Pipeline: parse → lower → run
//!
//! * [`parse_query`] turns text into a [`Query`] — the [`ast`] every
//!   analysis, rewrite and the wire codec work on. The parser bounds
//!   nesting ([`partix_path::MAX_DEPTH`]), so everything downstream may
//!   recurse over what it accepts.
//! * [`Program::lower`] resolves that tree once per evaluation: variables
//!   to binding slots, function names to built-ins, literals to items,
//!   paths to matcher slots; it marks the driving collection scan and
//!   splits a decomposable query into core and wrappers ([`lower`]).
//! * [`Program::run`] streams the result out of a [`CollectionProvider`];
//!   [`Program::run_lending`] does so with the driving scan reading a
//!   borrowed slice of documents (an index's shortlist) instead of its
//!   collection; [`Program::run_morsel`] runs a decomposable program's
//!   core over such a slice. Expressions push borrowed items into the sink of
//!   whatever consumes them, so a document the `where` clause rejects
//!   costs no allocation ([`eval`]). [`Evaluator::eval`] is lower + run.
//!
//! There is one evaluator. The AST interpreter it replaced lives on only
//! as the oracle of the differential suite (`tests/reference/`).
//!
//! ## Beyond evaluation
//!
//! Two analyses make distribution possible:
//!
//! * [`pushdown`] — extracts, from a FLWOR query, the per-document
//!   [`Predicate`](partix_path::Predicate) implied by its `where` clause
//!   and the paths it touches (its *footprint*). The PartiX middleware
//!   matches this footprint against the fragmentation schema to prune
//!   irrelevant fragments, and the storage layer uses it to drive index
//!   scans.
//! * [`rewrite`] — rewrites a query's paths onto a vertical fragment's
//!   re-rooted documents, producing the sub-query actually sent to a node.
//!
//! A third analysis, [`morsel`], enables *intra*-fragment parallelism: it
//! finds a decomposable query's driving collection scan, so the storage
//! engine can run the program's core over disjoint document batches on
//! worker threads and merge the partials — items, a count, or keyed
//! tuples awaiting the global sort — back into the exact answer of the
//! unsplit run.

pub mod ast;
pub mod eval;
pub mod func;
pub mod lexer;
pub mod lower;
pub mod morsel;
pub mod parser;
pub mod pushdown;
pub mod rewrite;
pub mod value;

pub use ast::{Expr, PathSource, PathStart, Query};
pub use eval::{CollectionProvider, EvalError, Evaluator, MemProvider, SortKey};
pub use lower::Program;
pub use parser::{parse_query, QueryParseError};
pub use value::{root_documents, Item, ItemRef, Sequence};
