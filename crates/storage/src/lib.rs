//! # partix-storage
//!
//! A sequential, XQuery-enabled native XML database — the role eXist \[13]
//! plays in the paper's architecture. One instance of [`Database`] runs
//! inside every PartiX node; the middleware only talks to it through the
//! driver interface (execute an XQuery, store documents, list
//! collections).
//!
//! Features mirroring what the paper relies on:
//!
//! * **Named collections** of parsed XML documents, stored either hot
//!   (owned arenas) or cold (compact binary pages, validated at insert
//!   and read in place). Either way a collection is one vector of
//!   `Arc<Document>`; the mode only picks the representation built at
//!   insert.
//! * **Automatic indexes** (the paper: *"Some indexes were automatically
//!   created by the eXist DBMS to speed up text search operations and
//!   path expressions evaluation"*): a structural path index and a
//!   full-text word index, no other, kept on insertion and consulted
//!   when a query takes its candidate snapshot ([`Database::index_candidates`]).
//! * **Query execution** with per-query statistics (documents scanned,
//!   index hits, elapsed time) — the measurements every experiment plots.
//!   A query's scan runs whole on the calling thread; PartiX gets its
//!   parallelism from running one sub-query per fragment.
//! * **Persistence**: collections can be saved to / loaded from a
//!   directory of binary pages.
//! * **Write-ahead logging** ([`wal`]): online writes run through an
//!   append → fsync → apply pipeline ([`DurableDb`]), so a node killed
//!   mid-write replays its log on restart and comes back consistent.
//! * **The one checksum** ([`crc32`]): CRC-32 over four independent
//!   slicing lanes, sealing every WAL record here and every wire frame in
//!   `partix-net`.

mod crc;
pub mod db;
pub mod exec;
pub mod index;
pub mod persist;
pub mod wal;

pub use crc::crc32;
#[doc(hidden)]
pub use db::MorselConfig;
pub use db::{Collection, Database, StorageError, StorageMode};
pub use exec::{QueryOutput, QueryStats};
pub use wal::{DurableDb, Wal, WalError, WalStage, WriteOp};
