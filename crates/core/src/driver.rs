//! The PartiX Driver — the uniform interface between the middleware and
//! the XML DBMS running on each node (paper Sec. 4: *"Our architecture
//! considers that there is a PartiX Driver, which allows accessing remote
//! DBMSs to store and retrieve XML documents. … The PartiX driver allows
//! different XML DBMSs to participate in the system. The only requirement
//! is that they are able to process XQuery."*)
//!
//! [`partix_storage::Database`] is the built-in implementation; any other
//! XQuery-capable engine can participate by implementing [`PartixDriver`]
//! and installing it on a node with [`Node::set_driver`](crate::Node::set_driver).
//! [`FaultInjector`](crate::faults::FaultInjector) wraps another driver
//! with deterministic faults — used by the failure tests and useful for
//! resilience experiments.

use partix_query::{root_documents, EvalError, MemProvider, Program, Query};
use partix_storage::exec::ExecError;
use partix_storage::{Database, DurableDb, QueryOutput, WalError, WriteOp};
use partix_xml::Document;
use std::fmt;
use std::sync::Arc;

/// How a driver call failed. The distinction drives the coordinator's
/// recovery: [`DriverError::Unavailable`] means the DBMS never processed
/// the request (node crashed, link dropped) — safe and worthwhile to
/// retry on another replica — while [`DriverError::Failed`] means the
/// DBMS rejected or aborted the query itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The DBMS is unreachable or crashed mid-request.
    Unavailable(String),
    /// The DBMS processed the request and failed it.
    Failed(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
            DriverError::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// What each node-side DBMS must provide.
pub trait PartixDriver: Send + Sync {
    /// Execute an XQuery. `Ok(None)` means the queried collection does
    /// not exist on this node (an empty fragment — answered upstream with
    /// an empty result); `Err` is a genuine execution failure.
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError>;

    /// Store documents into a named collection (created on demand).
    fn store(&self, collection: &str, docs: Vec<Document>);

    /// Fetch a whole collection (empty when absent). Infallible by
    /// signature, so a driver that can fail answers empty — fine for
    /// publication-side readers (advisor sampling), wrong for queries,
    /// which fetch through [`PartixDriver::try_fetch_collection`]. A
    /// rebalance reads through that too, and trusts an answer of this one
    /// only when it is not empty.
    fn fetch_collection(&self, collection: &str) -> Vec<Arc<Document>>;

    /// Fetch a whole collection for the reconstruction fallback, telling
    /// "absent" (`Ok`, empty) from "could not be read" (`Err`): a rebuilt
    /// document set silently missing a fragment is wrong data. Drivers
    /// that can fail must override the default, which keeps drivers
    /// predating this method source-compatible — and so must every
    /// decorator wrapping another driver, by forwarding to the inner
    /// driver's `try_fetch_collection`: the default would route a wrapped
    /// fallible driver through its infallible
    /// [`PartixDriver::fetch_collection`] and turn its error back into an
    /// empty fragment.
    fn try_fetch_collection(&self, collection: &str) -> Result<Vec<Arc<Document>>, DriverError> {
        Ok(self.fetch_collection(collection))
    }

    /// Fetch the documents of `collection` that `filter` selects: a query
    /// over that collection returning the root elements of the documents
    /// wanted (`for $d in collection("f_prolog")/prolog where $d/genre =
    /// "science" return $d`). A fetch, not an [`execute`]: the answer is the
    /// documents themselves, `name` and `origin` intact, which is what the
    /// reconstruction matches pieces on. The default fetches the whole
    /// collection and evaluates the filter here, which is correct for any
    /// driver — and keeps a driver's faults where
    /// [`PartixDriver::try_fetch_collection`] injects them; a driver that
    /// can run the filter where the data lives overrides it, and a
    /// decorator forwards it so the wrapped driver still can.
    ///
    /// [`execute`]: PartixDriver::execute
    fn try_fetch_filtered(
        &self,
        collection: &str,
        filter: &Query,
    ) -> Result<Vec<Arc<Document>>, DriverError> {
        let mut fetched = MemProvider::new();
        fetched.add_shared(collection, self.try_fetch_collection(collection)?);
        match Program::lower(filter).run(&fetched) {
            Ok(items) => Ok(root_documents(items)),
            Err(error) => Err(DriverError::Failed(error.to_string())),
        }
    }

    /// Names of the collections this node holds.
    fn collections(&self) -> Vec<String>;

    /// Remove a collection entirely (no-op when absent). Default does
    /// nothing so drivers predating this method stay source-compatible.
    fn drop_collection(&self, _collection: &str) {}

    /// Liveness probe. In-process drivers are trivially healthy; network
    /// drivers override this with a real ping so the cluster can verify
    /// a node before routing work to it.
    fn health_check(&self) -> Result<(), DriverError> {
        Ok(())
    }

    /// Whether this driver already accounts *genuine* wire bytes into
    /// the `net.bytes_shipped` counter as its calls run. When true, the
    /// coordinator skips its modeled byte accounting for results served
    /// by this driver, so shipped bytes are never double-counted.
    fn counts_wire_bytes(&self) -> bool {
        false
    }

    /// Apply one online write (put/delete), returning how many existing
    /// documents it affected. Unlike [`PartixDriver::store`] (the bulk
    /// publish path, fire-and-forget by design) this is *fallible with
    /// typed errors*: an [`DriverError::Unavailable`] means the write was
    /// not acknowledged — on a WAL-backed node its recovery outcome is
    /// decided by how far the pipeline got — while a
    /// [`DriverError::Failed`] means the DBMS rejected it. The default
    /// refuses, keeping drivers that predate the write path
    /// source-compatible and loudly non-writable instead of silently
    /// dropping documents.
    fn write(&self, op: &WriteOp) -> Result<u32, DriverError> {
        let _ = op;
        Err(DriverError::Failed("driver does not support online writes".into()))
    }
}

impl PartixDriver for Database {
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        match self.execute_parsed(query) {
            Ok(out) => Ok(Some(out)),
            Err(ExecError::Eval(EvalError::UnknownCollection(_))) => Ok(None),
            Err(other) => Err(DriverError::Failed(other.to_string())),
        }
    }

    fn store(&self, collection: &str, docs: Vec<Document>) {
        self.store_all(collection, docs);
    }

    fn fetch_collection(&self, collection: &str) -> Vec<Arc<Document>> {
        partix_query::CollectionProvider::collection(self, collection).unwrap_or_default()
    }

    fn try_fetch_filtered(
        &self,
        _collection: &str,
        filter: &Query,
    ) -> Result<Vec<Arc<Document>>, DriverError> {
        match self.fetch_filtered(filter) {
            Ok(docs) => Ok(docs),
            // an absent collection is an empty fragment, filtered or not
            Err(ExecError::Eval(EvalError::UnknownCollection(_))) => Ok(Vec::new()),
            Err(other) => Err(DriverError::Failed(other.to_string())),
        }
    }

    fn collections(&self) -> Vec<String> {
        self.collection_names()
    }

    fn drop_collection(&self, collection: &str) {
        Database::drop_collection(self, collection);
    }

    fn write(&self, op: &WriteOp) -> Result<u32, DriverError> {
        Ok(self.apply_write(op))
    }
}

/// A WAL-backed node database: reads are served by the recovered
/// in-memory [`Database`], writes run the full append → fsync → apply
/// pipeline, and a node killed mid-write answers
/// [`DriverError::Unavailable`] until the directory is reopened.
impl PartixDriver for DurableDb {
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        self.health_check()?;
        PartixDriver::execute(&**self.db(), query)
    }

    fn store(&self, collection: &str, docs: Vec<Document>) {
        // bulk publish bypasses the log by design: publishing is part of
        // building a repository, checkpointed explicitly by the caller
        PartixDriver::store(&**self.db(), collection, docs);
    }

    fn fetch_collection(&self, collection: &str) -> Vec<Arc<Document>> {
        PartixDriver::fetch_collection(&**self.db(), collection)
    }

    fn try_fetch_collection(&self, collection: &str) -> Result<Vec<Arc<Document>>, DriverError> {
        self.health_check()?;
        Ok(self.fetch_collection(collection))
    }

    fn try_fetch_filtered(
        &self,
        collection: &str,
        filter: &Query,
    ) -> Result<Vec<Arc<Document>>, DriverError> {
        self.health_check()?;
        PartixDriver::try_fetch_filtered(&**self.db(), collection, filter)
    }

    fn collections(&self) -> Vec<String> {
        self.db().collection_names()
    }

    fn drop_collection(&self, collection: &str) {
        Database::drop_collection(self.db(), collection);
    }

    fn health_check(&self) -> Result<(), DriverError> {
        if self.is_dead() {
            return Err(DriverError::Unavailable("node is down (killed mid-write)".into()));
        }
        Ok(())
    }

    fn write(&self, op: &WriteOp) -> Result<u32, DriverError> {
        self.apply(op).map_err(|e| match e {
            WalError::Killed(_) | WalError::Dead => DriverError::Unavailable(e.to_string()),
            WalError::Io(_) => DriverError::Failed(e.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_query::parse_query;
    use partix_xml::parse;

    fn db_with_items() -> Arc<Database> {
        let db = Database::new();
        for i in 0..4 {
            let mut d = parse(&format!("<Item><Code>{i}</Code></Item>")).unwrap();
            d.name = Some(format!("i{i}"));
            db.store("items", d);
        }
        Arc::new(db)
    }

    #[test]
    fn database_driver_roundtrip() {
        let db = db_with_items();
        let driver: &dyn PartixDriver = &*db;
        let q = parse_query(r#"count(collection("items")/Item)"#).unwrap();
        let out = driver.execute(&q).unwrap().unwrap();
        assert_eq!(out.items[0], partix_query::Item::Num(4.0));
        assert_eq!(driver.collections(), ["items"]);
        assert_eq!(driver.fetch_collection("items").len(), 4);
        assert!(driver.fetch_collection("nope").is_empty());
        // unknown collection is an empty fragment, not a failure
        let q = parse_query(r#"count(collection("absent")/x)"#).unwrap();
        assert!(driver.execute(&q).unwrap().is_none());
    }
}
