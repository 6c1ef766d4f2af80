//! Cluster nodes and the network model.

use crate::driver::{DriverError, PartixDriver};
use partix_storage::Database;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One cluster node: a sequential XML DBMS plus availability state.
///
/// The node's data path is its driver: the embedded [`Database`] by
/// default; installing a [`PartixDriver`] with [`Node::set_driver`]
/// reroutes queries, stores and fetches through it instead — the paper's
/// pluggable-DBMS architecture.
pub struct Node {
    pub id: usize,
    pub name: String,
    pub db: Arc<Database>,
    driver: parking_lot::RwLock<Arc<dyn PartixDriver>>,
    available: AtomicBool,
    /// When set, the node recently failed a dispatch (timeout or crash):
    /// replica selection avoids it until `marked_at.elapsed() ≥ cooldown`
    /// so repeated queries stop paying the failure's latency. Stored as
    /// (mark time, cooldown) rather than a deadline `Instant` because
    /// `Instant + Duration` panics on overflow for huge cooldowns, while
    /// `elapsed() < cooldown` is saturating and total.
    suspect: parking_lot::Mutex<Option<(Instant, Duration)>>,
}

impl Node {
    pub fn new(id: usize) -> Node {
        let db = Arc::new(Database::new());
        Node {
            id,
            name: format!("node{id}"),
            driver: parking_lot::RwLock::new(Arc::clone(&db) as Arc<dyn PartixDriver>),
            db,
            available: AtomicBool::new(true),
            suspect: parking_lot::Mutex::new(None),
        }
    }

    /// Install a custom DBMS driver on this node (replacing the embedded
    /// [`Database`] for queries, stores and fetches).
    pub fn set_driver(&self, driver: Arc<dyn PartixDriver>) {
        *self.driver.write() = driver;
    }

    /// Remove a custom driver, returning to the embedded database.
    pub fn clear_driver(&self) {
        self.set_driver(Arc::clone(&self.db) as Arc<dyn PartixDriver>);
    }

    /// The driver currently serving this node's data path: the installed
    /// one, or the embedded database. Used to *wrap* the active driver
    /// (e.g. [`crate::faults::FaultInjector::install`] decorates whatever
    /// is already there).
    pub fn active_driver(&self) -> Arc<dyn PartixDriver> {
        Arc::clone(&self.driver.read())
    }

    /// Execute a query through the active driver.
    pub fn execute_query(
        &self,
        query: &partix_query::Query,
    ) -> Result<Option<partix_storage::QueryOutput>, DriverError> {
        self.active_driver().execute(query)
    }

    /// Store documents through the active driver.
    pub fn store_docs(&self, collection: &str, docs: Vec<partix_xml::Document>) {
        self.active_driver().store(collection, docs);
    }

    /// Apply one online write through the active driver.
    pub fn apply_write(&self, op: &partix_storage::WriteOp) -> Result<u32, DriverError> {
        self.active_driver().write(op)
    }

    /// Drop a collection through the active driver.
    pub fn drop_collection(&self, collection: &str) {
        self.active_driver().drop_collection(collection);
    }

    /// Fetch a whole collection through the active driver.
    pub fn fetch_docs(&self, collection: &str) -> Vec<Arc<partix_xml::Document>> {
        self.active_driver().fetch_collection(collection)
    }

    /// Fetch a collection for a query — all of it, or the documents
    /// `filter` selects ([`PartixDriver::try_fetch_filtered`]) — keeping
    /// "the driver could not read it" apart from "empty" (see
    /// [`PartixDriver::try_fetch_collection`]).
    pub fn try_fetch_docs(
        &self,
        collection: &str,
        filter: Option<&partix_query::Query>,
    ) -> Result<Vec<Arc<partix_xml::Document>>, DriverError> {
        let driver = self.active_driver();
        match filter {
            Some(filter) => driver.try_fetch_filtered(collection, filter),
            None => driver.try_fetch_collection(collection),
        }
    }

    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::Acquire)
    }

    /// Mark the node down/up — used for failure-injection tests.
    pub fn set_available(&self, up: bool) {
        self.available.store(up, Ordering::Release);
    }

    /// Flag the node as suspect for `cooldown`: replica selection skips
    /// it (when an alternative exists) until the cooldown expires, so a
    /// crashed or hanging node stops charging its timeout to every query.
    pub fn mark_suspect(&self, cooldown: Duration) {
        *self.suspect.lock() = Some((Instant::now(), cooldown));
    }

    /// Whether the node is inside a suspect cooldown window.
    pub fn is_suspect(&self) -> bool {
        match *self.suspect.lock() {
            Some((marked_at, cooldown)) => marked_at.elapsed() < cooldown,
            None => false,
        }
    }

    /// Clear the suspect flag — called after the node answers a dispatch
    /// successfully (it earned its way back into rotation).
    pub fn clear_suspect(&self) {
        *self.suspect.lock() = None;
    }
}

/// The set of nodes PartiX coordinates.
pub struct Cluster {
    nodes: Vec<Arc<Node>>,
}

impl Cluster {
    /// A cluster of `n` fresh nodes.
    pub fn new(n: usize) -> Cluster {
        assert!(n > 0, "a cluster needs at least one node");
        Cluster { nodes: (0..n).map(|i| Arc::new(Node::new(i))).collect() }
    }

    /// A new *view* sharing this cluster's nodes — how replicated
    /// coordinators share one set of DBMS nodes: each coordinator owns
    /// its own `Cluster` wrapper, but the `Arc<Node>`s (databases,
    /// drivers, availability) are the same objects.
    pub(crate) fn share(&self) -> Cluster {
        Cluster { nodes: self.nodes.clone() }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, id: usize) -> Option<&Arc<Node>> {
        self.nodes.get(id)
    }

    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }
}

/// The simulated interconnect (paper Sec. 5: transmission time is the
/// result size divided by the Gigabit Ethernet speed; sub-query text is
/// charged one latency each way).
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way message latency in seconds.
    pub latency_secs: f64,
}

impl Default for NetworkModel {
    /// Gigabit Ethernet: 1 Gbit/s ≈ 125 MB/s, 0.1 ms latency.
    fn default() -> NetworkModel {
        NetworkModel { bandwidth_bytes_per_sec: 125_000_000.0, latency_secs: 0.000_1 }
    }
}

impl NetworkModel {
    /// Time of one overlapped request/response round trip that brings
    /// `bytes` of partial results to the coordinator: one latency each
    /// way, and the results serialized on the coordinator's link.
    pub fn transmission_time(&self, bytes: usize) -> f64 {
        2.0 * self.latency_secs + bytes as f64 / self.bandwidth_bytes_per_sec
    }

    /// An infinitely fast network — used to report results "without the
    /// transmission times" as the paper's FragModeX-NT series do.
    pub fn instantaneous() -> NetworkModel {
        NetworkModel { bandwidth_bytes_per_sec: f64::INFINITY, latency_secs: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_creation() {
        let c = Cluster::new(4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.node(2).unwrap().name, "node2");
        assert!(c.node(4).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        let _ = Cluster::new(0);
    }

    #[test]
    fn cluster_with_nodes_is_never_empty() {
        assert!(!Cluster::new(1).is_empty());
        assert_eq!(Cluster::new(2).len(), 2);
    }

    #[test]
    fn availability_toggles() {
        let c = Cluster::new(1);
        let n = c.node(0).unwrap();
        assert!(n.is_available());
        n.set_available(false);
        assert!(!n.is_available());
    }

    #[test]
    fn suspect_flag_expires_and_clears() {
        let c = Cluster::new(1);
        let n = c.node(0).unwrap();
        assert!(!n.is_suspect());
        n.mark_suspect(Duration::from_secs(60));
        assert!(n.is_suspect());
        n.clear_suspect();
        assert!(!n.is_suspect());
        // an already-expired cooldown is not suspect
        n.mark_suspect(Duration::from_secs(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(!n.is_suspect());
    }

    #[test]
    fn extreme_cooldowns_never_panic() {
        let c = Cluster::new(1);
        let n = c.node(0).unwrap();
        // Duration::MAX would overflow `Instant::now() + cooldown`
        n.mark_suspect(Duration::MAX);
        assert!(n.is_suspect());
        n.clear_suspect();
        assert!(!n.is_suspect());
        // zero-width window is instantly expired, not underflowed
        n.mark_suspect(Duration::ZERO);
        assert!(!n.is_suspect());
    }

    #[test]
    fn gigabit_transmission_times() {
        let net = NetworkModel::default();
        // 125 MB at 125 MB/s ≈ 1 s (+ one latency each way)
        let t = net.transmission_time(125_000_000);
        assert!((t - 1.000_2).abs() < 1e-9);
        // small messages are latency-dominated
        assert!(net.transmission_time(100) < 0.001);
    }

    #[test]
    fn instantaneous_network_is_free() {
        let net = NetworkModel::instantaneous();
        assert_eq!(net.transmission_time(1_000_000_000), 0.0);
    }
}
