//! Loopback remote clusters: run any experiment setup over real sockets.
//!
//! [`RemoteCluster::attach`] takes a fully-published [`PartiX`] instance
//! and moves every node's data path onto the wire: each node gets its
//! own [`NodeServer`] on an ephemeral loopback port backed by a fresh
//! server-side database, the node's collections are copied over through
//! the protocol's `Store` frames, and a [`RemoteDriver`] is installed so
//! all subsequent queries/stores/fetches travel through real TCP. The
//! coordinator above (dispatch modes, retries, tracing) is
//! untouched — which is the point: the differential and chaos suites can
//! assert the in-process and remote answers are byte-identical.
//!
//! Centralized-baseline queries keep working because
//! [`PartiX::execute_centralized`] reads the node's embedded database
//! directly, bypassing the installed driver — the embedded copy stays in
//! place as the oracle.
//!
//! [`RemoteCluster::kill`] / [`RemoteCluster::restart`] stop and rebind a
//! node's listener on its original port (the server keeps its database
//! between incarnations), which is what the remote chaos tests flap.

use partix_engine::{PartixDriver, PartiX};
use partix_net::{NodeServer, RemoteDriver};
use partix_storage::Database;
use std::net::SocketAddr;
use std::sync::Arc;

/// One node's server-side state.
struct RemoteNode {
    /// The listener, absent while the node is killed.
    server: Option<NodeServer>,
    /// The address clients dial — fixed across kill/restart cycles.
    addr: SocketAddr,
    /// The server-side database, surviving listener restarts.
    db: Arc<Database>,
    /// The driver installed on the coordinator's node, kept for
    /// wire-stats assertions.
    driver: Arc<RemoteDriver>,
}

/// A set of loopback node servers backing a [`PartiX`] cluster.
pub struct RemoteCluster {
    nodes: Vec<RemoteNode>,
}

impl RemoteCluster {
    /// Put every node of `px` behind a loopback TCP server: bind, copy
    /// the node's collections over the wire, install a [`RemoteDriver`].
    ///
    /// Panics on bind/connect failures — loopback servers in a test or
    /// bench process have no legitimate way to fail.
    pub fn attach(px: &PartiX) -> RemoteCluster {
        let nodes = px
            .cluster()
            .nodes()
            .iter()
            .map(|node| {
                let db = Arc::new(Database::new());
                let server = NodeServer::bind("127.0.0.1:0", Arc::clone(&db))
                    .expect("bind loopback node server");
                let addr = server.local_addr();
                let driver = RemoteDriver::connect(addr).expect("connect to node server");
                // replicate the node's collections through the protocol
                // itself: Store frames carry the documents across
                for collection in PartixDriver::collections(&*node.db) {
                    let docs: Vec<_> = PartixDriver::fetch_collection(&*node.db, &collection)
                        .iter()
                        .map(|d| (**d).clone())
                        .collect();
                    driver.store(&collection, docs);
                }
                node.set_driver(Arc::clone(&driver) as Arc<dyn PartixDriver>);
                RemoteNode { server: Some(server), addr, db, driver }
            })
            .collect();
        RemoteCluster { nodes }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The remote driver installed on node `i`.
    pub fn driver(&self, i: usize) -> &Arc<RemoteDriver> {
        &self.nodes[i].driver
    }

    /// Shut node `i`'s listener down (draining in-flight requests).
    /// Queries dispatched to it afterwards fail as unavailable until
    /// [`RemoteCluster::restart`].
    pub fn kill(&mut self, i: usize) {
        if let Some(mut server) = self.nodes[i].server.take() {
            server.shutdown();
        }
    }

    /// Rebind node `i`'s listener on its original address, backed by the
    /// same database (SO_REUSEADDR makes the port immediately reusable).
    pub fn restart(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        if node.server.is_none() {
            let server = NodeServer::bind(node.addr, Arc::clone(&node.db))
                .expect("rebind node server on original port");
            node.server = Some(server);
        }
    }

    /// Whether node `i`'s listener is currently up.
    pub fn is_up(&self, i: usize) -> bool {
        self.nodes[i].server.is_some()
    }

    /// Sum of pooled idle connections across all remote drivers — the
    /// leak check the chaos tests assert on.
    pub fn pooled_connections(&self) -> usize {
        self.nodes.iter().map(|n| n.driver.pooled_connections()).sum()
    }

    /// Total genuine wire bytes (sent + received) across all drivers.
    pub fn wire_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                let stats = n.driver.stats();
                stats.bytes_sent + stats.bytes_recv
            })
            .sum()
    }

    /// Total TCP dials across all drivers (initial connects + redials
    /// after a listener came back). One per node for a quiet attach;
    /// strictly more once listeners have flapped.
    pub fn connects(&self) -> u64 {
        self.nodes.iter().map(|n| n.driver.stats().connects).sum()
    }
}

impl Drop for RemoteCluster {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            if let Some(mut server) = node.server.take() {
                server.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;
    use partix_query::Item;

    fn answer(px: &PartiX, q: &str) -> String {
        let items = px.execute(q).unwrap().items;
        items.iter().map(Item::serialize).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn attached_cluster_answers_identically() {
        let docs = setup::quick_items(24);
        let px = setup::horizontal(&docs, 2);
        let q = format!(r#"count(collection("{}")/Item)"#, setup::DIST);
        let local = answer(&px, &q);
        let remote = RemoteCluster::attach(&px);
        assert_eq!(remote.len(), 2);
        assert_eq!(answer(&px, &q), local);
        assert!(remote.wire_bytes() > 0, "no bytes crossed the wire");
    }

    #[test]
    fn kill_and_restart_cycle_preserves_answers() {
        let docs = setup::quick_items(24);
        let px = setup::horizontal(&docs, 2);
        let q = format!(r#"count(collection("{}")/Item)"#, setup::DIST);
        let mut remote = RemoteCluster::attach(&px);
        let before = answer(&px, &q);
        remote.kill(0);
        assert!(!remote.is_up(0));
        remote.restart(0);
        assert!(remote.is_up(0));
        assert_eq!(answer(&px, &q), before);
    }
}
