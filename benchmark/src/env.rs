//! What every workload shares: the built system under test ([`Env`]),
//! the closed-loop clients that drive it, the oracle that checks every
//! answer, and the timed run.

use crate::calib::Kernel;
use crate::spans::{SpanDriver, SpanLog, STORAGE_EXECUTE};
use crate::stats::{median, percentile, Rng};
use partix_engine::{
    DispatchMode, Distribution, NetworkModel, PartiX, PartixDriver, Placement, QueryReport,
};
use partix_frag::{FragmentDef, FragmentationSchema};
use partix_gen::SECTIONS;
use partix_net::{
    serve_coordinator, NodeServer, RemoteDriver, ServerConfig, StreamClient, StreamClientConfig,
    StreamOpts, StreamServer, StreamServerConfig,
};
use partix_path::{PathExpr, Predicate};
use partix_query::Item;
use partix_schema::builtin::virtual_store;
use partix_schema::{CollectionDef, RepoKind};
use partix_storage::{Database, DurableDb, MorselConfig, StorageMode, WriteOp};
use partix_xml::{DocBuilder, Document, NodeKind, NodeRef};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The distributed collection of every workload.
pub const DIST: &str = "data";
/// The unfragmented copy on node 0's embedded database: the oracle and
/// the paper's centralized baseline.
pub const CENTRAL: &str = "central";
/// Beside it, on a writing workload: only the acknowledged writes — what
/// a node's log alone must reproduce after a restart.
pub const WRITTEN: &str = "written";
/// `nproc` is 2 on the reference host; callers are application servers
/// that wait for each reply, hence a closed loop with one connection each.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Select,
    TextSearch,
    Aggregate,
    Join,
    Write,
}

impl Family {
    pub fn label(self) -> &'static str {
        match self {
            Family::Select => "select",
            Family::TextSearch => "textsearch",
            Family::Aggregate => "aggregate",
            Family::Join => "join",
            Family::Write => "write",
        }
    }
}

/// An answer as a canonical multiset: item count plus an order-free hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Answer {
    pub items: usize,
    pub hash: u64,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn hash_node(hash: &mut u64, node: NodeRef<'_>) {
    let tag = match node.kind() {
        NodeKind::Element => 1u8,
        NodeKind::Attribute => 2,
        NodeKind::Text => 3,
    };
    fnv(hash, &[tag]);
    fnv(hash, node.label().as_bytes());
    fnv(hash, &[0xFF]);
    fnv(hash, node.value().unwrap_or("").as_bytes());
    for child in node.children() {
        hash_node(hash, child);
    }
    fnv(hash, &[0xFE]);
}

/// Hash the items' content (structure, labels, values) without
/// serializing them, and sum the per-item hashes so order does not
/// matter: fragments answer in fragment order, the oracle in document
/// order.
pub fn answer_of(items: &[Item]) -> Answer {
    let mut sum = 0u64;
    for item in items {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        match item {
            Item::Node(doc, id) => hash_node(&mut h, doc.get(*id).expect("node belongs to doc")),
            Item::Str(s) => fnv(&mut h, s.as_bytes()),
            Item::Num(n) => fnv(&mut h, &n.to_bits().to_le_bytes()),
            Item::Bool(b) => fnv(&mut h, &[u8::from(*b)]),
        }
        // finalize so that summing does not cancel structure
        h = (h ^ (h >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sum = sum.wrapping_add(h ^ (h >> 29));
    }
    Answer {
        items: items.len(),
        hash: sum,
    }
}

/// One distinct query text of a workload.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Paper query the text instantiates (`QH1` … `QV10`).
    pub template: &'static str,
    pub family: Family,
    /// The workload's slow class (what `op_p95_ms` lands in).
    pub heavy: bool,
    pub text: String,
    /// Whether writes of the workload can change the answer; unstable
    /// answers are checked for typed success during the run and against
    /// the oracle once the writers have stopped.
    pub stable: bool,
    pub oracle: Answer,
}

impl QuerySpec {
    pub fn new(template: &'static str, family: Family, heavy: bool, text: String) -> QuerySpec {
        QuerySpec {
            template,
            family,
            heavy,
            text,
            stable: true,
            oracle: Answer::default(),
        }
    }

    pub fn changed_by_writes(mut self) -> QuerySpec {
        self.stable = false;
        self
    }

    /// The same query over an oracle collection on node 0.
    pub fn oracle_text(&self, collection: &str) -> String {
        self.text.replace(
            &format!("collection(\"{DIST}\")"),
            &format!("collection(\"{collection}\")"),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read(usize),
    PutNew,
    Update,
    Delete,
}

/// Node servers and the coordinator endpoint of a socket-backed cluster.
pub struct Remote {
    pub node_servers: Vec<NodeServer>,
    pub drivers: Vec<Arc<RemoteDriver>>,
    pub coordinator: StreamServer,
}

/// WAL-backed node databases and the directory they live in.
pub struct Durable {
    pub root: PathBuf,
    pub dbs: Vec<Arc<DurableDb>>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub generate_s: f64,
    pub publish_s: f64,
    pub start_s: f64,
    pub warmup_s: f64,
}

/// A built system under test plus the workload that runs against it.
pub struct Env {
    pub name: &'static str,
    pub px: Arc<PartiX>,
    pub docs: Vec<Document>,
    pub mode: StorageMode,
    pub queries: Vec<QuerySpec>,
    /// The seeded operation sequence; clients cycle through it.
    pub cycle: Vec<Op>,
    /// The databases that actually hold each node's fragments (the
    /// node's embedded one, or the one behind its server / its WAL).
    pub data_dbs: Vec<Arc<Database>>,
    pub remote: Option<Remote>,
    pub durable: Option<Durable>,
    pub timings: SetupTimings,
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(remote) = &mut self.remote {
            remote.coordinator.shutdown();
            for driver in &remote.drivers {
                driver.drain_pool();
            }
            for server in &mut remote.node_servers {
                server.shutdown();
            }
        }
        if let Some(durable) = &self.durable {
            let _ = std::fs::remove_dir_all(&durable.root);
        }
    }
}

pub fn path(s: &str) -> PathExpr {
    PathExpr::parse(s).expect("benchmark path literal")
}

/// A fresh engine in the serving configuration: pooled dispatch, result
/// cache at its default (off), plan cache at its default (on). Span
/// collection is off for every end-to-end measurement.
pub fn engine(nodes: usize) -> PartiX {
    let mut px = PartiX::new(nodes, NetworkModel::default());
    px.set_dispatch(DispatchMode::Pool);
    px.set_tracing_enabled(false);
    px
}

/// `Item` documents fragmented by `Section` into four fragments on four
/// nodes (two sections each), published from `docs`.
pub fn horizontal_cluster(docs: &[Document], mode: StorageMode) -> PartiX {
    let px = engine(4);
    let collection = CollectionDef::new(
        DIST,
        Arc::new(virtual_store()),
        path("/Store/Items/Item"),
        RepoKind::MultipleDocuments,
    );
    let fragments: Vec<FragmentDef> = SECTIONS
        .chunks(2)
        .enumerate()
        .map(|(i, group)| {
            let atoms = group
                .iter()
                .map(|s| Predicate::parse(&format!(r#"/Item/Section = "{s}""#)).expect("predicate"))
                .collect();
            FragmentDef::horizontal(&format!("f{i}"), Predicate::Or(atoms))
        })
        .collect();
    let placements = (0..fragments.len())
        .map(|i| Placement {
            fragment: format!("f{i}"),
            node: i,
        })
        .collect();
    for (i, node) in px.cluster().nodes().iter().enumerate() {
        node.db
            .create_collection(&format!("f{i}"), mode)
            .expect("fresh node");
    }
    let design = FragmentationSchema::new(collection, fragments).expect("valid design");
    px.register_distribution(Distribution { design, placements })
        .expect("valid placement");
    px.publish(DIST, docs).expect("publish");
    px
}

/// Move a node's published fragments into `target` through the driver
/// interface, as a node joining the cluster would receive them.
fn ship_fragments(from: &Database, target: &dyn PartixDriver) {
    for collection in PartixDriver::collections(from) {
        let docs: Vec<Document> = PartixDriver::fetch_collection(from, &collection)
            .iter()
            .map(|d| (**d).clone())
            .collect();
        target.store(&collection, docs);
        from.drop_collection(&collection);
    }
}

/// Put every node behind a loopback `NodeServer` (PXN1) and the
/// coordinator behind `serve_coordinator` (PXN2). With a span log, both
/// sides of each node's socket are wrapped so the wire and the storage
/// behind it get separate spans.
pub fn attach_remote(
    px: PartiX,
    log: Option<&Arc<SpanLog>>,
) -> (Arc<PartiX>, Remote, Vec<Arc<Database>>) {
    let mut node_servers = Vec::new();
    let mut drivers = Vec::new();
    let mut dbs = Vec::new();
    for (i, node) in px.cluster().nodes().iter().enumerate() {
        let db = Arc::new(Database::new());
        let mut served: Arc<dyn PartixDriver> = Arc::clone(&db) as Arc<dyn PartixDriver>;
        if let Some(log) = log {
            served = SpanDriver::wrap(served, log, i, STORAGE_EXECUTE, "net.pxn1_call");
        }
        let server = NodeServer::bind_driver("127.0.0.1:0", served, ServerConfig::default())
            .expect("bind loopback node server");
        let driver = RemoteDriver::connect(server.local_addr()).expect("connect to node server");
        ship_fragments(&node.db, &*driver);
        let mut installed: Arc<dyn PartixDriver> = Arc::clone(&driver) as Arc<dyn PartixDriver>;
        if let Some(log) = log {
            installed = SpanDriver::wrap(installed, log, i, "net.pxn1_call", "client.op");
        }
        node.set_driver(installed);
        node_servers.push(server);
        drivers.push(driver);
        dbs.push(db);
    }
    let px = Arc::new(px);
    let coordinator = serve_coordinator(
        "127.0.0.1:0",
        Arc::clone(&px),
        StreamServerConfig::default(),
    )
    .expect("bind loopback coordinator");
    (
        px,
        Remote {
            node_servers,
            drivers,
            coordinator,
        },
        dbs,
    )
}

/// Swap every node's driver for a WAL-backed `DurableDb` under `root`,
/// seeded from the published fragments. No checkpoint: bulk publishing
/// bypasses the log by design, and a snapshot is one file per document,
/// whose cost on this filesystem swings by 4× from run to run and would
/// be all that `setup_s` measures.
pub fn attach_durable(px: &PartiX, root: &Path, log: Option<&Arc<SpanLog>>) -> Durable {
    let _ = std::fs::remove_dir_all(root);
    let dbs: Vec<Arc<DurableDb>> = px
        .cluster()
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let durable =
                Arc::new(DurableDb::open(&root.join(format!("node{i}"))).expect("open WAL dir"));
            // A morsel-parallel read snapshots its candidate slots, lets
            // go of the collection lock, and fails ("morsel worker
            // panicked", from `Collection::fetch` on a tombstoned slot)
            // when a delete or update lands in between. Until the product
            // closes that race, reads beside writes run sequentially here,
            // so that no operation of the workload fails.
            durable.db().set_morsel_config(MorselConfig {
                max_workers: 1,
                ..MorselConfig::default()
            });
            ship_fragments(&node.db, &*durable);
            install_durable(node, &durable, i, log);
            durable
        })
        .collect();
    Durable {
        root: root.to_owned(),
        dbs,
    }
}

pub fn install_durable(
    node: &partix_engine::Node,
    durable: &Arc<DurableDb>,
    index: usize,
    log: Option<&Arc<SpanLog>>,
) {
    let mut driver: Arc<dyn PartixDriver> = Arc::clone(durable) as Arc<dyn PartixDriver>;
    if let Some(log) = log {
        driver = SpanDriver::wrap(driver, log, index, STORAGE_EXECUTE, "core.subquery");
    }
    node.set_driver(driver);
}

/// Wrap the embedded databases of an in-process cluster for a traced run.
pub fn wrap_embedded(px: &PartiX, log: &Arc<SpanLog>) {
    for (i, node) in px.cluster().nodes().iter().enumerate() {
        node.set_driver(SpanDriver::wrap(
            node.active_driver(),
            log,
            i,
            STORAGE_EXECUTE,
            "core.subquery",
        ));
    }
}

/// What one operation did, as its client saw it.
pub struct Outcome {
    pub latency_s: f64,
    /// Paper query template of a read (`QH1` …); `put` or `delete`.
    pub template: &'static str,
    pub family: Family,
    pub heavy: bool,
    /// Typed success and, where the answer is checkable, oracle match.
    pub ok: bool,
    /// Coordinator report of a read issued in-process.
    pub report: Option<QueryReport>,
}

/// One closed-loop client: it owns a connection (when the workload has
/// sockets) and a private key range (when the workload writes).
pub struct Client<'a> {
    env: &'a Env,
    id: usize,
    stream: Option<StreamClient>,
    rng: Rng,
    live: Vec<String>,
    serial: usize,
}

impl<'a> Client<'a> {
    pub fn new(env: &'a Env, id: usize, seed: u64) -> Client<'a> {
        let stream = env.remote.as_ref().map(|remote| {
            StreamClient::connect(
                &remote.coordinator.addr().to_string(),
                StreamClientConfig::default(),
            )
            .expect("connect to coordinator")
        });
        Client {
            env,
            id,
            stream,
            rng: Rng::new(seed ^ (0x00C1_1E57_u64 << 8) ^ id as u64),
            live: Vec::new(),
            serial: 0,
        }
    }

    pub fn run(&mut self, op: Op) -> Outcome {
        match op {
            Op::Read(index) => self.read(&self.env.queries[index]),
            Op::Delete if !self.live.is_empty() => {
                let name = self.live.swap_remove(self.rng.below(self.live.len()));
                self.write(name, None)
            }
            Op::Update if !self.live.is_empty() => {
                let name = self.live[self.rng.below(self.live.len())].clone();
                let doc = self.written_doc(&name);
                self.write(name, Some(doc))
            }
            // nothing of ours is live yet: the first writes are puts
            Op::PutNew | Op::Update | Op::Delete => {
                let name = format!("w{}-{:06}", self.id, self.serial);
                self.serial += 1;
                self.live.push(name.clone());
                let doc = self.written_doc(&name);
                self.write(name, Some(doc))
            }
        }
    }

    /// A small item in this client's key range. Codes start at one
    /// million so the `Code < T` templates never see written documents.
    fn written_doc(&mut self, name: &str) -> Document {
        let code = 1_000_000 + self.rng.below(1_000_000);
        let section = SECTIONS[self.rng.below(SECTIONS.len())];
        DocBuilder::new("Item")
            .named(name)
            .leaf("Code", &code.to_string())
            .leaf("Name", &format!("written item {code}"))
            .leaf("Description", "online write of the mixed workload")
            .leaf("Section", section)
            .build()
    }

    fn read(&mut self, query: &QuerySpec) -> Outcome {
        let start = Instant::now();
        let (answer, report) = match &self.stream {
            Some(stream) => (
                stream
                    .query(&query.text, StreamOpts::default())
                    .ok()
                    .map(|r| r.items),
                None,
            ),
            None => match self.env.px.execute(&query.text) {
                Ok(result) => (Some(result.items), Some(result.report)),
                Err(_) => (None, None),
            },
        };
        let latency_s = start.elapsed().as_secs_f64();
        Outcome {
            latency_s,
            template: query.template,
            family: query.family,
            heavy: query.heavy,
            ok: answer.is_some_and(|items| !query.stable || answer_of(&items) == query.oracle),
            report,
        }
    }

    /// Put `doc` under `name` (or delete `name`) through the coordinator;
    /// the oracle collections apply the write only once it was
    /// acknowledged.
    fn write(&mut self, name: String, doc: Option<Document>) -> Outcome {
        let start = Instant::now();
        let ok = match &doc {
            Some(doc) => self.env.px.put(DIST, doc.clone()).is_ok(),
            None => self.env.px.delete(DIST, &name).is_ok(),
        };
        let latency_s = start.elapsed().as_secs_f64();
        if ok {
            let oracle = &self.env.px.cluster().node(0).expect("node 0").db;
            for collection in [CENTRAL, WRITTEN] {
                oracle.apply_write(&match &doc {
                    Some(doc) => WriteOp::Put {
                        collection: collection.into(),
                        doc: doc.clone(),
                    },
                    None => WriteOp::Delete {
                        collection: collection.into(),
                        name: name.clone(),
                    },
                });
            }
        }
        Outcome {
            latency_s,
            template: if doc.is_some() { "put" } else { "delete" },
            family: Family::Write,
            heavy: true,
            ok,
            report: None,
        }
    }
}

/// Publish the unfragmented copy and record every query's oracle answer.
/// Returns the centralized latency of each query (seconds), for the
/// paper's centralized-vs-fragmented pair.
pub fn fill_oracle(env: &mut Env, repeats: usize) -> Vec<f64> {
    // straight into the embedded database: `publish_centralized` would go
    // through the node's driver, which here may be a socket or a WAL
    let oracle_db = &env.px.cluster().node(0).expect("node 0").db;
    oracle_db
        .create_collection(CENTRAL, env.mode)
        .expect("fresh oracle collection");
    oracle_db.store_all(CENTRAL, env.docs.iter().cloned());
    if env.durable.is_some() {
        oracle_db
            .create_collection(WRITTEN, env.mode)
            .expect("fresh oracle collection");
    }
    let px = Arc::clone(&env.px);
    env.queries
        .iter_mut()
        .map(|query| {
            let text = query.oracle_text(CENTRAL);
            let mut times = Vec::with_capacity(repeats);
            for _ in 0..repeats.max(1) {
                let start = Instant::now();
                let out = px.execute_centralized(0, &text).expect("oracle query");
                times.push(start.elapsed().as_secs_f64());
                query.oracle = answer_of(&out.items);
            }
            median(&mut times)
        })
        .collect()
}

/// Compare every query of the workload against an oracle collection,
/// which by now has applied every acknowledged write. Returns (checked,
/// mismatched).
pub fn compare_all(env: &Env, oracle: &str) -> (usize, usize) {
    let mut failed = 0;
    for query in &env.queries {
        let got = env
            .px
            .execute(&query.text)
            .ok()
            .map(|r| answer_of(&r.items));
        let want = env
            .px
            .execute_centralized(0, &query.oracle_text(oracle))
            .ok()
            .map(|r| answer_of(&r.items));
        if got.is_none() || got != want {
            failed += 1;
            eprintln!(
                "oracle mismatch on {}: got {got:?}, want {want:?}",
                query.text
            );
        }
    }
    (env.queries.len(), failed)
}

/// The warm-up of set-up: every distinct read once, through the path the
/// clients will use, so plan caches, pools and connections exist.
pub fn warm_up(env: &Env) {
    let mut client = Client::new(env, 0, 0);
    for index in 0..env.queries.len() {
        client.run(Op::Read(index));
    }
}

/// One operation of the timed run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The slice of the run the operation started in.
    pub slice: usize,
    /// Seconds from the start of the run to the operation's completion.
    pub done_s: f64,
    pub latency_s: f64,
    pub ok: bool,
}

/// Length of a slice of the timed run. The end-to-end metrics are medians
/// over the slices, so a burst of host interference shorter than half the
/// run moves a few slices, not the result.
const SLICE_S: f64 = 2.0;

/// What the timed run saw: every operation, and how slow the host was
/// around every slice (`host[k]` before slice `k`, `host[k + 1]` after it;
/// each the mean over the clients, which run the kernel together).
pub struct TimedRun {
    pub samples: Vec<Sample>,
    pub host: Vec<f64>,
}

/// The end-to-end measurement: [`CLIENTS`] closed-loop clients start
/// operations for `seconds`, each from its own offset in the cycle. The
/// run is cut into slices; between two slices the clients stop, wait for
/// each other (so the engine is idle) and time the reference kernel, which
/// comes on top of `seconds`.
pub fn timed_run(env: &Env, kernel: &Kernel, seed: u64, seconds: f64) -> TimedRun {
    let slices = (seconds / SLICE_S).round().max(1.0) as usize;
    let width = seconds / slices as f64;
    let barrier = std::sync::Barrier::new(CLIENTS);
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(env, id, seed);
                    let mut samples = Vec::new();
                    let mut step = id * env.cycle.len() / CLIENTS;
                    barrier.wait();
                    let mut host = vec![kernel.run(id)];
                    for slice in 0..slices {
                        barrier.wait();
                        let until = start.elapsed().as_secs_f64() + width;
                        while start.elapsed().as_secs_f64() < until {
                            let outcome = client.run(env.cycle[step % env.cycle.len()]);
                            step += 1;
                            samples.push(Sample {
                                slice,
                                done_s: start.elapsed().as_secs_f64(),
                                latency_s: outcome.latency_s,
                                ok: outcome.ok,
                            });
                        }
                        barrier.wait();
                        host.push(kernel.run(id));
                    }
                    (samples, host)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let host = (0..=slices)
        .map(|k| per_client.iter().map(|(_, host)| host[k]).sum::<f64>() / CLIENTS as f64)
        .collect();
    TimedRun {
        samples: per_client.into_iter().flat_map(|(s, _)| s).collect(),
        host,
    }
}

/// One slice of the run as measured (completions per second, latency
/// percentiles in milliseconds) and how many times its reference time the
/// kernel took around it.
#[derive(Debug, Clone, Copy)]
pub struct SliceStats {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub samples: usize,
    pub host: f64,
}

pub fn slice_stats(run: &TimedRun) -> Vec<SliceStats> {
    (0..run.host.len() - 1)
        .map(|k| {
            let inside: Vec<&Sample> = run.samples.iter().filter(|s| s.slice == k).collect();
            // completions per second between the slice's first and last
            // correct completion (a count over a fixed width would be quantized)
            let done: Vec<f64> = inside.iter().filter(|s| s.ok).map(|s| s.done_s).collect();
            let first = done.iter().copied().fold(f64::MAX, f64::min);
            let last = done.iter().copied().fold(0.0, f64::max);
            let mut latencies: Vec<f64> = inside.iter().map(|s| s.latency_s).collect();
            SliceStats {
                ops_per_s: if last > first {
                    (done.len() - 1) as f64 / (last - first)
                } else {
                    0.0
                },
                p50_ms: percentile(&mut latencies, 50.0) * 1e3,
                p95_ms: percentile(&mut latencies, 95.0) * 1e3,
                samples: inside.len(),
                host: (run.host[k] + run.host[k + 1]) / 2.0,
            }
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn xml_bytes(docs: &[Document]) -> usize {
    docs.iter().map(Document::approx_size).sum()
}

/// Durability: forget every node's in-memory state and reopen each
/// `DurableDb` from its directory alone (log replay; no snapshot exists).
/// Returns the seconds the reopen took.
pub fn reopen_durable(env: &mut Env) -> f64 {
    let durable = env.durable.as_mut().expect("a WAL-backed workload");
    for node in env.px.cluster().nodes() {
        node.clear_driver();
    }
    durable.dbs.clear();
    env.data_dbs.clear();
    let start = Instant::now();
    for (i, node) in env.px.cluster().nodes().iter().enumerate() {
        let reopened = Arc::new(
            DurableDb::open(&durable.root.join(format!("node{i}"))).expect("reopen WAL dir"),
        );
        install_durable(node, &reopened, i, None);
        env.data_dbs.push(Arc::clone(reopened.db()));
        durable.dbs.push(reopened);
    }
    start.elapsed().as_secs_f64()
}
