//! Write-path differential suite: the proof that online writes give the
//! *right answer or a typed error — never wrong or lost data*.
//!
//! A centralized in-memory oracle (the unfragmented copy on node 0,
//! written with the same [`WriteOp`]s the coordinator routes) applies
//! the same interleaved read/write schedule as the fragmented cluster,
//! and every read must answer byte-identically to it. The contract is
//! exercised three ways:
//!
//! * **in-process**, reads interleaved with inserts, in-place updates,
//!   cross-fragment moves and deletes;
//! * **with WAL-backed nodes and seeded kill-points** injected at every
//!   stage of the write pipeline (append / fsync / apply) — a killed
//!   node answers typed `Unavailable`, is reopened from its directory
//!   (snapshot + WAL replay), and the recovered state must match what
//!   the kill stage's durability semantics predict;
//! * **over loopback TCP** — the same kill matrix with the writes
//!   traveling as PXN2 `Write` frames through `NodeServer` /
//!   `RemoteDriver`, and the crash also taking down the listener.
//!
//! A seeded schedule fuzzer (sized by `PARTIX_PROPTEST_CASES`) then
//! interleaves random reads, puts, deletes and kills; every failing
//! schedule prints as a replayable `describe()` string, matching the
//! `FaultPlan` reproducibility contract.

mod common;

use common::{assert_workload, check_answer};
use partix::engine::{PartiX, PartixDriver, WriteError};
use partix::frag::check_correctness;
use partix::gen::SECTIONS;
use partix::storage::{DurableDb, WalStage, WriteOp};
use partix::xml::{parse, Document};
use partix_bench::oracle::canonical;
use partix_bench::{queries, setup};
use partix_net::{NodeServer, RemoteDriver, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------------------- helpers

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("partix-wdiff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small read workload: predicate selection, text search, aggregation,
/// full scan — enough shape diversity to catch stale answers and partial
/// fragments.
fn workload() -> Vec<(&'static str, String)> {
    let mut qs: Vec<(&'static str, String)> = queries::horizontal(setup::DIST)
        .into_iter()
        .filter(|(id, _)| matches!(*id, "QH1" | "QH5" | "QH7"))
        .collect();
    qs.push((
        "SCAN",
        format!(r#"for $i in collection("{}")/Item return $i"#, setup::DIST),
    ));
    qs
}

/// A routable item document (Section drawn from the generator's
/// vocabulary, so some fragment's predicate always accepts it).
fn item(name: &str, section: &str, code: u32) -> Document {
    let mut d = parse(&format!(
        "<Item><Code>{code}</Code><Name>w{code}</Name>\
         <Description>written online</Description><Section>{section}</Section></Item>"
    ))
    .unwrap();
    d.name = Some(name.to_owned());
    d
}

/// Apply a write to the centralized oracle copy (node 0's raw database,
/// untouched by drivers — the same store `execute_centralized` reads).
fn oracle_put(px: &PartiX, doc: &Document) {
    let op = WriteOp::Put { collection: setup::CENTRAL.into(), doc: doc.clone() };
    px.cluster().node(0).unwrap().db.apply_write(&op);
}

fn oracle_delete(px: &PartiX, name: &str) -> u32 {
    let op = WriteOp::Delete { collection: setup::CENTRAL.into(), name: name.into() };
    px.cluster().node(0).unwrap().db.apply_write(&op)
}

fn oracle_has(px: &PartiX, name: &str) -> bool {
    PartixDriver::fetch_collection(&*px.cluster().node(0).unwrap().db, setup::CENTRAL)
        .iter()
        .any(|d| d.name.as_deref() == Some(name))
}

/// Re-fragment the oracle's documents and compare against the cluster's
/// live fragment contents — the paper's completeness/disjointness/
/// reconstruction rules, re-checked over post-write state.
fn assert_invariants(px: &PartiX, label: &str) {
    let dist = px.catalog().distribution(setup::DIST).cloned().expect("registered");
    let sources: Vec<Document> =
        PartixDriver::fetch_collection(&*px.cluster().node(0).unwrap().db, setup::CENTRAL)
            .iter()
            .map(|d| (**d).clone())
            .collect();
    let contents = |frag: &partix::frag::FragmentDef| {
        let node_id = *dist.nodes_of(&frag.name).first().expect("placed");
        let node = px.cluster().node(node_id).expect("placed");
        (frag.name.clone(), node.fetch_docs(&frag.name).iter().map(|d| (**d).clone()).collect())
    };
    let contents: Vec<(String, Vec<Document>)> =
        dist.design.fragments.iter().map(contents).collect();
    let report = check_correctness(&dist.design, &sources, &contents);
    let violated = &report.violations;
    assert!(report.is_correct(), "{label}: invariants violated after writes: {violated:?}");
}

/// Replace every node's driver with a WAL-backed [`DurableDb`] seeded
/// from the node's published fragments (checkpointed, so a reopen
/// without WAL records reproduces it). The centralized oracle stays on
/// the raw node-0 database.
fn attach_durable(px: &PartiX, root: &Path) -> Vec<Arc<DurableDb>> {
    px.cluster()
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let dir = root.join(format!("node{i}"));
            let durable = Arc::new(DurableDb::open(&dir).unwrap());
            for collection in PartixDriver::collections(&*node.db) {
                if collection == setup::CENTRAL {
                    continue; // the oracle is not part of the fragmented store
                }
                let docs: Vec<Document> =
                    PartixDriver::fetch_collection(&*node.db, &collection)
                        .iter()
                        .map(|d| (**d).clone())
                        .collect();
                PartixDriver::store(&*durable, &collection, docs);
            }
            durable.checkpoint().unwrap();
            node.set_driver(Arc::clone(&durable) as Arc<dyn PartixDriver>);
            durable
        })
        .collect()
}

/// Crash-recover node `i`: reopen its directory (snapshot + WAL replay)
/// and install the recovered database as the node's driver.
fn recover_node(px: &PartiX, durables: &mut [Arc<DurableDb>], root: &Path, i: usize) {
    let dir = root.join(format!("node{i}"));
    let recovered = Arc::new(DurableDb::open(&dir).unwrap());
    px.cluster()
        .node(i)
        .unwrap()
        .set_driver(Arc::clone(&recovered) as Arc<dyn PartixDriver>);
    durables[i] = recovered;
}

/// The fragment (and its primary node) a section routes to under
/// [`setup::horizontal`]'s section-group design.
fn route_of(px: &PartiX, section: &str) -> (String, usize) {
    let dist = px.catalog().distribution(setup::DIST).cloned().unwrap();
    let probe = [item("probe", section, 0)];
    for frag in &dist.design.fragments {
        if !partix::frag::apply::apply_fragment(frag, &probe).is_empty() {
            let node = *dist.nodes_of(&frag.name).first().unwrap();
            return (frag.name.clone(), node);
        }
    }
    panic!("section {section} routes nowhere");
}

// ------------------------------------------------- in-process differential

/// Interleaved writes and reads: every answer must track the oracle
/// through inserts, in-place updates, cross-fragment moves and deletes.
#[test]
fn interleaved_writes_and_reads_match_oracle() {
    let px = setup::horizontal(&setup::quick_items(40), 4);
    let workload = workload();
    assert_workload(&px, &workload, "pre-write");

    // fresh inserts into different fragments
    for (k, section) in ["CD", "DVD", "BOOK", "GARDEN"].iter().enumerate() {
        let doc = item(&format!("w{k:02}"), section, 900 + k as u32);
        px.put(setup::DIST, doc.clone()).unwrap();
        oracle_put(&px, &doc);
        assert_workload(&px, &workload, &format!("after insert {section}"));
    }

    // in-place update (same routing value, new content)
    let doc = item("w00", "CD", 1900);
    px.put(setup::DIST, doc.clone()).unwrap();
    oracle_put(&px, &doc);
    assert_workload(&px, &workload, "after in-place update");

    // cross-fragment move: w01's Section flips DVD → SPORT
    let doc = item("w01", "SPORT", 901);
    let report = px.put(setup::DIST, doc.clone()).unwrap();
    assert_eq!(report.deleted, 1, "stale DVD piece must be cleared");
    oracle_put(&px, &doc);
    assert_workload(&px, &workload, "after cross-fragment move");

    // delete a generated doc and a written one
    for name in ["item00003", "w02"] {
        px.delete(setup::DIST, name).unwrap();
        assert_eq!(oracle_delete(&px, name), 1);
        assert_workload(&px, &workload, &format!("after delete {name}"));
    }

    // unroutable: typed error on the cluster, no state change anywhere
    let err = px.put(setup::DIST, item("w99", "PERFUME", 999)).unwrap_err();
    assert!(matches!(err, WriteError::UnroutableDocument { .. }), "{err}");
    assert_workload(&px, &workload, "after unroutable refusal");
    assert_invariants(&px, "in-process");
}

// ----------------------------------------------------- WAL kill matrices
type Recover<'a> = dyn Fn(&PartiX, &mut [Arc<DurableDb>], &Path, usize) + 'a;

/// Drive one kill-point scenario against `px` whose nodes are WAL-backed
/// (`durables`), with `recover` abstracting how a node comes back
/// (in-process reopen vs TCP restart). Covers all three stages.
fn run_kill_matrix(
    px: &PartiX,
    durables: &mut [Arc<DurableDb>],
    root: &Path,
    recover: &Recover<'_>,
    label: &str,
) {
    let workload = workload();
    assert_workload(px, &workload, &format!("{label}/baseline"));
    let mut acked: Vec<Document> = Vec::new();

    for (k, stage) in WalStage::ALL.into_iter().enumerate() {
        let section = ["CD", "DVD", "BOOK"][k];
        let (_frag, victim_node) = route_of(px, section);
        let name = format!("k{k:02}");
        let doc = item(&name, section, 700 + k as u32);

        // arm the one-shot kill and issue the write: it must fail typed
        durables[victim_node].set_kill(Some(stage));
        let err = px.put(setup::DIST, doc.clone()).unwrap_err();
        match &err {
            WriteError::NodeUnavailable { node, .. } => {
                assert_eq!(*node, victim_node, "{label}/{stage:?}: wrong victim")
            }
            other => panic!("{label}/{stage:?}: expected NodeUnavailable, got {other}"),
        }

        // the node is dead until recovery; queries over it answer typed
        // errors or fail over — never wrong data. Recover it.
        recover(px, durables, root, victim_node);

        // Deterministic durability: a kill before the fsync-point loses
        // the (never-acknowledged) record; at or after it, replay
        // restores the write.
        let oracle_decides = stage.survives_recovery();
        if oracle_decides {
            oracle_put(px, &doc);
        }
        assert_workload(px, &workload, &format!("{label}/{stage:?} post-recovery"));

        // the client retries the unacknowledged write; idempotence makes
        // retry converge regardless of what recovery restored
        let report = px.put(setup::DIST, doc.clone()).unwrap();
        assert_eq!(report.replaced, oracle_decides, "{label}/{stage:?}: replay state");
        if !oracle_decides {
            oracle_put(px, &doc);
        }
        acked.push(doc);
        assert_workload(px, &workload, &format!("{label}/{stage:?} post-retry"));
        assert_invariants(px, &format!("{label}/{stage:?}"));
    }

    // no acknowledged write was lost anywhere along the way
    let scan = px
        .execute(&format!(r#"for $i in collection("{}")/Item return $i"#, setup::DIST))
        .unwrap();
    let all = canonical(&scan.items);
    for (idx, doc) in acked.iter().enumerate() {
        let marker = format!("<Name>w{}</Name>", 700 + idx);
        assert!(
            all.contains(&marker),
            "{label}: acknowledged write {:?} lost (marker {marker})",
            doc.name
        );
    }
    assert!(
        durables.iter().map(|d| d.fsyncs()).sum::<u64>() > 0,
        "{label}: WAL pipeline never fsynced"
    );
}

#[test]
fn wal_kill_points_recover_to_oracle_in_process() {
    let root = tmp_root("inproc");
    let px = setup::horizontal(&setup::quick_items(40), 4);
    let mut durables = attach_durable(&px, &root);
    run_kill_matrix(&px, &mut durables, &root, &recover_node, "in-process");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn wal_kill_points_recover_over_loopback_tcp() {
    let root = tmp_root("tcp");
    let px = setup::horizontal(&setup::quick_items(40), 4);
    let durables = attach_durable(&px, &root);

    // host each DurableDb behind a real listener; the coordinator talks
    // PXN2 — writes travel as non-idempotent Write frames
    let mut servers: Vec<Option<NodeServer>> = Vec::new();
    let mut remotes: Vec<Arc<RemoteDriver>> = Vec::new();
    for (i, durable) in durables.iter().enumerate() {
        let server = NodeServer::bind_driver(
            "127.0.0.1:0",
            Arc::clone(durable) as Arc<dyn PartixDriver>,
            ServerConfig::default(),
        )
        .unwrap();
        let remote = RemoteDriver::connect(server.local_addr()).unwrap();
        px.cluster().node(i).unwrap().set_driver(Arc::clone(&remote) as Arc<dyn PartixDriver>);
        servers.push(Some(server));
        remotes.push(remote);
    }
    let mut durables = durables;

    // recovery over TCP: the crash takes the listener down with the
    // database; recovery reopens the directory and rebinds the same
    // address, serving the *recovered* DurableDb
    let servers_cell = std::cell::RefCell::new(servers);
    let remotes_cell = std::cell::RefCell::new(remotes);
    let recover = |_px: &PartiX, durables: &mut [Arc<DurableDb>], root: &Path, i: usize| {
        let mut servers = servers_cell.borrow_mut();
        let addr = servers[i].as_ref().unwrap().local_addr();
        if let Some(mut server) = servers[i].take() {
            server.shutdown();
        }
        let recovered = Arc::new(DurableDb::open(&root.join(format!("node{i}"))).unwrap());
        durables[i] = Arc::clone(&recovered);
        let server = NodeServer::bind_driver(
            addr,
            recovered as Arc<dyn PartixDriver>,
            ServerConfig::default(),
        )
        .unwrap();
        servers[i] = Some(server);
        // pooled connections into the old incarnation are stale; a
        // non-idempotent Write must not trip over them
        remotes_cell.borrow_mut()[i].drain_pool();
    };

    run_kill_matrix(&px, &mut durables, &root, &recover, "tcp");
    let _ = std::fs::remove_dir_all(&root);
}

// -------------------------------------------------------- schedule fuzzer

#[derive(Debug, Clone)]
enum SchedOp {
    Read(usize),
    Put { serial: usize, section: usize },
    Delete { serial: usize },
    Kill { stage: WalStage },
}

struct Schedule {
    seed: u64,
    ops: Vec<SchedOp>,
}

impl Schedule {
    /// ~24 ops: reads and puts dominate, deletes and kills salted in.
    fn generate(seed: u64, reads: usize) -> Schedule {
        // SplitMix64, the generator every seeded schedule here draws from
        let rng = &mut proptest::test_runner::TestRng::from_seed(seed);
        let n = 16 + rng.below(12);
        let ops = (0..n)
            .map(|_| match rng.next_u64() % 10 {
                0..=2 => SchedOp::Read(rng.below(reads)),
                3..=6 => SchedOp::Put { serial: rng.below(24), section: rng.below(SECTIONS.len()) },
                7..=8 => SchedOp::Delete { serial: rng.below(24) },
                _ => SchedOp::Kill { stage: WalStage::ALL[rng.below(3)] },
            })
            .collect();
        Schedule { seed, ops }
    }

    /// Replayable one-line form, printed on failure (the `FaultPlan`
    /// reproducibility contract: the string is enough to rebuild the
    /// schedule by seed).
    fn describe(&self) -> String {
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|op| match op {
                SchedOp::Read(k) => format!("R{k}"),
                SchedOp::Put { serial, section } => {
                    format!("P(s{serial},{})", SECTIONS[*section])
                }
                SchedOp::Delete { serial } => format!("D(s{serial})"),
                SchedOp::Kill { stage } => format!("K({stage:?})"),
            })
            .collect();
        format!("schedule seed=0x{:016x} [{}]", self.seed, ops.join(" "))
    }
}

/// Put with crash-recovery retries: on `NodeUnavailable` the named node
/// is recovered and the (idempotent) write reissued until acknowledged.
/// Only then does the oracle apply it — "acknowledged" is the contract.
fn put_with_recovery(
    px: &PartiX,
    durables: &mut [Arc<DurableDb>],
    root: &Path,
    doc: &Document,
    ctx: &str,
) {
    for _attempt in 0..5 {
        match px.put(setup::DIST, doc.clone()) {
            Ok(_) => {
                oracle_put(px, doc);
                return;
            }
            Err(WriteError::NodeUnavailable { node, .. }) => {
                recover_node(px, durables, root, node);
            }
            Err(other) => panic!("{ctx}: unexpected write error {other}"),
        }
    }
    panic!("{ctx}: put did not converge in 5 attempts");
}

fn delete_with_recovery(
    px: &PartiX,
    durables: &mut [Arc<DurableDb>],
    root: &Path,
    name: &str,
    ctx: &str,
) {
    let existed = oracle_has(px, name);
    for _attempt in 0..5 {
        match px.delete(setup::DIST, name) {
            Ok(_) => {
                assert!(existed, "{ctx}: cluster deleted {name} the oracle never had");
                oracle_delete(px, name);
                return;
            }
            // a retry after a partial first attempt may find the name
            // already gone — the oracle tells us which story is true
            Err(WriteError::NoSuchDocument { .. }) => {
                if existed {
                    oracle_delete(px, name);
                }
                return;
            }
            Err(WriteError::NodeUnavailable { node, .. }) => {
                recover_node(px, durables, root, node);
            }
            Err(other) => panic!("{ctx}: unexpected delete error {other}"),
        }
    }
    panic!("{ctx}: delete did not converge in 5 attempts");
}

/// Random interleavings of reads, writes and kill-points over WAL-backed
/// nodes. Case count from `PARTIX_PROPTEST_CASES` (default 24).
#[test]
fn fuzzed_schedules_converge_to_the_oracle() {
    let cases: u64 = std::env::var("PARTIX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let workload = workload();

    for case in 0..cases {
        let schedule = Schedule::generate(0xD1FF_0000 ^ (case * 0x9E37), workload.len());
        let ctx = schedule.describe();
        let root = tmp_root(&format!("fuzz{case}"));
        let px = setup::horizontal(&setup::quick_items(30), 4);
        let mut durables = attach_durable(&px, &root);

        for op in &schedule.ops {
            match op {
                SchedOp::Read(k) => {
                    let (id, query) = &workload[*k];
                    // an armed-but-untriggered kill leaves reads live;
                    // triggered kills are recovered before the next op
                    let answer =
                        px.execute(query).unwrap_or_else(|e| panic!("{ctx}: {id}: {e}"));
                    check_answer(&px, query, &answer.items)
                        .unwrap_or_else(|e| panic!("{ctx}: {id} diverges: {e}"));
                }
                SchedOp::Put { serial, section } => {
                    let doc = item(
                        &format!("s{serial:02}"),
                        SECTIONS[*section],
                        2000 + *serial as u32,
                    );
                    put_with_recovery(&px, &mut durables, &root, &doc, &ctx);
                }
                SchedOp::Delete { serial } => {
                    delete_with_recovery(
                        &px,
                        &mut durables,
                        &root,
                        &format!("s{serial:02}"),
                        &ctx,
                    );
                }
                SchedOp::Kill { stage } => {
                    // arm the node CD-section writes route to; the one-shot
                    // charge fires on its next write that reaches the log
                    let (_, node) = route_of(&px, "CD");
                    durables[node].set_kill(Some(*stage));
                }
            }
        }
        for durable in &durables {
            durable.set_kill(None); // disarm any unspent charge
        }
        assert_workload(&px, &workload, &ctx);
        assert_invariants(&px, &ctx);
        let _ = std::fs::remove_dir_all(&root);
    }
}
