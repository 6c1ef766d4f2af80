//! The traced run: per-layer numbers for one workload.
//!
//! Two sources. *Replay*: one client replays the workload's sequence,
//! alternating passes with tracing off and on; the coordinator's reports
//! and the driver-boundary spans attribute each operation to the layers
//! it crossed, and the off/on pair gives the tracing overhead. *Probes*:
//! each layer's public entry points timed in isolation over the
//! workload's own data (its pages, its sub-queries, their outputs), by
//! the same code on every workload, so a layer has a number everywhere
//! and the prediction "flat on this workload" can be checked.

use crate::env::{self, Client, Env, Family, Op, Outcome, CENTRAL, DIST};
use crate::spans::{self, ExecRecord, SpanLog};
use crate::stats::{mean, median, percentile};
use crate::workloads::out_dir;
use partix_engine::{wirespan, PartixDriver, QueryReport};
use partix_frag::{check_correctness, correctness::reconstruct_any, Fragmenter};
use partix_net::codec::{self, Reader, Writer};
use partix_net::{
    serve_coordinator, NodeServer, RemoteDriver, StreamClient, StreamClientConfig, StreamOpts,
    StreamServerConfig,
};
use partix_query::{parse_query, Evaluator, MemProvider};
use partix_storage::{Database, DurableDb, WriteOp};
use partix_xml::{binary, Document, PageView};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric: name, unit, better. `BENCHMARK.json` declares
/// the same list; `--check` holds the two together.
pub const PER_LAYER: [(&str, &str, &str); 51] = [
    ("core.parse_ms", "ms", "lower"),
    ("core.localize_ms", "ms", "lower"),
    ("core.dispatch_ms", "ms", "lower"),
    ("core.compose_ms", "ms", "lower"),
    ("core.queue_wait_ms", "ms", "lower"),
    ("core.subqueries_per_op", "count", "lower"),
    ("core.fragments_pruned_per_op", "count", "higher"),
    ("core.reconstructed_ratio", "ratio", "lower"),
    ("core.shipped_bytes_per_op", "B", "lower"),
    ("core.plan_cache_hit_ratio", "ratio", "higher"),
    ("core.write_overhead_ratio", "ratio", "lower"),
    ("storage.execute_ms", "ms", "lower"),
    ("storage.docs_scanned_per_subquery", "count", "lower"),
    ("storage.index_used_ratio", "ratio", "higher"),
    ("storage.items_per_doc_scanned", "ratio", "higher"),
    ("storage.morsels_per_subquery", "count", "higher"),
    ("storage.resident_bytes_per_user_byte", "ratio", "lower"),
    ("storage.wal_append_ms", "ms", "lower"),
    ("storage.wal_fsyncs_per_write", "count", "lower"),
    ("storage.wal_bytes_per_user_byte", "ratio", "lower"),
    ("storage.apply_ms", "ms", "lower"),
    ("storage.recover_s", "s", "lower"),
    ("xml.decode_ms_per_mb", "ms/MB", "lower"),
    ("xml.view_parse_ms_per_mb", "ms/MB", "lower"),
    ("xml.parse_ms_per_mb", "ms/MB", "lower"),
    ("xml.serialize_ms_per_mb", "ms/MB", "lower"),
    ("query.parse_us", "us", "lower"),
    ("query.eval_ms", "ms", "lower"),
    ("frag.apply_ms_per_mb", "ms/MB", "lower"),
    ("frag.check_ms", "ms", "lower"),
    ("frag.reconstruct_ms", "ms", "lower"),
    ("net.encode_ms_per_mb", "ms/MB", "lower"),
    ("net.decode_ms_per_mb", "ms/MB", "lower"),
    ("net.rtt_us", "us", "lower"),
    ("net.send_ms", "ms", "lower"),
    ("net.recv_ms", "ms", "lower"),
    ("net.wire_bytes_per_subquery", "B", "lower"),
    ("net.first_chunk_ms", "ms", "lower"),
    ("net.chunks_per_op", "count", "lower"),
    ("net.stream_op_ms", "ms", "lower"),
    ("net.connects", "count", "lower"),
    ("net.reconnects", "count", "lower"),
    ("client.light_p50_ms", "ms", "lower"),
    ("client.heavy_p50_ms", "ms", "lower"),
    ("client.op_p99_ms", "ms", "lower"),
    ("baseline.central_p50_ms", "ms", "lower"),
    ("baseline.speedup", "ratio", "higher"),
    ("gen.generate_s", "s", "lower"),
    ("gen.dataset_bytes", "B", "lower"),
    ("gen.docs", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

pub struct LayerReport {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Human-readable attribution: family latencies, stage means, the
    /// self-time table.
    pub table: String,
    pub chrome_trace: String,
}

/// Counts that must repeat exactly from pass to pass and run to run: one
/// client, no timers, the same sequence.
#[derive(Debug, Default, Clone, PartialEq)]
struct Exact {
    reads: usize,
    subqueries: usize,
    pruned: usize,
    reconstructed: usize,
    shipped_bytes: usize,
    plan_hits: usize,
    execs: usize,
    docs_scanned: usize,
    index_used: usize,
    morsels: usize,
    items: usize,
}

struct Pass {
    outcomes: Vec<Outcome>,
    /// Coordinator reports of the pass's reads (from the op itself, or
    /// from the in-process re-execution of a stream read).
    reports: Vec<QueryReport>,
    execs: Vec<ExecRecord>,
    /// (put latency, seconds inside node-side writes) per traced write.
    writes: Vec<(f64, f64)>,
}

fn replay_pass(
    env: &Env,
    client: &mut Client<'_>,
    log: &Arc<SpanLog>,
    traced: bool,
    op_base: u32,
) -> Pass {
    env.px.set_tracing_enabled(traced);
    log.set_enabled(traced);
    let execs_before = log.exec_count();
    let mut pass = Pass {
        outcomes: Vec::new(),
        reports: Vec::new(),
        execs: Vec::new(),
        writes: Vec::new(),
    };
    for (i, &op) in env.cycle.iter().enumerate() {
        log.begin_op(op_base + i as u32);
        log.take_write_seconds();
        let start = Instant::now();
        let mut outcome = client.run(op);
        if traced {
            log.record_window("client.op", "", 0, start, outcome.latency_s);
            if outcome.family == Family::Write {
                pass.writes
                    .push((outcome.latency_s, log.take_write_seconds()));
            }
            if let (Op::Read(index), None) = (op, &outcome.report) {
                // a stream read carries no coordinator report: run the
                // same text in-process for the stage numbers, unrecorded
                log.set_enabled(false);
                outcome.report = env
                    .px
                    .execute(&env.queries[index].text)
                    .ok()
                    .map(|r| r.report);
                log.set_enabled(true);
            } else if let Some(report) = &outcome.report {
                record_stage_spans(log, start, report);
            }
            pass.reports.extend(outcome.report.take());
        }
        pass.outcomes.push(outcome);
    }
    pass.execs = log.execs_since(execs_before);
    log.set_enabled(false);
    env.px.set_tracing_enabled(false);
    pass
}

/// Place the coordinator's own spans (relative to the query's start) on
/// the benchmark's timeline, under the operation that caused them.
fn record_stage_spans(log: &SpanLog, op_start: Instant, report: &QueryReport) {
    for span in &report.spans {
        let (name, parent) = match span.name.split(':').next().unwrap_or("") {
            "parse" => ("core.parse", "client.op"),
            "localize" => ("core.localize", "client.op"),
            "dispatch" => ("core.dispatch", "client.op"),
            "compose" => ("core.compose", "client.op"),
            "exec" => ("core.subquery", "core.dispatch"),
            "fetch" => ("core.fetch", "core.dispatch"),
            "send" => ("net.send", "core.subquery"),
            "recv" => ("net.recv", "core.subquery"),
            _ => ("core.other", "core.dispatch"),
        };
        let start = op_start + std::time::Duration::from_micros(span.start_us);
        log.record_window(
            name,
            parent,
            span.lane as u32,
            start,
            span.dur_us as f64 / 1e6,
        );
    }
}

fn exact_of(pass: &Pass) -> Exact {
    let mut exact = Exact {
        reads: pass.reports.len(),
        execs: pass.execs.len(),
        ..Exact::default()
    };
    for report in &pass.reports {
        exact.subqueries += report.sites.len();
        exact.pruned += report.fragments_pruned;
        exact.reconstructed += usize::from(report.reconstructed);
        exact.shipped_bytes += report.total_result_bytes();
        exact.plan_hits += usize::from(report.plan_cache_hit);
    }
    for exec in &pass.execs {
        exact.docs_scanned += exec.docs_scanned;
        exact.index_used += usize::from(exec.index_used);
        exact.morsels += exec.morsels;
        exact.items += exec.items;
    }
    exact
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Run `body` over `inputs` until they are exhausted or `cap_s` has
/// passed (at least once); returns the per-input seconds.
fn timed_over<T>(inputs: &[T], cap_s: f64, mut body: impl FnMut(&T)) -> Vec<f64> {
    let begun = Instant::now();
    let mut times = Vec::new();
    for input in inputs {
        let start = Instant::now();
        body(input);
        times.push(start.elapsed().as_secs_f64());
        if begun.elapsed().as_secs_f64() > cap_s {
            break;
        }
    }
    times
}

/// Fragments as the nodes hold them: (collection, documents).
type Fragments = Vec<(String, Vec<Arc<Document>>)>;

/// The workload's fragments and the bytes the nodes keep for them.
fn stored_fragments(env: &Env) -> (Fragments, usize) {
    let mut fragments = Vec::new();
    let mut resident = 0;
    for db in &env.data_dbs {
        for name in db.collection_names() {
            if name != CENTRAL {
                resident += db.collection_bytes(&name).unwrap_or(0);
                let docs = PartixDriver::fetch_collection(&**db, &name);
                fragments.push((name, docs));
            }
        }
    }
    (fragments, resident)
}

fn probe_xml(env: &Env, fragments: &Fragments, cap_s: f64, m: &mut Metrics) {
    // the workload's own pages: what its cold collections hold, byte for byte
    let pages: Vec<_> = fragments
        .iter()
        .flat_map(|(_, docs)| docs.iter())
        .take(2_000)
        .map(|doc| binary::encode(doc))
        .collect();
    // the cap may cut a probe short: divide by the megabytes it got through
    let per_mb = |times: &[f64], sizes: &mut dyn Iterator<Item = usize>| {
        ratio(
            ms(times.iter().sum()),
            sizes.take(times.len()).sum::<usize>() as f64 / 1e6,
        )
    };
    let decode = timed_over(&pages, cap_s, |page| {
        std::hint::black_box(binary::decode(page).expect("own page decodes"));
    });
    m.insert(
        "xml.decode_ms_per_mb",
        per_mb(&decode, &mut pages.iter().map(|p| p.len())),
    );
    let view = timed_over(&pages, cap_s, |page| {
        std::hint::black_box(
            PageView::parse(page)
                .expect("own page validates")
                .root_label(),
        );
    });
    m.insert(
        "xml.view_parse_ms_per_mb",
        per_mb(&view, &mut pages.iter().map(|p| p.len())),
    );

    let sources: Vec<&Document> = env.docs.iter().take(2_000).collect();
    let mut texts = Vec::with_capacity(sources.len());
    let serialize = timed_over(&sources, cap_s, |doc| {
        texts.push(partix_xml::to_string(doc))
    });
    m.insert(
        "xml.serialize_ms_per_mb",
        per_mb(&serialize, &mut texts.iter().map(String::len)),
    );
    let parse = timed_over(&texts, cap_s, |text| {
        std::hint::black_box(partix_xml::parse(text).expect("own text parses"));
    });
    m.insert(
        "xml.parse_ms_per_mb",
        per_mb(&parse, &mut texts.iter().map(String::len)),
    );
}

fn probe_query(
    env: &Env,
    fragments: &Fragments,
    execs: &[ExecRecord],
    cap_s: f64,
    m: &mut Metrics,
) {
    let texts: Vec<&str> = env.queries.iter().map(|q| q.text.as_str()).collect();
    let parse = timed_over(&texts, cap_s, |text| {
        std::hint::black_box(parse_query(text).expect("workload query parses"));
    });
    m.insert("query.parse_us", mean(&parse) * 1e6);
    // evaluate without decode: the recorded sub-queries over hot documents
    let mut hot = MemProvider::new();
    for (name, docs) in fragments {
        hot.add_collection(name, docs.iter().map(|d| (**d).clone()));
    }
    let evaluator = Evaluator::new(&hot);
    let eval = timed_over(execs, cap_s, |exec| {
        std::hint::black_box(
            evaluator
                .eval(&exec.query)
                .expect("recorded sub-query evaluates"),
        );
    });
    m.insert("query.eval_ms", ms(mean(&eval)));
}

fn probe_frag(env: &Env, m: &mut Metrics) {
    let design = env
        .px
        .catalog()
        .distribution(DIST)
        .expect("registered")
        .design
        .clone();
    let start = Instant::now();
    let fragments = Fragmenter::new(design.clone()).fragment_all(&env.docs);
    let apply_s = start.elapsed().as_secs_f64();
    m.insert(
        "frag.apply_ms_per_mb",
        ratio(ms(apply_s), env::xml_bytes(&env.docs) as f64 / 1e6),
    );
    let start = Instant::now();
    let report = check_correctness(&design, &env.docs, &fragments);
    m.insert("frag.check_ms", ms(start.elapsed().as_secs_f64()));
    assert!(
        report.is_correct(),
        "the workload's own design violates the paper's rules"
    );
    let start = Instant::now();
    std::hint::black_box(reconstruct_any(&design, &fragments).expect("fragments reconstruct"));
    m.insert("frag.reconstruct_ms", ms(start.elapsed().as_secs_f64()));
}

fn probe_codec(env: &Env, execs: &[ExecRecord], cap_s: f64, m: &mut Metrics) {
    // the workload's real outputs: what its sub-queries send back
    let outputs: Vec<_> = execs
        .iter()
        .take(200)
        .filter_map(|exec| {
            PartixDriver::execute(&*env.data_dbs[exec.node], &exec.query)
                .ok()
                .flatten()
        })
        .collect();
    let mut encoded = Vec::with_capacity(outputs.len());
    let encode = timed_over(&outputs, cap_s, |out| {
        let mut w = Writer::new();
        codec::put_output(&mut w, out);
        encoded.push(w.into_bytes());
    });
    let per_mb = |times: &[f64]| {
        ratio(
            ms(times.iter().sum()),
            encoded
                .iter()
                .take(times.len())
                .map(Vec::len)
                .sum::<usize>() as f64
                / 1e6,
        )
    };
    m.insert("net.encode_ms_per_mb", per_mb(&encode));
    let decode = timed_over(&encoded, cap_s, |bytes| {
        std::hint::black_box(codec::get_output(&mut Reader::new(bytes)).expect("own bytes decode"));
    });
    m.insert("net.decode_ms_per_mb", per_mb(&decode));
}

/// PXN1 over loopback: node 0's database behind a `NodeServer`, its
/// recorded sub-queries sent through a `RemoteDriver`.
fn probe_pxn1(env: &Env, execs: &[ExecRecord], cap_s: f64, m: &mut Metrics) {
    let mut server =
        NodeServer::bind("127.0.0.1:0", Arc::clone(&env.data_dbs[0])).expect("bind probe server");
    let driver = RemoteDriver::connect(server.local_addr()).expect("connect to probe server");
    let pings: Vec<u32> = (0..200).collect();
    let mut rtt = timed_over(&pings, cap_s, |_| driver.health_check().expect("ping"));
    m.insert("net.rtt_us", median(&mut rtt) * 1e6);
    let node0: Vec<&ExecRecord> = execs.iter().filter(|e| e.node == 0).take(200).collect();
    let before = driver.stats();
    let (mut send, mut recv) = (Vec::new(), Vec::new());
    wirespan::take();
    let calls = timed_over(&node0, cap_s, |exec| {
        driver.execute(&exec.query).expect("probe sub-query");
        let (s, r) = wirespan::take();
        send.push(s);
        recv.push(r);
    });
    let after = driver.stats();
    m.insert("net.send_ms", ms(mean(&send)));
    m.insert("net.recv_ms", ms(mean(&recv)));
    let wire = (after.bytes_sent + after.bytes_recv) - (before.bytes_sent + before.bytes_recv);
    m.insert(
        "net.wire_bytes_per_subquery",
        ratio(wire as f64, calls.len() as f64),
    );
    // the probe's own dial plus whatever the workload's drivers dialled
    let workload: Vec<_> = env
        .remote
        .iter()
        .flat_map(|r| r.drivers.iter().map(|d| d.stats()))
        .collect();
    m.insert(
        "net.connects",
        (after.connects + workload.iter().map(|s| s.connects).sum::<u64>()) as f64,
    );
    m.insert(
        "net.reconnects",
        (after.reconnects + workload.iter().map(|s| s.reconnects).sum::<u64>()) as f64,
    );
    driver.drain_pool();
    server.shutdown();
}

/// PXN2 over loopback: the workload's reads through a `StreamClient`, to
/// the workload's own coordinator endpoint when it has one.
fn probe_pxn2(env: &Env, cap_s: f64, m: &mut Metrics) {
    let mut own_server = None;
    let addr = match &env.remote {
        Some(remote) => remote.coordinator.addr(),
        None => own_server
            .insert(
                serve_coordinator(
                    "127.0.0.1:0",
                    Arc::clone(&env.px),
                    StreamServerConfig::default(),
                )
                .expect("bind probe coordinator"),
            )
            .addr(),
    };
    let client = StreamClient::connect(&addr.to_string(), StreamClientConfig::default())
        .expect("connect to probe coordinator");
    let reads: Vec<usize> = env
        .cycle
        .iter()
        .filter_map(|op| match op {
            Op::Read(index) => Some(*index),
            _ => None,
        })
        .collect();
    let (mut first, mut chunks) = (Vec::new(), Vec::new());
    let calls = timed_over(&reads, cap_s, |&index| {
        let start = Instant::now();
        let mut first_chunk = None;
        let result = client
            .query_with(&env.queries[index].text, StreamOpts::default(), |_| {
                first_chunk.get_or_insert_with(|| start.elapsed().as_secs_f64());
            })
            .expect("probe stream query");
        first.push(first_chunk.unwrap_or_else(|| start.elapsed().as_secs_f64()));
        chunks.push(f64::from(result.chunks));
    });
    m.insert("net.first_chunk_ms", ms(mean(&first)));
    m.insert("net.chunks_per_op", mean(&chunks));
    m.insert("net.stream_op_ms", ms(mean(&calls)));
    drop(client);
    if let Some(mut server) = own_server {
        server.shutdown();
    }
}

/// The write path of the storage layer in isolation: the workload's own
/// documents put through a scratch `DurableDb` (append → fsync → apply,
/// flush policy as shipped: one `sync_data` per append), a reopen that
/// replays the log, and the same writes on a plain `Database`.
fn probe_writes(env: &Env, cap_s: f64, m: &mut Metrics) {
    let dir = out_dir().join(format!("wprobe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ops: Vec<WriteOp> = env
        .docs
        .iter()
        .take(200)
        .map(|doc| WriteOp::Put {
            collection: "probe".into(),
            doc: doc.clone(),
        })
        .collect();
    let durable = DurableDb::open(&dir).expect("open scratch WAL dir");
    let (appends, fsyncs) = (durable.wal().appends(), durable.fsyncs());
    let append = timed_over(&ops, cap_s, |op| {
        durable.apply(op).expect("scratch write");
    });
    let written = append.len();
    m.insert("storage.wal_append_ms", ms(mean(&append)));
    m.insert(
        "storage.wal_fsyncs_per_write",
        ratio(
            (durable.fsyncs() - fsyncs) as f64,
            (durable.wal().appends() - appends) as f64,
        ),
    );
    let user_bytes = env::xml_bytes(&env.docs[..written.min(env.docs.len())]);
    m.insert(
        "storage.wal_bytes_per_user_byte",
        ratio(durable.wal().len().unwrap_or(0) as f64, user_bytes as f64),
    );
    drop(durable);
    let start = Instant::now();
    let reopened = DurableDb::open(&dir).expect("reopen scratch WAL dir");
    m.insert("storage.recover_s", start.elapsed().as_secs_f64());
    assert_eq!(
        reopened.db().collection_len("probe").ok(),
        Some(written),
        "replay lost writes"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    let plain = Database::new();
    let apply = timed_over(&ops[..written], cap_s, |op| {
        plain.apply_write(op);
    });
    m.insert("storage.apply_ms", ms(mean(&apply)));
}

fn family_table(outcomes: &[&Outcome]) -> String {
    let mut groups: BTreeMap<(Family, &str), Vec<f64>> = BTreeMap::new();
    for outcome in outcomes {
        groups
            .entry((outcome.family, outcome.template))
            .or_default()
            .push(outcome.latency_s);
    }
    let mut out = format!(
        "{:<12} {:<8} {:>8} {:>10} {:>10}\n",
        "family", "template", "ops", "p50 ms", "p95 ms"
    );
    for ((family, template), mut lat) in groups {
        out.push_str(&format!(
            "{:<12} {:<8} {:>8} {:>10.3} {:>10.3}\n",
            family.label(),
            template,
            lat.len(),
            ms(percentile(&mut lat, 50.0)),
            ms(percentile(&mut lat, 95.0))
        ));
    }
    out
}

/// `central_s[i]` is the centralized latency of `env.queries[i]`.
pub fn traced_run(
    env: &Env,
    log: &Arc<SpanLog>,
    seed: u64,
    seconds: f64,
    central_s: &[f64],
) -> LayerReport {
    let begun = Instant::now();
    let mut m = Metrics::new();

    // ---- replay: off/on pairs for half the budget, at least one pair
    let mut client = Client::new(env, 0, seed);
    let (mut off, mut on): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut op_base = 0u32;
    loop {
        off.push(replay_pass(env, &mut client, log, false, op_base));
        on.push(replay_pass(env, &mut client, log, true, op_base));
        op_base += env.cycle.len() as u32;
        if begun.elapsed().as_secs_f64() > seconds * 0.5 {
            break;
        }
    }
    drop(client);
    let all: Vec<&Outcome> = off.iter().chain(&on).flat_map(|p| &p.outcomes).collect();
    let attempted = all.len();
    let mut failed = all.iter().filter(|o| !o.ok).count();

    // exact counts: from the first traced pass; on a read-only workload
    // every later traced pass must reproduce them bit for bit
    let exact = exact_of(&on[0]);
    if env.durable.is_none() && on[1..].iter().any(|pass| exact_of(pass) != exact) {
        eprintln!("exact counts differ between traced passes of one run");
        failed += 1;
    }
    let reads = exact.reads as f64;
    m.insert(
        "core.subqueries_per_op",
        ratio(exact.subqueries as f64, reads),
    );
    m.insert(
        "core.fragments_pruned_per_op",
        ratio(exact.pruned as f64, reads),
    );
    m.insert(
        "core.reconstructed_ratio",
        ratio(exact.reconstructed as f64, reads),
    );
    m.insert(
        "core.shipped_bytes_per_op",
        ratio(exact.shipped_bytes as f64, reads),
    );
    m.insert(
        "core.plan_cache_hit_ratio",
        ratio(exact.plan_hits as f64, reads),
    );
    let execs = exact.execs as f64;
    m.insert(
        "storage.docs_scanned_per_subquery",
        ratio(exact.docs_scanned as f64, execs),
    );
    m.insert(
        "storage.index_used_ratio",
        ratio(exact.index_used as f64, execs),
    );
    m.insert(
        "storage.items_per_doc_scanned",
        ratio(exact.items as f64, exact.docs_scanned as f64),
    );
    m.insert(
        "storage.morsels_per_subquery",
        ratio(exact.morsels as f64, execs),
    );

    // stage means over every traced read
    let reports: Vec<&QueryReport> = on.iter().flat_map(|p| &p.reports).collect();
    let stage = |pick: fn(&QueryReport) -> f64| {
        ms(mean(&reports.iter().map(|r| pick(r)).collect::<Vec<_>>()))
    };
    m.insert("core.parse_ms", stage(|r| r.stages.parse_s));
    m.insert("core.localize_ms", stage(|r| r.stages.localize_s));
    m.insert("core.dispatch_ms", stage(|r| r.stages.dispatch_s));
    m.insert("core.compose_ms", stage(|r| r.stages.compose_s));
    m.insert(
        "core.queue_wait_ms",
        stage(|r| r.stages.subqueries.iter().map(|s| s.queue_wait_s).sum()),
    );
    let exec_s: Vec<f64> = on
        .iter()
        .flat_map(|p| &p.execs)
        .map(|e| e.seconds)
        .collect();
    m.insert("storage.execute_ms", ms(mean(&exec_s)));
    let writes: Vec<(f64, f64)> = on.iter().flat_map(|p| p.writes.iter().copied()).collect();
    m.insert(
        "core.write_overhead_ratio",
        ratio(
            writes.iter().map(|w| w.0).sum(),
            writes.iter().map(|w| w.1).sum(),
        ),
    );

    // client-side split and tracing overhead, from the untraced passes
    let class = |passes: &[Pass], heavy: Option<bool>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| &p.outcomes)
            .filter(|o| heavy.is_none_or(|h| o.heavy == h))
            .map(|o| o.latency_s)
            .collect()
    };
    m.insert(
        "client.light_p50_ms",
        ms(percentile(&mut class(&off, Some(false)), 50.0)),
    );
    m.insert(
        "client.heavy_p50_ms",
        ms(percentile(&mut class(&off, Some(true)), 50.0)),
    );
    m.insert(
        "client.op_p99_ms",
        ms(percentile(&mut class(&off, None), 99.0)),
    );
    let off_p50 = percentile(&mut class(&off, None), 50.0);
    let on_p50 = percentile(&mut class(&on, None), 50.0);
    m.insert("trace.overhead_pct", 100.0 * (ratio(on_p50, off_p50) - 1.0));

    // the paper's pair: the same read mix on the unfragmented copy
    let mut central: Vec<f64> = Vec::new();
    let mut fragmented: Vec<f64> = Vec::new();
    for pass in &off {
        for (op, outcome) in env.cycle.iter().zip(&pass.outcomes) {
            if let Op::Read(index) = op {
                central.push(central_s[*index]);
                fragmented.push(outcome.latency_s);
            }
        }
    }
    let central_p50 = percentile(&mut central, 50.0);
    m.insert("baseline.central_p50_ms", ms(central_p50));
    m.insert(
        "baseline.speedup",
        ratio(central_p50, percentile(&mut fragmented, 50.0)),
    );

    m.insert("gen.generate_s", env.timings.generate_s);
    m.insert("gen.dataset_bytes", env::xml_bytes(&env.docs) as f64);
    m.insert("gen.docs", env.docs.len() as f64);

    // ---- probes: an equal slice of what is left of the budget each
    let cap_s = ((seconds - begun.elapsed().as_secs_f64()) / 12.0).max(0.02);
    let (fragments, resident) = stored_fragments(env);
    m.insert(
        "storage.resident_bytes_per_user_byte",
        ratio(resident as f64, env::xml_bytes(&env.docs) as f64),
    );
    let recorded = &on[0].execs;
    probe_xml(env, &fragments, cap_s, &mut m);
    probe_query(env, &fragments, recorded, cap_s, &mut m);
    probe_frag(env, &mut m);
    probe_codec(env, recorded, cap_s, &mut m);
    probe_pxn1(env, recorded, cap_s, &mut m);
    probe_pxn2(env, cap_s, &mut m);
    probe_writes(env, cap_s, &mut m);

    let span_list = log.spans();
    let mut table = format!(
        "## {} — traced run, one client, {} ops\n\n",
        env.name, attempted
    );
    table.push_str(&family_table(&all));
    table.push('\n');
    table.push_str(&spans::self_time_table(&span_list));
    LayerReport {
        metrics: m,
        attempted,
        failed,
        table,
        chrome_trace: spans::chrome_trace(&span_list),
    }
}
