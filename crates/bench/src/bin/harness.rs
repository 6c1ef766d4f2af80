//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section 5). Run `harness help` for usage.

use partix_bench::output::{human_bytes, Record, Sink};
use partix_bench::{queries, runner, setup};
use partix_frag::FragMode;
use partix_gen::{ArticleProfile, ItemProfile};

const MB: usize = 1_048_576;

struct Args {
    command: String,
    /// Fraction of the paper's database sizes (default 0.02).
    scale: f64,
    /// Database sizes in paper-MB (before scaling).
    sizes: Vec<usize>,
    /// Fragment counts for the horizontal experiments.
    frags: Vec<usize>,
    /// Timed repetitions after the discarded warm-up.
    reps: usize,
    /// Optional JSON-lines log path.
    log: Option<String>,
    /// Concurrent-client counts for the throughput benchmark.
    clients: Vec<usize>,
    /// Queries per client for the throughput benchmark.
    queries: usize,
    /// Output path for the throughput benchmark's JSON document.
    out: String,
    /// Fault-schedule seed for the chaos benchmark (hex or decimal).
    seed: u64,
    /// Per-node fault probability for the chaos benchmark.
    rate: f64,
    /// Replicas per fragment for the chaos benchmark.
    replicas: usize,
    /// Per-attempt dispatch deadline for the chaos benchmark (ms).
    timeout_ms: u64,
    /// Run throughput/chaos over loopback TCP node servers.
    remote: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: std::env::args().nth(1).unwrap_or_else(|| "help".into()),
        scale: 0.02,
        sizes: vec![5, 20, 100, 250],
        frags: vec![2, 4, 8],
        reps: 2,
        log: None,
        clients: vec![1, 4, 16],
        queries: 40,
        out: "BENCH_throughput.json".into(),
        seed: 0xC4A0_5EED,
        rate: 0.6,
        replicas: 2,
        timeout_ms: 75,
        remote: false,
    };
    let rest: Vec<String> = std::env::args().skip(2).collect();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        // boolean flag: consumes no value
        if flag == "--remote" {
            args.remote = true;
            i += 1;
            continue;
        }
        let value = rest.get(i + 1).cloned().unwrap_or_default();
        match flag {
            "--scale" => args.scale = value.parse().expect("--scale takes a number"),
            "--sizes" => {
                args.sizes = value
                    .split(',')
                    .map(|s| s.parse().expect("--sizes takes MB numbers"))
                    .collect()
            }
            "--frags" => {
                args.frags = value
                    .split(',')
                    .map(|s| s.parse().expect("--frags takes numbers"))
                    .collect()
            }
            "--reps" => args.reps = value.parse().expect("--reps takes a number"),
            "--log" => args.log = Some(value.clone()),
            "--clients" => {
                args.clients = value
                    .split(',')
                    .map(|s| s.parse().expect("--clients takes numbers"))
                    .collect()
            }
            "--queries" => args.queries = value.parse().expect("--queries takes a number"),
            "--out" => args.out = value.clone(),
            "--seed" => args.seed = parse_seed(&value),
            "--rate" => args.rate = value.parse().expect("--rate takes a probability"),
            "--replicas" => {
                args.replicas = value.parse().expect("--replicas takes a number")
            }
            "--timeout-ms" => {
                args.timeout_ms = value.parse().expect("--timeout-ms takes milliseconds")
            }
            other => panic!("unknown flag {other}; see `harness help`"),
        }
        i += 2;
    }
    args
}

/// Seeds are u64 and commonly quoted in hex (`--seed 0xC4A05EED`), which
/// a plain `parse` rejects.
fn parse_seed(value: &str) -> u64 {
    let parsed = match value.strip_prefix("0x").or_else(|| value.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.expect("--seed takes a decimal or 0x-prefixed hex number")
}

fn main() {
    let args = parse_args();
    let mut sink = Sink::new(args.log.as_deref());
    match args.command.as_str() {
        "fig7a" => fig7_horizontal(&args, &mut sink, "fig7a", "ItemsSHor", ItemProfile::Small),
        "fig7b" => fig7_horizontal(&args, &mut sink, "fig7b", "ItemsLHor", ItemProfile::Large),
        "fig7c" => fig7c(&args, &mut sink),
        "fig7d" => fig7d(&args, &mut sink),
        "headline" => headline(&args, &mut sink),
        "ablation-index" => ablation_index(&args),
        "ablation-fragmode" => ablation_fragmode(&args),
        "ablation-localization" => ablation_localization(&args),
        "throughput" => throughput_bench(&args),
        "chaos" => chaos_bench(&args),
        "rebalance" => rebalance_bench(&args),
        "scaleout" => scaleout_bench(&args),
        "morsel" => morsel_bench(&args),
        "writes" => writes_bench(&args),
        "storage" => storage_bench(&args),
        "multitenant" => multitenant_bench(&args),
        "all" => {
            fig7_horizontal(&args, &mut sink, "fig7a", "ItemsSHor", ItemProfile::Small);
            fig7_horizontal(&args, &mut sink, "fig7b", "ItemsLHor", ItemProfile::Large);
            fig7c(&args, &mut sink);
            fig7d(&args, &mut sink);
            headline(&args, &mut sink);
            ablation_index(&args);
            ablation_fragmode(&args);
            ablation_localization(&args);
        }
        _ => help(),
    }
}

fn help() {
    println!(
        "PartiX experiment harness — regenerates the paper's evaluation

USAGE: harness <command> [flags]

COMMANDS
  fig7a              horizontal fragmentation, ItemsSHor (≈2 KB docs)
  fig7b              horizontal fragmentation, ItemsLHor (≈80 KB docs)
  fig7c              vertical fragmentation, XBenchVer articles
  fig7d              hybrid fragmentation, StoreHyb, FragMode1/2 ± transmission
  headline           the paper's '72x' text-search/aggregation scale-up table
  ablation-index     text/value index on vs off (centralized)
  ablation-fragmode  per-document page-decode cost: hot vs cold, FragMode1 vs 2
  ablation-localization  fragment pruning on vs off (8 fragments)
  throughput         multi-client QPS/latency: worker pool with and without the result cache
  chaos              QPS/latency under a seeded fault schedule: fault-free vs
                     faulted vs faulted+allow_partial (same --seed = same schedule)
  rebalance          skewed placement (everything on node 0) measured, advised,
                     migrated live, re-measured (same --seed = same advice)
  scaleout           replicated-coordinator scale-out over the PXN2 streaming
                     transport: QPS/p50/p99 at 1/2/3 coordinators (shared
                     nodes + epoch-versioned meta catalog), streamed vs
                     buffered, gated on oracle-identical answers; --clients
                     uses the largest entry (default 256)
  morsel             intra-fragment parallel scans: every query timed
                     sequentially and morsel-split on one node; the gate is
                     byte-identical answers (speedup needs spare cores)
  writes             mixed read/write QPS over WAL-backed nodes at 10% and
                     50% write ratios; reports read/write p50/p99, WAL
                     append/fsync counts, and an oracle-verified final state
  storage            hot vs cold-indexed vs cold-scan over ≈80 KB and ≈5 MB
                     document classes, plus PXB1/PXB2/validate-only decode
                     costs; the gate is byte-identical answers across
                     configurations
  multitenant        two tenants on one coordinator: a well-behaved
                     interactive tenant measured alone, then again while a
                     quota-capped batch tenant floods at 10x its load; gates
                     on bounded p99 inflation AND oracle-identical answers
  all                everything above (except throughput, chaos and rebalance)

FLAGS
  --scale F          fraction of the paper's database sizes (default 0.02)
  --sizes A,B,..     database sizes in paper-MB (default 5,20,100,250)
  --frags A,B,..     fragment counts for fig7a/b; throughput uses the first (default 2,4,8)
  --reps N           timed repetitions after warm-up (default 2)
  --log FILE         append JSON-lines records to FILE
  --clients A,B,..   concurrent clients for throughput (default 1,4,16);
                     chaos uses the largest entry
  --queries N        queries per client for throughput/chaos (default 40)
  --out FILE         throughput/chaos/rebalance/morsel/writes JSON output
                     (default BENCH_throughput.json; BENCH_chaos.json for
                     chaos, BENCH_rebalance.json for rebalance,
                     BENCH_morsel.json for morsel, BENCH_writes.json for
                     writes, BENCH_multitenant.json for multitenant)
  --seed S           chaos fault-schedule / rebalance advisor seed, decimal or
                     0x-hex (default 0xC4A05EED)
  --rate P           chaos per-node fault probability (default 0.6)
  --replicas N       chaos replicas per fragment (default 2)
  --timeout-ms N     chaos per-attempt dispatch deadline (default 75)
  --remote           throughput/chaos/rebalance: put every node behind its own
                     loopback TCP server (partix-net wire protocol); the
                     JSON gains remote:true and genuine bytes_shipped"
    );
}

/// Fig. 7(a)/(b): horizontal fragmentation across fragment counts and
/// database sizes.
fn fig7_horizontal(
    args: &Args,
    sink: &mut Sink,
    experiment: &str,
    database: &str,
    profile: ItemProfile,
) {
    println!("\n### {experiment}: {database}, horizontal fragmentation, scale {}", args.scale);
    for &size_mb in &args.sizes {
        let bytes = ((size_mb * MB) as f64 * args.scale) as usize;
        let docs = setup::item_db(bytes, profile);
        println!(
            "-- database {} ({} docs of ≈{})",
            human_bytes(bytes),
            docs.len(),
            human_bytes(bytes / docs.len().max(1)),
        );
        for &n in &args.frags {
            let px = setup::horizontal(&docs, n);
            for (id, q) in queries::horizontal(setup::DIST) {
                let m = runner::compare(&px, id, &q, args.reps);
                sink.push(Record::from_measurement(
                    experiment,
                    database,
                    bytes,
                    n,
                    &format!("{n} frags"),
                    &m,
                ));
            }
        }
        sink.print_speedup_table(experiment, bytes);
    }
}

/// Fig. 7(c): vertical fragmentation of XBench articles.
fn fig7c(args: &Args, sink: &mut Sink) {
    println!("\n### fig7c: XBenchVer, vertical fragmentation (prolog/body/epilog), scale {}", args.scale);
    for &size_mb in &args.sizes {
        let bytes = ((size_mb * MB) as f64 * args.scale) as usize;
        // ≈100 KB articles; at least 3 so every node holds data
        let per_article = 100 * 1024;
        let count = (bytes / per_article).max(3);
        let docs = partix_gen::gen_articles(count, ArticleProfile::LARGE, 0xA11CE);
        println!("-- database {} ({count} articles)", human_bytes(bytes));
        let px = setup::vertical(&docs);
        for (id, q) in queries::vertical(setup::DIST) {
            let m = runner::compare(&px, id, &q, args.reps);
            sink.push(Record::from_measurement(
                "fig7c", "XBenchVer", bytes, 3, "3 vert frags", &m,
            ));
        }
        sink.print_speedup_table("fig7c", bytes);
    }
}

/// Fig. 7(d/e): hybrid fragmentation of the SD store, FragMode1 vs
/// FragMode2, with (−T) and without (−NT) transmission times.
fn fig7d(args: &Args, sink: &mut Sink) {
    println!("\n### fig7d: StoreHyb, hybrid fragmentation, scale {}", args.scale);
    for &size_mb in &args.sizes {
        let bytes = ((size_mb * MB) as f64 * args.scale) as usize;
        let store = partix_gen::store::gen_store_to_size(bytes, ItemProfile::Small, 0xA11CE);
        println!(
            "-- store document {} ({} items)",
            human_bytes(store.approx_size()),
            partix_path::eval_path(
                &store,
                &partix_path::PathExpr::parse("/Store/Items/Item").unwrap()
            )
            .len()
        );
        for (mode, mode_label) in [
            (FragMode::ManySmallDocs, "FragMode1"),
            (FragMode::SingleDoc, "FragMode2"),
        ] {
            for (net_label, instantaneous) in [("T", false), ("NT", true)] {
                let mut px = setup::hybrid(&store, mode);
                if instantaneous {
                    px.set_network(partix_engine::NetworkModel::instantaneous());
                }
                for (id, q) in queries::hybrid(setup::DIST) {
                    let m = runner::compare(&px, id, &q, args.reps);
                    sink.push(Record::from_measurement(
                        "fig7d",
                        "StoreHyb",
                        bytes,
                        5,
                        &format!("{mode_label}-{net_label}"),
                        &m,
                    ));
                }
            }
        }
        sink.print_speedup_table("fig7d", bytes);
    }
}

/// The paper's headline: text searches and aggregations over the largest
/// ItemsSHor database, 8 fragments — "up to a 72 scale up factor".
fn headline(args: &Args, sink: &mut Sink) {
    let size_mb = args.sizes.iter().copied().max().unwrap_or(250);
    let bytes = ((size_mb * MB) as f64 * args.scale) as usize;
    println!(
        "\n### headline: ItemsSHor {} / 8 fragments — text search & aggregation scale-up",
        human_bytes(bytes)
    );
    let docs = setup::item_db(bytes, ItemProfile::Small);
    let px = setup::horizontal(&docs, 8);
    let mut best = 0.0f64;
    for (id, q) in queries::horizontal(setup::DIST) {
        if !matches!(id, "QH5" | "QH6" | "QH7" | "QH8") {
            continue;
        }
        let m = runner::compare(&px, id, &q, args.reps);
        println!(
            "  {id}: centralized {:.5}s, distributed {:.5}s → {:.1}x",
            m.centralized_s, m.distributed_s, m.speedup
        );
        best = best.max(m.speedup);
        sink.push(Record::from_measurement(
            "headline", "ItemsSHor", bytes, 8, "8 frags", &m,
        ));
    }
    println!("  best scale-up factor: {best:.1}x (paper reports up to 72x on its hardware)");
}

/// Ablation: the automatic text/value indexes (eXist's, ours) on vs off.
fn ablation_index(args: &Args) {
    let size_mb = args.sizes.iter().copied().max().unwrap_or(250);
    let bytes = ((size_mb * MB) as f64 * args.scale) as usize;
    println!("\n### ablation-index: ItemsSHor {}, centralized node", human_bytes(bytes));
    let docs = setup::item_db(bytes, ItemProfile::Small);
    let px = setup::horizontal(&docs, 2);
    let db = &px.cluster().node(0).expect("node 0").db;
    for (id, q) in queries::horizontal(setup::CENTRAL) {
        // QH1 exercises the (optional) value index; QH5/QH8 the
        // automatic text index
        if !matches!(id, "QH1" | "QH5" | "QH8") {
            continue;
        }
        let timed = |reps: usize| {
            let mut total = 0.0;
            let _ = db.execute(&q).expect("warm-up");
            for _ in 0..reps {
                total += db.execute(&q).expect("run").stats.elapsed;
            }
            total / reps as f64
        };
        db.set_index_enabled(true);
        db.set_value_index_enabled(id == "QH1");
        let with_index = timed(args.reps.max(1));
        db.set_index_enabled(false);
        let without = timed(args.reps.max(1));
        db.set_index_enabled(true);
        db.set_value_index_enabled(false);
        let which = if id == "QH1" { "value index" } else { "text index" };
        println!(
            "  {id}: {which} {with_index:.5}s, full scan {without:.5}s → {:.1}x from indexing",
            without / with_index.max(1e-12)
        );
    }
}

/// Ablation: data localization (fragment pruning) on vs off — the
/// paper's "sub-queries are issued only to the corresponding fragments".
fn ablation_localization(args: &Args) {
    let size_mb = args.sizes.iter().copied().max().unwrap_or(250);
    let bytes = ((size_mb * MB) as f64 * args.scale) as usize;
    println!(
        "\n### ablation-localization: ItemsSHor {}, 8 fragments",
        human_bytes(bytes)
    );
    let docs = setup::item_db(bytes, ItemProfile::Small);
    let px = setup::horizontal(&docs, 8);
    for (id, q) in queries::horizontal(setup::DIST) {
        // the localizable queries: predicate matches the fragmentation
        if !matches!(id, "QH1" | "QH2" | "QH7") {
            continue;
        }
        px.set_localization_enabled(true);
        let with = runner::compare(&px, id, &q, args.reps);
        px.set_localization_enabled(false);
        let without = runner::compare(&px, id, &q, args.reps);
        px.set_localization_enabled(true);
        println!(
            "  {id}: localized {:.5}s ({} site(s)), unlocalized {:.5}s ({} site(s)) → {:.1}x from pruning",
            with.distributed_s,
            with.sites,
            without.distributed_s,
            without.sites,
            without.distributed_s / with.distributed_s.max(1e-12),
        );
    }
}

/// Multi-client closed-loop throughput of the persistent worker pool,
/// with and without the result cache.
fn throughput_bench(args: &Args) {
    let size_mb = args.sizes.iter().copied().min().unwrap_or(5);
    let config = partix_bench::throughput::ThroughputConfig {
        db_bytes: ((size_mb * MB) as f64 * args.scale) as usize,
        fragments: args.frags.first().copied().unwrap_or(4),
        clients: args.clients.clone(),
        queries_per_client: args.queries,
    };
    let results = partix_bench::throughput::run_with(&config, args.remote);
    let overhead = partix_bench::throughput::measure_trace_overhead(&config);
    std::fs::write(
        &args.out,
        partix_bench::throughput::to_json(&config, &results, overhead),
    )
    .expect("write throughput JSON");
    println!("wrote {}", args.out);
}

/// Coordinator scale-out over the `PXN2` streaming transport: QPS and
/// latency at 1/2/3 replicated coordinators, streamed vs buffered, every
/// answer gated on a centralized oracle.
fn scaleout_bench(args: &Args) {
    let size_mb = args.sizes.iter().copied().min().unwrap_or(5);
    let config = partix_bench::scaleout::ScaleoutConfig {
        db_bytes: ((size_mb * MB) as f64 * args.scale) as usize,
        fragments: args.frags.first().copied().unwrap_or(4),
        clients: args.clients.iter().copied().max().unwrap_or(256),
        queries_per_client: args.queries,
        ..Default::default()
    };
    let results = partix_bench::scaleout::run(&config);
    let out = if args.out == "BENCH_throughput.json" {
        "BENCH_scaleout.json".to_owned()
    } else {
        args.out.clone()
    };
    std::fs::write(&out, partix_bench::scaleout::to_json(&config, &results))
        .expect("write scaleout JSON");
    println!("wrote {out}");
}

/// Closed-loop throughput under a seeded fault schedule: fault-free vs
/// faulted (strict) vs faulted with `allow_partial`.
fn chaos_bench(args: &Args) {
    let size_mb = args.sizes.iter().copied().min().unwrap_or(5);
    let config = partix_bench::chaos::ChaosConfig {
        db_bytes: ((size_mb * MB) as f64 * args.scale) as usize,
        nodes: args.frags.first().copied().unwrap_or(4),
        replicas: args.replicas,
        clients: args.clients.iter().copied().max().unwrap_or(8),
        queries_per_client: args.queries,
        seed: args.seed,
        rate: args.rate,
        timeout_ms: args.timeout_ms,
    };
    let (plan, results) = partix_bench::chaos::run_with(&config, args.remote);
    let out = if args.out == "BENCH_throughput.json" {
        "BENCH_chaos.json"
    } else {
        args.out.as_str()
    };
    std::fs::write(out, partix_bench::chaos::to_json(&config, &plan, &results, args.remote))
        .expect("write chaos JSON");
    println!("wrote {out}");
}

/// The skew → advise → live-rebalance → re-measure experiment.
fn rebalance_bench(args: &Args) {
    let size_mb = args.sizes.iter().copied().min().unwrap_or(5);
    let nodes = args.frags.first().copied().unwrap_or(4);
    let config = partix_bench::rebalance::RebalanceBenchConfig {
        db_bytes: ((size_mb * MB) as f64 * args.scale) as usize,
        fragments: nodes,
        nodes,
        clients: args.clients.iter().copied().max().unwrap_or(8),
        queries_per_client: args.queries,
        seed: args.seed,
    };
    let result = partix_bench::rebalance::run_with(&config, args.remote);
    let out = if args.out == "BENCH_throughput.json" {
        "BENCH_rebalance.json"
    } else {
        args.out.as_str()
    };
    std::fs::write(out, result.to_json()).expect("write rebalance JSON");
    println!("wrote {out}");
}

/// Intra-fragment morsel parallelism: sequential vs split scans on one
/// node's database.
fn morsel_bench(args: &Args) {
    let size_mb = args.sizes.iter().copied().min().unwrap_or(5);
    let config = partix_bench::morsel::MorselBenchConfig {
        db_bytes: ((size_mb * MB) as f64 * args.scale) as usize,
        workers: args.frags.first().copied().unwrap_or(4),
        reps: args.reps,
        ..Default::default()
    };
    let (docs, results) = partix_bench::morsel::run_with(&config);
    let out = if args.out == "BENCH_throughput.json" {
        "BENCH_morsel.json"
    } else {
        args.out.as_str()
    };
    std::fs::write(out, partix_bench::morsel::to_json(&config, docs, &results))
        .expect("write morsel JSON");
    println!("wrote {out}");
}

/// Mixed read/write closed-loop benchmark over WAL-backed nodes with an
/// oracle-verified final state.
fn writes_bench(args: &Args) {
    let size_mb = args.sizes.iter().copied().min().unwrap_or(5);
    let config = partix_bench::writes::WritesConfig {
        db_bytes: ((size_mb * MB) as f64 * args.scale) as usize,
        fragments: args.frags.first().copied().unwrap_or(4),
        clients: args.clients.iter().copied().max().unwrap_or(4),
        ops_per_client: args.queries,
        ..Default::default()
    };
    let results = partix_bench::writes::run(&config);
    let out = if args.out == "BENCH_throughput.json" {
        "BENCH_writes.json"
    } else {
        args.out.as_str()
    };
    std::fs::write(out, partix_bench::writes::to_json(&config, &results))
        .expect("write writes JSON");
    println!("wrote {out}");
}

/// Storage-path microbench: hot vs cold-indexed vs cold-scan, plus
/// per-format page decode costs.
fn storage_bench(args: &Args) {
    let config = partix_bench::storage::StorageBenchConfig {
        reps: args.reps.max(1),
        ..Default::default()
    };
    let classes = partix_bench::storage::run_with(&config);
    let out = if args.out == "BENCH_throughput.json" {
        "BENCH_storage.json"
    } else {
        args.out.as_str()
    };
    std::fs::write(out, partix_bench::storage::to_json(&config, &classes))
        .expect("write storage JSON");
    println!("wrote {out}");
}

/// Two-tenant isolation: well-behaved p99 alone vs under an
/// admission-controlled flood, gated on oracle-identical answers.
fn multitenant_bench(args: &Args) {
    let size_mb = args.sizes.iter().copied().min().unwrap_or(5);
    let config = partix_bench::multitenant::MultitenantConfig {
        db_bytes: ((size_mb * MB) as f64 * args.scale) as usize,
        fragments: args.frags.first().copied().unwrap_or(4),
        clients: args.clients.iter().copied().min().unwrap_or(4),
        queries_per_client: args.queries,
        ..Default::default()
    };
    let result = partix_bench::multitenant::run(&config);
    let out = if args.out == "BENCH_throughput.json" {
        "BENCH_multitenant.json"
    } else {
        args.out.as_str()
    };
    std::fs::write(out, partix_bench::multitenant::to_json(&config, &result))
        .expect("write multitenant JSON");
    println!("wrote {out}");
}

/// Ablation: the per-document page-decode (parse) cost behind the
/// FragMode1 vs FragMode2 gap.
fn ablation_fragmode(args: &Args) {
    let size_mb = args.sizes.iter().copied().max().unwrap_or(250);
    let bytes = ((size_mb * MB) as f64 * args.scale) as usize;
    println!("\n### ablation-fragmode: StoreHyb {}", human_bytes(bytes));
    let store = partix_gen::store::gen_store_to_size(bytes, ItemProfile::Small, 0xA11CE);
    for (mode, label) in [
        (FragMode::ManySmallDocs, "FragMode1 (many small docs)"),
        (FragMode::SingleDoc, "FragMode2 (one spine doc)"),
    ] {
        let px = setup::hybrid(&store, mode);
        let q = &queries::hybrid(setup::DIST)[7].1; // QY8: scan everything
        let m = runner::compare(&px, "QY8", q, args.reps);
        let docs_total: usize = (0..4)
            .map(|i| {
                px.cluster()
                    .node(i)
                    .and_then(|n| n.db.collection_len(&format!("f{i}")).ok())
                    .unwrap_or(0)
            })
            .sum();
        println!(
            "  {label}: {docs_total} fragment documents, distributed {:.5}s (centralized {:.5}s)",
            m.distributed_s, m.centralized_s
        );
    }
}
