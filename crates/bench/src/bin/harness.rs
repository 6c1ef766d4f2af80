//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section 5). Run `harness help` for usage.

use partix_bench::output::{human_bytes, Record, Sink};
use partix_bench::scenario::Knobs;
use partix_bench::scenarios::{Scenario, SCENARIOS};
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
    /// Concurrent-client counts for the scenarios.
    clients: Vec<usize>,
    /// Operations per client for the scenarios.
    queries: usize,
    /// Output path for a scenario's JSON record; `BENCH_<scenario>.json`
    /// when not given.
    out: Option<String>,
    /// Fault-schedule / advisor seed (hex or decimal).
    seed: u64,
    /// Per-node fault probability for the chaos scenario.
    rate: f64,
    /// Replicas per fragment for the chaos scenario.
    replicas: usize,
    /// Per-attempt dispatch deadline for the chaos scenario (ms).
    timeout_ms: u64,
    /// Run chaos/rebalance over loopback TCP node servers.
    remote: bool,
}

/// `argv` without the program name: the command, then flags.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        command: argv.next().unwrap_or_else(|| "help".into()),
        scale: 0.02,
        sizes: vec![5, 20, 100, 250],
        frags: vec![2, 4, 8],
        reps: 2,
        log: None,
        clients: vec![1, 4, 16],
        queries: 40,
        out: None,
        seed: 0xC4A0_5EED,
        rate: 0.6,
        replicas: 2,
        timeout_ms: 75,
        remote: false,
    };
    let rest: Vec<String> = argv.collect();
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
            "--out" => args.out = Some(value.clone()),
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

/// Run one scenario and write its record where `--out` says, or to the
/// file named after the scenario.
fn run_scenario(args: &Args, scenario: &Scenario) {
    let size_mb = args.sizes.iter().copied().min().unwrap_or(5);
    let knobs = Knobs {
        db_bytes: ((size_mb * MB) as f64 * args.scale) as usize,
        fragments: args.frags.first().copied().unwrap_or(4),
        clients: args.clients.clone(),
        ops_per_client: args.queries,
        seed: args.seed,
        rate: args.rate,
        replicas: args.replicas,
        timeout_ms: args.timeout_ms,
        remote: args.remote,
    };
    let record = (scenario.run)(&knobs);
    let out = out_path(args, scenario.name);
    std::fs::write(&out, record.to_json()).expect("write scenario JSON");
    println!("wrote {out}");
}

fn out_path(args: &Args, scenario: &str) -> String {
    args.out.clone().unwrap_or_else(|| format!("BENCH_{scenario}.json"))
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
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
        other => match SCENARIOS.iter().find(|s| s.name == other) {
            Some(scenario) => run_scenario(&args, scenario),
            None => help(),
        },
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
  all                everything above

SCENARIOS (one runner; each writes BENCH_<scenario>.json unless --out is given)
  chaos              QPS/latency under a seeded fault schedule: fault-free vs
                     faulted vs faulted+allow_partial (same --seed = same schedule)
  rebalance          skewed placement (everything on node 0) measured, advised,
                     migrated live, re-measured (same --seed = same advice)
  scaleout           1/2/3 replicated coordinators over the PXN2 streaming
                     transport, streamed vs buffered, every answer oracle-checked
  multitenant        an interactive tenant measured alone, then again while a
                     quota-capped batch tenant floods at 10x its load; gates
                     on bounded p99 inflation AND oracle-identical answers
  writes             mixed read/write QPS over WAL-backed nodes at 10% and
                     50% write ratios, with an oracle-verified final state

FLAGS
  --scale F          fraction of the paper's database sizes (default 0.02)
  --sizes A,B,..     database sizes in paper-MB (default 5,20,100,250)
  --frags A,B,..     fragment counts for fig7a/b; scenarios use the first (default 2,4,8)
  --reps N           timed repetitions after warm-up (default 2)
  --log FILE         append JSON-lines records to FILE
  --clients A,B,..   concurrent clients (default 1,4,16): scenarios run the
                     largest entry, multitenant the smallest
  --queries N        operations per scenario client (default 40)
  --out FILE         a scenario's JSON record (default BENCH_<scenario>.json)
  --seed S           chaos fault-schedule / rebalance advisor seed, decimal or
                     0x-hex (default 0xC4A05EED)
  --rate P           chaos per-node fault probability (default 0.6)
  --replicas N       chaos replicas per fragment (default 2)
  --timeout-ms N     chaos per-attempt dispatch deadline (default 75)
  --remote           chaos/rebalance: put every node behind its own loopback
                     TCP server (partix-net wire protocol); the JSON gains
                     remote:true and, for rebalance, genuine bytes_shipped"
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn explicit_out_is_honoured_verbatim_and_the_default_names_the_scenario() {
        // another scenario's default name is a path like any other
        for scenario in SCENARIOS {
            let explicit = args(&[scenario.name, "--out", "BENCH_throughput.json"]);
            assert_eq!(out_path(&explicit, scenario.name), "BENCH_throughput.json");
            let default = args(&[scenario.name, "--remote", "--clients", "2,8"]);
            assert_eq!(out_path(&default, scenario.name), format!("BENCH_{}.json", scenario.name));
            assert!(default.remote && default.clients == [2, 8]);
        }
    }
}
