//! The four workloads. Each builds its data from the seed, publishes it
//! under its design and transport, and lays out a seeded operation
//! sequence over the paper's reconstructed query sets (QH1–QH8 over
//! `Item` documents, QV1–QV10 over XBench articles) with seeded
//! parameters, so the plan cache sees a working set and not eight
//! literal strings.
//!
//! The sequence is a seeded shuffle of a *fixed multiset* of operations:
//! every seed runs the same mix in a different order over different
//! data, which keeps runs with different seeds comparable.

use crate::env::{
    attach_durable, attach_remote, engine, horizontal_cluster, path, warm_up, wrap_embedded, Env,
    Family, Op, QuerySpec, SetupTimings, DIST,
};
use crate::spans::SpanLog;
use crate::stats::Rng;
use partix_engine::{Distribution, PartiX, Placement};
use partix_frag::{FragmentDef, FragmentationSchema};
use partix_gen::articles::{COUNTRIES, GENRES};
use partix_gen::items::gen_items_to_size;
use partix_gen::{gen_articles, ArticleProfile, ItemProfile, SECTIONS};
use partix_schema::builtin::xbench_article;
use partix_schema::{CollectionDef, RepoKind};
use partix_storage::{Database, StorageMode};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

type Builder = fn(u64, bool, Option<&Arc<SpanLog>>) -> Env;

/// Name, how many times an end-to-end run sets the workload up (`setup_s`
/// is the median; cheaper set-ups are noisier, so they are repeated
/// more), and the function that builds it. Why each exists is recorded in
/// `BENCHMARK.json`.
pub const WORKLOADS: [(&str, usize, Builder); 4] = [
    ("horiz_scan", 3, horiz_scan),
    ("vert_join", 5, vert_join),
    ("remote_stream", 9, remote_stream),
    ("mixed_rw", 25, mixed_rw),
];

/// Section popularity by rank (`SECTIONS` order, which is also fragment
/// size order): a zipf-like skew as multiplicities, so the mix is the
/// same for every seed.
const ZIPF: [usize; 8] = [8, 4, 3, 2, 2, 1, 1, 1];

/// Search needles of decreasing selectivity in the generated text:
/// `good` (the paper's needle, about a third of the items), an
/// adjective–noun phrase, a phrase after `good`, and a word in nearly
/// every document.
const WORDS: [&str; 4] = ["good", "rare lamp", "good record", "vintage"];

/// Dataset size. Full sizes are set by the driver's time cap (92 runs in
/// 57 minutes): each keeps every two-second slice above 200 operations.
/// Quick sizes (about 100 KB) only exercise the harness.
fn bytes(quick: bool, full: usize) -> usize {
    if quick {
        100_000
    } else {
        full
    }
}

/// Collects distinct queries and the operation multiset over them.
struct Mix {
    queries: Vec<QuerySpec>,
    cycle: Vec<Op>,
}

impl Mix {
    fn new() -> Mix {
        Mix {
            queries: Vec::new(),
            cycle: Vec::new(),
        }
    }

    fn read(&mut self, times: usize, spec: QuerySpec) {
        let index = self.queries.len();
        self.queries.push(spec);
        self.cycle
            .extend(std::iter::repeat_n(Op::Read(index), times));
    }

    fn write(&mut self, times: usize, op: Op) {
        self.cycle.extend(std::iter::repeat_n(op, times));
    }

    fn shuffled(mut self, rng: &mut Rng) -> (Vec<QuerySpec>, Vec<Op>) {
        rng.shuffle(&mut self.cycle);
        (self.queries, self.cycle)
    }
}

fn items(condition: &str, ret: &str) -> String {
    format!(r#"for $i in collection("{DIST}")/Item where {condition} return {ret}"#)
}

fn count_items(condition: &str) -> String {
    format!("count({})", items(condition, "$i"))
}

/// `Code` thresholds in fixed bands with a seeded offset: result sizes
/// stay comparable across seeds while the texts differ.
fn thresholds(rng: &mut Rng) -> Vec<usize> {
    [20, 50, 100, 200, 400]
        .iter()
        .map(|base| base + rng.below(10))
        .collect()
}

/// QH1–QH8 with seeded parameters. The heavy class is the templates
/// localization cannot prune (they visit every fragment).
fn horizontal_mix(rng: &mut Rng) -> Mix {
    use Family::{Aggregate, Select, TextSearch};
    let mut mix = Mix::new();
    for (rank, section) in SECTIONS.iter().enumerate() {
        let in_section = format!(r#"$i/Section = "{section}""#);
        let word = WORDS[rank % WORDS.len()];
        mix.read(
            ZIPF[rank],
            QuerySpec::new("QH1", Select, false, items(&in_section, "$i/Name")),
        );
        mix.read(
            ZIPF[rank],
            QuerySpec::new(
                "QH4",
                Select,
                false,
                items(&format!("{in_section} and exists($i/Release)"), "$i/Code"),
            ),
        );
        mix.read(
            ZIPF[rank],
            QuerySpec::new(
                "QH6",
                TextSearch,
                false,
                items(
                    &format!(r#"{in_section} and contains($i//Description, "{word}")"#),
                    "$i/Name",
                ),
            ),
        );
        mix.read(
            ZIPF[rank],
            QuerySpec::new("QH7", Aggregate, false, count_items(&in_section)),
        );
    }
    for pair in SECTIONS.chunks(2) {
        let either = format!(
            r#"$i/Section = "{}" or $i/Section = "{}""#,
            pair[0], pair[1]
        );
        mix.read(
            2,
            QuerySpec::new("QH2", Select, false, items(&either, "$i/Code")),
        );
    }
    // 13 of the 109 operations (12 %) cannot be pruned: `op_p95_ms` falls
    // in the middle of that class, not in its tail
    for threshold in thresholds(rng) {
        let below = format!("number($i/Code) < {threshold}");
        mix.read(
            1,
            QuerySpec::new("QH3", Select, true, items(&below, "$i/Name")),
        );
    }
    for word in WORDS {
        let found = format!(r#"contains($i//Description, "{word}")"#);
        mix.read(
            1,
            QuerySpec::new("QH5", TextSearch, true, items(&found, "$i/Name")),
        );
        mix.read(
            1,
            QuerySpec::new("QH8", Aggregate, true, count_items(&found)),
        );
    }
    mix
}

fn embedded_dbs(px: &PartiX) -> Vec<Arc<Database>> {
    px.cluster()
        .nodes()
        .iter()
        .map(|n| Arc::clone(&n.db))
        .collect()
}

fn generate_items(
    bytes: usize,
    seed: u64,
    timings: &mut SetupTimings,
) -> Vec<partix_xml::Document> {
    let start = Instant::now();
    let docs = gen_items_to_size(bytes, ItemProfile::Small, seed);
    timings.generate_s = start.elapsed().as_secs_f64();
    docs
}

fn horiz_scan(seed: u64, quick: bool, log: Option<&Arc<SpanLog>>) -> Env {
    let mut timings = SetupTimings::default();
    let docs = generate_items(bytes(quick, 10_000_000), seed, &mut timings);
    let start = Instant::now();
    let px = horizontal_cluster(&docs, StorageMode::Cold);
    timings.publish_s = start.elapsed().as_secs_f64();
    if let Some(log) = log {
        wrap_embedded(&px, log);
    }
    let (queries, cycle) = horizontal_mix(&mut Rng::new(seed)).shuffled(&mut Rng::new(seed ^ 1));
    let data_dbs = embedded_dbs(&px);
    finish(Env {
        name: "horiz_scan",
        px: Arc::new(px),
        docs,
        mode: StorageMode::Cold,
        queries,
        cycle,
        data_dbs,
        remote: None,
        durable: None,
        timings,
    })
}

fn vert_join(seed: u64, quick: bool, log: Option<&Arc<SpanLog>>) -> Env {
    use Family::{Aggregate, Join, Select, TextSearch};
    let mut timings = SetupTimings::default();
    let start = Instant::now();
    // ≈4.8 KB articles; 200 of them ≈ 1 MB (a reconstruction ships and
    // joins every byte, ≈33 ms per MB on the reference host)
    let profile = ArticleProfile {
        sections: 3,
        paragraphs: 6,
        words_per_paragraph: 30,
    };
    let docs = gen_articles(if quick { 20 } else { 200 }, profile, seed);
    timings.generate_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let px = engine(3);
    let placed = [
        ("f_spine", 0),
        ("f_prolog", 0),
        ("f_body", 1),
        ("f_epilog", 2),
    ];
    for (fragment, node) in placed {
        let db = &px.cluster().node(node).expect("node exists").db;
        db.create_collection(fragment, StorageMode::Cold)
            .expect("fresh node");
    }
    let collection = CollectionDef::new(
        DIST,
        Arc::new(xbench_article()),
        path("/article"),
        RepoKind::MultipleDocuments,
    );
    let parts = ["/article/prolog", "/article/body", "/article/epilog"];
    let mut fragments = vec![FragmentDef::vertical(
        "f_spine",
        path("/article"),
        parts.map(path).to_vec(),
    )];
    for (part, (fragment, _)) in parts.iter().zip(&placed[1..]) {
        fragments.push(FragmentDef::vertical(fragment, path(part), vec![]));
    }
    let design = FragmentationSchema::new(collection, fragments).expect("valid design");
    let placements = placed
        .iter()
        .map(|(f, node)| Placement {
            fragment: (*f).into(),
            node: *node,
        })
        .collect();
    px.register_distribution(Distribution { design, placements })
        .expect("valid placement");
    px.publish(DIST, &docs).expect("publish");
    timings.publish_s = start.elapsed().as_secs_f64();
    if let Some(log) = log {
        wrap_embedded(&px, log);
    }

    let c = format!(r#"collection("{DIST}")"#);
    let mut mix = Mix::new();
    // Six single-fragment templates make 180 of the 200 operations, the
    // four that need several fragments 20: at 10 % the heavy class puts
    // `op_p95_ms` at its own median and `op_p50_ms` squarely among the
    // single-fragment queries, while still being ≈ 77 % of the time.
    let light = |mix: &mut Mix, times, template, family, text: String| {
        mix.read(times, QuerySpec::new(template, family, false, text));
    };
    let heavy = |mix: &mut Mix, times, template, text: String| {
        mix.read(times, QuerySpec::new(template, Join, true, text));
    };
    let needles = ["good", "rare lamp", "vintage", "quiet chair", "solid"];
    light(
        &mut mix,
        30,
        "QV1",
        Select,
        format!("for $t in {c}/article/prolog/title return $t"),
    );
    light(
        &mut mix,
        30,
        "QV2",
        Aggregate,
        format!("count({c}/article/prolog/authors/author)"),
    );
    light(
        &mut mix,
        30,
        "QV6",
        Aggregate,
        format!("count({c}/article/epilog/references/reference)"),
    );
    light(
        &mut mix,
        30,
        "QV9",
        Aggregate,
        format!("sum(for $e in {c}/article/epilog return number($e/word_count))"),
    );
    for genre in GENRES {
        light(
            &mut mix,
            6,
            "QV3",
            Select,
            format!(r#"for $p in {c}/article/prolog where $p/genre = "{genre}" return $p/title"#),
        );
        heavy(
            &mut mix,
            1,
            "QV4",
            format!(
                r#"for $a in {c}/article where $a/prolog/genre = "{genre}" return ($a/prolog/title, $a/epilog/country)"#
            ),
        );
    }
    for word in needles {
        light(
            &mut mix,
            6,
            "QV5",
            TextSearch,
            format!(
                r#"for $b in {c}/article/body where contains($b/abstract, "{word}") return $b/abstract"#
            ),
        );
        heavy(
            &mut mix,
            1,
            "QV7",
            format!(
                r#"for $a in {c}/article where contains($a/body/abstract, "{word}") return $a/prolog/title"#
            ),
        );
    }
    for country in COUNTRIES {
        heavy(
            &mut mix,
            1,
            "QV8",
            format!(
                r#"count(for $a in {c}/article where contains($a/prolog/title, "XML") and $a/epilog/country = "{country}" return $a)"#
            ),
        );
    }
    heavy(&mut mix, 4, "QV10", format!("count({c}//p)"));
    let (queries, cycle) = mix.shuffled(&mut Rng::new(seed ^ 1));
    let data_dbs = embedded_dbs(&px);
    finish(Env {
        name: "vert_join",
        px: Arc::new(px),
        docs,
        mode: StorageMode::Cold,
        queries,
        cycle,
        data_dbs,
        remote: None,
        durable: None,
        timings,
    })
}

fn remote_stream(seed: u64, quick: bool, log: Option<&Arc<SpanLog>>) -> Env {
    use Family::{Aggregate, Select};
    let mut timings = SetupTimings::default();
    let docs = generate_items(bytes(quick, 2_500_000), seed, &mut timings);
    let start = Instant::now();
    let px = horizontal_cluster(&docs, StorageMode::Hot);
    timings.publish_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (px, remote, data_dbs) = attach_remote(px, log);
    timings.start_s = start.elapsed().as_secs_f64();

    let mut rng = Rng::new(seed);
    let mut mix = Mix::new();
    // 80 % result-heavy: whole items of one section (0.1–0.75 MB answers)
    for (rank, section) in SECTIONS.iter().enumerate() {
        let in_section = format!(r#"$i/Section = "{section}""#);
        mix.read(
            2 * ZIPF[rank],
            QuerySpec::new("QH1", Select, true, items(&in_section, "$i")),
        );
    }
    for threshold in &thresholds(&mut rng)[3..] {
        let below = format!("number($i/Code) < {threshold}");
        mix.read(2, QuerySpec::new("QH3", Select, true, items(&below, "$i")));
    }
    // 20 % counts: one number back, the round-trip floor
    for section in &SECTIONS[..3] {
        let in_section = format!(r#"$i/Section = "{section}""#);
        mix.read(
            2,
            QuerySpec::new("QH7", Aggregate, false, count_items(&in_section)),
        );
    }
    for word in &WORDS[..2] {
        let found = format!(r#"contains($i//Description, "{word}")"#);
        mix.read(
            2,
            QuerySpec::new("QH8", Aggregate, false, count_items(&found)),
        );
    }
    mix.read(
        2,
        QuerySpec::new(
            "QH7",
            Aggregate,
            false,
            format!(r#"count(collection("{DIST}")/Item)"#),
        ),
    );
    let (queries, cycle) = mix.shuffled(&mut Rng::new(seed ^ 1));
    finish(Env {
        name: "remote_stream",
        px,
        docs,
        mode: StorageMode::Hot,
        queries,
        cycle,
        data_dbs,
        remote: Some(remote),
        durable: None,
        timings,
    })
}

/// Where WAL directories go: inside the checkout, under the benchmark's
/// ignored output directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn mixed_rw(seed: u64, quick: bool, log: Option<&Arc<SpanLog>>) -> Env {
    use Family::{Aggregate, Select};
    static SETUPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let mut timings = SetupTimings::default();
    let docs = generate_items(bytes(quick, 1_000_000), seed, &mut timings);
    let start = Instant::now();
    let px = horizontal_cluster(&docs, StorageMode::Hot);
    timings.publish_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let root = out_dir().join(format!(
        "wal-{}-{}",
        std::process::id(),
        SETUPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let durable = attach_durable(&px, &root, log);
    timings.start_s = start.elapsed().as_secs_f64();

    // 54 reads (75 %): QH1 / QH3 / QH7 templates …
    let mut mix = Mix::new();
    for (rank, section) in SECTIONS.iter().enumerate() {
        let in_section = format!(r#"$i/Section = "{section}""#);
        // written items land in every section
        let by_name = QuerySpec::new("QH1", Select, false, items(&in_section, "$i/Name"));
        let counted = QuerySpec::new("QH7", Aggregate, false, count_items(&in_section));
        mix.read(ZIPF[rank], by_name.changed_by_writes());
        mix.read(ZIPF[rank], counted.changed_by_writes());
    }
    for threshold in thresholds(&mut Rng::new(seed)) {
        let below = format!("number($i/Code) < {threshold}");
        mix.read(
            2,
            QuerySpec::new("QH3", Select, false, items(&below, "$i/Name")),
        );
    }
    // … and 18 writes (25 %): 7 put-new, 4 update, 7 delete. As many
    // deletes as puts keep the data stationary; a put-heavy mix grows it by
    // a document every nine operations, reads slow threefold within a run,
    // and a faster write path would show up as slower reads.
    mix.write(7, Op::PutNew);
    mix.write(4, Op::Update);
    mix.write(7, Op::Delete);
    let (mut queries, cycle) = mix.shuffled(&mut Rng::new(seed ^ 1));
    // the rest of the QH set is compared once the writers have stopped
    for spec in [
        QuerySpec::new(
            "QH2",
            Select,
            false,
            items(r#"$i/Section = "CD" or $i/Section = "TOY""#, "$i/Code"),
        ),
        QuerySpec::new("QH4", Select, false, items("exists($i/Release)", "$i/Code")),
        QuerySpec::new(
            "QH5",
            Family::TextSearch,
            false,
            items(r#"contains($i//Description, "good")"#, "$i/Name"),
        ),
        QuerySpec::new(
            "QH6",
            Family::TextSearch,
            false,
            items(
                r#"$i/Section = "DVD" and contains($i//Description, "online write")"#,
                "$i/Name",
            ),
        ),
        QuerySpec::new(
            "QH8",
            Aggregate,
            false,
            count_items(r#"contains($i//Description, "write")"#),
        ),
        QuerySpec::new("scan", Select, false, items("exists($i/Code)", "$i")),
    ] {
        queries.push(spec.changed_by_writes());
    }
    let data_dbs = durable.dbs.iter().map(|d| Arc::clone(d.db())).collect();
    finish(Env {
        name: "mixed_rw",
        px: Arc::new(px),
        docs,
        mode: StorageMode::Hot,
        queries,
        cycle,
        data_dbs,
        remote: None,
        durable: Some(durable),
        timings,
    })
}

fn finish(mut env: Env) -> Env {
    let start = Instant::now();
    warm_up(&env);
    env.timings.warmup_s = start.elapsed().as_secs_f64();
    env
}

pub fn build(name: &str, seed: u64, quick: bool, log: Option<&Arc<SpanLog>>) -> Option<Env> {
    let (_, _, builder) = WORKLOADS.iter().find(|w| w.0 == name)?;
    Some(builder(seed, quick, log))
}
