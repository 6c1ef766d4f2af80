//! The storage experiment: hot vs cold collections over two document
//! classes (≈80 KB items, ≈5 MB bulk documents), isolating what the
//! arena page format and the Dewey-labeled value index buy on the cold
//! path.
//!
//! Three configurations run the same workload on the same corpus:
//!
//! * `hot` — documents held as arenas (the in-memory ceiling);
//! * `cold_indexed` — binary pages read in place, value/path indexes on:
//!   equality predicates are pre-filtered from the index and only
//!   candidate pages are touched;
//! * `cold_scan` — binary pages, every index off: each query walks the
//!   entire collection (before pages were read in place it also decoded
//!   every page, which is what this configuration used to measure).
//!
//! The correctness gate is `identical`: every configuration must
//! serialize byte-identical answers (hot is the oracle). Speedups are
//! reported, not gated — they depend on selectivity and host speed.
//!
//! A separate decode microbench times the legacy varint format (PXB1,
//! decoded into an arena), the arena format (PXB2: one copy of the page,
//! validated and adopted) and validation alone over the same corpus.
//! Results land in `BENCH_storage.json`.

use crate::output::json;
use partix_gen::{gen_items, ItemProfile, SECTIONS};
use partix_storage::{Database, StorageMode};
use partix_xml::{binary, Document, NodeId, PageView};
use std::hint::black_box;
use std::time::Instant;

/// Knobs for the storage experiment.
#[derive(Debug, Clone)]
pub struct StorageBenchConfig {
    /// Documents in the ≈80 KB item class.
    pub small_docs: usize,
    /// Documents in the bulk class.
    pub big_docs: usize,
    /// Target size of each bulk-class document in bytes.
    pub big_doc_bytes: usize,
    /// Timed repetitions after the discarded warm-up.
    pub reps: usize,
}

impl Default for StorageBenchConfig {
    fn default() -> Self {
        StorageBenchConfig {
            small_docs: 24,
            big_docs: 12,
            big_doc_bytes: 5 * 1_048_576,
            reps: 2,
        }
    }
}

/// One query under one configuration.
#[derive(Debug, Clone)]
pub struct ConfigTiming {
    pub config: &'static str,
    pub ms: f64,
    /// Serialized answer, compared against the hot oracle.
    pub identical: bool,
}

/// One query's measurements across all configurations.
#[derive(Debug, Clone)]
pub struct StorageQueryResult {
    pub id: &'static str,
    pub timings: Vec<ConfigTiming>,
    /// `cold_scan / cold_indexed` — what the index prefilter buys on
    /// the cold path.
    pub cold_speedup: f64,
}

/// Per-format decode cost over one class's pages.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    /// Legacy varint decode (PXB1), total ms per repetition.
    pub v1_ms: f64,
    /// PXB2 decode (copy the page, validate, adopt), total ms per repetition.
    pub v2_ms: f64,
    /// Validation only (`PageView::parse`).
    pub view_ms: f64,
    pub v1_over_v2: f64,
    pub v1_over_view: f64,
}

/// One document class's full result.
#[derive(Debug, Clone)]
pub struct StorageClassResult {
    pub class: &'static str,
    pub docs: usize,
    pub total_bytes: usize,
    pub queries: Vec<StorageQueryResult>,
    pub decode: DecodeResult,
}

/// The ≈80 KB class: generated large items (weighted sections).
fn small_class(config: &StorageBenchConfig) -> Vec<Document> {
    gen_items(config.small_docs, ItemProfile::Large, 0xA11CE)
}

/// The bulk class: node-rich documents padded to `big_doc_bytes` with
/// ≈2 KB paragraph elements, sections assigned round-robin so the
/// selection query below matches exactly one document in twelve.
fn big_class(config: &StorageBenchConfig) -> Vec<Document> {
    (0..config.big_docs)
        .map(|i| {
            let mut doc = Document::new("Item");
            let root = NodeId::ROOT;
            let s = doc.add_element(root, "Section");
            doc.add_text(s, SECTIONS[i % SECTIONS.len()]);
            let n = doc.add_element(root, "Name");
            doc.add_text(n, &format!("bulk item {i}"));
            let c = doc.add_element(root, "Code");
            doc.add_text(c, &i.to_string());
            let d = doc.add_element(root, "Description");
            let chunk = format!("paragraph {i} of a large stored document; ")
                .repeat(48);
            let mut written = 0;
            while written < config.big_doc_bytes {
                let p = doc.add_element(d, "P");
                doc.add_text(p, &chunk);
                written += chunk.len();
            }
            doc
        })
        .collect()
}

/// The workload. The selection's predicate value is per-class: the
/// rarest generated section for items, the round-robin tail for bulk —
/// both make `cold_indexed` decode a small fraction of the collection.
fn workload(selective_section: &str) -> Vec<(&'static str, String)> {
    let c = r#"collection("items")"#;
    vec![
        (
            "selection",
            format!(r#"for $i in {c}/Item where $i/Section = "{selective_section}" return $i/Name"#),
        ),
        (
            "aggregation",
            format!("sum(for $i in {c}/Item return number($i/Code))"),
        ),
    ]
}

fn build_db(docs: &[Document], mode: StorageMode, indexed: bool) -> Database {
    let db = Database::new();
    db.create_collection("items", mode).expect("fresh db");
    db.store_all("items", docs.iter().cloned());
    db.set_index_enabled(indexed);
    db.set_value_index_enabled(indexed);
    db
}

fn timed(db: &Database, query: &str, reps: usize) -> (f64, String) {
    let answer = db.execute(query).expect("warm-up").serialize();
    let start = Instant::now();
    for _ in 0..reps.max(1) {
        black_box(db.execute(query).expect("timed run"));
    }
    (start.elapsed().as_secs_f64() / reps.max(1) as f64, answer)
}

fn run_class(
    class: &'static str,
    docs: Vec<Document>,
    selective_section: &str,
    reps: usize,
) -> StorageClassResult {
    let total_bytes: usize = docs.iter().map(Document::approx_size).sum();
    let configs: Vec<(&'static str, Database)> = vec![
        ("hot", build_db(&docs, StorageMode::Hot, true)),
        ("cold_indexed", build_db(&docs, StorageMode::Cold, true)),
        ("cold_scan", build_db(&docs, StorageMode::Cold, false)),
    ];
    println!(
        "-- class {class}: {} docs, {} total, {} rep(s)",
        docs.len(),
        crate::output::human_bytes(total_bytes),
        reps,
    );
    let mut queries = Vec::new();
    for (id, query) in workload(selective_section) {
        let mut timings: Vec<ConfigTiming> = Vec::new();
        let mut oracle = String::new();
        for (config, db) in &configs {
            let (secs, answer) = timed(db, &query, reps);
            if *config == "hot" {
                oracle = answer.clone();
            }
            timings.push(ConfigTiming {
                config,
                ms: secs * 1e3,
                identical: answer == oracle,
            });
        }
        let ms_of = |c: &str| {
            timings.iter().find(|t| t.config == c).expect("config ran").ms
        };
        let cold_speedup = ms_of("cold_scan") / ms_of("cold_indexed").max(1e-9);
        print!("   {id:<12}");
        for t in &timings {
            print!(" {}={:.3}ms", t.config, t.ms);
        }
        println!(" → prefilter {cold_speedup:.1}x, identical {}",
            timings.iter().all(|t| t.identical));
        queries.push(StorageQueryResult { id, timings, cold_speedup });
    }
    let decode = decode_bench(&docs, reps);
    println!(
        "   decode       v1={:.3}ms v2={:.3}ms view={:.3}ms → v2 {:.1}x, view {:.1}x",
        decode.v1_ms, decode.v2_ms, decode.view_ms, decode.v1_over_v2, decode.v1_over_view,
    );
    StorageClassResult { class, docs: docs.len(), total_bytes, queries, decode }
}

/// Decode microbench: the same corpus encoded in both page formats,
/// each decoded end-to-end; the view row only validates.
fn decode_bench(docs: &[Document], reps: usize) -> DecodeResult {
    let v1_pages: Vec<_> = docs.iter().map(binary::encode_v1).collect();
    let v2_pages: Vec<_> = docs.iter().map(binary::encode).collect();
    let time = |f: &dyn Fn()| {
        f(); // warm-up
        let start = Instant::now();
        for _ in 0..reps.max(1) {
            f();
        }
        start.elapsed().as_secs_f64() * 1e3 / reps.max(1) as f64
    };
    let v1_ms = time(&|| {
        for p in &v1_pages {
            black_box(binary::decode(p).expect("v1 page"));
        }
    });
    let v2_ms = time(&|| {
        for p in &v2_pages {
            black_box(binary::decode(p).expect("v2 page"));
        }
    });
    let view_ms = time(&|| {
        for p in &v2_pages {
            black_box(PageView::parse(p).expect("v2 page"));
        }
    });
    DecodeResult {
        v1_ms,
        v2_ms,
        view_ms,
        v1_over_v2: v1_ms / v2_ms.max(1e-9),
        v1_over_view: v1_ms / view_ms.max(1e-9),
    }
}

/// Run the experiment over both classes.
pub fn run_with(config: &StorageBenchConfig) -> Vec<StorageClassResult> {
    println!("\n### storage: hot vs cold-indexed vs cold-scan, arena page formats");
    // weights in SECTION_WEIGHTS make the last section the rarest
    let rare = SECTIONS[SECTIONS.len() - 1];
    vec![
        run_class("items-80k", small_class(config), rare, config.reps),
        run_class("bulk-5m", big_class(config), SECTIONS[SECTIONS.len() - 1], config.reps),
    ]
}

/// The `BENCH_storage.json` document.
pub fn to_json(config: &StorageBenchConfig, classes: &[StorageClassResult]) -> String {
    let mut out = String::with_capacity(2048);
    out.push('{');
    json::str_field(&mut out, "experiment", "storage");
    json::num_field(&mut out, "small_docs", config.small_docs as f64);
    json::num_field(&mut out, "big_docs", config.big_docs as f64);
    json::num_field(&mut out, "big_doc_bytes", config.big_doc_bytes as f64);
    json::num_field(&mut out, "reps", config.reps as f64);
    let class_objs: Vec<String> = classes
        .iter()
        .map(|c| {
            let mut o = String::with_capacity(512);
            o.push('{');
            json::str_field(&mut o, "class", c.class);
            json::num_field(&mut o, "docs", c.docs as f64);
            json::num_field(&mut o, "total_bytes", c.total_bytes as f64);
            let queries: Vec<String> = c
                .queries
                .iter()
                .map(|q| {
                    let mut qo = String::with_capacity(256);
                    qo.push('{');
                    json::str_field(&mut qo, "id", q.id);
                    for t in &q.timings {
                        json::num_field(&mut qo, &format!("{}_ms", t.config), t.ms);
                    }
                    json::num_field(&mut qo, "cold_speedup", q.cold_speedup);
                    json::bool_field(
                        &mut qo,
                        "identical",
                        q.timings.iter().all(|t| t.identical),
                    );
                    qo.push('}');
                    qo
                })
                .collect();
            json::raw_field(&mut o, "queries", &format!("[{}]", queries.join(",")));
            let mut d = String::with_capacity(128);
            d.push('{');
            json::num_field(&mut d, "v1_ms", c.decode.v1_ms);
            json::num_field(&mut d, "v2_ms", c.decode.v2_ms);
            json::num_field(&mut d, "view_ms", c.decode.view_ms);
            json::num_field(&mut d, "v1_over_v2", c.decode.v1_over_v2);
            json::num_field(&mut d, "v1_over_view", c.decode.v1_over_view);
            d.push('}');
            json::raw_field(&mut o, "decode", &d);
            o.push('}');
            o
        })
        .collect();
    json::raw_field(&mut out, "classes", &format!("[{}]", class_objs.join(",")));
    // headline: what the index prefilter buys a cold selection on the
    // bulk class, and what the arena format buys a full decode
    let cold_speedup = classes
        .iter()
        .filter(|c| c.class == "bulk-5m")
        .flat_map(|c| c.queries.iter())
        .filter(|q| q.id == "selection")
        .map(|q| q.cold_speedup)
        .fold(0.0f64, f64::max);
    let decode_speedup = classes
        .iter()
        .map(|c| c.decode.v1_over_v2)
        .fold(0.0f64, f64::max);
    json::num_field(&mut out, "cold_selection_speedup", cold_speedup);
    json::num_field(&mut out, "decode_speedup", decode_speedup);
    json::bool_field(
        &mut out,
        "identical",
        classes
            .iter()
            .flat_map(|c| c.queries.iter())
            .all(|q| q.timings.iter().all(|t| t.identical)),
    );
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_bench_smoke() {
        let config = StorageBenchConfig {
            small_docs: 6,
            big_docs: 4,
            big_doc_bytes: 64 * 1024,
            reps: 1,
        };
        let classes = run_with(&config);
        assert_eq!(classes.len(), 2);
        for c in &classes {
            assert_eq!(c.queries.len(), 2);
            for q in &c.queries {
                assert!(
                    q.timings.iter().all(|t| t.identical),
                    "{}/{}: answers diverged",
                    c.class,
                    q.id
                );
            }
            assert!(c.decode.v1_ms > 0.0 && c.decode.v2_ms > 0.0);
        }
        let json = to_json(&config, &classes);
        for field in [
            "\"experiment\":\"storage\"",
            "\"class\":\"items-80k\"",
            "\"class\":\"bulk-5m\"",
            "\"hot_ms\":",
            "\"cold_indexed_ms\":",
            "\"cold_scan_ms\":",
            "\"cold_speedup\":",
            "\"v1_over_v2\":",
            "\"cold_selection_speedup\":",
            "\"decode_speedup\":",
            "\"identical\":true",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }
}
