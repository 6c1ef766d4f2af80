//! Morsel differential suite: intra-fragment parallel execution must be
//! **invisible** except for speed. Every query family runs against the
//! same database twice — once with the morsel scan forced on (several
//! workers, one-document morsels) and once forced sequential — and the
//! serialized answers must be byte-identical, including document order,
//! duplicate sort keys under `order by`, and the reported scan
//! statistics. The distributed variant re-runs the paper workload with
//! morsels enabled on every node of a fragmented cluster against the
//! centralized oracle, and a proptest block fuzzes corpus size and
//! morsel geometry.
//!
//! `PARTIX_PROPTEST_CASES` overrides the proptest case count.

use partix::gen::{gen_items, ItemProfile};
use partix::storage::{Database, MorselConfig, StorageMode};
use partix::xml::Document;
use partix_bench::oracle::canonical;
use partix_bench::{queries, setup};
use proptest::prelude::*;

/// Morsel geometry that forces the parallel path even for tiny
/// collections (the CI host may have a single core, so the default
/// config would resolve to sequential execution).
const PARALLEL: MorselConfig = MorselConfig { max_workers: 4, min_docs: 1 };
/// One worker disables the morsel path entirely.
const SEQUENTIAL: MorselConfig = MorselConfig { max_workers: 1, min_docs: 1 };

/// Query families over the items corpus. The flag says whether the
/// planner should decompose the query into morsels (`true`) or fall
/// back to the sequential evaluator (`false`).
fn families() -> Vec<(&'static str, String, bool)> {
    let c = |q: &str| q.replace("$C", r#"collection("items")"#);
    vec![
        ("path-scan", c("$C/Item/Code"), true),
        ("deep-path", c("$C/Item//Description"), true),
        (
            "selection",
            c(r#"for $i in $C/Item where $i/Section = "CD" return $i/Name"#),
            true,
        ),
        (
            "contains",
            c(r#"for $i in $C/Item where contains($i//Description, "good") return $i/Code"#),
            true,
        ),
        (
            "exists",
            c(r#"for $i in $C/Item where exists($i/Release) return $i/Code"#),
            true,
        ),
        (
            "numeric-filter",
            c(r#"for $i in $C/Item where number($i/Code) < 20 return $i/Name"#),
            true,
        ),
        ("count", c(r#"count(for $i in $C/Item where $i/Section = "BOOK" return $i)"#), true),
        ("sum", c("sum(for $i in $C/Item return number($i/Code))"), true),
        ("min", c("min(for $i in $C/Item return number($i/Code))"), true),
        ("max", c("max(for $i in $C/Item return number($i/Code))"), true),
        ("avg", c("avg(for $i in $C/Item return number($i/Code))"), true),
        (
            "order-asc",
            c("for $i in $C/Item order by $i/Section return $i/Code"),
            true,
        ),
        (
            "order-desc",
            c("for $i in $C/Item order by $i/Section descending return $i/Code"),
            true,
        ),
        (
            "construct",
            c(r#"for $i in $C/Item where $i/Section = "DVD"
                 return <hit>{$i/Code}</hit>"#),
            true,
        ),
        // non-decomposable shapes: must stay sequential and still agree
        (
            "let-bound",
            c("let $all := $C/Item return count($all)"),
            false,
        ),
        (
            "self-join",
            c(
                r#"for $a in $C/Item
                   for $b in $C/Item
                   where $a/Code = $b/Code and $a/Section = "CD"
                   return $a/Code"#,
            ),
            false,
        ),
    ]
}

fn corpus(n: usize) -> Vec<Document> {
    gen_items(n, ItemProfile::Small, 0x5EED)
}

fn db_with(docs: &[Document], mode: StorageMode, config: MorselConfig) -> Database {
    let db = Database::new();
    db.create_collection("items", mode).unwrap();
    db.store_all("items", docs.iter().cloned());
    db.set_morsel_config(config);
    db
}

/// Morsel-split ≡ sequential in every storage configuration, and the
/// configurations agree with each other: hot, cold with the text and
/// value indexes on, and cold with every index off (a full scan of pages
/// read in place) serialize the same answer for every family.
#[test]
fn every_family_matches_sequential_hot_and_cold() {
    let docs = corpus(48);
    let mut hot_answers: Vec<String> = Vec::new();
    for (mode, indexed) in
        [(StorageMode::Hot, true), (StorageMode::Cold, true), (StorageMode::Cold, false)]
    {
        let par = db_with(&docs, mode, PARALLEL);
        let seq = db_with(&docs, mode, SEQUENTIAL);
        for db in [&par, &seq] {
            db.set_index_enabled(indexed);
            db.set_value_index_enabled(indexed);
        }
        for (n, (id, query, decomposable)) in families().into_iter().enumerate() {
            let a = par.execute(&query).unwrap_or_else(|e| panic!("{id} parallel: {e}"));
            let b = seq.execute(&query).unwrap_or_else(|e| panic!("{id} sequential: {e}"));
            // exact, order-preserving equality — not canonicalized
            assert_eq!(a.serialize(), b.serialize(), "{id} ({mode:?}): answers diverge");
            if decomposable {
                assert!(a.stats.morsels >= 2, "{id} ({mode:?}): expected morsel path");
            } else {
                assert_eq!(a.stats.morsels, 0, "{id} ({mode:?}): expected fallback");
            }
            assert_eq!(b.stats.morsels, 0, "{id}: sequential config must not split");
            assert_eq!(a.stats.docs_scanned, b.stats.docs_scanned, "{id}: stats diverge");
            assert_eq!(a.stats.collection_size, b.stats.collection_size, "{id}");
            assert!(indexed || !b.stats.index_used, "{id}: an index answered with indexes off");
            match hot_answers.get(n) {
                None => hot_answers.push(b.serialize()),
                Some(hot) => assert_eq!(
                    &b.serialize(),
                    hot,
                    "{id} ({mode:?}, indexes {indexed}): differs from hot"
                ),
            }
        }
    }
}

#[test]
fn duplicate_sort_keys_keep_document_order_across_morsel_counts() {
    // Section has only a handful of distinct values over 30 documents,
    // so ties abound: a stable global sort must reproduce exactly the
    // sequential tie order for every morsel geometry.
    let docs = corpus(30);
    let seq = db_with(&docs, StorageMode::Hot, SEQUENTIAL);
    let query = r#"for $i in collection("items")/Item
                   order by $i/Section return $i/Code"#;
    let oracle = seq.execute(query).unwrap().serialize();
    for max_workers in [2, 3, 4, 8] {
        for min_docs in [1, 2, 7] {
            let par = db_with(&docs, StorageMode::Hot, MorselConfig { max_workers, min_docs });
            let out = par.execute(query).unwrap();
            assert_eq!(
                out.serialize(),
                oracle,
                "tie order broke at workers={max_workers} min_docs={min_docs}",
            );
        }
    }
}

#[test]
fn distributed_morsels_match_centralized_oracle() {
    let docs = setup::quick_items(80);
    let px = setup::horizontal(&docs, 4);
    px.cluster().set_morsel_config(PARALLEL);
    let oracle = setup::horizontal(&docs, 4); // defaults: sequential scans
    let central = |q: &str| {
        q.replace(
            &format!("collection(\"{}\")", setup::DIST),
            &format!("collection(\"{}\")", setup::CENTRAL),
        )
    };
    let mut morsel_sites = 0usize;
    for (id, query) in queries::horizontal(setup::DIST) {
        let dist = px.execute(&query).unwrap_or_else(|e| panic!("{id} morsels: {e}"));
        let cent = oracle
            .execute_centralized(0, &central(&query))
            .unwrap_or_else(|e| panic!("{id} centralized: {e}"));
        assert_eq!(
            canonical(&dist.items),
            canonical(&cent.items),
            "{id}: morsel-parallel cluster diverges from the oracle",
        );
        morsel_sites += dist.report.sites.iter().filter(|s| s.morsels > 0).count();
    }
    // the per-site morsel counts must surface in the reports: the
    // workload scans 20-document fragments with 1-document morsels, so
    // plenty of sub-queries must have split
    assert!(morsel_sites > 0, "no site ever reported a morsel split");
}

#[test]
fn site_reports_render_morsel_counts() {
    let docs = setup::quick_items(40);
    let px = setup::horizontal(&docs, 2);
    px.cluster().set_morsel_config(PARALLEL);
    let query = format!(
        r#"for $i in collection("{}")/Item where $i/Section = "CD" return $i/Name"#,
        setup::DIST,
    );
    let result = px.execute(&query).unwrap();
    let split: usize = result.report.sites.iter().map(|s| s.morsels).sum();
    assert!(split >= 2, "expected morsel splits in the site reports");
    assert!(
        result.report.to_string().contains("morsels"),
        "report display must mention the morsel split:\n{}",
        result.report,
    );
}

proptest! {
    #![proptest_config(cases(16))]

    /// Random corpus size × random morsel geometry × every family:
    /// parallel and sequential answers are byte-identical.
    #[test]
    fn random_geometry_matches_sequential(
        n in 1usize..40,
        max_workers in 2usize..6,
        min_docs in 1usize..8,
        family in 0usize..16,
    ) {
        let fams = families();
        let (id, query, _) = &fams[family % fams.len()];
        let docs = corpus(n);
        let par = db_with(&docs, StorageMode::Hot, MorselConfig { max_workers, min_docs });
        let seq = db_with(&docs, StorageMode::Hot, SEQUENTIAL);
        let a = par.execute(query).unwrap_or_else(|e| panic!("{id} parallel: {e}"));
        let b = seq.execute(query).unwrap_or_else(|e| panic!("{id} sequential: {e}"));
        prop_assert_eq!(a.serialize(), b.serialize(), "{} diverged", id);
        prop_assert_eq!(a.stats.docs_scanned, b.stats.docs_scanned);
    }
}

/// Per-block case budget, overridable with `PARTIX_PROPTEST_CASES`.
fn cases(default_cases: u32) -> ProptestConfig {
    std::env::var("PARTIX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(ProptestConfig::with_cases)
        .unwrap_or_else(|| ProptestConfig::with_cases(default_cases))
}
