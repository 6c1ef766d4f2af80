//! Storage differential suite: how a collection is stored and indexed must
//! be **invisible** except for speed. Every query family runs against the
//! same documents held hot, cold with the path and text indexes on, and
//! cold with every index off (a full scan of pages read in place); the
//! serialized answers must be byte-identical to each other and to the
//! evaluator over an in-memory provider, including document order and
//! duplicate sort keys under `order by`. The distributed variant re-runs
//! the paper workload on a fragmented cluster against the centralized
//! oracle.

mod common;

use common::{assert_answers, On, Route};
use partix::gen::{gen_items, ItemProfile};
use partix::query::{func::serialize_sequence, parse_query, Evaluator, MemProvider};
use partix::storage::{Database, StorageMode};
use partix_bench::{queries, setup};

/// Query families over the items corpus: selections, aggregates, ordered
/// FLWORs with many ties (`Section` has a handful of values), element
/// construction, and shapes that read the collection twice.
fn families() -> Vec<(&'static str, String)> {
    let c = |q: &str| q.replace("$C", r#"collection("items")"#);
    vec![
        ("path-scan", c("$C/Item/Code")),
        ("deep-path", c("$C/Item//Description")),
        (
            "selection",
            c(r#"for $i in $C/Item where $i/Section = "CD" return $i/Name"#),
        ),
        (
            "contains",
            c(r#"for $i in $C/Item where contains($i//Description, "good") return $i/Code"#),
        ),
        (
            "exists",
            c(r#"for $i in $C/Item where exists($i/Release) return $i/Code"#),
        ),
        (
            "numeric-filter",
            c(r#"for $i in $C/Item where number($i/Code) < 20 return $i/Name"#),
        ),
        (
            "count",
            c(r#"count(for $i in $C/Item where $i/Section = "BOOK" return $i)"#),
        ),
        ("sum", c("sum(for $i in $C/Item return number($i/Code))")),
        ("min", c("min(for $i in $C/Item return number($i/Code))")),
        ("max", c("max(for $i in $C/Item return number($i/Code))")),
        ("avg", c("avg(for $i in $C/Item return number($i/Code))")),
        (
            "order-asc",
            c("for $i in $C/Item order by $i/Section return $i/Code"),
        ),
        (
            "order-desc",
            c("for $i in $C/Item order by $i/Section descending return $i/Code"),
        ),
        (
            "construct",
            c(r#"for $i in $C/Item where $i/Section = "DVD"
                 return <hit>{$i/Code}</hit>"#),
        ),
        ("let-bound", c("let $all := $C/Item return count($all)")),
        (
            "self-join",
            c(r#"for $a in $C/Item
                 for $b in $C/Item
                 where $a/Code = $b/Code and $a/Section = "CD"
                 return $a/Code"#),
        ),
    ]
}

/// Hot ≡ cold-indexed ≡ cold-scan ≡ the evaluator over a `MemProvider`,
/// exactly and in order, for every family.
#[test]
fn every_family_matches_the_evaluator_hot_and_cold() {
    let docs = gen_items(48, ItemProfile::Small, 0x5EED);
    let mut provider = MemProvider::new();
    provider.add_collection("items", docs.iter().cloned());
    for (mode, indexed) in [
        (StorageMode::Hot, true),
        (StorageMode::Cold, true),
        (StorageMode::Cold, false),
    ] {
        let db = Database::new();
        db.create_collection("items", mode).unwrap();
        db.store_all("items", docs.iter().cloned());
        db.set_index_enabled(indexed);
        for (id, query) in families() {
            let expected = Evaluator::new(&provider)
                .eval(&parse_query(&query).unwrap())
                .unwrap_or_else(|e| panic!("{id} evaluator: {e}"));
            let out = db
                .execute(&query)
                .unwrap_or_else(|e| panic!("{id} ({mode:?}): {e}"));
            // exact, order-preserving equality — not canonicalized
            assert_eq!(
                out.serialize(),
                serialize_sequence(&expected),
                "{id} ({mode:?}, indexes {indexed}): differs from the evaluator"
            );
            assert!(
                indexed || !out.stats.index_used,
                "{id}: an index answered with indexes off"
            );
            assert_eq!(out.stats.morsels, 0, "{id}: a scan is never split");
        }
    }
}

#[test]
fn distributed_matches_centralized_oracle() {
    let on = On::new(setup::horizontal(&setup::quick_items(80), 4), Route::Buffered);
    assert_answers(&on, &queries::horizontal(setup::DIST), "hor4");
}
