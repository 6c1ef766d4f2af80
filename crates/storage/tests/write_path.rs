//! Write-path regression tests: name-map lookups at scale, tombstoned
//! deletes with deferred compaction, and value-index soundness for the
//! shapes that used to be wrongly excluded (mixed content and empty
//! elements).

use partix_query::{CollectionProvider, Item};
use partix_storage::{Database, StorageMode};
use partix_xml::parse;

fn named(xml: &str, name: &str) -> partix_xml::Document {
    let mut d = parse(xml).unwrap();
    d.name = Some(name.to_owned());
    d
}

fn count(db: &Database, query: &str) -> f64 {
    match db.execute(&format!("count({query})")).unwrap().items[0] {
        Item::Num(n) => n,
        ref other => panic!("expected count, got {other:?}"),
    }
}

/// 10k named puts then 10k deletes. With the old O(slots) name scan and
/// the O(collection) index rebuild per delete this is quadratic in both
/// directions; with the name map and tombstones it's near-linear and
/// finishes instantly.
#[test]
fn ten_k_put_delete_churn() {
    for mode in [StorageMode::Hot, StorageMode::Cold] {
        let db = Database::new();
        db.create_collection("c", mode).unwrap();
        for i in 0..10_000 {
            db.put_doc("c", named(&format!("<Item><N>{i}</N></Item>"), &format!("d{i}")));
        }
        assert_eq!(db.collection_len("c").unwrap(), 10_000);
        // upserts replace, never duplicate
        for i in 0..100 {
            assert!(db.put_doc("c", named("<Item><N>x</N></Item>", &format!("d{i}"))));
        }
        assert_eq!(db.collection_len("c").unwrap(), 10_000);
        assert_eq!(db.document("d7777").unwrap().name.as_deref(), Some("d7777"));
        for i in 0..10_000 {
            assert!(db.delete_doc("c", &format!("d{i}")), "delete d{i} ({mode:?})");
        }
        assert_eq!(db.collection_len("c").unwrap(), 0);
        assert!(!db.delete_doc("c", "d0"), "deletes are idempotent");
        // slots are reusable after full churn
        db.put_doc("c", named("<Item><N>back</N></Item>", "again"));
        assert_eq!(db.collection_len("c").unwrap(), 1);
        assert_eq!(db.document("again").unwrap().root().text(), "back");
    }
}

/// Deleting most of a collection crosses the compaction threshold;
/// probes, fetches, and full scans must agree with a freshly-built
/// collection throughout.
#[test]
fn tombstones_and_compaction_keep_probes_correct() {
    for mode in [StorageMode::Hot, StorageMode::Cold] {
        let db = Database::new();
        db.set_value_index_enabled(true);
        db.create_collection("items", mode).unwrap();
        let sections = ["CD", "DVD", "Book"];
        for i in 0..300 {
            let s = sections[i % 3];
            db.store("items", named(&format!("<Item><Section>{s}</Section></Item>"), &format!("n{i}")));
        }
        // delete everything but i % 3 == 0 (the CD docs): 200 deletes,
        // far past the 64-tombstone compaction floor
        for i in 0..300 {
            if i % 3 != 0 {
                assert!(db.delete_doc("items", &format!("n{i}")));
            }
        }
        assert_eq!(db.collection_len("items").unwrap(), 100);
        let q = |v: &str| {
            format!(r#"for $i in collection("items")/Item where $i/Section = "{v}" return $i"#)
        };
        assert_eq!(count(&db, &q("CD")), 100.0, "mode {mode:?}");
        assert_eq!(count(&db, &q("DVD")), 0.0, "mode {mode:?}");
        // survivors fetch by name and keep their content
        assert_eq!(db.document("n0").unwrap().root().text(), "CD");
        assert!(db.document("n1").is_err());
        // interleave fresh inserts with the compacted slots
        for i in 0..50 {
            db.put_doc("items", named("<Item><Section>Vinyl</Section></Item>", &format!("v{i}")));
        }
        assert_eq!(count(&db, &q("Vinyl")), 50.0, "mode {mode:?}");
        assert_eq!(count(&db, &q("CD")), 100.0, "mode {mode:?}");
    }
}

/// Duplicate names: the first stored document wins lookups, and deletes
/// peel them off in insertion order — exactly the old linear-scan
/// behaviour, now served from the name map.
#[test]
fn duplicate_names_resolve_in_insertion_order() {
    let db = Database::new();
    db.create_collection("c", StorageMode::Hot).unwrap();
    db.store("c", named("<A>first</A>", "dup"));
    db.store("c", named("<A>second</A>", "dup"));
    assert_eq!(db.document("dup").unwrap().root().text(), "first");
    assert!(db.delete_doc("c", "dup"));
    assert_eq!(db.document("dup").unwrap().root().text(), "second");
    assert!(db.delete_doc("c", "dup"));
    assert!(db.document("dup").is_err());
}

/// Mixed-content elements (`<Section><b>C</b>D</Section>` has
/// string-value "CD") and empty elements (`<Section/>` has string-value
/// "") must stay reachable through equality predicates when the value
/// index is on — both used to be wrongly excluded by authoritative
/// index misses.
#[test]
fn value_index_is_sound_for_mixed_and_empty_content() {
    for mode in [StorageMode::Hot, StorageMode::Cold] {
        let db = Database::new();
        db.set_value_index_enabled(true);
        db.create_collection("items", mode).unwrap();
        db.store("items", named("<Item><Section>CD</Section></Item>", "plain"));
        db.store("items", named("<Item><Section><b>C</b>D</Section></Item>", "mixed"));
        db.store("items", named("<Item><Section/></Item>", "empty"));
        db.store("items", named("<Item><Section>DVD</Section></Item>", "other"));

        let q = |v: &str| {
            format!(r#"for $i in collection("items")/Item where $i/Section = "{v}" return $i"#)
        };
        // plain + mixed both have string-value "CD"
        assert_eq!(count(&db, &q("CD")), 2.0, "mode {mode:?}");
        // the empty element matches the empty string
        assert_eq!(count(&db, &q("")), 1.0, "mode {mode:?}");
        assert_eq!(count(&db, &q("DVD")), 1.0, "mode {mode:?}");
        assert_eq!(count(&db, &q("Tape")), 0.0, "mode {mode:?}");

        // the oracle: same queries with every index off
        db.set_value_index_enabled(false);
        db.set_index_enabled(false);
        assert_eq!(count(&db, &q("CD")), 2.0, "unindexed oracle, mode {mode:?}");
        assert_eq!(count(&db, &q("")), 1.0, "unindexed oracle, mode {mode:?}");
    }
}

/// Morsel-parallel reads racing deletes and updates: a morsel read must
/// see the collection as of its candidate snapshot. Morsels used to
/// carry slot numbers and re-lock the collection to fetch them, so a
/// slot tombstoned in between panicked the morsel worker ("live slot")
/// and the query failed — and a compaction in between could have handed
/// it the wrong document.
#[test]
fn morsel_reads_survive_concurrent_deletes_and_updates() {
    use partix_storage::MorselConfig;
    use std::sync::atomic::{AtomicBool, Ordering};

    const DOCS: usize = 256;
    let doc = |i: usize, v: usize| named(&format!("<Item><N>{i}</N><V>{v}</V></Item>"), &format!("d{i}"));
    for mode in [StorageMode::Hot, StorageMode::Cold] {
        let db = Database::new();
        db.create_collection("c", mode).unwrap();
        db.set_morsel_config(MorselConfig { max_workers: 4, min_docs: 4 });
        for i in 0..DOCS {
            db.put_doc("c", doc(i, 0));
        }
        let readers_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                // delete and re-put the odd documents, update the even
                // ones in place, until the readers are through; enough
                // churn to cross the compaction threshold repeatedly
                let mut round = 0;
                while !readers_done.load(Ordering::Acquire) {
                    round += 1;
                    for i in (1..DOCS).step_by(2) {
                        db.delete_doc("c", &format!("d{i}"));
                    }
                    for i in 0..DOCS {
                        db.put_doc("c", doc(i, round));
                    }
                }
            });
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut split = 0;
                        for _ in 0..300 {
                            let out = db
                                .execute(r#"for $i in collection("c")/Item return $i/N"#)
                                .expect("a read racing writers must still answer");
                            // the even documents are never deleted
                            assert!(out.items.len() >= DOCS / 2, "{} items", out.items.len());
                            split += usize::from(out.stats.morsels >= 2);
                        }
                        split
                    })
                })
                .collect();
            // release the writer before reporting a failed reader
            let reads: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
            readers_done.store(true, Ordering::Release);
            writer.join().unwrap();
            let split: usize = reads.into_iter().map(|r| r.expect("reader thread")).sum();
            assert!(split > 0, "{mode:?}: no read took the morsel path");
        });
    }
}
