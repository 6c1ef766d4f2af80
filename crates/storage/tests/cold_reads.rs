//! A read of a cold collection converts nothing: documents stay backed by
//! their pages through `execute`, whole
//! collection fetches, name lookups, filtered fetches and a save.
//!
//! A test binary of its own: the page → arena conversion counter is
//! process-wide, and sibling tests (hot inserts of pages, WAL replay into
//! hot collections) convert legitimately.

use partix_query::CollectionProvider;
use partix_storage::{Database, StorageMode};
use partix_xml::{binary, parse, to_string};

#[test]
fn cold_reads_never_convert() {
    let db = Database::new();
    db.create_collection("items", StorageMode::Cold).unwrap();
    let docs: Vec<_> = (0..200)
        .map(|i| {
            let xml = format!(
                "<Item id=\"{i}\"><Code>{i}</Code><Section>{}</Section>\
                 <Characteristics><Description>{} item {i}</Description>\
                 </Characteristics></Item>",
                ["CD", "DVD", "BOOK"][i % 3],
                if i % 4 == 0 { "good" } else { "plain" },
            );
            let mut doc = parse(&xml).unwrap();
            doc.name = Some(format!("d{i}"));
            doc
        })
        .collect();
    // half arrive as documents, half as pages (the persist / wire path)
    db.store_all("items", docs[..100].iter().cloned());
    db.store_pages("items", docs[100..].iter().map(binary::encode)).unwrap();

    let before = binary::page_conversions();
    let queries = [
        r#"for $i in collection("items")/Item where $i/Section = "CD" return $i/Code"#,
        r#"for $i in collection("items")/Item where number($i/Code) < 50 return $i"#,
        r#"for $i in collection("items")/Item
           where contains($i//Description, "good") return $i/@id"#,
        r#"count(for $i in collection("items")/Item where $i/Section = "DVD" return $i)"#,
        r#"for $i in collection("items")/Item order by number($i/Code) descending
           return <hit>{$i/Code}</hit>"#,
        r#"doc("d7")/Item/Code"#,
    ];
    for q in queries {
        let out = db.execute(q).unwrap();
        assert!(!out.items.is_empty(), "{q}");
        std::hint::black_box(out.serialize());
    }
    let fetched = db.collection("items").unwrap();
    assert_eq!(fetched.len(), 200);
    for (doc, original) in fetched.iter().zip(&docs) {
        assert_eq!(&**doc, original);
        assert_eq!(to_string(doc), to_string(original));
        assert_eq!(doc.approx_size(), original.approx_size());
    }
    assert_eq!(db.document("d150").unwrap().name.as_deref(), Some("d150"));
    let pred =
        partix_path::Predicate::parse(r#"contains(/Item/Characteristics/Description, "good")"#)
            .unwrap();
    assert_eq!(db.index_candidates("items", &pred).unwrap().len(), 50);
    assert!(db.collection_bytes("items").unwrap() > 0);
    let dir = std::env::temp_dir().join(format!("partix-cold-reads-{}", std::process::id()));
    db.save_to(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(binary::page_conversions(), before, "a cold read converted a page");

    // the counter does count: the first write to a fetched document copies it
    let mut edited = (*fetched[0]).clone();
    edited.add_element(partix_xml::NodeId::ROOT, "Extra");
    assert_eq!(binary::page_conversions(), before + 1);
    assert_eq!(&*fetched[0], &docs[0], "the stored page is untouched");
}
