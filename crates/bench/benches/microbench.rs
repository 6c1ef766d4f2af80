//! Criterion microbenchmarks over the hot paths: XML parsing and
//! serialization, binary pages, path evaluation, predicate evaluation,
//! index probes, fragmentation operators, and the reconstruction join.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use partix_algebra::Projection;
use partix_frag::{check_correctness, FragmentDef, Fragmenter, FragmentationSchema};
use partix_gen::{gen_items, ItemProfile};
use partix_path::{eval_path, PathExpr, Predicate};
use partix_schema::{builtin, CollectionDef, RepoKind};
use partix_storage::{Database, StorageMode};
use partix_xml::{binary, parse, to_string, Document};
use std::sync::Arc;

fn sample_xml() -> String {
    to_string(&gen_items(1, ItemProfile::Large, 7)[0])
}

fn bench_xml(c: &mut Criterion) {
    let xml = sample_xml();
    let doc = parse(&xml).unwrap();
    let pages = binary::encode(&doc);
    let mut group = c.benchmark_group("xml");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("parse_80kb", |b| b.iter(|| parse(&xml).unwrap()));
    group.bench_function("serialize_80kb", |b| b.iter(|| to_string(&doc)));
    group.bench_function("binary_encode_80kb", |b| b.iter(|| binary::encode(&doc)));
    group.bench_function("binary_decode_80kb", |b| b.iter(|| binary::decode(&pages).unwrap()));
    group.finish();
}

fn bench_path(c: &mut Criterion) {
    let doc = gen_items(1, ItemProfile::Large, 7).remove(0);
    let child_path = PathExpr::parse("/Item/PictureList/Picture").unwrap();
    let descendant_path = PathExpr::parse("//OriginalPath").unwrap();
    let positional = PathExpr::parse("/Item/PictureList/Picture[30]/Name").unwrap();
    let pred = Predicate::parse(
        r#"/Item/Section = "CD" and contains(//Description, "good")"#,
    )
    .unwrap();
    let mut group = c.benchmark_group("path");
    group.bench_function("child_steps", |b| b.iter(|| eval_path(&doc, &child_path)));
    group.bench_function("descendant_steps", |b| {
        b.iter(|| eval_path(&doc, &descendant_path))
    });
    group.bench_function("positional_step", |b| b.iter(|| eval_path(&doc, &positional)));
    group.bench_function("predicate_eval", |b| b.iter(|| pred.eval(&doc)));
    group.finish();
}

fn db_with_items(n: usize) -> Database {
    let db = Database::new();
    db.create_collection("items", StorageMode::Hot).unwrap();
    db.store_all("items", gen_items(n, ItemProfile::Small, 3));
    db
}

fn bench_storage(c: &mut Criterion) {
    let db = db_with_items(2000);
    let scan =
        r#"count(for $i in collection("items")/Item where number($i/Code) < 100 return $i)"#;
    let text_query = r#"count(for $i in collection("items")/Item
                            where contains($i//Description, "good") return $i)"#;
    let eq_query =
        r#"count(for $i in collection("items")/Item where $i/Section = "GARDEN" return $i)"#;
    let mut group = c.benchmark_group("storage_2000_docs");
    group.sample_size(30);
    group.bench_function("full_scan_numeric", |b| b.iter(|| db.execute(scan).unwrap()));
    group.bench_function("text_index_contains", |b| {
        b.iter(|| db.execute(text_query).unwrap())
    });
    db.set_value_index_enabled(true);
    group.bench_function("value_index_equality", |b| {
        b.iter(|| db.execute(eq_query).unwrap())
    });
    db.set_index_enabled(false);
    group.bench_function("equality_without_indexes", |b| {
        b.iter(|| db.execute(eq_query).unwrap())
    });
    db.set_index_enabled(true);
    group.finish();
}

fn bench_frag(c: &mut Criterion) {
    let docs = gen_items(500, ItemProfile::Small, 9);
    let citems = CollectionDef::new(
        "items",
        Arc::new(builtin::virtual_store()),
        PathExpr::parse("/Store/Items/Item").unwrap(),
        RepoKind::MultipleDocuments,
    );
    let design = FragmentationSchema::new(
        citems,
        vec![
            FragmentDef::horizontal(
                "f_cd",
                Predicate::parse(r#"/Item/Section = "CD""#).unwrap(),
            ),
            FragmentDef::horizontal(
                "f_rest",
                Predicate::parse(r#"not(/Item/Section = "CD")"#).unwrap(),
            ),
        ],
    )
    .unwrap();
    let fragmenter = Fragmenter::new(design.clone());
    let mut group = c.benchmark_group("fragmentation_500_docs");
    group.sample_size(30);
    group.bench_function("horizontal_split", |b| {
        b.iter(|| fragmenter.fragment_all(&docs))
    });
    let fragments = fragmenter.fragment_all(&docs);
    group.bench_function("correctness_check", |b| {
        b.iter(|| check_correctness(&design, &docs, &fragments))
    });

    // vertical project + reconstruction join
    let rich = gen_items(100, ItemProfile::Large, 9);
    let projection = Projection::new(
        PathExpr::parse("/Item").unwrap(),
        vec![PathExpr::parse("/Item/PictureList").unwrap()],
    );
    let pics = Projection::new(PathExpr::parse("/Item/PictureList").unwrap(), vec![]);
    group.bench_function("vertical_project_100_large", |b| {
        b.iter(|| {
            let mut out = partix_algebra::project(&rich, &projection);
            out.extend(partix_algebra::project(&rich, &pics));
            out
        })
    });
    let pieces: Vec<Document> = partix_algebra::project(&rich, &projection)
        .into_iter()
        .chain(partix_algebra::project(&rich, &pics))
        .collect();
    group.bench_function("reconstruction_join_100_large", |b| {
        // the join only borrows its pieces: nothing to set up per batch
        b.iter(|| partix_algebra::reconstruct(&pieces, partix_algebra::Coverage::Complete).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_xml, bench_path, bench_storage, bench_frag);
criterion_main!(benches);
