//! Cross-crate integration: generate → fragment → publish → query, for
//! all three fragmentation families, with equivalence against the
//! centralized baseline at every step.

use partix::engine::{Distribution, NetworkModel, PartiX, Placement};
use partix::frag::{FragMode, FragmentDef, FragmentationSchema};
use partix::gen::{gen_articles, gen_items, gen_store, ArticleProfile, ItemProfile};
use partix::path::{PathExpr, Predicate};
use partix::query::Item;
use partix::schema::{builtin, CollectionDef, RepoKind};
use partix::xml::Document;
use std::sync::Arc;

fn p(s: &str) -> PathExpr {
    PathExpr::parse(s).unwrap()
}

fn pr(s: &str) -> Predicate {
    Predicate::parse(s).unwrap()
}

fn multiset(items: &[Item]) -> Vec<String> {
    let mut v: Vec<String> = items.iter().map(Item::serialize).collect();
    v.sort();
    v
}

/// Distributed answers must equal centralized answers for a spread of
/// query shapes over a horizontally fragmented collection.
#[test]
fn horizontal_distributed_equals_centralized() {
    let docs = gen_items(200, ItemProfile::Small, 1);
    let px = PartiX::new(4, NetworkModel::default());
    let citems = CollectionDef::new(
        "items",
        Arc::new(builtin::virtual_store()),
        p("/Store/Items/Item"),
        RepoKind::MultipleDocuments,
    );
    let groups: [&[&str]; 4] = [
        &["CD", "DVD"],
        &["BOOK", "ELECTRONICS"],
        &["TOY", "GAME"],
        &["SPORT", "GARDEN"],
    ];
    let fragments = groups
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let atoms: Vec<Predicate> = g
                .iter()
                .map(|s| pr(&format!(r#"/Item/Section = "{s}""#)))
                .collect();
            FragmentDef::horizontal(&format!("f{i}"), Predicate::Or(atoms))
        })
        .collect();
    let design = FragmentationSchema::new(citems, fragments).unwrap();
    px.register_distribution(Distribution {
        design,
        placements: (0..4)
            .map(|i| Placement { fragment: format!("f{i}"), node: i })
            .collect(),
    })
    .unwrap();
    px.publish("items", &docs).unwrap();
    px.publish_centralized(0, "central", &docs).unwrap();

    let queries = [
        r#"for $i in collection("items")/Item where $i/Section = "TOY" return $i/Code"#,
        r#"for $i in collection("items")/Item where contains($i//Description, "good") return $i/Name"#,
        r#"count(for $i in collection("items")/Item return $i)"#,
        r#"sum(for $i in collection("items")/Item return number($i/Code))"#,
        r#"min(for $i in collection("items")/Item return number($i/Code))"#,
        r#"max(for $i in collection("items")/Item return number($i/Code))"#,
        r#"avg(for $i in collection("items")/Item return number($i/Code))"#,
        r#"for $i in collection("items")/Item where exists($i/Release) return $i/Code"#,
        r#"for $i in collection("items")/Item
           where $i/Section = "CD" and contains($i//Description, "good")
           return <hit>{$i/Name}</hit>"#,
        r#"count(collection("items")//Description)"#,
    ];
    for q in queries {
        let dist = px.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let cent = px
            .execute_centralized(0, &q.replace("\"items\"", "\"central\""))
            .unwrap();
        assert_eq!(multiset(&dist.items), multiset(&cent.items), "{q}");
    }
}

/// Vertical fragmentation: every query shape agrees with centralized,
/// whether answered by rewrite or by reconstruction.
#[test]
fn vertical_distributed_equals_centralized() {
    let docs = gen_articles(25, ArticleProfile::SMALL, 2);
    let px = PartiX::new(3, NetworkModel::default());
    let articles = CollectionDef::new(
        "articles",
        Arc::new(builtin::xbench_article()),
        p("/article"),
        RepoKind::MultipleDocuments,
    );
    let design = FragmentationSchema::new(
        articles,
        vec![
            FragmentDef::vertical(
                "f_spine",
                p("/article"),
                vec![p("/article/prolog"), p("/article/body"), p("/article/epilog")],
            ),
            FragmentDef::vertical("f_prolog", p("/article/prolog"), vec![]),
            FragmentDef::vertical("f_body", p("/article/body"), vec![]),
            FragmentDef::vertical("f_epilog", p("/article/epilog"), vec![]),
        ],
    )
    .unwrap();
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_spine".into(), node: 0 },
            Placement { fragment: "f_prolog".into(), node: 0 },
            Placement { fragment: "f_body".into(), node: 1 },
            Placement { fragment: "f_epilog".into(), node: 2 },
        ],
    })
    .unwrap();
    px.publish("articles", &docs).unwrap();
    px.publish_centralized(0, "central", &docs).unwrap();

    let queries = [
        r#"for $t in collection("articles")/article/prolog/title return $t"#,
        r#"count(collection("articles")/article/prolog/authors/author)"#,
        r#"for $p in collection("articles")/article/prolog where $p/genre = "science" return $p/title"#,
        r#"for $a in collection("articles")/article return ($a/prolog/title, $a/epilog/country)"#,
        r#"for $a in collection("articles")/article
           where contains($a/body/abstract, "good") return $a/prolog/title"#,
        r#"sum(for $e in collection("articles")/article/epilog return number($e/word_count))"#,
        r#"count(collection("articles")//p)"#,
        r#"for $a in collection("articles")/article where $a/@id = "a3" return $a/prolog/title"#,
    ];
    for q in queries {
        let dist = px.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let cent = px
            .execute_centralized(0, &q.replace("\"articles\"", "\"central\""))
            .unwrap();
        assert_eq!(multiset(&dist.items), multiset(&cent.items), "{q}");
    }
}

/// Hybrid fragmentation, both storage modes, agrees with centralized.
#[test]
fn hybrid_distributed_equals_centralized() {
    let store = gen_store(80, ItemProfile::Small, 3);
    for mode in [FragMode::SingleDoc, FragMode::ManySmallDocs] {
        let px = PartiX::new(3, NetworkModel::default());
        let cstore = CollectionDef::new(
            "store",
            Arc::new(builtin::virtual_store()),
            p("/Store"),
            RepoKind::SingleDocument,
        );
        let design = FragmentationSchema::new(
            cstore,
            vec![
                FragmentDef::hybrid(
                    "f_cd",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "CD""#),
                    mode,
                ),
                FragmentDef::hybrid(
                    "f_rest",
                    p("/Store/Items/Item"),
                    pr(r#"not(/Item/Section = "CD")"#),
                    mode,
                ),
                FragmentDef::vertical("f_spine", p("/Store"), vec![p("/Store/Items")]),
            ],
        )
        .unwrap();
        px.register_distribution(Distribution {
            design,
            placements: vec![
                Placement { fragment: "f_cd".into(), node: 0 },
                Placement { fragment: "f_rest".into(), node: 1 },
                Placement { fragment: "f_spine".into(), node: 2 },
            ],
        })
        .unwrap();
        px.publish("store", std::slice::from_ref(&store)).unwrap();
        px.publish_centralized(0, "central", std::slice::from_ref(&store)).unwrap();

        let queries = [
            r#"for $i in collection("store")/Store/Items/Item where $i/Section = "CD" return $i/Name"#,
            r#"count(for $i in collection("store")/Store/Items/Item return $i)"#,
            r#"for $s in collection("store")/Store/Sections/Section return $s/Name"#,
            r#"for $e in collection("store")/Store/Employees/Employee return $e/Name"#,
            r#"count(for $i in collection("store")/Store/Items/Item
                     where contains($i//Description, "good") return $i)"#,
        ];
        for q in queries {
            let dist = px.execute(q).unwrap_or_else(|e| panic!("{mode:?} {q}: {e}"));
            let cent = px
                .execute_centralized(0, &q.replace("\"store\"", "\"central\""))
                .unwrap();
            assert_eq!(
                multiset(&dist.items),
                multiset(&cent.items),
                "{mode:?} {q}"
            );
        }
    }
}

/// A fragmented node database survives a save/load cycle and still
/// answers distributed queries identically.
#[test]
fn persistence_of_fragmented_nodes() {
    let docs = gen_items(60, ItemProfile::Small, 4);
    let px = PartiX::new(2, NetworkModel::default());
    let citems = CollectionDef::new(
        "items",
        Arc::new(builtin::virtual_store()),
        p("/Store/Items/Item"),
        RepoKind::MultipleDocuments,
    );
    let design = FragmentationSchema::new(
        citems,
        vec![
            FragmentDef::horizontal("f_cd", pr(r#"/Item/Section = "CD""#)),
            FragmentDef::horizontal("f_rest", pr(r#"not(/Item/Section = "CD")"#)),
        ],
    )
    .unwrap();
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_cd".into(), node: 0 },
            Placement { fragment: "f_rest".into(), node: 1 },
        ],
    })
    .unwrap();
    px.publish("items", &docs).unwrap();

    let dir = std::env::temp_dir().join(format!("partix-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    px.cluster().node(0).unwrap().db.save_to(&dir).unwrap();
    let reloaded = partix::storage::Database::load_from(&dir).unwrap();
    let before = px
        .cluster()
        .node(0)
        .unwrap()
        .db
        .execute(r#"count(collection("f_cd")/Item)"#)
        .unwrap();
    let after = reloaded.execute(r#"count(collection("f_cd")/Item)"#).unwrap();
    assert_eq!(before.items, after.items);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// XML text → parse → fragment → reconstruct → serialize: the full data
/// path preserves content exactly (vertical, exact-order reconstruction).
#[test]
fn full_data_path_lossless() {
    let docs = gen_items(30, ItemProfile::Large, 5);
    let citems = CollectionDef::new(
        "items",
        Arc::new(builtin::virtual_store()),
        p("/Store/Items/Item"),
        RepoKind::MultipleDocuments,
    );
    let design = FragmentationSchema::new(
        citems,
        vec![
            FragmentDef::vertical(
                "f_main",
                p("/Item"),
                vec![p("/Item/PictureList"), p("/Item/PricesHistory")],
            ),
            FragmentDef::vertical("f_pics", p("/Item/PictureList"), vec![]),
            FragmentDef::vertical("f_prices", p("/Item/PricesHistory"), vec![]),
        ],
    )
    .unwrap();
    // round-trip each document through XML text first
    let reparsed: Vec<Document> = docs
        .iter()
        .map(|d| {
            let text = partix::xml::to_string(d);
            let mut back = partix::xml::parse(&text).unwrap();
            back.name = d.name.clone();
            back
        })
        .collect();
    for (a, b) in docs.iter().zip(&reparsed) {
        assert_eq!(a, b, "XML round-trip must be lossless");
    }
    let fragmenter = partix::frag::Fragmenter::new(design.clone());
    let fragments = fragmenter.fragment_all(&reparsed);
    let report = partix::frag::check_correctness(&design, &reparsed, &fragments);
    assert!(report.is_correct(), "{:?}", report.violations);
    let rebuilt = partix::frag::correctness::reconstruct_any(&design, &fragments).unwrap();
    assert_eq!(rebuilt.len(), docs.len());
    for (orig, back) in docs.iter().zip(&rebuilt) {
        assert_eq!(orig, back);
    }
}

/// Failure injection: a downed node fails queries that need it, leaves
/// localized queries untouched, and recovers.
#[test]
fn node_failure_and_recovery() {
    let docs = gen_items(40, ItemProfile::Small, 6);
    let px = PartiX::new(2, NetworkModel::default());
    let citems = CollectionDef::new(
        "items",
        Arc::new(builtin::virtual_store()),
        p("/Store/Items/Item"),
        RepoKind::MultipleDocuments,
    );
    let design = FragmentationSchema::new(
        citems,
        vec![
            FragmentDef::horizontal("f_cd", pr(r#"/Item/Section = "CD""#)),
            FragmentDef::horizontal("f_rest", pr(r#"not(/Item/Section = "CD")"#)),
        ],
    )
    .unwrap();
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_cd".into(), node: 0 },
            Placement { fragment: "f_rest".into(), node: 1 },
        ],
    })
    .unwrap();
    px.publish("items", &docs).unwrap();

    px.cluster().node(1).unwrap().set_available(false);
    let all = r#"count(for $i in collection("items")/Item return $i)"#;
    let localized =
        r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#;
    assert!(px.execute(all).is_err());
    px.execute(localized).expect("localized query avoids the dead node");
    px.cluster().node(1).unwrap().set_available(true);
    px.execute(all).expect("recovered");
}

/// A custom DBMS driver (the paper's "PartiX Driver" pluggability):
/// wrap one node's driver in a fault injector and verify the middleware
/// surfaces the failure, then recovers when the DBMS does.
#[test]
fn pluggable_driver_with_fault_injection() {
    use partix::engine::{Fault, FaultInjector, PartixDriver};

    let docs = gen_items(20, ItemProfile::Small, 9);
    let px = PartiX::new(2, NetworkModel::default());
    let citems = CollectionDef::new(
        "items",
        Arc::new(builtin::virtual_store()),
        p("/Store/Items/Item"),
        RepoKind::MultipleDocuments,
    );
    let design = FragmentationSchema::new(
        citems,
        vec![
            FragmentDef::horizontal("f_cd", pr(r#"/Item/Section = "CD""#)),
            FragmentDef::horizontal("f_rest", pr(r#"not(/Item/Section = "CD")"#)),
        ],
    )
    .unwrap();
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_cd".into(), node: 0 },
            Placement { fragment: "f_rest".into(), node: 1 },
        ],
    })
    .unwrap();

    // install a standalone database as node 1's driver, wrapped in a fault
    // injector that serves one query, BEFORE publishing, so the publisher
    // ships through both as well
    let backing = Arc::new(partix::storage::Database::new());
    let node = px.cluster().node(1).unwrap();
    node.set_driver(Arc::clone(&backing) as Arc<dyn PartixDriver>);
    let injector = FaultInjector::install(node, vec![Fault::ErrorAfter { ok_calls: 1 }]);
    px.publish("items", &docs).unwrap();
    // the fragment went into the custom backing store, not the node's db
    assert!(backing.collection_len("f_rest").unwrap() > 0);
    assert!(px.cluster().node(1).unwrap().db.collection_len("f_rest").is_err());

    let q = r#"count(for $i in collection("items")/Item return $i)"#;
    let ok = px.execute(q).unwrap();
    assert_eq!(ok.items, vec![partix::query::Item::Num(20.0)]);
    assert_eq!(injector.stats().calls, 1);

    // injected DBMS failure surfaces as a sub-query error…
    assert!(matches!(
        px.execute(q),
        Err(partix::engine::PartixError::SubQuery { node: 1, .. })
    ));
    assert!(injector.stats().injected_errors >= 1);
    // …and recovery is transparent once the DBMS is back
    node.set_driver(backing);
    assert_eq!(px.execute(q).unwrap().items, vec![partix::query::Item::Num(20.0)]);
}
