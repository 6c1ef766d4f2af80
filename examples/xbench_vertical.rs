//! Vertical fragmentation of an XBench-style article collection — the
//! paper's *XBenchVer* scenario: `/article/prolog`, `/article/body` and
//! `/article/epilog` live on different nodes; queries confined to one
//! part are re-rooted and answered by a single site, while queries
//! spanning parts trigger the reconstruction join.
//!
//! ```sh
//! cargo run --release --example xbench_vertical
//! ```

use partix::engine::{Distribution, NetworkModel, PartiX, Placement};
use partix::frag::{FragmentDef, FragmentationSchema};
use partix::gen::{gen_articles, ArticleProfile};
use partix::path::PathExpr;
use partix::schema::{builtin, CollectionDef, RepoKind};
use std::sync::Arc;

fn main() {
    let p = |s: &str| PathExpr::parse(s).expect("valid path");
    let articles = CollectionDef::new(
        "articles",
        Arc::new(builtin::xbench_article()),
        p("/article"),
        RepoKind::MultipleDocuments,
    );
    // F1..F3papers of the paper, plus the spine holding the article root.
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
    .expect("valid design");
    for frag in &design.fragments {
        println!("{frag}");
    }

    let px = PartiX::new(3, NetworkModel::default());
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_spine".into(), node: 0 },
            Placement { fragment: "f_prolog".into(), node: 0 },
            Placement { fragment: "f_body".into(), node: 1 },
            Placement { fragment: "f_epilog".into(), node: 2 },
        ],
    })
    .expect("valid placement");

    let docs = gen_articles(40, ArticleProfile::SMALL, 7);
    px.publish("articles", &docs).expect("publish");

    // Single-fragment query: rewritten onto the prolog fragment's
    // re-rooted documents and answered by one node.
    let single = px
        .execute(
            r#"for $p in collection("articles")/article/prolog
               where contains($p/title, "XML")
               return $p/title"#,
        )
        .expect("query runs");
    println!(
        "\nprolog-only query: {} titles from {} site(s) — reconstructed: {}",
        single.items.len(),
        single.report.sites.len(),
        single.report.reconstructed,
    );
    assert!(!single.report.reconstructed);
    assert_eq!(single.report.sites.len(), 1);

    // Multi-fragment query: needs prolog AND epilog — the middleware
    // fetches the fragments the query reads (the country test runs at
    // the epilog's node, which ships only the pieces that pass),
    // re-nests the surviving articles with the Dewey join, and evaluates
    // at the coordinator (the paper's expensive case). The body is never
    // contacted.
    let multi = px
        .execute(
            r#"for $a in collection("articles")/article
               where $a/epilog/country = "BR"
               return $a/prolog/title"#,
        )
        .expect("query runs");
    println!(
        "cross-fragment query: {} titles — reconstructed: {} ({} fragments fetched, {} pruned)",
        multi.items.len(),
        multi.report.reconstructed,
        multi.report.sites.len(),
        multi.report.fragments_pruned,
    );
    for site in &multi.report.sites {
        println!(
            "  {} on node {}: {} document(s), {} bytes",
            site.fragment, site.node, site.docs_scanned, site.result_bytes,
        );
    }
    assert!(multi.report.reconstructed);
    assert!(multi.report.sites.iter().all(|site| site.fragment != "f_body"));

    // Distributive aggregates still run fragment-locally.
    let agg = px
        .execute(r#"count(collection("articles")/article/epilog/references/reference)"#)
        .expect("query runs");
    println!(
        "reference count: {} (answered by fragment {})",
        agg.items[0],
        agg.report.sites[0].fragment,
    );
}
