#![cfg(test)]

use super::*;
use crate::catalog::Placement;
use crate::compose::Composition;
use partix_frag::{FragMode, FragmentDef, FragmentationSchema};
use partix_path::{PathExpr, Predicate};
use partix_query::{parse_query, Item, Query};
use partix_schema::builtin::virtual_store;
use partix_schema::{CollectionDef, RepoKind};
use partix_xml::{parse, Document};

fn items(n: usize) -> Vec<Document> {
    (0..n)
        .map(|i| {
            let section = ["CD", "DVD", "BOOK"][i % 3];
            let quality = if i % 2 == 0 { "good" } else { "poor" };
            let mut d = parse(&format!(
                "<Item><Code>{i}</Code><Name>item {i}</Name><Section>{section}</Section>\
                 <Price>{}</Price>\
                 <Characteristics><Description>a {quality} product</Description></Characteristics></Item>",
                5 + i
            ))
            .unwrap();
            d.name = Some(format!("i{i:04}"));
            d
        })
        .collect()
}

fn horizontal_px(nodes: usize) -> PartiX {
    let px = PartiX::new(nodes, NetworkModel::default());
    let citems = CollectionDef::new(
        "items",
        Arc::new(virtual_store()),
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
                "f_dvd",
                Predicate::parse(r#"/Item/Section = "DVD""#).unwrap(),
            ),
            FragmentDef::horizontal(
                "f_rest",
                Predicate::parse(r#"/Item/Section != "CD" and /Item/Section != "DVD""#)
                    .unwrap(),
            ),
        ],
    )
    .unwrap();
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_cd".into(), node: 0 },
            Placement { fragment: "f_dvd".into(), node: 1 % nodes },
            Placement { fragment: "f_rest".into(), node: 2 % nodes },
        ],
    })
    .unwrap();
    px.publish("items", &items(30)).unwrap();
    px.publish_centralized(0, "items_central", &items(30)).unwrap();
    px
}

#[test]
fn distributed_equals_centralized_selection() {
    let px = horizontal_px(3);
    let q = |coll: &str| {
        format!(
            r#"for $i in collection("{coll}")/Item
               where contains($i//Description, "good")
               return $i/Code"#
        )
    };
    let distributed = px.execute(&q("items")).unwrap();
    let centralized = px.execute_centralized(0, &q("items_central")).unwrap();
    let mut a: Vec<String> =
        distributed.items.iter().map(Item::serialize).collect();
    let mut b: Vec<String> =
        centralized.items.iter().map(Item::serialize).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(distributed.report.sites.len(), 3);
}

#[test]
fn localization_prunes_to_single_fragment() {
    let px = horizontal_px(3);
    let result = px
        .execute(
            r#"for $i in collection("items")/Item
               where $i/Section = "CD" return $i/Code"#,
        )
        .unwrap();
    assert_eq!(result.report.sites.len(), 1);
    assert_eq!(result.report.fragments_pruned, 2);
    assert_eq!(result.report.sites[0].fragment, "f_cd");
    assert_eq!(result.items.len(), 10);
}

#[test]
fn count_combines_partials() {
    let px = horizontal_px(3);
    let result = px
        .execute(r#"count(for $i in collection("items")/Item return $i)"#)
        .unwrap();
    assert_eq!(result.items, vec![Item::Num(30.0)]);
    assert_eq!(result.report.sites.len(), 3);
}

#[test]
fn sum_min_max_combine() {
    let px = horizontal_px(3);
    // prices are 5..34 → sum = 585, min 5, max 34
    let sum = px
        .execute(r#"sum(for $i in collection("items")/Item return number($i/Price))"#)
        .unwrap();
    assert_eq!(sum.items, vec![Item::Num(585.0)]);
    let min = px
        .execute(r#"min(for $i in collection("items")/Item return number($i/Price))"#)
        .unwrap();
    assert_eq!(min.items, vec![Item::Num(5.0)]);
    let max = px
        .execute(r#"max(for $i in collection("items")/Item return number($i/Price))"#)
        .unwrap();
    assert_eq!(max.items, vec![Item::Num(34.0)]);
}

#[test]
fn avg_weighted_combination() {
    let px = horizontal_px(3);
    let avg = px
        .execute(r#"avg(for $i in collection("items")/Item return number($i/Price))"#)
        .unwrap();
    assert_eq!(avg.items, vec![Item::Num(585.0 / 30.0)]);
}

#[test]
fn node_failure_reported() {
    let px = horizontal_px(3);
    px.cluster().node(1).unwrap().set_available(false);
    let err = px
        .execute(r#"count(for $i in collection("items")/Item return $i)"#)
        .unwrap_err();
    assert!(matches!(err, PartixError::NodeUnavailable { node: 1, .. }));
    // queries localized away from node 1 still work
    let ok = px
        .execute(
            r#"count(for $i in collection("items")/Item
                     where $i/Section = "CD" return $i)"#,
        )
        .unwrap();
    assert_eq!(ok.items, vec![Item::Num(10.0)]);
}

#[test]
fn passthrough_for_undistributed_collections() {
    let px = horizontal_px(2);
    let result = px
        .execute(r#"count(for $i in collection("items_central")/Item return $i)"#)
        .unwrap();
    assert_eq!(result.items, vec![Item::Num(30.0)]);
    assert_eq!(result.report.sites[0].fragment, "<passthrough>");
}

/// f_cd replicated on nodes 0 and 2; f_rest on node 1.
fn replicated_px() -> PartiX {
    let px = PartiX::new(3, NetworkModel::default());
    let citems = CollectionDef::new(
        "items",
        Arc::new(virtual_store()),
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
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_cd".into(), node: 0 },
            Placement { fragment: "f_cd".into(), node: 2 },
            Placement { fragment: "f_rest".into(), node: 1 },
        ],
    })
    .unwrap();
    px.publish("items", &items(30)).unwrap();
    px
}

#[test]
fn replicated_fragment_fails_over() {
    let px = replicated_px();
    // replica copies landed on both nodes
    assert_eq!(px.cluster().node(0).unwrap().db.collection_len("f_cd").unwrap(), 10);
    assert_eq!(px.cluster().node(2).unwrap().db.collection_len("f_cd").unwrap(), 10);
    let q = r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#;
    // primary up: node 0 answers
    let result = px.execute(q).unwrap();
    assert_eq!(result.items, vec![Item::Num(10.0)]);
    assert_eq!(result.report.sites[0].node, 0);
    // primary down: the query fails over to node 2
    px.cluster().node(0).unwrap().set_available(false);
    let result = px.execute(q).unwrap();
    assert_eq!(result.items, vec![Item::Num(10.0)]);
    assert_eq!(result.report.sites[0].node, 2);
    // both replicas down: the error is reported
    px.cluster().node(2).unwrap().set_available(false);
    assert!(matches!(
        px.execute(q),
        Err(PartixError::NodeUnavailable { .. })
    ));
}

#[test]
fn round_robin_rotates_across_replicas() {
    let px = replicated_px();
    let q = r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#;
    let served: Vec<usize> = (0..4)
        .map(|_| {
            let result = px.execute(q).unwrap();
            assert_eq!(result.items, vec![Item::Num(10.0)]);
            result.report.sites[0].node
        })
        .collect();
    // consecutive queries alternate between the two replicas instead
    // of hammering the first placement
    assert_eq!(served, vec![0, 2, 0, 2]);
}

#[test]
fn retry_recovers_from_transient_driver_failures() {
    use crate::faults::{Fault, FaultInjector};
    let px = horizontal_px(3);
    // node 1's DBMS alternates: one call up, one call down
    let node = px.cluster().node(1).unwrap();
    FaultInjector::install(node, vec![Fault::FlipFlop { up: 1, down: 1 }]);
    let q = r#"count(for $i in collection("items")/Item return $i)"#;
    // call 0 on node 1 is served cleanly
    let first = px.execute(q).unwrap();
    assert_eq!(first.items, vec![Item::Num(30.0)]);
    assert_eq!(first.report.retries, 0);
    // call 1 fails, the retry (call 2) lands in the up-phase
    let second = px.execute(q).unwrap();
    assert_eq!(second.items, vec![Item::Num(30.0)]);
    assert_eq!(second.report.retries, 1);
    assert_eq!(second.report.failovers, 0); // sole replica: same node
    let faulty_site =
        second.report.sites.iter().find(|s| s.fragment == "f_dvd").unwrap();
    assert_eq!(faulty_site.retries, 1);
}

#[test]
fn deadline_expiry_fails_over_to_replica() {
    use crate::faults::{Fault, FaultInjector};
    let mut px = replicated_px();
    px.set_dispatch(DispatchMode::Pool);
    px.set_retry_policy(RetryPolicy {
        timeout: Some(Duration::from_millis(40)),
        ..RetryPolicy::default()
    });
    // node 0's replica of f_cd answers far too slowly; node 2 is fast
    let slow = px.cluster().node(0).unwrap();
    FaultInjector::install(slow, vec![Fault::Latency { millis: 400 }]);
    let q = r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#;
    let result = px.execute(q).unwrap();
    assert_eq!(result.items, vec![Item::Num(10.0)]);
    assert_eq!(result.report.sites[0].node, 2, "{}", result.report);
    assert_eq!(result.report.timeouts, 1);
    assert_eq!(result.report.failovers, 1);
    // the slow node is left suspect, so the next query (whose
    // round-robin turn would be node 0's) routes around it
    assert!(px.cluster().node(0).unwrap().is_suspect());
    let again = px.execute(q).unwrap();
    assert_eq!(again.report.sites[0].node, 2);
    assert_eq!(again.report.timeouts, 0);
}

#[test]
fn allow_partial_degrades_instead_of_failing() {
    let px = horizontal_px(3);
    px.cluster().node(1).unwrap().set_available(false);
    let q = r#"count(for $i in collection("items")/Item return $i)"#;
    // strict mode still fails
    assert!(px.execute(q).is_err());
    // degraded mode answers from the two live fragments
    let result = px
        .execute_with(q, ExecOptions { allow_partial: true, ..ExecOptions::default() })
        .unwrap();
    assert_eq!(result.items, vec![Item::Num(20.0)]);
    assert!(result.report.partial);
    assert_eq!(result.report.sites.len(), 2);
    assert_eq!(result.report.skipped.len(), 1);
    assert_eq!(result.report.skipped[0].fragment, "f_dvd");
    // with every node down the answer is empty but typed
    px.cluster().node(0).unwrap().set_available(false);
    px.cluster().node(2).unwrap().set_available(false);
    let empty = px
        .execute_with(q, ExecOptions { allow_partial: true, ..ExecOptions::default() })
        .unwrap();
    assert!(empty.report.partial);
    assert_eq!(empty.report.skipped.len(), 3);
    assert!(empty.report.sites.is_empty());
}

#[test]
fn parse_error_surfaces() {
    let px = horizontal_px(2);
    assert!(matches!(px.execute("for $"), Err(PartixError::Parse(_))));
}

fn vertical_px() -> PartiX {
    let px = PartiX::new(3, NetworkModel::default());
    let articles = CollectionDef::new(
        "articles",
        Arc::new(partix_schema::builtin::xbench_article()),
        PathExpr::parse("/article").unwrap(),
        RepoKind::MultipleDocuments,
    );
    let p = |s: &str| PathExpr::parse(s).unwrap();
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
    let docs: Vec<Document> = (0..6)
        .map(|i| {
            let mut d = parse(&format!(
                r#"<article id="a{i}"><prolog><title>Title {i}</title>
                   <authors><author><name>Author {i}</name></author></authors>
                   <genre>g{}</genre><pub_date>2005-0{}-01</pub_date></prolog>
                   <body><abstract>xml data {i}</abstract>
                   <section><heading>h</heading><p>body text {i}</p></section></body>
                   <epilog><references><reference><ref_title>r</ref_title><year>1999</year></reference></references>
                   <country>BR</country><word_count>{}</word_count></epilog></article>"#,
                i % 3,
                (i % 9) + 1,
                100 + i
            ))
            .unwrap();
            d.name = Some(format!("a{i}"));
            d
        })
        .collect();
    px.publish("articles", &docs).unwrap();
    px.publish_centralized(0, "articles_central", &docs).unwrap();
    px
}

#[test]
fn vertical_single_fragment_query() {
    let px = vertical_px();
    let result = px
        .execute(r#"for $t in collection("articles")/article/prolog/title return $t"#)
        .unwrap();
    assert_eq!(result.items.len(), 6);
    // only the prolog fragment is consulted
    assert_eq!(result.report.sites.len(), 1);
    assert_eq!(result.report.sites[0].fragment, "f_prolog");
    assert!(!result.report.reconstructed);
}

#[test]
fn vertical_multi_fragment_reconstructs() {
    let px = vertical_px();
    let q = r#"for $a in collection("articles")/article
               where contains($a/body/abstract, "xml")
               return $a/prolog/title"#;
    let result = px.execute(q).unwrap();
    assert!(result.report.reconstructed);
    assert_eq!(result.items.len(), 6);
    // same answer as centralized
    let centralized = px
        .execute_centralized(
            0,
            &q.replace("collection(\"articles\")", "collection(\"articles_central\")"),
        )
        .unwrap();
    let a: Vec<String> = result.items.iter().map(Item::serialize).collect();
    let b: Vec<String> = centralized.items.iter().map(Item::serialize).collect();
    assert_eq!(a, b);
}

#[test]
fn vertical_aggregate_on_one_fragment() {
    let px = vertical_px();
    let result = px
        .execute(r#"count(collection("articles")/article/epilog/references/reference)"#)
        .unwrap();
    assert_eq!(result.items, vec![Item::Num(6.0)]);
    assert_eq!(result.report.sites.len(), 1);
    assert_eq!(result.report.sites[0].fragment, "f_epilog");
}

/// The fetches the planner builds for a reconstructing query: fragment
/// and filter, in task order; plus the fragments it reports pruned.
fn fetch_plan(px: &PartiX, query: &str) -> (Vec<(String, Option<Query>)>, usize) {
    let query = parse_query(query).unwrap();
    let plan = px.plan(&query, ExecOptions::default()).unwrap();
    assert!(matches!(plan.compose, plan::Compose::Reconstruct { .. }));
    let fetches = plan
        .tasks
        .iter()
        .map(|task| match &task.op {
            plan::TaskOp::Fetch { filter } => {
                (task.fragment.clone(), filter.as_deref().cloned())
            }
            plan::TaskOp::Execute { .. } => panic!("a reconstruction only fetches"),
        })
        .collect();
    (fetches, plan.pruned)
}

fn fetched(px: &PartiX, query: &str) -> Vec<(String, Option<Query>)> {
    fetch_plan(px, query).0
}

fn q(text: &str) -> Option<Query> {
    Some(parse_query(text).unwrap())
}

/// The paper's multi-fragment templates read the fragments their
/// footprint reaches and the spine those hang under — nothing else — and
/// every positive conjunct of the `where` is tested where its data lives.
#[test]
fn reconstruction_fetches_what_the_query_reads() {
    let px = vertical_px();
    let c = r#"collection("articles")"#;
    // QV4: prolog and epilog; the genre test runs on f_prolog's node
    let qv4 = format!(
        r#"for $a in {c}/article where $a/prolog/genre = "g1"
           return ($a/prolog/title, $a/epilog/country)"#
    );
    let (fetches, pruned) = fetch_plan(&px, &qv4);
    assert_eq!(
        fetches,
        [
            ("f_spine".to_owned(), None),
            (
                "f_prolog".to_owned(),
                q(r#"for $a in collection("f_prolog")/prolog where $a/genre = "g1" return $a"#)
            ),
            ("f_epilog".to_owned(), None),
        ]
    );
    assert_eq!(pruned, 1);
    // QV7: body (filtered) and prolog
    let qv7 = format!(
        r#"for $a in {c}/article where contains($a/body/abstract, "xml") return $a/prolog/title"#
    );
    assert_eq!(
        fetched(&px, &qv7),
        [
            ("f_spine".to_owned(), None),
            ("f_prolog".to_owned(), None),
            (
                "f_body".to_owned(),
                q(r#"for $a in collection("f_body")/body
                     where contains($a/abstract, "xml") return $a"#)
            ),
        ]
    );
    // QV8: one conjunct each to prolog and epilog; `count` of the article
    // itself reads no body
    let qv8 = format!(
        r#"count(for $a in {c}/article
                 where contains($a/prolog/title, "Title") and $a/epilog/country = "BR"
                 return $a)"#
    );
    assert_eq!(
        fetched(&px, &qv8),
        [
            ("f_spine".to_owned(), None),
            (
                "f_prolog".to_owned(),
                q(r#"for $a in collection("f_prolog")/prolog
                     where contains($a/title, "Title") return $a"#)
            ),
            (
                "f_epilog".to_owned(),
                q(r#"for $a in collection("f_epilog")/epilog
                     where $a/country = "BR" return $a"#)
            ),
        ]
    );
    // two conjuncts on one fragment travel together
    let both = format!(
        r#"for $a in {c}/article
           where $a/prolog/genre = "g1" and exists($a/prolog/pub_date)
           return ($a/prolog/title, $a/epilog/country)"#
    );
    assert_eq!(
        fetched(&px, &both)[1].1,
        q(r#"for $a in collection("f_prolog")/prolog
             where $a/genre = "g1" and exists($a/pub_date) return $a"#)
    );
}

/// The sub-queries and the composition the planner builds for a query it
/// answers fragment by fragment, and the fragments it reports pruned.
fn execute_plan(px: &PartiX, query: &str) -> (Vec<(String, Query)>, Composition, usize) {
    let query = parse_query(query).unwrap();
    let plan = px.plan(&query, ExecOptions::default()).unwrap();
    let plan::Compose::Combine(rule) = plan.compose else {
        panic!("{query:?} is not answered fragment by fragment")
    };
    let subqueries = plan
        .tasks
        .iter()
        .map(|task| match &task.op {
            plan::TaskOp::Execute { query, .. } => (task.fragment.clone(), (**query).clone()),
            plan::TaskOp::Fetch { .. } => panic!("a combined plan only executes"),
        })
        .collect();
    (subqueries, rule, plan.pruned)
}

/// An aggregate over a `//` path whose every match lies whole inside one
/// piece is answered where the pieces are: each fragment counts (sums) its
/// own, the coordinator adds the partials, nothing is rebuilt.
#[test]
fn descendant_aggregates_decompose_per_fragment() {
    let px = vertical_px();
    let c = r#"collection("articles")"#;
    // QV10: every fragment may hold a `p`, each one counts its own
    let (subqueries, rule, pruned) = execute_plan(&px, &format!("count({c}//p)"));
    let expected: Vec<(String, Query)> = ["f_spine", "f_prolog", "f_body", "f_epilog"]
        .iter()
        .map(|f| (f.to_string(), parse_query(&format!(r#"count(collection("{f}")//p)"#)).unwrap()))
        .collect();
    assert_eq!(subqueries, expected);
    assert_eq!(rule, Composition::CountSum);
    assert_eq!(pruned, 0);
    let result = px.execute(&format!("count({c}//p)")).unwrap();
    assert!(!result.report.reconstructed);
    assert_eq!(result.items, vec![Item::Num(6.0)]);
    // whole values summed and averaged, child steps below the first one,
    // a piece's root matched by the first step: the centralized answers
    for query in [
        format!("sum({c}//word_count)"),
        format!("avg({c}//reference/year)"),
        format!("count({c}//section/p)"),
        format!("count({c}//prolog)"),
        format!("count({c}//*)"),
        format!("count({c}//article/@id)"),
    ] {
        let result = px.execute(&query).unwrap();
        assert!(!result.report.reconstructed, "{query}");
        let central = query.replace(r#""articles""#, r#""articles_central""#);
        assert_eq!(result.items, px.execute_centralized(0, &central).unwrap().items, "{query}");
    }
    assert_eq!(execute_plan(&px, &format!("avg({c}//word_count)")).1, Composition::Avg);
    // a combined plan degrades like a horizontal one: flagged, the lost
    // fragment listed
    px.cluster().node(1).unwrap().set_available(false);
    let partial = ExecOptions { allow_partial: true, ..ExecOptions::default() };
    let result = px.execute_with(&format!("count({c}//p)"), partial).unwrap();
    assert!(result.report.partial);
    assert_eq!(result.report.skipped[0].fragment, "f_body");
    assert!(px.execute(&format!("count({c}//p)")).is_err());
}

/// Where a match may straddle a cut, a cut may split a summed value, or
/// the query is not a `count` / `sum` / `avg` of one path, the documents
/// are rebuilt as before — and hybrid designs never decompose.
#[test]
fn straddling_or_split_paths_still_reconstruct() {
    let px = PartiX::new(1, NetworkModel::default());
    let p = |s: &str| PathExpr::parse(s).unwrap();
    let articles = CollectionDef::new(
        "articles",
        Arc::new(partix_schema::builtin::xbench_article()),
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
            FragmentDef::vertical("f_body", p("/article/body"), vec![p("/article/body/section[1]")]),
            FragmentDef::vertical(
                "f_first",
                p("/article/body/section[1]"),
                vec![p("/article/body/section[1]/heading")],
            ),
            FragmentDef::vertical("f_heading", p("/article/body/section[1]/heading"), vec![]),
            FragmentDef::vertical("f_epilog", p("/article/epilog"), vec![]),
        ],
    )
    .unwrap();
    let placements = design
        .fragments
        .iter()
        .map(|f| Placement { fragment: f.name.clone(), node: 0 })
        .collect();
    px.register_distribution(Distribution { design, placements }).unwrap();
    let c = r#"collection("articles")"#;
    for query in [
        // a later `//`: the paragraphs of the cut `section[1]` are not
        // below a `body` in their piece
        format!("count({c}//body//p)"),
        // a position, renumbered by the cut
        format!("count({c}//section[2])"),
        // the second step is a piece's root, its parent in another piece
        format!("count({c}//article/prolog)"),
        format!("count({c}//section/heading)"),
        // the cut `heading` splits a section's value
        format!("sum({c}//section)"),
        // the partials of `max` cannot always be combined
        format!("max({c}//word_count)"),
        // not an aggregate
        format!("{c}//p"),
    ] {
        fetch_plan(&px, &query);
    }
    // what stays whole still decomposes on this design
    for query in [format!("count({c}//section/p)"), format!("sum({c}//heading)")] {
        execute_plan(&px, &query);
    }

    // a hybrid design keeps fetching everything
    let px = PartiX::new(1, NetworkModel::default());
    let store = CollectionDef::new(
        "store",
        Arc::new(virtual_store()),
        p("/Store"),
        RepoKind::SingleDocument,
    );
    let cd = |s: &str| Predicate::parse(&format!(r#"{s}(/Item/Section = "CD")"#)).unwrap();
    let design = FragmentationSchema::new(
        store,
        vec![
            FragmentDef::hybrid("f_cd", p("/Store/Items/Item"), cd(""), FragMode::SingleDoc),
            FragmentDef::hybrid("f_rest", p("/Store/Items/Item"), cd("not"), FragMode::SingleDoc),
            FragmentDef::vertical("f_spine", p("/Store"), vec![p("/Store/Items")]),
        ],
    )
    .unwrap();
    let placements = design
        .fragments
        .iter()
        .map(|f| Placement { fragment: f.name.clone(), node: 0 })
        .collect();
    px.register_distribution(Distribution { design, placements }).unwrap();
    let (fetches, _) = fetch_plan(&px, r#"count(collection("store")//Name)"#);
    assert_eq!(fetches.len(), 3);
}

/// What must not be pushed: a test a document *without* the part passes,
/// a disjunction across fragments, and anything at all once the collection
/// is scanned twice — the second scan must see every document.
#[test]
fn negations_cross_fragment_disjunctions_and_self_joins_push_no_filter() {
    let px = vertical_px();
    let c = r#"collection("articles")"#;
    let unfiltered = |query: &str| {
        let fetches = fetched(&px, query);
        assert!(fetches.iter().all(|(_, filter)| filter.is_none()), "{query}: {fetches:?}");
        fetches.into_iter().map(|(name, _)| name).collect::<Vec<_>>()
    };
    let ret = "return ($a/prolog/title, $a/epilog/country)";
    for test in [
        r#"not($a/prolog/genre = "g1")"#,
        "empty($a/prolog/genre)",
        r#"$a/prolog/genre = "g1" or $a/epilog/country = "BR""#,
        r#"count($a/prolog/authors/author) >= 1"#,
    ] {
        let query = format!("for $a in {c}/article where {test} {ret}");
        // pruning by footprint still applies
        assert_eq!(unfiltered(&query), ["f_spine", "f_prolog", "f_epilog"], "{test}");
    }
    // a pushable conjunct beside one that is not: only the first travels
    let mixed = format!(
        r#"for $a in {c}/article
           where $a/prolog/genre = "g1" and not($a/epilog/country = "AR") {ret}"#
    );
    let fetches = fetched(&px, &mixed);
    assert!(fetches[1].1.is_some() && fetches[2].1.is_none(), "{fetches:?}");
    // a self-join: both scans see every article
    let join = format!(
        r#"for $a in {c}/article, $b in {c}/article
           where $a/prolog/genre = "g1" and $a/epilog/country = $b/epilog/country
           return $b/prolog/title"#
    );
    assert_eq!(unfiltered(&join), ["f_spine", "f_prolog", "f_epilog"]);
    let nested = format!(
        r#"for $a in {c}/article where $a/prolog/genre = "g1"
           return ($a/epilog/country, count({c}/article/prolog/title))"#
    );
    assert_eq!(unfiltered(&nested), ["f_spine", "f_prolog", "f_epilog"]);
    // the scan read a second time through the variable a `let` gave it:
    // `count($all)` is of every article, not of those of genre g1
    for alias in [
        format!(
            r#"let $all := {c}/article for $a in $all where $a/prolog/genre = "g1"
               return (count($all), $a/epilog/country)"#
        ),
        format!(
            r#"let $all := {c}/article for $a in $all
               where $a/prolog/genre = "g1" and count($all) > 3 return $a/epilog/country"#
        ),
    ] {
        unfiltered(&alias);
        let serialized = |items: &[Item]| items.iter().map(Item::serialize).collect::<Vec<_>>();
        let central = alias.replace(r#"collection("articles")"#, r#"collection("articles_central")"#);
        assert_eq!(
            serialized(&px.execute(&alias).unwrap().items),
            serialized(&px.execute_centralized(0, &central).unwrap().items),
            "{alias}"
        );
    }
}

/// The report says what happened: a fragment counted as pruned was not
/// contacted, and one that was contacted has a site entry.
#[test]
fn pruned_fragments_of_a_reconstruction_are_not_contacted() {
    let px = vertical_px();
    let query = r#"for $a in collection("articles")/article where $a/prolog/genre = "g1"
                   return ($a/prolog/title, $a/epilog/country)"#;
    let result = px.execute(query).unwrap();
    assert!(result.report.reconstructed);
    assert_eq!(result.items.len(), 4);
    let sites: Vec<&str> = result.report.sites.iter().map(|s| s.fragment.as_str()).collect();
    assert_eq!(sites, ["f_spine", "f_prolog", "f_epilog"]);
    assert_eq!(result.report.fragments_pruned, 1);
    // the filter ran at the node: two of six prolog pieces shipped
    assert_eq!(result.report.sites[1].docs_scanned, 2);
    // a dead node that holds nothing the query reads does not fail it
    px.cluster().node(1).unwrap().set_available(false);
    let again = px.execute(query).unwrap();
    assert_eq!(again.items.len(), 4);
    // … and one that holds a fragment it reads still does, typed
    px.cluster().node(1).unwrap().set_available(true);
    px.cluster().node(2).unwrap().set_available(false);
    assert!(matches!(
        px.execute(query),
        Err(PartixError::NodeUnavailable { node: 2, .. })
    ));
}

/// An evaluation failure over the rebuilt documents is the coordinator's
/// own: reported as a reconstruction error with the evaluator's message,
/// not as a sub-query on node 18446744073709551615.
#[test]
fn evaluation_failure_over_rebuilt_documents_is_a_reconstruction_error() {
    let px = vertical_px();
    let error = px
        .execute(
            r#"for $a in collection("articles")/article
               return (nosuchfunction($a/prolog/title), $a/epilog/country)"#,
        )
        .unwrap_err();
    match &error {
        PartixError::Reconstruction(message) => {
            assert!(message.contains("nosuchfunction"), "{message}")
        }
        other => panic!("expected a reconstruction error, got {other:?}"),
    }
    assert!(!error.to_string().contains("18446744073709551615"), "{error}");
}

/// A design that cuts by position: the piece shares its label with
/// siblings the containing piece keeps, so everything cut under the same
/// parent is read with it — and a test over the unpinned path is not the
/// pinned fragment's to decide.
#[test]
fn positional_cuts_read_their_siblings_and_take_no_unpinned_test() {
    let px = PartiX::new(1, NetworkModel::default());
    let p = |s: &str| PathExpr::parse(s).unwrap();
    let store = CollectionDef::new(
        "store",
        Arc::new(virtual_store()),
        p("/Store"),
        RepoKind::SingleDocument,
    );
    let design = FragmentationSchema::new(
        store,
        vec![
            FragmentDef::vertical(
                "f_rest",
                p("/Store"),
                vec![p("/Store/Sections"), p("/Store/Items"), p("/Store/Employees")],
            ),
            FragmentDef::vertical("f_sections", p("/Store/Sections"), vec![]),
            FragmentDef::vertical("f_items", p("/Store/Items"), vec![p("/Store/Items/Item[2]")]),
            FragmentDef::vertical("f_second", p("/Store/Items/Item[2]"), vec![]),
            FragmentDef::vertical("f_staff", p("/Store/Employees"), vec![]),
        ],
    )
    .unwrap();
    let placements = design
        .fragments
        .iter()
        .map(|f| Placement { fragment: f.name.clone(), node: 0 })
        .collect();
    px.register_distribution(Distribution { design, placements }).unwrap();
    let names = |query: &str| -> Vec<String> {
        fetched(&px, query).into_iter().map(|(name, _)| name).collect()
    };
    // every Item, pinned or not: the second one and the rest, under the
    // pieces they hang in
    let all_items = r#"for $s in collection("store")/Store
                       where $s/Items/Item/Name = "x" return $s/Employees/Employee/Name"#;
    assert_eq!(names(all_items), ["f_rest", "f_items", "f_second", "f_staff"]);
    assert!(fetched(&px, all_items).iter().all(|(_, filter)| filter.is_none()));
    // the pinned path is the pinned fragment's alone, filter included
    let second = r#"for $s in collection("store")/Store
                    where $s/Items/Item[2]/Name = "x" return $s/Employees/Employee/Name"#;
    let fetches = fetched(&px, second);
    let read: Vec<&str> = fetches.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(read, ["f_rest", "f_items", "f_second", "f_staff"]);
    assert_eq!(
        fetches[2].1,
        q(r#"for $s in collection("f_second")/Item where $s/Name = "x" return $s"#)
    );
}

/// A fragment cut further down than right under the root of the piece it
/// hangs in (`authors`, out of a spine that keeps `prolog`) is addressed
/// through ordinals a hole beside `prolog` would shift: it is read with
/// everything cut out of that spine. Fragments cut by name right under the
/// root need no such company.
#[test]
fn cuts_below_their_holders_root_are_read_with_all_of_the_holders_cuts() {
    let px = PartiX::new(1, NetworkModel::default());
    let p = |s: &str| PathExpr::parse(s).unwrap();
    let articles = CollectionDef::new(
        "articles",
        Arc::new(partix_schema::builtin::xbench_article()),
        p("/article"),
        RepoKind::MultipleDocuments,
    );
    let design = FragmentationSchema::new(
        articles,
        vec![
            FragmentDef::vertical(
                "f_spine",
                p("/article"),
                vec![p("/article/prolog/authors"), p("/article/body"), p("/article/epilog")],
            ),
            FragmentDef::vertical("f_authors", p("/article/prolog/authors"), vec![]),
            FragmentDef::vertical("f_body", p("/article/body"), vec![p("/article/body/section[1]")]),
            FragmentDef::vertical("f_first", p("/article/body/section[1]"), vec![]),
            FragmentDef::vertical("f_epilog", p("/article/epilog"), vec![]),
        ],
    )
    .unwrap();
    let placements = design
        .fragments
        .iter()
        .map(|f| Placement { fragment: f.name.clone(), node: 0 })
        .collect();
    px.register_distribution(Distribution { design, placements }).unwrap();
    let names = |query: &str| -> Vec<String> {
        fetched(&px, query).into_iter().map(|(name, _)| name).collect()
    };
    let c = r#"collection("articles")"#;
    // authors hangs two levels into the spine: no holes beside prolog,
    // so body and epilog come too — but not what is cut out of *them*
    assert_eq!(
        names(&format!(
            r#"for $a in {c}/article where $a/prolog/authors/author/name = "x"
               return $a/prolog/title"#
        )),
        ["f_spine", "f_authors", "f_body", "f_epilog"]
    );
    // cut by name right under the spine's root: read alone
    assert_eq!(
        names(&format!(
            r#"for $a in {c}/article where $a/epilog/country = "BR" return $a/prolog/title"#
        )),
        ["f_spine", "f_epilog"]
    );
    // a section, whichever: the one cut by position and the body it hangs in
    assert_eq!(
        names(&format!(
            r#"for $a in {c}/article where $a/epilog/country = "BR"
               return $a/body/section/heading"#
        )),
        ["f_spine", "f_body", "f_first", "f_epilog"]
    );
}

/// Regression for the round-robin replica index arithmetic: the
/// per-fragment rotation counter wraps around usize::MAX on long
/// runs, and `nodes[(start + k) % len]` then overflow-panics in
/// debug builds. Seed the counter at the edge and step across it.
#[test]
fn replica_rotation_survives_counter_wraparound() {
    let px = replicated_px();
    *px.rotation.lock().entry("f_cd".to_owned()).or_insert(0) = usize::MAX - 1;
    let q = r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#;
    // crosses usize::MAX - 1 → MAX → 0 without panicking, and keeps
    // alternating between the two replicas
    let served: Vec<usize> = (0..4)
        .map(|_| {
            let result = px.execute(q).unwrap();
            assert_eq!(result.items, vec![Item::Num(10.0)]);
            result.report.sites[0].node
        })
        .collect();
    let alternated = served == vec![0, 2, 0, 2] || served == vec![2, 0, 2, 0];
    assert!(alternated, "served: {served:?}");
    assert_eq!(*px.rotation.lock().get("f_cd").unwrap(), 2);
}

#[test]
fn invalid_distributions_are_typed_errors() {
    use crate::catalog::DistributionError;
    let px = PartiX::new(2, NetworkModel::default());
    let citems = CollectionDef::new(
        "items",
        Arc::new(virtual_store()),
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
    // out-of-range node index: the cluster has 2 nodes
    let err = px
        .register_distribution(Distribution {
            design: design.clone(),
            placements: vec![
                Placement { fragment: "f_cd".into(), node: 0 },
                Placement { fragment: "f_rest".into(), node: 5 },
            ],
        })
        .unwrap_err();
    assert!(matches!(
        err,
        PartixError::InvalidDistribution(DistributionError::NodeOutOfRange {
            node: 5,
            nodes: 2,
            ..
        })
    ));
    // placement naming a fragment the design does not define
    let err = px
        .register_distribution(Distribution {
            design: design.clone(),
            placements: vec![
                Placement { fragment: "f_cd".into(), node: 0 },
                Placement { fragment: "f_rest".into(), node: 1 },
                Placement { fragment: "f_ghost".into(), node: 1 },
            ],
        })
        .unwrap_err();
    assert!(matches!(
        err,
        PartixError::InvalidDistribution(DistributionError::UnknownFragment { .. })
    ));
    // nothing was registered by the failed attempts
    assert!(px.catalog().distribution("items").is_none());
}

/// Swapping a collection's placements while queries are in flight
/// must never produce a wrong answer: a sub-query answer that lands
/// while its distribution is still current is kept, one that lands
/// after a swap is re-run on the new placements (`Gather::land`), and
/// both hold the full data.
#[test]
fn placement_swap_under_concurrent_queries() {
    let px = horizontal_px(3);
    let q = r#"count(for $i in collection("items")/Item return $i)"#;
    let swapped = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        let px = &px;
        for _ in 0..4 {
            let swapped = Arc::clone(&swapped);
            scope.spawn(move || {
                for _ in 0..40 {
                    let result = px.execute(q).unwrap();
                    assert_eq!(result.items, vec![Item::Num(30.0)]);
                    if swapped.load(std::sync::atomic::Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        scope.spawn(|| {
            // move every fragment onto different nodes, repeatedly,
            // while the query threads hammer the collection; data is
            // already resident everywhere it needs to be only for
            // the *original* placements, so replicate first
            let dist = Arc::clone(px.catalog().distribution("items").unwrap());
            for round in 0..6usize {
                let rotate = round % 3;
                let placements: Vec<Placement> = dist
                    .placements
                    .iter()
                    .map(|p| {
                        let node = (p.node + rotate) % 3;
                        // keep the data available on the new node
                        let docs: Vec<Document> = px
                            .cluster()
                            .node(p.node)
                            .unwrap()
                            .fetch_docs(&p.fragment)
                            .iter()
                            .map(|d| (**d).clone())
                            .collect();
                        let target = px.cluster().node(node).unwrap();
                        if target.fetch_docs(&p.fragment).is_empty() && !docs.is_empty() {
                            target.store_docs(&p.fragment, docs);
                        }
                        Placement { fragment: p.fragment.clone(), node }
                    })
                    .collect();
                px.register_distribution(Distribution {
                    design: dist.design.clone(),
                    placements,
                })
                .unwrap();
                swapped.store(true, std::sync::atomic::Ordering::Release);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
    });
}
