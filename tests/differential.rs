//! Differential oracle suite: the paper's correctness rules
//! (completeness / disjointness / reconstruction, Sec. 3.3) as an
//! executable check. The fixed bench workloads and then generated cases
//! of each fragmentation family are published centralized and
//! distributed, and every answer must be the centralized one (in the form
//! the query decides, `common::check`).
//!
//! The fault-injected variants add the dispatch-layer contract: a run
//! under injected faults must return either the oracle answer or a typed
//! `PartixError` — never silently wrong data.

mod common;

use common::gen::{cluster, Family, FAMILIES};
use common::{assert_answer, assert_answers, check_case, for_cases, On, Route};
use partix::engine::{Fault, FaultInjector, FaultPlan, PartixError, Placement};
use partix::frag::{FragMode, FragmentDef, FragmentationSchema};
use partix::gen::{ArticleProfile, ItemProfile};
use partix::path::{PathExpr, Predicate};
use partix::schema::builtin::{virtual_store, xbench_article};
use partix::schema::{CollectionDef, RepoKind};
use partix::storage::StorageMode;
use partix::xml::{parse, Document};
use partix_bench::oracle::canonical;
use partix_bench::{queries, setup};
use std::sync::Arc;

#[test]
fn horizontal_matches_oracle_across_fragment_counts() {
    common::route_holds(&[Family::Horizontal], 64, |_| Route::Buffered);
}

/// `min` / `max` over fragments follow the evaluator's rule — strings by
/// string, numbers by number — and where some fragments hold only numbers
/// and the others strings, no composed answer exists: a typed error, never
/// an empty or a wrong item.
#[test]
fn horizontal_min_max_of_strings_match_oracle() {
    let docs = setup::quick_items(60);
    let c = format!(r#"collection("{}")"#, setup::DIST);
    let workload: Vec<(&'static str, String)> = vec![
        ("max-name", format!("max({c}/Item/Name)")),
        ("min-name", format!("min({c}/Item/Name)")),
        ("max-section", format!("max({c}/Item/Section)")),
        ("min-section", format!("min({c}/Item/Section)")),
        ("max-code", format!("max(for $i in {c}/Item return number($i/Code))")),
    ];
    let mixed = format!(
        r#"max(for $i in {c}/Item
               return if ($i/Section = "CD") then $i/Name else number($i/Code))"#
    );
    for n in [2, 4, 8] {
        let on = On::new(setup::horizontal(&docs, n), Route::Buffered);
        assert_answers(&on, &workload, &format!("hor{n}"));
        match on.px.execute(&mixed) {
            Err(PartixError::Composition(message)) => {
                assert!(message.contains("max()"), "{message}")
            }
            other => panic!("hor{n}/mixed: expected a composition error, got {other:?}"),
        }
    }
}

#[test]
fn vertical_matches_oracle() {
    common::route_holds(&[Family::Vertical], 24, |_| Route::Buffered);
}

#[test]
fn hybrid_matches_oracle_both_frag_modes() {
    common::route_holds(&[Family::Hybrid], 64, |_| Route::Buffered);
}

// ------------------------------------------------- composition probes --

/// One probe of how a distributed answer composes — `probe` builds the
/// query over the `Item`s of the distributed collection — on horizontal
/// designs of 2 / 4 / 8 fragments and on the FragMode2 hybrid: each answer
/// is the centralized one, item for item. Shipped whole to every fragment
/// and concatenated, each of these came back once per fragment or in
/// fragment order.
fn assert_probe(probe: impl Fn(&str) -> String) {
    let c = format!(r#"collection("{}")"#, setup::DIST);
    let docs = setup::quick_items(80);
    let store = partix::gen::gen_store(40, ItemProfile::Small, 31);
    let horizontal = [2, 4, 8].map(|n| (format!("hor{n}"), setup::horizontal(&docs, n), "/Item"));
    let hybrid = ("hyb".into(), setup::hybrid(&store, FragMode::SingleDoc), "/Store/Items/Item");
    for (label, px, items) in horizontal.into_iter().chain([hybrid]) {
        let query = probe(&format!("{c}{items}"));
        let verdict = assert_answer(&On::new(px, Route::Buffered), &query, &label);
        assert_ne!(verdict.form, common::Form::Canonical, "{label}: {query}");
    }
}

#[test]
fn exists_is_one_answer_not_one_per_fragment() {
    assert_probe(|items| format!("exists({items})"));
}

#[test]
fn a_compared_count_counts_every_fragment() {
    assert_probe(|items| format!("count({items}) > 5"));
}

#[test]
fn arithmetic_over_aggregates_composes_each_aggregate_first() {
    assert_probe(|items| format!("sum({items}/Code) div count({items})"));
}

/// Values every fragment holds (a fragment holds only its own sections:
/// those were distinct across fragments already).
#[test]
fn distinct_values_are_distinct_across_fragments() {
    let probe = |items: &str| {
        format!("count(distinct-values(for $i in {items} return number($i/Code) mod 5))")
    };
    assert_probe(probe);
    assert_probe(|items| format!("count(distinct-values({items}/Section))"));
}

#[test]
fn string_join_joins_every_fragment_in_document_order() {
    assert_probe(|items| format!(r#"string-join({items}/Section, ",")"#));
}

#[test]
fn order_by_orders_the_whole_answer() {
    assert_probe(|items| format!("for $i in {items} order by $i/Code descending return $i/Code"));
}

#[test]
fn a_self_join_reads_every_fragment() {
    let probe = |items: &str| {
        format!(
            r#"for $a in {items} where $a/Code = "1"
               return count(for $b in {items} where $b/Section != $a/Section return $b)"#
        )
    };
    assert_probe(probe);
}

// ------------------------------------------------- pruning probes --

/// One `Item` per code (`None`: no `Code` at all), named by its position.
fn items_with_codes(codes: &[Option<&str>]) -> Vec<Document> {
    codes
        .iter()
        .enumerate()
        .map(|(i, code)| {
            let code = code.map(|c| format!("<Code>{c}</Code>")).unwrap_or_default();
            let mut doc =
                parse(&format!("<Item>{code}<Name>n{i}</Name><Section>CD</Section></Item>"))
                    .unwrap();
            doc.name = Some(format!("i{i}"));
            doc
        })
        .collect()
}

/// Publish `codes` under `design` (items, or one store of them where the
/// design is hybrid), one fragment per node, and ask for the names of the
/// items passing `cond`: localization may prune only fragments that
/// hold none of the centralized answer.
fn assert_pruning_keeps_answers(design: FragmentationSchema, codes: &[Option<&str>], cond: &str) {
    let place = |(node, f): (usize, &FragmentDef)| Placement { fragment: f.name.clone(), node };
    let placements: Vec<Placement> = design.fragments.iter().enumerate().map(place).collect();
    let mut docs = items_with_codes(codes);
    let mut items = "/Item";
    if design.collection.kind == RepoKind::SingleDocument {
        let units: String = docs.iter().map(partix::xml::to_string).collect();
        docs = vec![parse(&format!("<Store><Items>{units}</Items></Store>")).unwrap()];
        docs[0].name = Some("store".into());
        items = "/Store/Items/Item";
    }
    let px = cluster(placements.len(), design, placements, &docs, StorageMode::Cold);
    let c = format!(r#"collection("{}"){items}"#, setup::DIST);
    let query = format!("for $i in {c} where {cond} return $i/Name");
    let on = On::new(px, Route::Buffered);
    assert_answer(&on, &query, "pruned");
}

/// `C_items` as the horizontal designs see it: `/Item/Code` is
/// single-valued, so the analysis may find two atoms on it contradictory.
fn items_collection() -> CollectionDef {
    CollectionDef::new(
        setup::DIST,
        Arc::new(virtual_store()),
        PathExpr::parse("/Store/Items/Item").unwrap(),
        RepoKind::MultipleDocuments,
    )
}

/// Horizontal fragments `f0`, `f1`, … of `C_items`, one per predicate.
fn code_design(predicates: &[&str]) -> FragmentationSchema {
    let fragments = predicates
        .iter()
        .enumerate()
        .map(|(i, p)| FragmentDef::horizontal(&format!("f{i}"), Predicate::parse(p).unwrap()))
        .collect();
    FragmentationSchema::new(items_collection(), fragments).expect("valid design")
}

/// Hybrid fragments of one `Store`'s items in `mode`, one per predicate
/// over the unit, beside the store's spine.
fn hybrid_code_design(predicates: &[&str], mode: FragMode) -> FragmentationSchema {
    let units = PathExpr::parse("/Store/Items/Item").unwrap();
    let mut fragments: Vec<FragmentDef> = predicates
        .iter()
        .enumerate()
        .map(|(i, p)| {
            FragmentDef::hybrid(&format!("f{i}"), units.clone(), Predicate::parse(p).unwrap(), mode)
        })
        .collect();
    let store = PathExpr::parse("/Store").unwrap();
    let items = PathExpr::parse("/Store/Items").unwrap();
    fragments.push(FragmentDef::vertical("f_spine", store.clone(), vec![items]));
    let collection =
        CollectionDef::new(setup::DIST, Arc::new(virtual_store()), store, RepoKind::SingleDocument);
    FragmentationSchema::new(collection, fragments).expect("valid design")
}

/// `05` is numerically 5 and textually not "5": a string `!=` does not
/// contradict a number `=`.
#[test]
fn a_text_inequality_keeps_the_fragment_a_number_equality_defines() {
    let design = code_design(&["/Item/Code = 5", "/Item/Code != 5"]);
    assert_pruning_keeps_answers(design, &[Some("05"), Some("5"), Some("7")], r#"$i/Code != "5""#);
}

/// A number `=` does not contradict a string `!=`.
#[test]
fn a_number_equality_keeps_the_fragment_a_text_inequality_defines() {
    let design = code_design(&[r#"/Item/Code = "5""#, r#"/Item/Code != "5""#]);
    assert_pruning_keeps_answers(design, &[Some("05"), Some("5"), Some("7")], "$i/Code = 5");
}

/// `not(Code < 10)` and `not(Code >= 10)` both hold where `Code` is not
/// a number.
#[test]
fn two_negated_ranges_both_hold_on_a_text() {
    let design = code_design(&["/Item/Code < 10", "not(/Item/Code < 10)"]);
    let codes = [Some("abc"), Some("5"), Some("20")];
    assert_pruning_keeps_answers(design, &codes, "not($i/Code >= 10)");
}

/// `Code < "10"` orders text, `Code > 50` numbers: `"099" < "10"` and
/// `99 > 50`.
#[test]
fn a_text_range_keeps_the_fragment_a_number_range_reads() {
    let design = code_design(&[r#"/Item/Code < "10""#, r#"/Item/Code >= "10""#]);
    assert_pruning_keeps_answers(design, &[Some("099"), Some("5"), Some("70")], "$i/Code > 50");
}

/// `not(Code = "5")` and `not(Code != "5")` both hold where there is no
/// `Code`.
#[test]
fn two_negated_atoms_both_hold_on_an_absent_node() {
    let design = code_design(&[r#"/Item/Code = "5""#, r#"not(/Item/Code = "5")"#]);
    assert_pruning_keeps_answers(design, &[None, Some("5"), Some("7")], r#"not($i/Code != "5")"#);
}

/// The auto-designer's residual fragment, `not(Code = "5") and
/// not(Code = "7")`, holds `05`, which `Code = 5` asks for.
#[test]
fn the_residual_fragment_of_a_value_design_holds_numeric_matches() {
    let code = PathExpr::parse("/Item/Code").unwrap();
    let sample = items_with_codes(&[Some("5"), Some("7")]);
    let design = partix::frag::horizontal_by_values(items_collection(), &code, &sample, 2);
    let design = design.expect("design");
    assert_pruning_keeps_answers(design, &[Some("5"), Some("05"), Some("7")], "$i/Code = 5");
}

/// A FragMode1 unit whose `Code` is `05` sits in the fragment `Code < 10`
/// defines, which a text `= "5"` does not contradict: `Code = 5` reads it.
#[test]
fn a_fragmode1_hybrid_keeps_the_unit_a_numeric_code_selects() {
    let predicates = ["/Item/Code < 10", "not(/Item/Code < 10)"];
    let design = hybrid_code_design(&predicates, FragMode::ManySmallDocs);
    assert_pruning_keeps_answers(design, &[Some("05"), Some("abc"), Some("20")], "$i/Code = 5");
}

/// A FragMode2 unit whose `Code` is text sits in the negated range's
/// fragment, and so does `05`; both pass `not(Code >= 10)`.
#[test]
fn a_fragmode2_hybrid_keeps_the_units_a_negated_range_holds() {
    let predicates = ["/Item/Code >= 10", "not(/Item/Code >= 10)"];
    let design = hybrid_code_design(&predicates, FragMode::SingleDoc);
    let codes = [Some("05"), Some("abc"), Some("099"), None];
    assert_pruning_keeps_answers(design, &codes, r#"not($i/Code >= 10) and $i/Code != "5""#);
}

// ---------------------------------------------- found by the generator --

/// The articles of `xml`, named by position, under the spine and `cuts`
/// (each pruned from the spine), one fragment per node.
fn articles_under(cuts: &[&str], xml: &[impl AsRef<str>]) -> On {
    let path = |p: &str| PathExpr::parse(p).unwrap();
    let cut: Vec<PathExpr> = cuts.iter().map(|c| path(c)).collect();
    let mut fragments = vec![FragmentDef::vertical("f_spine", path("/article"), cut.clone())];
    let piece = |(k, c): (_, &PathExpr)| FragmentDef::vertical(&format!("f{k}"), c.clone(), vec![]);
    fragments.extend(cut.iter().enumerate().map(piece));
    let (schema, kind) = (Arc::new(xbench_article()), RepoKind::MultipleDocuments);
    let collection = CollectionDef::new(setup::DIST, schema, path("/article"), kind);
    let design = FragmentationSchema::new(collection, fragments).expect("valid design");
    let placements: Vec<Placement> = (design.fragments.iter().enumerate())
        .map(|(node, f)| Placement { fragment: f.name.clone(), node })
        .collect();
    let docs: Vec<Document> = (xml.iter().enumerate())
        .map(|(k, xml)| {
            let mut doc = parse(xml.as_ref()).unwrap();
            doc.name = Some(format!("a{k}"));
            doc
        })
        .collect();
    let px = cluster(placements.len(), design, placements, &docs, StorageMode::Cold);
    On::new(px, Route::Buffered)
}

/// `keywords[2]` of a prolog is no node: re-rooted onto the fragment that
/// holds the one `keywords`, the position was dropped and every
/// `keywords` answered.
#[test]
fn a_position_past_the_first_selects_nothing_of_a_cut_node() {
    let keywords = "<keywords><keyword>k</keyword></keywords>";
    let prolog = format!("<prolog><title>t</title>{keywords}</prolog>");
    let article = format!(r#"<article id="a">{prolog}</article>"#);
    let on = articles_under(&["/article/prolog/keywords"], &[&article, &article]);
    let c = format!(r#"collection("{}")/article"#, setup::DIST);
    let second = [
        format!("count({c}/prolog/keywords[2])"),
        format!("for $a in {c} return $a/prolog/keywords[2]/keyword"),
    ];
    for query in second {
        assert_answer(&on, &query, "keywords[2]");
    }
}

/// An article lacking its body has no piece in the body's fragment, yet a
/// `for` over the articles still binds it: a constructor returned per
/// article is returned for it too.
#[test]
fn an_article_without_the_read_part_still_binds_its_for() {
    let with = r#"<article id="a"><body><abstract>x</abstract></body></article>"#;
    let without = r#"<article id="b"><prolog><title>t</title></prolog></article>"#;
    let on = articles_under(&["/article/body"], &[with, without]);
    let c = format!(r#"collection("{}")/article"#, setup::DIST);
    let per_article = [
        format!("for $a in {c} return <r>{{$a/body/abstract}}</r>"),
        format!("for $a in {c}, $b in {c} return $a/body/abstract"),
    ];
    for query in per_article {
        assert_answer(&on, &query, "per article");
    }
}

/// Over ten XBenchVer articles of three sections each, `ret` of each of
/// the two of genre `science`: a `for` makes a tuple per section it ranges
/// over, reading none of them, so the body's fragment must be read.
fn assert_per_science_article(ret: &str) {
    let body = format!("<body>{}</body>", "<section><heading>h</heading></section>".repeat(3));
    let article = |k| format!("<article><prolog><genre>g{k}</genre></prolog>{body}</article>");
    let articles: Vec<String> = [0, 0, 1, 1, 1, 1, 1, 1, 1, 1].map(article).into();
    let parts = ["/article/prolog", "/article/body", "/article/epilog"];
    let on = articles_under(&parts, &articles);
    let c = format!(r#"collection("{}")/article"#, setup::DIST);
    assert_answer(&on, &format!(r#"for $a in {c} where $a/prolog/genre = "g0" return {ret}"#), ret);
}

/// The sections counted: each count was 0, the body's fragment pruned.
#[test]
fn a_for_over_unread_sections_counts_every_section() {
    assert_per_science_article("count(for $s in $a/body/section return 1)");
}

/// A constant returned per section: none was.
#[test]
fn a_for_over_unread_sections_returns_once_per_section() {
    assert_per_science_article(r#"(for $s in $a/body/section return "x")"#);
}

/// A FragMode1 unit records where it sat in its store: the rebuilt store
/// lists the units in document order, not fragment by fragment.
#[test]
fn a_fragmode1_store_is_rebuilt_in_document_order() {
    let even = [
        r#"/Item/Code = "2" or /Item/Code = "4""#,
        r#"/Item/Code != "2" and /Item/Code != "4""#,
    ];
    let design = hybrid_code_design(&even, FragMode::ManySmallDocs);
    let unit = |k| format!("<Item><Code>{k}</Code><Section>CD</Section></Item>");
    let units: String = (1..=4).map(unit).collect();
    let mut store = parse(&format!("<Store><Items>{units}</Items></Store>")).unwrap();
    store.name = Some("store".into());
    let placements = vec![
        Placement { fragment: "f0".into(), node: 0 },
        Placement { fragment: "f1".into(), node: 1 },
        Placement { fragment: "f_spine".into(), node: 2 },
    ];
    let on = On::new(cluster(3, design, placements, &[store], StorageMode::Cold), Route::Buffered);
    let query = format!(r#"string-join(collection("{}")/Store/Items/Item/Code, ",")"#, setup::DIST);
    assert_eq!(assert_answer(&on, &query, "store").form, common::Form::Exact);
}

/// A hybrid rebuild puts the units' container back among its siblings,
/// not after them: the second part of the store is its `Items`.
#[test]
fn a_hybrid_rebuild_puts_the_unit_container_back_where_it_was() {
    let store = partix::gen::gen_store(24, ItemProfile::Small, 7);
    let query = format!(r#"for $s in collection("{}")/Store return count($s/*[2]/*)"#, setup::DIST);
    for mode in [FragMode::SingleDoc, FragMode::ManySmallDocs] {
        let on = On::new(setup::hybrid(&store, mode), Route::Buffered);
        assert_answer(&on, &query, &format!("{mode:?}"));
    }
}

/// A FragMode2 document records where each of its units sat: the rebuilt
/// store lists them in document order, not fragment by fragment.
#[test]
fn a_fragmode2_rebuild_keeps_its_units_in_document_order() {
    let store = partix::gen::gen_store(24, ItemProfile::Small, 7);
    let on = On::new(setup::hybrid(&store, FragMode::SingleDoc), Route::Buffered);
    let c = format!(r#"collection("{}")"#, setup::DIST);
    assert_answer(&on, &format!("for $s in {c}/Store return $s/Items/Item[3]/Code"), "store");
}

// ------------------------------------------------------ faulted runs --

/// Replicated horizontal repository under seeded fault schedules: the
/// schedule is identical per seed, answered queries are byte-identical
/// to the oracle, and with 2 replicas per fragment a single faulty node
/// cannot fail the workload. Then the route over generated cases of every
/// family, each fragment on two nodes under its case's plan.
#[test]
fn horizontal_under_faults_returns_oracle_answer_or_typed_error() {
    let docs = setup::quick_items(60);
    let workload = queries::horizontal(setup::DIST);
    for seed in [3u64, 0xBAD5EED, 0xC4A0_5EED] {
        let plan = FaultPlan::from_seed(seed, 4, 0.8);
        assert_eq!(
            plan.describe(),
            FaultPlan::from_seed(seed, 4, 0.8).describe(),
            "schedule not reproducible for seed {seed:#x}",
        );
        // full cluster faulted: errors are allowed, wrong data is not
        let on = On::new(setup::horizontal_replicated(&docs, 4, 2), Route::Faulted(plan.clone()));
        assert_answers(&on, &workload, &format!("faulted-{seed:#x}"));

        // a single faulty node against 2 replicas: failover must answer
        // every query
        let mut one_node = plan.clone();
        for (node, faults) in one_node.node_faults.iter_mut().enumerate() {
            if node != 0 {
                faults.clear();
            }
        }
        one_node.node_faults[0] = FaultPlan::from_seed(seed, 4, 1.0).node_faults[0].clone();
        let on = On::new(setup::horizontal_replicated(&docs, 4, 2), Route::Faulted(one_node));
        let ok = assert_answers(&on, &workload, &format!("single-{seed:#x}"));
        assert_eq!(
            ok,
            workload.len(),
            "seed {seed:#x}: a single faulty node failed queries despite replication",
        );
    }
    for_cases(&FAMILIES, 24, |case| check_case(case, Route::faulted(case.seed)).map(drop));
}

/// Unreplicated vertical design under faults: degraded availability may
/// surface as typed errors, but answered queries still match the oracle.
#[test]
fn vertical_under_faults_never_returns_wrong_data() {
    let docs = partix::gen::gen_articles(8, ArticleProfile::SMALL, 41);
    let plan = FaultPlan::from_seed(0xD1FF, 3, 0.7);
    let on = On::new(setup::vertical(&docs), Route::Faulted(plan));
    assert_answers(&on, &queries::vertical(setup::DIST), "vert-faulted");
}

/// A query that reads several fragments — rebuilt from fetches, or an
/// aggregate summed per fragment (QV10) — runs through the same fault
/// schedules, retry loop and typed errors as a single sub-query: under
/// seeded plans an answered query is the oracle's, a flapping node costs
/// a retry and nothing else, and a wedged node is a typed error to every
/// query that reads a fragment of it — never a document set rebuilt, or a
/// sum added up, from what happened to arrive — and nothing at all to a
/// query that does not.
#[test]
fn reconstruction_under_faults_retries_or_fails_typed() {
    let docs = partix::gen::gen_articles(8, ArticleProfile::SMALL, 41);
    let clean = setup::vertical(&docs);
    let mut reads_epilog = Vec::new();
    let (workload, oracle): (Vec<_>, Vec<_>) = queries::vertical(setup::DIST)
        .into_iter()
        .filter_map(|(id, q)| {
            let result = clean.execute(&q).unwrap_or_else(|e| panic!("{id}: {e}"));
            (result.report.sites.len() > 1).then(|| {
                reads_epilog.push(result.report.sites.iter().any(|s| s.fragment == "f_epilog"));
                ((id, q), canonical(&result.items))
            })
        })
        .unzip();
    assert!(workload.len() >= 4, "QV4/QV7/QV8/QV10 read several fragments");
    // QV7 reads the body and the prolog only
    assert_eq!(reads_epilog.iter().filter(|reads| !**reads).count(), 1);

    for seed in [3u64, 0xD1FF, 0xBAD5EED] {
        let plan = FaultPlan::from_seed(seed, 3, 1.0);
        let on = On::new(setup::vertical(&docs), Route::Faulted(plan));
        assert_answers(&on, &workload, &format!("rebuild-{seed:#x}"));
        // node 0 holds the spine, the first fragment each of these
        // queries reads: its injector saw each of those calls
        let spine = on.injectors[0].as_ref().expect("rate 1.0 faults every node");
        assert!(
            spine.stats().calls >= workload.len(),
            "seed {seed:#x}: fetches bypassed the injector",
        );
    }

    // f_body's only node answers every other call: the failed fetch is
    // retried on it and the answer is unharmed
    let px = setup::vertical(&docs);
    let flapping = vec![Fault::FlipFlop { up: 1, down: 1 }];
    FaultInjector::install(px.cluster().node(1).expect("node 1"), flapping);
    let on = On::new(px, Route::Buffered);
    let mut retries = 0;
    for (id, query) in &workload {
        let verdict = assert_answer(&on, query, &format!("flapping/{id}"));
        retries += verdict.report.map_or(0, |r| r.retries);
    }
    assert!(retries > 0, "no fetch was retried");

    // f_epilog's only node rejects every call: a typed error to the
    // queries that read it, the oracle's answer to the one that does not
    let px = setup::vertical(&docs);
    let wedged = vec![Fault::ErrorAfter { ok_calls: 0 }];
    FaultInjector::install(px.cluster().node(2).expect("node 2"), wedged);
    for (k, (id, query)) in workload.iter().enumerate() {
        match px.execute(query) {
            Err(PartixError::SubQuery { node: 2, .. }) if reads_epilog[k] => {}
            Ok(result) if !reads_epilog[k] => {
                assert_eq!(canonical(&result.items), oracle[k], "wedged/{id}");
            }
            other => panic!("wedged/{id}: expected a typed error from node 2, got {other:?}"),
        }
    }
}
