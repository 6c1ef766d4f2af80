//! Property-based tests over the core invariants:
//!
//! * parse ∘ serialize = id and binary encode ∘ decode = id for random
//!   documents;
//! * fragmentation correctness (completeness / disjointness /
//!   reconstruction) for random documents and random fragment designs;
//! * distributed query answers equal centralized answers for random
//!   workloads;
//! * a reconstruction that reads only what the query reads — fragments
//!   pruned by footprint, fetches filtered at the node — answers as the
//!   one that fetches everything does, and as the centralized run, over
//!   random vertical designs, collections and queries;
//! * fault tolerance: random fault schedules against replicated
//!   repositories never fail (replication ≥ 2, one faulty node) and
//!   `allow_partial` reports exactly the fragments that lost every
//!   replica.
//!
//! `PARTIX_PROPTEST_CASES` overrides every block's case count so CI can
//! dial the effort.

use partix::engine::{
    Distribution, ExecOptions, Fault, FaultPlan, NetworkModel, PartiX, PartixError, Placement,
};
use partix::frag::{check_correctness, FragmentDef, Fragmenter, FragmentationSchema};
use partix::path::{PathExpr, Predicate};
use partix::query::{parse_query, Evaluator, Item, MemProvider};
use partix::schema::{builtin, CollectionDef, RepoKind};
use partix::xml::{binary, parse, to_string, to_string_pretty, DocBuilder, Document};
use proptest::prelude::*;
use std::sync::Arc;

/// Per-block case budget, overridable with `PARTIX_PROPTEST_CASES`.
fn cases(default_cases: u32) -> ProptestConfig {
    std::env::var("PARTIX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(ProptestConfig::with_cases)
        .unwrap_or_else(|| ProptestConfig::with_cases(default_cases))
}

// ---------------------------------------------------------------- XML --

/// Strategy: a random labelled tree, depth ≤ 3, fanout ≤ 4.
fn arb_document() -> impl Strategy<Value = Document> {
    fn label() -> impl Strategy<Value = String> {
        prop::sample::select(vec!["a", "b", "c", "Item", "Seção"])
            .prop_map(str::to_owned)
    }
    fn text() -> impl Strategy<Value = String> {
        // includes XML-hostile characters
        prop::collection::vec(
            prop::sample::select(vec![
                "x", "hello", "<", ">", "&", "\"", "'", "maçã", " ", "0", "good",
            ]),
            1..5,
        )
        // the default parser options trim surrounding whitespace from
        // text nodes (no mixed content in the data model), so the
        // round-trip contract is over trimmed text
        .prop_map(|parts| parts.concat().trim().to_owned())
        .prop_filter("parser drops whitespace-only text", |s| !s.is_empty())
    }
    #[derive(Debug, Clone)]
    enum Node {
        Leaf(String, String),
        Attr(String, String),
        Elem(String, Vec<Node>),
    }
    fn arb_node() -> impl Strategy<Value = Node> {
        let leaf = (label(), text()).prop_map(|(l, t)| Node::Leaf(l, t)).boxed();
        let attr = (label(), text()).prop_map(|(l, t)| Node::Attr(l, t)).boxed();
        prop_oneof![leaf, attr].prop_recursive(3, 24, 4, move |inner| {
            (label(), prop::collection::vec(inner, 0..4))
                .prop_map(|(l, kids)| Node::Elem(l, kids))
        })
    }
    /// Attributes must precede content and be unique per element — the
    /// invariants parsed XML always satisfies.
    fn build_children(mut b: DocBuilder, kids: &[Node]) -> DocBuilder {
        let mut seen_attrs = std::collections::HashSet::new();
        for kid in kids {
            if let Node::Attr(l, t) = kid {
                if seen_attrs.insert(l.clone()) {
                    b = b.attr(l, t);
                }
            }
        }
        for kid in kids {
            match kid {
                Node::Attr(..) => {}
                Node::Leaf(l, t) => b = b.leaf(l, t),
                Node::Elem(l, inner) => {
                    b = build_children(b.open(l), inner).close();
                }
            }
        }
        b
    }
    (label(), prop::collection::vec(arb_node(), 0..5)).prop_map(|(root, kids)| {
        build_children(DocBuilder::new(&root), &kids).build()
    })
}

proptest! {
    #![proptest_config(cases(64))]

    #[test]
    fn serialize_parse_roundtrip(doc in arb_document()) {
        let compact = to_string(&doc);
        let back = parse(&compact).expect("own output parses");
        prop_assert_eq!(&back, &doc);
        let pretty = to_string_pretty(&doc);
        let back2 = parse(&pretty).expect("pretty output parses");
        prop_assert_eq!(&back2, &doc);
    }

    #[test]
    fn binary_roundtrip(doc in arb_document()) {
        let bytes = binary::encode(&doc);
        let back = binary::decode(&bytes).expect("own pages decode");
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn dewey_resolves_every_node(doc in arb_document()) {
        for id in doc.ids() {
            let dewey = doc.dewey_of(id);
            prop_assert_eq!(doc.node_at_dewey(&dewey), Some(id));
        }
    }
}

// ------------------------------------------------------- fragmentation --

/// A small random item document shaped like the paper's `Item` type.
fn arb_item(i: usize, section: &str, good: bool, pictures: usize) -> Document {
    let mut b = DocBuilder::new("Item")
        .named(&format!("i{i:03}"))
        .leaf("Code", &i.to_string())
        .leaf("Name", &format!("item {i}"))
        .leaf(
            "Description",
            if good { "a good thing" } else { "a plain thing" },
        )
        .leaf("Section", section);
    if pictures > 0 {
        b = b.open("PictureList");
        for p in 0..pictures {
            b = b
                .open("Picture")
                .leaf("Name", &format!("p{p}"))
                .leaf("Description", "pic")
                .leaf("ModificationDate", "2005-01-01")
                .leaf("OriginalPath", &format!("/o/{p}"))
                .leaf("ThumbPath", &format!("/t/{p}"))
                .close();
        }
        b = b.close();
    }
    b.build()
}

fn arb_items() -> impl Strategy<Value = Vec<Document>> {
    prop::collection::vec(
        (
            prop::sample::select(vec!["CD", "DVD", "BOOK", "TOY"]),
            any::<bool>(),
            0usize..3,
        ),
        1..20,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (section, good, pictures))| arb_item(i, section, good, pictures))
            .collect()
    })
}

fn citems() -> CollectionDef {
    CollectionDef::new(
        "items",
        Arc::new(builtin::virtual_store()),
        PathExpr::parse("/Store/Items/Item").unwrap(),
        RepoKind::MultipleDocuments,
    )
}

proptest! {
    #![proptest_config(cases(48))]

    /// Any partition of the section space yields a correct horizontal
    /// fragmentation, and reconstruction restores the collection.
    #[test]
    fn horizontal_correctness_holds(docs in arb_items(), split in 1usize..4) {
        let sections = ["CD", "DVD", "BOOK", "TOY"];
        let (left, right) = sections.split_at(split);
        let make = |name: &str, group: &[&str]| {
            let atoms: Vec<Predicate> = group
                .iter()
                .map(|s| Predicate::parse(&format!(r#"/Item/Section = "{s}""#)).unwrap())
                .collect();
            FragmentDef::horizontal(
                name,
                if atoms.len() == 1 { atoms[0].clone() } else { Predicate::Or(atoms) },
            )
        };
        let design = FragmentationSchema::new(
            citems(),
            vec![make("f_left", left), make("f_right", right)],
        ).unwrap();
        let fragments = Fragmenter::new(design.clone()).fragment_all(&docs);
        let report = check_correctness(&design, &docs, &fragments);
        prop_assert!(report.is_correct(), "{:?}", report.violations);
    }

    /// Vertical prune/project pairs are correct and reconstruct exactly,
    /// for documents with and without the optional subtree.
    #[test]
    fn vertical_correctness_holds(docs in arb_items()) {
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::vertical(
                    "f_main",
                    PathExpr::parse("/Item").unwrap(),
                    vec![PathExpr::parse("/Item/PictureList").unwrap()],
                ),
                FragmentDef::vertical(
                    "f_pics",
                    PathExpr::parse("/Item/PictureList").unwrap(),
                    vec![],
                ),
            ],
        ).unwrap();
        let fragments = Fragmenter::new(design.clone()).fragment_all(&docs);
        let report = check_correctness(&design, &docs, &fragments);
        prop_assert!(report.is_correct(), "{:?}", report.violations);
        let rebuilt =
            partix::frag::correctness::reconstruct_any(&design, &fragments).unwrap();
        prop_assert_eq!(rebuilt.len(), docs.len());
        for (a, b) in docs.iter().zip(&rebuilt) {
            prop_assert_eq!(a, b);
        }
    }
}

// ------------------------------------------------- distributed queries --

#[derive(Debug, Clone)]
enum QueryShape {
    SectionEq(&'static str),
    ContainsGood,
    CountBySection(&'static str),
    SumCodes,
    HasPictures,
    Everything,
}

fn arb_query() -> impl Strategy<Value = QueryShape> {
    prop_oneof![
        prop::sample::select(vec!["CD", "DVD", "BOOK", "TOY"]).prop_map(QueryShape::SectionEq),
        Just(QueryShape::ContainsGood),
        prop::sample::select(vec!["CD", "TOY"]).prop_map(QueryShape::CountBySection),
        Just(QueryShape::SumCodes),
        Just(QueryShape::HasPictures),
        Just(QueryShape::Everything),
    ]
}

impl QueryShape {
    fn text(&self, coll: &str) -> String {
        match self {
            QueryShape::SectionEq(s) => format!(
                r#"for $i in collection("{coll}")/Item where $i/Section = "{s}" return $i/Code"#
            ),
            QueryShape::ContainsGood => format!(
                r#"for $i in collection("{coll}")/Item
                   where contains($i/Description, "good") return $i/Name"#
            ),
            QueryShape::CountBySection(s) => format!(
                r#"count(for $i in collection("{coll}")/Item
                         where $i/Section = "{s}" return $i)"#
            ),
            QueryShape::SumCodes => format!(
                r#"sum(for $i in collection("{coll}")/Item return number($i/Code))"#
            ),
            QueryShape::HasPictures => format!(
                r#"for $i in collection("{coll}")/Item
                   where exists($i/PictureList) return $i/Code"#
            ),
            QueryShape::Everything => {
                format!(r#"for $i in collection("{coll}")/Item return $i"#)
            }
        }
    }
}

proptest! {
    #![proptest_config(cases(32))]

    /// For random data and random queries, the distributed answer always
    /// equals the centralized answer (as multisets).
    #[test]
    fn distributed_equals_centralized(docs in arb_items(), shape in arb_query()) {
        let px = PartiX::new(2, NetworkModel::default());
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::horizontal(
                    "f_media",
                    Predicate::parse(
                        r#"/Item/Section = "CD" or /Item/Section = "DVD""#
                    ).unwrap(),
                ),
                FragmentDef::horizontal(
                    "f_other",
                    Predicate::parse(
                        r#"/Item/Section != "CD" and /Item/Section != "DVD""#
                    ).unwrap(),
                ),
            ],
        ).unwrap();
        px.register_distribution(Distribution {
            design,
            placements: vec![
                Placement { fragment: "f_media".into(), node: 0 },
                Placement { fragment: "f_other".into(), node: 1 },
            ],
        }).unwrap();
        px.publish("items", &docs).unwrap();
        px.publish_centralized(0, "central", &docs).unwrap();

        let dist = px.execute(&shape.text("items")).unwrap();
        let cent = px.execute_centralized(0, &shape.text("central")).unwrap();
        let mut a: Vec<String> = dist.items.iter().map(Item::serialize).collect();
        let mut b: Vec<String> = cent.items.iter().map(Item::serialize).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b, "{:?}", shape);
    }
}

// ------------------------------------------------ vertical reconstruction --

/// One generated article: which parts it has at all, and what is in them.
#[derive(Debug, Clone)]
struct ArticleShape {
    prolog: Option<(usize, usize, usize)>, // title, genre, authors
    body: Option<(usize, Vec<usize>)>,     // abstract, heading of each section
    epilog: Option<(usize, usize, usize)>, // country, references, word count
}

const TITLES: [&str; 4] = ["T0 xml", "T1 data", "XML T2", "T1 xml"];
const GENRES: [&str; 3] = ["g0", "g1", "g2"];
const ABSTRACTS: [&str; 3] = ["xml good", "data poor", "good data"];
const COUNTRIES: [&str; 3] = ["BR", "AR", "US"];

impl ArticleShape {
    fn document(&self, i: usize) -> Document {
        let mut xml = format!(r#"<article id="a{i}">"#);
        if let Some((title, genre, authors)) = self.prolog {
            let authors: String =
                (0..authors).map(|k| format!("<author><name>n{i}{k}</name></author>")).collect();
            xml += &format!(
                "<prolog><title>{}</title><authors>{authors}</authors><genre>{}</genre>\
                 <pub_date>2005-01-0{}</pub_date></prolog>",
                TITLES[title], GENRES[genre], i % 9 + 1
            );
        }
        if let Some((abstract_, headings)) = &self.body {
            let sections: String = headings
                .iter()
                .enumerate()
                .map(|(k, h)| {
                    format!(
                        "<section><heading>h{h}</heading><p>p{i}{k}</p><p>q{i}{k}</p></section>"
                    )
                })
                .collect();
            let abstract_ = ABSTRACTS[*abstract_];
            xml += &format!("<body><abstract>{abstract_}</abstract>{sections}</body>");
        }
        if let Some((country, references, words)) = self.epilog {
            let references: String = (0..references)
                .map(|k| {
                    format!(
                        "<reference><ref_title>r{i}{k}</ref_title><year>199{k}</year></reference>"
                    )
                })
                .collect();
            xml += &format!(
                "<epilog><references>{references}</references><country>{}</country>\
                 <word_count>{}</word_count></epilog>",
                COUNTRIES[country],
                100 + words
            );
        }
        let mut doc = parse(&(xml + "</article>")).expect("generated article parses");
        doc.name = Some(format!("a{i}"));
        doc
    }
}

/// Articles of which roughly one in five lacks its prolog, its body or its
/// epilog *entirely*: no piece of them in that fragment.
fn arb_articles() -> impl Strategy<Value = Vec<Document>> {
    fn part<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
        (0usize..5, inner).prop_map(|(dice, part)| (dice > 0).then_some(part))
    }
    let prolog = part((0usize..4, 0usize..3, 1usize..3));
    let body = part((0usize..3, prop::collection::vec(0usize..3, 1..4)));
    let epilog = part((0usize..3, 0usize..3, 0usize..50));
    prop::collection::vec(
        (prolog, body, epilog)
            .prop_map(|(prolog, body, epilog)| ArticleShape { prolog, body, epilog }),
        2..9,
    )
    .prop_map(|shapes| shapes.iter().enumerate().map(|(i, s)| s.document(i)).collect())
}

const ARTICLES: &str = "articles";

/// A random complete vertical design over the article schema: the spine
/// plus any of the cut paths below, each fragment pruning the cuts made
/// directly inside it — top-level parts, parts of parts (two levels into
/// the spine when the part itself is not cut), and up to two `section`s
/// taken by position out of one `body`, one of them perhaps with its
/// `heading` cut out in turn (the nested, positional prune chain of
/// `join.rs::deep_prune_chain`; a cut that could take several nodes of a
/// document is not a valid design).
fn arb_vertical_design() -> impl Strategy<Value = (FragmentationSchema, Vec<Placement>)> {
    let cuts = [
        "/article/prolog",
        "/article/prolog/authors",
        "/article/body",
        "/article/body/abstract",
        "/article/epilog",
        "/article/epilog/references",
    ];
    let sections = prop::sample::select(vec![
        vec![],
        vec![],
        vec!["/article/body/section[1]"],
        vec!["/article/body/section[2]"],
        vec!["/article/body/section[1]", "/article/body/section[2]"],
        vec!["/article/body/section[1]", "/article/body/section[3]"],
        vec!["/article/body/section[2]", "/article/body/section[2]/heading"],
        vec!["/article/body/section[2]/heading", "/article/body/section[3]"],
    ]);
    (prop::collection::vec(any::<bool>(), 6..7), sections, prop::collection::vec(0usize..3, 9..10))
        .prop_filter("a design cuts somewhere", |(chosen, sections, _)| {
            chosen.contains(&true) || !sections.is_empty()
        })
        .prop_map(move |(chosen, sections, nodes)| {
            let path = |s: &str| PathExpr::parse(s).unwrap();
            let mut paths = vec![path("/article")];
            paths.extend(cuts.iter().zip(&chosen).filter(|(_, on)| **on).map(|(cut, _)| path(cut)));
            paths.extend(sections.iter().map(|cut| path(cut)));
            // a cut is pruned from the longest path it hangs under
            let container = |cut: &PathExpr| {
                let above = |p: &&PathExpr| {
                    p.steps.len() < cut.steps.len() && cut.strip_prefix(p).is_some()
                };
                paths.iter().filter(above).max_by_key(|p| p.steps.len()).cloned()
            };
            let fragments = paths
                .iter()
                .enumerate()
                .map(|(k, p)| {
                    let prune = paths.iter().filter(|c| container(c).as_ref() == Some(p)).cloned();
                    FragmentDef::vertical(&format!("f{k}"), p.clone(), prune.collect())
                })
                .collect();
            let collection = CollectionDef::new(
                ARTICLES,
                Arc::new(builtin::xbench_article()),
                path("/article"),
                RepoKind::MultipleDocuments,
            );
            let design = FragmentationSchema::new(collection, fragments).expect("valid design");
            let placements = (0..paths.len())
                .map(|k| Placement { fragment: format!("f{k}"), node: nodes[k] })
                .collect();
            (design, placements)
        })
}

/// Conjuncts a fragment's node may test on its own …
const PUSHABLE: [&str; 10] = [
    r#"$a/prolog/genre = "g1""#,
    r#"contains($a/body/abstract, "xml")"#,
    r#""BR" = $a/epilog/country"#,
    r#"starts-with($a/prolog/title, "T1")"#,
    r#"exists($a/prolog/authors/author/name)"#,
    r#"$a/@id != "a0""#,
    r#"$a/body/section[2]/heading = "h1""#,
    r#"$a/body/section/heading = "h0""#,
    r#"($a/prolog/genre = "g0" or contains($a/prolog/title, "XML"))"#,
    r#"$a/epilog/references/reference/year = "1991""#,
];

/// … and conjuncts none may: an article without the part passes the first
/// three, the next spans fragments, the rest read all of a path's nodes or
/// through steps that may lead anywhere.
const NOT_PUSHABLE: [&str; 7] = [
    r#"not($a/prolog/genre = "g1")"#,
    r#"empty($a/epilog/country)"#,
    r#"not(contains($a/body/abstract, "good"))"#,
    r#"($a/prolog/genre = "g0" or $a/epilog/country = "AR")"#,
    r#"count($a/body/section) >= 2"#,
    r#"$a/*/title = "T1 data""#,
    r#"contains($a//heading, "h1")"#,
];

const RETURNS: [&str; 14] = [
    "$a/body/section[3]/heading",
    "$a/body/section[2]",
    "(for $s in $a/body/section return $s/heading)",
    "$a/prolog/title",
    "($a/prolog/title, $a/epilog/country)",
    "$a/body/section[2]/p",
    "$a/body/section/heading",
    "$a/body/section[1]/p[2]",
    "$a//p",
    "$a/*/title",
    "$a/@id",
    "$a",
    "<r>{$a/prolog/title}{$a/epilog/word_count}</r>",
    "$a/prolog/authors/author[1]/name",
];

/// Paths of a `count` / `sum` / `avg` straight over the collection: some
/// have every match whole inside one piece of most designs, some straddle
/// a cut (`//prolog/authors` when `authors` is cut) or split a value on
/// some designs, the last two never distribute.
const AGGREGATED: [&str; 11] = [
    "//p",
    "//section",
    "//section/p",
    "//section/heading",
    "//reference/year",
    "//references/reference",
    "//prolog/authors",
    "//word_count",
    "//*",
    "//body//p",
    "//section[2]",
];

/// A random query over the distributed articles: conjuncts of both kinds,
/// positional, wildcard and `//` steps, an aggregate or an `order by`
/// around it, a self-join of the collection, the scan bound by a `let`
/// and read a second time through its variable, or an aggregate of one
/// `//` path of the collection.
fn arb_article_query() -> impl Strategy<Value = String> {
    let conjuncts = prop::collection::vec(
        // three in four pushable
        (
            0usize..4,
            prop::sample::select(PUSHABLE.to_vec()),
            prop::sample::select(NOT_PUSHABLE.to_vec()),
        )
            .prop_map(|(dice, pushable, not)| if dice > 0 { pushable } else { not }),
        0..4,
    );
    // mostly `count`: a `sum` of text is an error on every route, which
    // says nothing about the plan
    let aggregate = (
        prop::sample::select(vec!["count", "count", "count", "sum", "avg"]),
        prop::sample::select(AGGREGATED.to_vec()),
    );
    (conjuncts, prop::sample::select(RETURNS.to_vec()), 0usize..15, aggregate).prop_map(
        |(mut conjuncts, ret, shape, (function, path))| {
            let c = format!(r#"collection("{ARTICLES}")"#);
            // four in fifteen
            if shape > 10 {
                return format!("{function}({c}{path})");
            }
            match shape {
                7 => conjuncts.push("$a/epilog/country = $b/epilog/country"),
                9 => conjuncts.push("count($all) > 2"),
                _ => {}
            }
            let bindings = match shape {
                7 => format!("for $a in {c}/article, $b in {c}/article"),
                8 | 9 => format!("let $all := {c}/article for $a in $all"),
                _ => format!("for $a in {c}/article"),
            };
            let filter = match conjuncts.is_empty() {
                true => String::new(),
                false => format!("where {}", conjuncts.join(" and ")),
            };
            match shape {
                0..=2 | 9 => format!("{bindings} {filter} return {ret}"),
                3 => format!(
                    "{bindings} {filter} order by $a/prolog/title descending return {ret}"
                ),
                4 => format!("count({bindings} {filter} return {ret})"),
                5 => format!("count({bindings} {filter} return $a)"),
                6 => format!("sum({bindings} {filter} return number($a/epilog/word_count))"),
                7 => format!("{bindings} {filter} return ($b/prolog/title, {ret})"),
                8 => format!("{bindings} {filter} return (count($all), {ret})"),
                _ => format!("count({bindings} {filter} return $a) > 1"),
            }
        },
    )
}

/// A cluster holding `docs` under `design`, and centralized on node 0.
fn vertical_px(
    docs: &[Document],
    design: FragmentationSchema,
    placements: Vec<Placement>,
) -> PartiX {
    let px = PartiX::new(3, NetworkModel::default());
    px.register_distribution(Distribution { design, placements }).unwrap();
    px.publish(ARTICLES, docs).unwrap();
    px.publish_centralized(0, "central", docs).unwrap();
    px
}

/// Test support, not a product route: the answer of `query` with **every**
/// fragment fetched whole, all documents rebuilt, and the query run over
/// them — what a reconstruction was before it read only what the query
/// reads.
fn fetch_everything(px: &PartiX, query: &str) -> Result<Vec<Item>, String> {
    let catalog = px.catalog();
    let dist = catalog.distribution(ARTICLES).expect("distributed");
    let fetched: Vec<_> = dist
        .design
        .fragments
        .iter()
        .map(|frag| {
            let node = px.cluster().node(dist.nodes_of(&frag.name)[0]).expect("placed");
            let docs = node.active_driver().try_fetch_collection(&frag.name).expect("fetch");
            (frag.name.clone(), docs)
        })
        .collect();
    let rebuilt = partix::frag::correctness::reconstruct_any_shared(&dist.design, &fetched)?;
    let mut provider = MemProvider::new();
    provider.add_shared(ARTICLES, rebuilt);
    let query = parse_query(query).map_err(|e| e.to_string())?;
    Evaluator::new(&provider).eval(&query).map_err(|e| e.to_string())
}

/// What a case did, for the generator check below.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct PlanShape {
    reconstructed: bool,
    /// Answered by several fragments' sub-queries, nothing rebuilt.
    decomposed: bool,
    pruned: bool,
    filtered: bool,
}

/// Distributed ≡ fetch-everything ≡ centralized for one case. A rebuilt
/// answer keeps the centralized order; a decomposed one is a concatenation
/// in fragment order, compared as a multiset.
fn check_vertical_case(
    docs: &[Document],
    design: FragmentationSchema,
    placements: Vec<Placement>,
    query: &str,
) -> PlanShape {
    let fragments = design.fragments.len();
    let px = vertical_px(docs, design, placements);
    let serialize = |items: &[Item]| items.iter().map(Item::serialize).collect::<Vec<_>>();
    // an evaluation error compares by the evaluator's message
    let central = px
        .execute_centralized(0, &query.replace(ARTICLES, "central"))
        .map(|r| serialize(&r.items))
        .map_err(|e| match e {
            PartixError::SubQuery { error, .. } => error,
            other => other.to_string(),
        });
    let everything = fetch_everything(&px, query).map(|items| serialize(&items));
    prop_assert_eq!(&everything, &central, "fetch-everything vs centralized: {}", query);
    let distributed = px.execute(query);
    let Ok(distributed) = distributed else {
        prop_assert!(central.is_err(), "{query}: {:?}, centralized {central:?}", distributed.err());
        return PlanShape::default();
    };
    let (mut got, mut expected) = (serialize(&distributed.items), central.expect("answered"));
    let report = &distributed.report;
    if !report.reconstructed {
        got.sort();
        expected.sort();
    }
    prop_assert_eq!(got, expected, "{}\nsites {:?}", query, report.sites);
    prop_assert_eq!(report.sites.len() + report.fragments_pruned, fragments, "{}", query);
    let held = |fragment: &str| {
        let catalog = px.catalog();
        let node = catalog.distribution(ARTICLES).expect("distributed").nodes_of(fragment)[0];
        px.cluster().node(node).expect("placed").fetch_docs(fragment).len()
    };
    PlanShape {
        reconstructed: report.reconstructed,
        decomposed: !report.reconstructed && report.sites.len() > 1,
        pruned: report.reconstructed && report.fragments_pruned > 0,
        filtered: report.reconstructed
            && report.sites.iter().any(|site| site.docs_scanned < held(&site.fragment)),
    }
}

proptest! {
    #![proptest_config(cases(48))]

    /// Pruned + filtered ≡ fetch-everything ≡ centralized: for random
    /// vertical designs, random collections in which some articles lack a
    /// part entirely, and random queries, reading only what the query reads
    /// changes no answer.
    #[test]
    fn pruned_filtered_reconstruction_equals_fetch_everything_and_centralized(
        docs in arb_articles(),
        design in arb_vertical_design(),
        query in arb_article_query(),
    ) {
        check_vertical_case(&docs, design.0, design.1, &query);
    }
}

/// The generator reaches what the property is about: among a fixed sample
/// of cases a good share reconstructs, leaves fragments unread, and has a
/// node filter its fetch; and both sides of the rule for aggregates over
/// a `//` path are taken — summed per fragment, and rebuilt.
#[test]
fn vertical_generator_reaches_pruned_and_filtered_reconstructions() {
    let mut rng = proptest::test_runner::TestRng::from_seed(16);
    let strategy = (arb_articles(), arb_vertical_design(), arb_article_query());
    let (mut reconstructed, mut pruned, mut filtered) = (0, 0, 0);
    let (mut decomposed, mut rebuilt) = (0, 0);
    let cases = 120;
    for _ in 0..cases {
        let (docs, (design, placements), query) =
            strategy.generate(&mut rng).expect("no filter rejects");
        let shape = check_vertical_case(&docs, design, placements, &query);
        reconstructed += usize::from(shape.reconstructed);
        pruned += usize::from(shape.pruned);
        filtered += usize::from(shape.filtered);
        decomposed += usize::from(shape.decomposed);
        let aggregate = query.contains(&format!(r#"collection("{ARTICLES}")//"#));
        rebuilt += usize::from(aggregate && shape.reconstructed);
    }
    assert!(reconstructed * 2 >= cases, "{reconstructed} of {cases} cases reconstruct");
    assert!(pruned * 5 >= cases, "{pruned} of {cases} cases leave a fragment unread");
    assert!(filtered * 8 >= cases, "{filtered} of {cases} cases filter a fetch");
    assert!(decomposed * 8 >= cases, "{decomposed} of {cases} cases are summed per fragment");
    assert!(rebuilt * 30 >= cases, "{rebuilt} of {cases} cases are `//` aggregates rebuilt");
}

// --------------------------------------------------- fault schedules --

/// 3-node middleware with both fragments replicated twice:
/// `f_media` on nodes {0, 2}, `f_other` on nodes {1, 2}. Any single
/// node failure leaves every fragment answerable.
fn replicated_px(docs: &[partix::xml::Document]) -> PartiX {
    let px = PartiX::new(3, NetworkModel::default());
    let design = FragmentationSchema::new(
        citems(),
        vec![
            FragmentDef::horizontal(
                "f_media",
                Predicate::parse(r#"/Item/Section = "CD" or /Item/Section = "DVD""#).unwrap(),
            ),
            FragmentDef::horizontal(
                "f_other",
                Predicate::parse(r#"/Item/Section != "CD" and /Item/Section != "DVD""#)
                    .unwrap(),
            ),
        ],
    )
    .unwrap();
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_media".into(), node: 0 },
            Placement { fragment: "f_media".into(), node: 2 },
            Placement { fragment: "f_other".into(), node: 1 },
            Placement { fragment: "f_other".into(), node: 2 },
        ],
    })
    .unwrap();
    px.publish("items", docs).unwrap();
    px
}

fn multiset(items: &[Item]) -> Vec<String> {
    let mut v: Vec<String> = items.iter().map(Item::serialize).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(cases(24))]

    /// With replication ≥ 2 and any seeded fault schedule on a single
    /// node, the retry/failover dispatcher always answers, and the
    /// answer equals the fault-free result. Latency faults are stripped
    /// (they only slow calls down and would dominate the test's wall
    /// clock); error, crash and flip-flop faults stay.
    #[test]
    fn single_node_faults_never_fail_replicated_queries(
        docs in arb_items(),
        shape in arb_query(),
        seed in any::<u64>(),
        faulty in 0usize..3,
    ) {
        let clean = replicated_px(&docs);
        let expected = multiset(&clean.execute(&shape.text("items")).unwrap().items);

        let px = replicated_px(&docs);
        let mut plan = FaultPlan::from_seed(seed, 3, 1.0);
        for (node, faults) in plan.node_faults.iter_mut().enumerate() {
            faults.retain(|f| !matches!(f, Fault::Latency { .. }));
            if node != faulty {
                faults.clear();
            }
        }
        plan.install(&px);
        // repeated execution: later calls walk deeper into call-counter
        // keyed schedules (error-after-N, flip-flops)
        for round in 0..3 {
            let got = px
                .execute_with(&shape.text("items"), ExecOptions::default())
                .unwrap_or_else(|e| {
                    panic!("round {round}, seed {seed:#x}, node {faulty} faulty: {e}")
                });
            prop_assert_eq!(multiset(&got.items), expected.clone(), "round {}", round);
        }
    }

    /// Any suspect cooldown — zero, sub-microsecond, or effectively
    /// infinite ([`Duration::MAX`]) — must never panic the dispatcher:
    /// the cooldown check is `marked_at.elapsed() < cooldown`, which
    /// cannot overflow, where the naive `marked_at + cooldown` would.
    /// With replication ≥ 2 and one faulty node, queries still answer
    /// (an eternally-suspect replica is deprioritized, not abandoned).
    #[test]
    fn extreme_suspect_cooldowns_never_panic(
        docs in arb_items(),
        seed in any::<u64>(),
        faulty in 0usize..3,
        cooldown_exp in 0u32..64,
    ) {
        use partix::engine::RetryPolicy;
        use std::time::Duration;
        let cooldown = if cooldown_exp >= 63 {
            Duration::MAX
        } else {
            Duration::from_nanos(1u64 << cooldown_exp)
        };
        let clean = replicated_px(&docs);
        let query = r#"count(collection("items")/Item)"#;
        let expected = multiset(&clean.execute(query).unwrap().items);

        let px = replicated_px(&docs);
        px.set_retry_policy(RetryPolicy {
            suspect_cooldown: cooldown,
            ..RetryPolicy::default()
        });
        let mut plan = FaultPlan::from_seed(seed, 3, 1.0);
        for (node, faults) in plan.node_faults.iter_mut().enumerate() {
            faults.retain(|f| !matches!(f, Fault::Latency { .. }));
            if node != faulty {
                faults.clear();
            }
        }
        plan.install(&px);
        for round in 0..3 {
            let got = px
                .execute_with(query, ExecOptions::default())
                .unwrap_or_else(|e| {
                    panic!(
                        "round {round}, seed {seed:#x}, cooldown {cooldown:?}, \
                         node {faulty} faulty: {e}"
                    )
                });
            prop_assert_eq!(multiset(&got.items), expected.clone(), "round {}", round);
        }
    }

    /// `allow_partial` reports exactly the fragments whose every replica
    /// is down — no more, no fewer — and answers from the rest.
    #[test]
    fn allow_partial_skips_exactly_dead_fragments(
        docs in arb_items(),
        mask in prop::collection::vec(any::<bool>(), 3..4),
    ) {
        let px = replicated_px(&docs);
        for (node, &up) in mask.iter().enumerate() {
            px.cluster().node(node).unwrap().set_available(up);
        }
        let replicas: [(&str, [usize; 2]); 2] =
            [("f_media", [0, 2]), ("f_other", [1, 2])];
        let mut expected: Vec<&str> = replicas
            .iter()
            .filter(|(_, nodes)| nodes.iter().all(|&n| !mask[n]))
            .map(|(frag, _)| *frag)
            .collect();
        expected.sort();

        let query = r#"for $i in collection("items")/Item return $i/Code"#;
        let result = px
            .execute_with(query, ExecOptions { allow_partial: true, ..ExecOptions::default() })
            .unwrap();
        let mut skipped: Vec<&str> = result
            .report
            .skipped
            .iter()
            .map(|s| s.fragment.as_str())
            .collect();
        skipped.sort();
        prop_assert_eq!(skipped, expected.clone(), "mask {:?}", mask);
        prop_assert_eq!(result.report.partial, !expected.is_empty());

        // the fragments that did answer contribute exactly their data:
        // with nothing skipped the answer is the full collection
        if expected.is_empty() {
            let clean = replicated_px(&docs);
            prop_assert_eq!(
                multiset(&result.items),
                multiset(&clean.execute(query).unwrap().items)
            );
        }
    }
}
