//! Property-based tests over the core invariants:
//!
//! * parse ∘ serialize = id and binary encode ∘ decode = id for random
//!   documents;
//! * fragmentation correctness (completeness / disjointness /
//!   reconstruction) for every design the one generator draws;
//! * distributed query answers equal centralized answers for generated
//!   cases of every family;
//! * a reconstruction that reads only what the query reads — fragments
//!   pruned by footprint, fetches filtered at the node — answers as the
//!   one that fetches everything does, and as the centralized run, over
//!   generated vertical cases;
//! * fault tolerance: seeded fault schedules against replicated
//!   repositories never fail (replication 2, one faulty node) and
//!   `allow_partial` reports exactly the fragments that lost every
//!   replica.
//!
//! `PARTIX_PROPTEST_CASES` overrides every block's case count so CI can
//! dial the effort.

mod common;

use common::gen::{Case, Family, FAMILIES};
use common::{cases, check, for_cases, message, route_holds, Form, On, Route};
use partix::engine::{DispatchMode, ExecOptions, FaultPlan, PartiX, QueryReport};
use partix::query::{parse_query, Evaluator, Item, MemProvider};
use partix::xml::{binary, parse, to_string, to_string_pretty, DocBuilder, Document};
use partix::algebra::Keep;
use partix::frag::FragmentDef;
use partix::frag::correctness::reconstruct_any_shared;
use partix::query::pushdown::analyze;
use partix_bench::oracle::{canonical, exact};
use partix_bench::setup::DIST;
use proptest::prelude::*;
use std::cell::Cell;

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

/// Every horizontal and hybrid design the generator draws is complete,
/// disjoint and reconstructs its documents.
#[test]
fn horizontal_correctness_holds() {
    for_cases(&[Family::Horizontal, Family::Hybrid], 48, |case| {
        let report = case.correctness();
        report.is_correct().then_some(()).ok_or_else(|| format!("{:?}", report.violations))
    });
}

/// Every vertical design the generator draws is correct and rebuilds
/// each document exactly, whichever parts it lacks.
#[test]
fn vertical_correctness_holds() {
    for_cases(&[Family::Vertical], 48, |case| {
        let report = case.correctness();
        if !report.is_correct() {
            return Err(format!("{:?}", report.violations));
        }
        let fragments = partix::frag::Fragmenter::new(case.design.clone()).fragment_all(&case.docs);
        let rebuilt = partix::frag::correctness::reconstruct_any(&case.design, &fragments)?;
        (rebuilt == case.docs).then_some(()).ok_or_else(|| "rebuilt documents differ".to_owned())
    });
}

// ------------------------------------------------- distributed queries --

/// For the fixed bench workloads and then generated cases of every family
/// — complete, disjoint horizontal predicate sets, vertical cuts with
/// prunes, FragMode1 and FragMode2 hybrids — the buffered distributed
/// answer is the centralized one.
#[test]
fn distributed_equals_centralized() {
    route_holds(&FAMILIES, 32, |_| Route::Buffered);
}

/// A failing case prints reduced: planted on one document and one
/// conjunct, a failure reduces the case to exactly those.
#[test]
fn a_failing_case_reduces_to_what_its_failure_needs() {
    let mut case = (0..)
        .map(|seed| Case::draw(seed, Family::Horizontal))
        .find(|case| case.docs.len() >= 3)
        .expect("a case with three documents");
    let planted = case.docs[1].clone();
    let needed = r#"$a/Section != "CD""#.to_owned();
    case.query.conjuncts = vec!["$a/Code = 1".into(), needed.clone(), r#"$a/Name = "x""#.into()];
    let fails = |c: &Case| c.docs.contains(&planted) && c.query.conjuncts.contains(&needed);
    let small = case.reduce(fails);
    assert_eq!(small.docs, [planted]);
    assert_eq!(small.query.conjuncts, [needed]);
}

// ------------------------------------------------ vertical reconstruction --

/// Test support, not a product route: the answer of `query` with
/// **every** fragment fetched whole, all documents rebuilt — whole, or
/// `projected` as far as the query reads them — and the query run over
/// them, with the number of nodes rebuilt: what a reconstruction was
/// before it read only what the query reads.
fn fetch_everything(px: &PartiX, query: &str, project: bool) -> Result<(Vec<Item>, usize), String> {
    let catalog = px.catalog();
    let dist = catalog.distribution(DIST).expect("distributed");
    let fetch = |frag: &FragmentDef| {
        let node = px.cluster().node(dist.nodes_of(&frag.name)[0]).expect("placed");
        (frag.name.clone(), node.active_driver().try_fetch_collection(&frag.name).expect("fetch"))
    };
    let fetched: Vec<_> = dist.design.fragments.iter().map(fetch).collect();
    let query = parse_query(query).map_err(|e| e.to_string())?;
    let analysis = analyze(&query).filter(|a| project && a.collection == DIST);
    let keep = analysis.map(|a| Keep::new(&a.footprint, &a.iterated));
    let rebuilt = reconstruct_any_shared(&dist.design, &fetched, keep.as_ref())?;
    let nodes = rebuilt.iter().map(|doc| doc.len()).sum();
    let mut provider = MemProvider::new();
    provider.add_shared(DIST, rebuilt);
    let items = Evaluator::new(&provider).eval(&query).map_err(|e| e.to_string())?;
    Ok((items, nodes))
}

/// What a case did, for the generator checks below.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct PlanShape {
    reconstructed: bool,
    /// Answered by several fragments' sub-queries, nothing rebuilt.
    decomposed: bool,
    pruned: bool,
    filtered: bool,
}

impl PlanShape {
    fn of(px: &PartiX, report: &QueryReport) -> PlanShape {
        let held = |fragment: &str| {
            let catalog = px.catalog();
            let node = catalog.distribution(DIST).expect("distributed").nodes_of(fragment)[0];
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
}

/// Distributed ≡ fetch-everything ≡ centralized for one vertical case,
/// and every fragment is either read or pruned.
fn vertical_case(case: &Case) -> Result<PlanShape, String> {
    let on = On::new(case.cluster(1), Route::Buffered);
    let query = case.query.text();
    let central = on.px.execute_centralized(0, &partix_bench::oracle::centralized_text(&query));
    let central = central.map(|r| canonical(&r.items)).map_err(|e| message(&e));
    let everything = fetch_everything(&on.px, &query, false).map(|(items, _)| canonical(&items));
    if everything != central {
        return Err(format!("fetch-everything {everything:?}\ncentralized {central:?}"));
    }
    let Some(report) = check(&on, &query)?.report else { return Ok(PlanShape::default()) };
    if report.sites.len() + report.fragments_pruned != case.design.fragments.len() {
        return Err(format!("sites {:?} and {} pruned", report.sites, report.fragments_pruned));
    }
    Ok(PlanShape::of(&on.px, &report))
}

/// Pruned + filtered ≡ fetch-everything ≡ centralized: for generated
/// vertical designs, collections in which some articles lack a part
/// entirely, and generated queries, reading only what the query reads
/// changes no answer.
#[test]
fn pruned_filtered_reconstruction_equals_fetch_everything_and_centralized() {
    for_cases(&[Family::Vertical], 48, |case| vertical_case(case).map(drop));
}

/// π before ⋈: over generated vertical cases (nested `for`s whose variable
/// is read, counted or unused, positions, `*`, `//`, `@id`, whole
/// articles), the answer over documents rebuilt only as far as the query
/// reads them is the answer over whole ones, item for item, and the
/// buffered distributed answer is the centralized one; one in three cases
/// rebuilds fewer nodes.
#[test]
fn projected_reconstruction_equals_whole_reconstruction() {
    let (cases, fewer) = (Cell::new(0), Cell::new(0));
    for_cases(&[Family::Vertical], 48, |case| {
        let on = On::new(case.cluster(1), Route::Buffered);
        let query = case.query.text();
        let rebuilt = |projected| fetch_everything(&on.px, &query, projected);
        let answer = |p| rebuilt(p).map(|(items, nodes)| (exact(&items), nodes));
        let [whole, projected] = [false, true].map(answer);
        let nodes = |answer: &Result<(String, usize), String>| answer.as_ref().map_or(0, |a| a.1);
        cases.set(cases.get() + 1);
        fewer.set(fewer.get() + usize::from(nodes(&projected) < nodes(&whole)));
        let (whole, projected) = (whole.map(|a| a.0), projected.map(|a| a.0));
        if projected != whole {
            return Err(format!("projected {projected:?}\nwhole {whole:?}"));
        }
        check(&on, &query).map(drop)
    });
    assert!(fewer.get() * 3 >= cases.get(), "{} of {} cases project", fewer.get(), cases.get());
}

/// The generator reaches what the property is about: among a fixed sample
/// of cases a good share reconstructs, leaves fragments unread, and has a
/// node filter its fetch; and both sides of the rule for aggregates over
/// a `//` path are taken — summed per fragment, and rebuilt.
#[test]
fn vertical_generator_reaches_pruned_and_filtered_reconstructions() {
    let (mut reconstructed, mut pruned, mut filtered) = (0, 0, 0);
    let (mut decomposed, mut rebuilt) = (0, 0);
    let cases = 120;
    for seed in 16..16 + cases as u64 {
        let case = Case::draw(seed, Family::Vertical);
        let shape = vertical_case(&case).unwrap_or_else(|e| panic!("{case:?}\n{e}"));
        reconstructed += usize::from(shape.reconstructed);
        pruned += usize::from(shape.pruned);
        filtered += usize::from(shape.filtered);
        decomposed += usize::from(shape.decomposed);
        let aggregate = case.query.text().contains(&format!(r#"collection("{DIST}")//"#));
        rebuilt += usize::from(aggregate && shape.reconstructed);
    }
    assert!(reconstructed * 2 >= cases, "{reconstructed} of {cases} cases reconstruct");
    assert!(pruned * 5 >= cases, "{pruned} of {cases} cases leave a fragment unread");
    assert!(filtered * 8 >= cases, "{filtered} of {cases} cases filter a fetch");
    assert!(decomposed * 8 >= cases, "{decomposed} of {cases} cases are summed per fragment");
    assert!(rebuilt * 30 >= cases, "{rebuilt} of {cases} cases are `//` aggregates rebuilt");
}

/// Over the default budget of every family (a fixed sample, streamed in
/// process) the generator reaches every way an answer composes and is
/// compared: a concatenated core, a split with its remainder, a vertical
/// aggregate summed per fragment, a pruned and filtered reconstruction, a
/// pruned fragment, an item-for-item comparison of several items, and an
/// evaluation error both sides raise alike.
#[test]
fn the_generator_reaches_every_composition() {
    let mut seen = [0usize; 7];
    for k in 0..96u64 {
        let family = FAMILIES[k as usize % 3];
        let case = Case::draw(0xC0FFEE + k, family);
        let on = On::new(case.cluster(1), Route::Streamed(DispatchMode::Simulated));
        let verdict = check(&on, &case.query.text()).unwrap_or_else(|e| panic!("{case:?}\n{e}"));
        let shape = verdict.report.as_ref().map(|r| PlanShape::of(&on.px, r)).unwrap_or_default();
        let pruned = verdict.report.as_ref().is_some_and(|r| r.fragments_pruned > 0);
        let whole = !case.query.head.starts_with("for") && !case.query.head.starts_with("let");
        let reached = [
            verdict.slices > 1,
            family != Family::Vertical && shape.decomposed && verdict.slices == 1 && whole,
            family == Family::Vertical && shape.decomposed,
            shape.pruned && shape.filtered,
            pruned && !shape.reconstructed,
            verdict.form == Form::Exact && verdict.items > 1,
            verdict.failed_alike,
        ];
        for (count, hit) in seen.iter_mut().zip(reached) {
            *count += usize::from(hit);
        }
    }
    let names = ["core", "split", "vertical sum", "pruned+filtered", "pruned", "exact", "error"];
    assert!(seen.iter().all(|&n| n > 0), "{:?}", names.iter().zip(seen).collect::<Vec<_>>());
}

// --------------------------------------------------- fault schedules --

/// The seeded schedule of node `faulty` alone, latency faults stripped
/// (they only slow calls down and would dominate the test's wall clock);
/// error, crash and flip-flop faults stay.
fn one_faulty_node(seed: u64, faulty: usize) -> FaultPlan {
    let mut plan = FaultPlan::from_seed(seed, 3, 1.0);
    for (node, faults) in plan.node_faults.iter_mut().enumerate() {
        faults.retain(|f| !matches!(f, partix::engine::Fault::Latency { .. }));
        if node != faulty {
            faults.clear();
        }
    }
    plan
}

/// Three rounds of `on`'s query, each answered (or failed alike by the
/// centralized run): later calls walk deeper into call-counter keyed
/// schedules (error-after-N, flip-flops).
fn answers_every_round(on: &On, case: &Case) -> Result<(), String> {
    for round in 0..3 {
        let verdict = check(on, &case.query.text()).map_err(|e| format!("round {round}: {e}"))?;
        if !(verdict.answered || verdict.failed_alike || verdict.refused) {
            return Err(format!("round {round}: a replicated query failed"));
        }
    }
    Ok(())
}

/// With every fragment on two of three nodes and any seeded fault
/// schedule on a single node, the retry/failover dispatcher always
/// answers, and the answer is the centralized one.
#[test]
fn single_node_faults_never_fail_replicated_queries() {
    for_cases(&FAMILIES, 24, |case| {
        let plan = one_faulty_node(case.seed, case.seed as usize % 3);
        answers_every_round(&On::new(case.cluster(2), Route::Faulted(plan)), case)
    });
}

/// Any suspect cooldown — zero, sub-microsecond, or effectively
/// infinite ([`Duration::MAX`]) — must never panic the dispatcher:
/// the cooldown check is `marked_at.elapsed() < cooldown`, which
/// cannot overflow, where the naive `marked_at + cooldown` would.
/// With replication 2 and one faulty node, queries still answer
/// (an eternally-suspect replica is deprioritized, not abandoned).
#[test]
fn extreme_suspect_cooldowns_never_panic() {
    use partix::engine::RetryPolicy;
    use std::time::Duration;
    for_cases(&[Family::Horizontal], 24, |case| {
        let exponent = (case.seed >> 8) % 64;
        let cooldown = match exponent {
            63 => Duration::MAX,
            _ => Duration::from_nanos(1u64 << exponent),
        };
        let px = case.cluster(2);
        px.set_retry_policy(RetryPolicy { suspect_cooldown: cooldown, ..RetryPolicy::default() });
        let plan = one_faulty_node(case.seed, case.seed as usize % 3);
        answers_every_round(&On::new(px, Route::Faulted(plan)), case)
            .map_err(|e| format!("cooldown {cooldown:?}: {e}"))
    });
}

/// `allow_partial` reports exactly the fragments whose every replica
/// is down — no more, no fewer — and answers from the rest.
#[test]
fn allow_partial_skips_exactly_dead_fragments() {
    for_cases(&[Family::Horizontal], 24, |case| {
        let up: Vec<bool> = (0..3).map(|node| case.seed >> node & 1 == 1).collect();
        let px = case.cluster(2);
        for (node, &up) in up.iter().enumerate() {
            px.cluster().node(node).expect("node").set_available(up);
        }
        let dist = px.catalog().distribution(DIST).cloned().expect("distributed");
        let dead = |fragment: &&str| dist.nodes_of(fragment).iter().all(|&n| !up[n]);
        let mut expected: Vec<&str> =
            dist.design.fragments.iter().map(|f| f.name.as_str()).filter(dead).collect();
        expected.sort();

        let query = format!(r#"for $i in collection("{DIST}")/Item return $i/Code"#);
        let options = ExecOptions { allow_partial: true, ..ExecOptions::default() };
        let result = px.execute_with(&query, options).map_err(|e| e.to_string())?;
        let skipped = result.report.skipped.iter().map(|s| s.fragment.as_str());
        let mut skipped: Vec<&str> = skipped.collect();
        skipped.sort();
        if skipped != expected || result.report.partial == expected.is_empty() {
            return Err(format!("up {up:?}: skipped {skipped:?}, expected {expected:?}"));
        }
        // the fragments that did answer contribute exactly their data:
        // with nothing skipped the answer is the full collection
        let central = px.execute_centralized(0, &partix_bench::oracle::centralized_text(&query));
        let central = canonical(&central.map_err(|e| e.to_string())?.items);
        match expected.is_empty() && canonical(&result.items) != central {
            true => Err(format!("up {up:?}: {} vs {central}", canonical(&result.items))),
            false => Ok(()),
        }
    });
}
