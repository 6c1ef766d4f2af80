//! Morsel decomposition: splitting one query into per-document-batch
//! partials that merge back into the exact sequential answer.
//!
//! PartiX already parallelizes *across* fragments — every node evaluates
//! its sub-query concurrently. But each node's evaluation is sequential,
//! so a single huge fragment bounds the whole query (ROADMAP O3). This
//! module provides the query-level half of intra-fragment parallelism:
//!
//! * [`plan`] decides whether a query is **morsel-decomposable** — safe to
//!   evaluate over disjoint batches ("morsels") of the driving
//!   collection's documents and recombine. [`Program::lower`] asks it
//!   once and splits the query there: the core that runs over documents,
//!   the calls around it ([`Program::is_decomposable`]);
//! * [`Program::run_morsel`] runs the core over one morsel — a borrowed
//!   slice of the candidate documents — into a [`MorselPartial`];
//! * [`merge`] recombines the partials into the exact sequence
//!   [`Program::run`] produces over all the documents — which is itself
//!   the merge of one partial.
//!
//! The storage engine (`partix-storage`) owns the other half: taking the
//! candidate snapshot, choosing morsel boundaries and running partials on
//! worker threads. Its sequential path is the same path with one morsel.
//!
//! A query that does not decompose may still have a driving scan
//! (`driving_scan`: a join, a FLWOR that also reads `doc(…)` or sits
//! under a comparison). It runs whole, but the storage engine can lend
//! that one scan the documents its indexes shortlisted
//! ([`Program::run_lending`]); every other read goes to the provider.
//!
//! ## Decomposability
//!
//! A query decomposes when its result is a function of a single pass over
//! one collection, document by document:
//!
//! 1. it reads **exactly one** `collection(…)` source and no `doc(…)`
//!    sources — so a morsel standing for that collection can answer
//!    every data access;
//! 2. its core (after peeling single-argument function wrappers like
//!    `count(…)`, `sum(…)`, `string(…)`) is either a bare collection
//!    path or a FLWOR whose **first `for` clause** is bound directly to
//!    the collection path — making that clause the driving loop whose
//!    iteration space the morsels partition.
//!
//! Under these conditions the tuple stream of the full collection is the
//! concatenation of the per-morsel tuple streams (in morsel order =
//! document order), so:
//!
//! * an unordered core's result is the concatenation of morsel results
//!   ([`MorselPartial::Plain`]);
//! * when the innermost wrapper is `count`, a morsel counts its items in
//!   the sink instead of keeping them ([`MorselPartial::Count`]) and the
//!   merge adds the counts — integers, exact under any split;
//! * an ordered core is evaluated per-morsel *without sorting*, carrying
//!   each tuple's sort key ([`MorselPartial::Keyed`]); one global stable
//!   sort at the merge reproduces the sequential semantics (stable sort
//!   ascending, reverse for `descending`) exactly;
//! * every other wrapper is applied once, to the merged sequence —
//!   `f(morsel₁ ++ morsel₂ ++ …)` is by construction the sequential
//!   answer, with no per-function distribution law needed, and `sum` /
//!   `avg` add in document order whatever the split, so floating-point
//!   answers are bit-identical to the unsplit run (unlike the
//!   coordinator's fragment composition, which must re-aggregate `count`
//!   as a sum of counts because nodes apply the wrapper locally).
//!
//! Everything else — nested collection scans (joins), `doc(…)` reads,
//! queries whose first `for` ranges over a variable — runs whole, against
//! a provider: [`plan`] returns `None`.

use crate::ast::{Clause, Expr, PathSource, PathStart, Query, SortDir};
use crate::eval::{sort_tuples, EvalError, Halt, SortKey};
use crate::func;
use crate::lower::Program;
use crate::value::{Item, Sequence};

/// A morsel-decomposable query, split at its decomposition point.
#[derive(Debug, Clone)]
pub struct MorselPlan<'q> {
    /// The single collection the core scans — morsels partition its
    /// documents.
    pub collection: &'q str,
    /// Single-argument function wrappers peeled off around the core,
    /// innermost first. Applied once, in order, to the merged sequence.
    pub wrappers: Vec<&'q str>,
    /// The decomposition point: a FLWOR driven by the collection, or a
    /// bare collection-rooted path.
    pub core: &'q Expr,
    /// `Some(dir)` when the core carries an `order by` — partials are
    /// then keyed and the merge performs the global sort.
    pub ordered: Option<SortDir>,
}

/// Result of running a program's core over one morsel.
#[derive(Debug, Clone)]
pub enum MorselPartial {
    /// Unordered core: the core's result items, in document order.
    Plain(Sequence),
    /// Unordered core under `count(…)`: how many items it has.
    Count(usize),
    /// Ordered core: per-tuple `(sort key, return items)` pairs, in
    /// document order, *not* sorted yet.
    Keyed(Vec<(SortKey, Sequence)>),
}

impl MorselPartial {
    fn kind(&self) -> &'static str {
        match self {
            MorselPartial::Plain(_) => "plain",
            MorselPartial::Count(_) => "count",
            MorselPartial::Keyed(_) => "keyed",
        }
    }
}

/// Decide whether `query` is morsel-decomposable; see the module docs for
/// the exact conditions. Returns `None` when it must run whole.
pub fn plan(query: &Query) -> Option<MorselPlan<'_>> {
    // condition 1: exactly one collection source, no doc sources
    let mut collections = 0usize;
    let mut docs = 0usize;
    query.visit_paths(&mut |ps| match &ps.start {
        PathStart::Collection(_) => collections += 1,
        PathStart::Doc(_) => docs += 1,
        PathStart::Var(_) => {}
    });
    if collections != 1 || docs != 0 {
        return None;
    }

    // peel single-argument wrappers: count(…), sum(…), string(…), …
    let mut wrappers = Vec::new();
    let mut core = &query.expr;
    while let Expr::Call { name, args } = core {
        if args.len() != 1 {
            return None; // the collection ref hides in a multi-arg call
        }
        wrappers.push(name.as_str());
        core = &args[0];
    }
    wrappers.reverse(); // peeled outside-in, applied inside-out

    // condition 2: the core is driven by the collection itself (a core is
    // no call, so nothing is looked through here)
    let ordered = match core {
        Expr::Path(_) => None,
        Expr::Flwor { order_by, .. } => order_by.as_ref().map(|(_, dir)| *dir),
        _ => return None, // collection ref buried in a non-decomposable shape
    };
    let (collection, _) = driving_scan(core)?;
    Some(MorselPlan { collection, wrappers, core, ordered })
}

/// The **driving scan** of a query: the `collection(…)` path its FLWOR's
/// first `for` clause ranges over — or that a bare path query consists
/// of — found through single-argument calls and the left side of a
/// comparison, which is where [`pushdown::analyze`](crate::pushdown)
/// looks too. Every result tuple stems from one document of this scan,
/// so it is the one read whose documents a caller may choose: the
/// candidates that pass the per-document predicate `analyze` extracts
/// from the same FLWOR, or one morsel of them. A first `for` over
/// anything else (a variable, a `doc(…)`) leaves the query without one.
pub(crate) fn driving_scan(expr: &Expr) -> Option<(&str, &PathSource)> {
    let scan = match expr {
        Expr::Call { args, .. } if args.len() == 1 => return driving_scan(&args[0]),
        Expr::Cmp { lhs, .. } => return driving_scan(lhs),
        Expr::Path(scan) => scan,
        Expr::Flwor { clauses, .. } => {
            let first_for = clauses.iter().find_map(|clause| match clause {
                Clause::For(binding) => Some(binding),
                Clause::Let(_) => None,
            })?;
            let Expr::Path(scan) = &first_for.expr else {
                return None;
            };
            scan
        }
        _ => return None,
    };
    match &scan.start {
        PathStart::Collection(collection) => Some((collection, scan)),
        PathStart::Doc(_) | PathStart::Var(_) => None,
    }
}

/// Recombine the partials of consecutive morsels (in morsel = document
/// order) into the exact sequential answer: concatenate (adding counts,
/// or sorting globally if ordered), then apply the wrappers once. A run
/// of the whole program is the same merge, of one partial.
pub fn merge(program: &Program, partials: Vec<MorselPartial>) -> Result<Sequence, EvalError> {
    let mut merged = program.empty_partial();
    for partial in partials {
        match (&mut merged, partial) {
            (MorselPartial::Plain(all), MorselPartial::Plain(items)) => all.extend(items),
            (MorselPartial::Count(total), MorselPartial::Count(count)) => *total += count,
            (MorselPartial::Keyed(all), MorselPartial::Keyed(pairs)) => all.extend(pairs),
            (expected, found) => {
                let (expected, found) = (expected.kind(), found.kind());
                let message = format!("{found} partial for a plan with {expected} partials");
                return Err(EvalError::TypeError(message));
            }
        }
    }
    let mut seq: Sequence = match merged {
        MorselPartial::Plain(items) => items,
        MorselPartial::Count(total) => vec![Item::Num(total as f64)],
        MorselPartial::Keyed(mut keyed) => {
            // exactly the unsplit procedure, over the full tuple stream
            let dir = program.ordered.expect("keyed partials come from an ordered core");
            sort_tuples(&mut keyed, dir);
            keyed.into_iter().flat_map(|(_, items)| items).collect()
        }
    };
    for wrapper in &program.wrappers {
        let mut out = Vec::new();
        let flow = func::call(
            wrapper,
            1,
            &|_, sink| seq.iter().try_for_each(|item| sink(item.as_ref())),
            false,
            &mut |item| {
                out.push(item.to_item());
                Ok(())
            },
        );
        Halt::finish(flow)?;
        seq = out;
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, MemProvider};
    use crate::parser::parse_query;
    use crate::value::Item;
    use partix_xml::{parse, Document};
    use std::sync::Arc;

    fn planned(src: &str) -> Option<MorselPlan<'static>> {
        // the plan borrows the query: leak it for the test's lifetime
        plan(Box::leak(Box::new(parse_query(src).unwrap())))
    }

    #[test]
    fn simple_flwor_is_decomposable() {
        let p = planned(
            r#"for $i in collection("items")/Item where $i/Section = "CD" return $i/Name"#,
        )
        .unwrap();
        assert_eq!(p.collection, "items");
        assert!(p.wrappers.is_empty());
        assert!(p.ordered.is_none());
    }

    #[test]
    fn aggregate_wrappers_peel() {
        let p = planned(
            r#"count(for $i in collection("items")/Item return $i)"#,
        )
        .unwrap();
        assert_eq!(p.wrappers, ["count"]);
        let p = planned(
            r#"string(count(for $i in collection("items")/Item return $i))"#,
        )
        .unwrap();
        // innermost first: count applied before string
        assert_eq!(p.wrappers, ["count", "string"]);
    }

    #[test]
    fn ordered_flwor_records_direction() {
        let p = planned(
            r#"for $i in collection("items")/Item order by number($i/Price) descending return $i/Code"#,
        )
        .unwrap();
        assert_eq!(p.ordered, Some(SortDir::Descending));
    }

    #[test]
    fn bare_collection_path_is_decomposable() {
        let p = planned(r#"count(collection("items")//Description)"#).unwrap();
        assert_eq!(p.wrappers, ["count"]);
        assert!(matches!(p.core, Expr::Path(_)));
    }

    #[test]
    fn nested_collection_scan_is_not() {
        // two collection refs: a correlated join must see all documents
        assert!(planned(
            r#"for $i in collection("items")/Item
               where count(for $j in collection("items")/Item
                           where $j/Section = $i/Section return $j) > 1
               return $i"#,
        )
        .is_none());
    }

    #[test]
    fn doc_access_is_not() {
        assert!(planned(r#"doc("i1")/Item/Name"#).is_none());
        assert!(planned(
            r#"for $i in collection("items")/Item
               where $i/Code = doc("ref")/Ref/Code return $i"#,
        )
        .is_none());
    }

    #[test]
    fn var_driven_first_for_is_not() {
        // the collection ref lives in a let; morsels can't partition it
        assert!(planned(
            r#"for $s in collection("items")/Item/Section return $s"#,
        )
        .is_some());
        assert!(planned(
            r#"let $all := collection("items")/Item
               for $i in $all return $i/Name"#,
        )
        .is_none());
    }

    #[test]
    fn multi_arg_call_blocks_peeling() {
        // concat's second argument hides nothing here, but the collection
        // ref is inside a multi-arg call — conservatively sequential
        assert!(planned(
            r#"concat(string(count(collection("items")/Item)), "x")"#,
        )
        .is_none());
    }

    #[test]
    fn secondary_var_fors_decompose() {
        let p = planned(
            r#"for $i in collection("items")/Item, $p in $i//Picture return $p"#,
        );
        assert!(p.is_some());
    }

    fn items() -> Vec<(&'static str, &'static str)> {
        vec![
            ("i1", "<Item><Code>1</Code><Section>CD</Section><Price>10</Price></Item>"),
            ("i2", "<Item><Code>2</Code><Section>DVD</Section><Price>25</Price></Item>"),
            ("i3", "<Item><Code>3</Code><Section>CD</Section><Price>8</Price></Item>"),
            ("i4", "<Item><Code>4</Code><Section>CD</Section><Price>8</Price></Item>"),
        ]
    }

    /// Evaluate via 2-document morsels and compare against sequential.
    fn assert_morsel_equivalent(src: &str) {
        let q = parse_query(src).unwrap();
        let all: Vec<Document> = items()
            .iter()
            .map(|(n, xml)| {
                let mut d = parse(xml).unwrap();
                d.name = Some((*n).to_owned());
                d
            })
            .collect();
        let mut seq_provider = MemProvider::new();
        seq_provider.add_collection("items", all.iter().cloned());
        let expected = Evaluator::new(&seq_provider).eval(&q).unwrap();

        let p = Program::lower(&q);
        assert!(p.is_decomposable());
        assert_eq!(p.driving_collection(), Some("items"));
        let all: Vec<Arc<Document>> = all.into_iter().map(Arc::new).collect();
        let partials = all.chunks(2).map(|chunk| p.run_morsel(chunk).unwrap()).collect();
        let merged = merge(&p, partials).unwrap();
        let a: Vec<String> = expected.iter().map(Item::serialize).collect();
        let b: Vec<String> = merged.iter().map(Item::serialize).collect();
        assert_eq!(a, b, "morsel result diverged for {src}");
    }

    #[test]
    fn merge_matches_sequential_selection() {
        assert_morsel_equivalent(
            r#"for $i in collection("items")/Item where $i/Section = "CD" return $i/Code"#,
        );
    }

    #[test]
    fn merge_matches_sequential_aggregates() {
        for agg in ["count", "sum", "min", "max", "avg"] {
            assert_morsel_equivalent(&format!(
                r#"{agg}(for $i in collection("items")/Item return number($i/Price))"#
            ));
        }
    }

    #[test]
    fn merge_matches_sequential_order_by() {
        // duplicate keys (8, 8) exercise stable-sort tie-breaking
        assert_morsel_equivalent(
            r#"for $i in collection("items")/Item order by number($i/Price) return $i/Code"#,
        );
        assert_morsel_equivalent(
            r#"for $i in collection("items")/Item order by number($i/Price) descending return $i/Code"#,
        );
    }

    #[test]
    fn merge_matches_sequential_path_only() {
        assert_morsel_equivalent(r#"count(collection("items")//Code)"#);
        assert_morsel_equivalent(r#"collection("items")/Item/Code"#);
    }

    #[test]
    fn mismatched_partial_kinds_error() {
        let q = parse_query(
            r#"for $i in collection("items")/Item order by $i/Code return $i"#,
        )
        .unwrap();
        let p = Program::lower(&q);
        assert!(merge(&p, vec![MorselPartial::Plain(vec![])]).is_err());
    }
}
