//! Query execution with index-assisted pre-filtering and statistics.

use crate::db::{Collection, Database};
use crate::index::{intersect_sorted, union_sorted};
use partix_path::pred::BoolFn;
use partix_path::{NodeTest, Predicate};
use partix_query::pushdown;
use partix_query::{parse_query, EvalError, Item, Program, Sequence};
use partix_xml::Document;
use std::sync::Arc;
use std::time::Instant;

/// Statistics of one query execution on one database node.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Documents in the scanned collection.
    pub collection_size: usize,
    /// Documents actually fed to the evaluator after index filtering.
    pub docs_scanned: usize,
    /// Whether an index produced the candidate set.
    pub index_used: bool,
    /// Wall-clock execution time in seconds.
    pub elapsed: f64,
    /// Total wire size of the result items in bytes.
    pub result_bytes: usize,
    /// Always 0: a scan is never split. The field stays because the node
    /// answer's wire encoding carries it and the frozen benchmark reads it.
    pub morsels: usize,
}

/// Result of [`Database::execute`].
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub items: Sequence,
    pub stats: QueryStats,
}

impl QueryOutput {
    /// Render the result the way the PartiX driver ships it.
    pub fn serialize(&self) -> String {
        partix_query::func::serialize_sequence(&self.items)
    }
}

/// Derive index candidate slots for a per-document predicate.
///
/// Returns `None` when the predicate gives the indexes nothing to work
/// with (full scan). The returned set is always a superset of the
/// documents satisfying the predicate. A value comparison probes nothing:
/// as in the paper's eXist setup, there is no value index.
pub(crate) fn index_candidates(coll: &Collection, pred: &Predicate) -> Option<Vec<u32>> {
    match pred {
        // a document can only satisfy exists(P) if it contains P's label
        // path (exact probe) or at least P's final label (fallback)
        Predicate::Exists(path) => match (exact_path_key(path), &path.last_step()?.test) {
            (Some(key), _) => Some(coll.live(coll.path_index.lookup_path(&key))),
            (None, NodeTest::Name(label) | NodeTest::Attribute(label)) => {
                Some(coll.live(coll.path_index.lookup(label)))
            }
            (None, NodeTest::AnyElement) => None,
        },
        Predicate::Bool(BoolFn::Contains(path, needle) | BoolFn::StartsWith(path, needle)) => {
            let last = path.last_step().map(|step| &step.test);
            coll.text_index.lookup_contains(last, needle).map(|slots| coll.live(&slots))
        }
        // intersect whatever probes succeed
        Predicate::And(ps) => ps
            .iter()
            .filter_map(|p| index_candidates(coll, p))
            .reduce(|a, b| intersect_sorted(&a, &b)),
        // every branch must probe, else the union is unbounded
        Predicate::Or(ps) => ps
            .iter()
            .try_fold(Vec::new(), |acc, p| Some(union_sorted(&acc, &index_candidates(coll, p)?))),
        _ => None,
    }
}

/// The label-path index key of an index-exact path: absolute, child axes
/// only, name tests (a final attribute test keys as `@name`), e.g.
/// `/Item/Section` → `Item/Section`. Positional predicates are allowed —
/// the key then over-approximates, which probes tolerate. `None` means
/// the path has no exact key (descendant axis, wildcard, relative path)
/// and the caller must fall back to a final-label probe.
fn exact_path_key(path: &partix_path::PathExpr) -> Option<String> {
    use partix_path::Axis;
    if !path.absolute || path.steps.is_empty() {
        return None;
    }
    let mut key = String::new();
    for (i, step) in path.steps.iter().enumerate() {
        if step.axis != Axis::Child {
            return None;
        }
        if !key.is_empty() {
            key.push('/');
        }
        match &step.test {
            NodeTest::Name(n) => key.push_str(n),
            NodeTest::Attribute(n) if i + 1 == path.steps.len() => {
                key.push('@');
                key.push_str(n);
            }
            _ => return None,
        }
    }
    Some(key)
}

impl Database {
    /// Parse and execute an XQuery, using indexes to pre-filter the
    /// driving collection when the query's pushed-down predicate allows.
    pub fn execute(&self, query_text: &str) -> Result<QueryOutput, ExecError> {
        let query = parse_query(query_text).map_err(ExecError::Parse)?;
        self.execute_parsed(&query)
    }

    /// Execute an already-parsed query: lower it once, snapshot the
    /// candidates of its driving scan — what the indexes shortlist for
    /// the pushed-down predicate, or every live document — and lend them
    /// to the program, which runs whole on this thread and reads
    /// everything but that one scan (a join's second scan, `doc(…)`) from
    /// this database.
    pub fn execute_parsed(
        &self,
        query: &partix_query::Query,
    ) -> Result<QueryOutput, ExecError> {
        let start = Instant::now();
        let analysis = pushdown::analyze(query);
        let program = Program::lower(query);
        let mut stats = QueryStats::default();
        let driving = program.driving_collection().and_then(|name| self.get(name));
        let items = match driving {
            Some(coll) => {
                // the predicate is about the documents of the analysis'
                // driving clause — this scan, whenever the program has one
                let predicate = analysis.as_ref().and_then(|a| a.doc_predicate.as_ref());
                let docs = self.candidates(&coll, predicate, &mut stats);
                program.run_lending(self, &docs)
            }
            // no scan to lend to (a first `for` over a variable or a
            // `doc(…)`), or an unknown collection, which is the
            // evaluator's error to raise
            None => {
                if let Some(coll) = analysis.as_ref().and_then(|a| self.get(&a.collection)) {
                    let len = coll.read().len();
                    stats.collection_size = len;
                    stats.docs_scanned = len;
                }
                program.run(self)
            }
        }
        .map_err(ExecError::Eval)?;
        stats.elapsed = start.elapsed().as_secs_f64();
        stats.result_bytes = items.iter().map(Item::wire_size).sum();
        Ok(QueryOutput { items, stats })
    }

    /// The documents `filter` returns the root elements of — a fetch of
    /// part of a collection, chosen by an ordinary query, run the ordinary
    /// way (indexes, lowering): `for $d in collection("f")/r where
    /// … return $d` answers with the documents themselves, name and origin
    /// intact, where [`Database::execute_parsed`] would ship their trees.
    pub fn fetch_filtered(
        &self,
        filter: &partix_query::Query,
    ) -> Result<Vec<Arc<Document>>, ExecError> {
        Ok(partix_query::root_documents(self.execute_parsed(filter)?.items))
    }

    /// The one candidate snapshot of a driving scan: the documents the
    /// indexes shortlist for `predicate`, or every live one, in document
    /// order — taken under one read guard, so the scan sees the
    /// collection as of this moment whatever writers do meanwhile.
    fn candidates(
        &self,
        coll: &parking_lot::RwLock<Collection>,
        predicate: Option<&Predicate>,
        stats: &mut QueryStats,
    ) -> Vec<Arc<Document>> {
        let guard = coll.read();
        stats.collection_size = guard.len();
        let probed = predicate
            .filter(|_| self.index_enabled())
            .and_then(|pred| index_candidates(&guard, pred));
        stats.index_used = probed.is_some();
        // tombstoned slots hold no document — scan live ones only
        let docs = guard.fetch_slots(&probed.unwrap_or_else(|| guard.live_slots()));
        stats.docs_scanned = docs.len();
        docs
    }

    /// The documents of `collection` the indexes shortlist for `predicate`
    /// (always a superset of those satisfying it); `None` when the
    /// collection is unknown or the predicate gives the indexes nothing
    /// to work with, so a scan would read every document.
    pub fn index_candidates(
        &self,
        collection: &str,
        predicate: &Predicate,
    ) -> Option<Vec<Arc<Document>>> {
        let coll = self.get(collection)?;
        let guard = coll.read();
        let slots = index_candidates(&guard, predicate)?;
        Some(guard.fetch_slots(&slots))
    }
}

/// Execution failure: parse error or evaluation error.
#[derive(Debug)]
pub enum ExecError {
    Parse(partix_query::QueryParseError),
    Eval(EvalError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Parse(e) => write!(f, "{e}"),
            ExecError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::StorageMode;
    use partix_xml::parse;

    fn db() -> Database {
        let db = Database::new();
        db.create_collection("items", StorageMode::Hot).unwrap();
        for (name, section, desc, price) in [
            ("i1", "CD", "a good jazz record", 10),
            ("i2", "DVD", "a dystopia", 25),
            ("i3", "CD", "goodness gracious", 8),
            ("i4", "BOOK", "a very good read", 12),
        ] {
            let xml = format!(
                "<Item><Code>{name}</Code><Section>{section}</Section>\
                 <Price>{price}</Price><Characteristics><Description>{desc}</Description>\
                 </Characteristics></Item>"
            );
            let mut d = parse(&xml).unwrap();
            d.name = Some(name.to_owned());
            db.store("items", d);
        }
        db
    }

    /// The fixture plus two released items: `i5` is described as good,
    /// `i6` is not.
    fn released_db() -> Database {
        let db = db();
        for (name, desc, price) in [("i5", "good as new", 5), ("i6", "scratched", 30)] {
            let xml = format!(
                "<Item><Code>{name}</Code><Section>CD</Section><Release>2005</Release>\
                 <Price>{price}</Price><Characteristics><Description>{desc}</Description>\
                 </Characteristics></Item>"
            );
            let mut d = parse(&xml).unwrap();
            d.name = Some(name.to_owned());
            db.store("items", d);
        }
        db
    }

    #[test]
    fn contains_query_uses_text_index() {
        let db = db();
        let out = db
            .execute(
                r#"count(for $i in collection("items")/Item
                         where contains($i//Description, "good") return $i)"#,
            )
            .unwrap();
        assert_eq!(out.items[0], Item::Num(3.0));
        assert!(out.stats.index_used);
        assert!(out.stats.docs_scanned <= 3);
    }

    #[test]
    fn conjunction_intersects_indexes() {
        let db = released_db();
        // the text index shortlists i1, i3, i4, i5 and the path index
        // i5, i6: only their intersection is scanned
        let out = db
            .execute(
                r#"for $i in collection("items")/Item
                   where exists($i/Release) and contains($i//Description, "good")
                   return string($i/Code)"#,
            )
            .unwrap();
        assert_eq!(out.items, [Item::Str("i5".into())]);
        assert!(out.stats.index_used);
        assert_eq!(out.stats.docs_scanned, 1);
        assert_eq!(out.stats.collection_size, 6);
    }

    #[test]
    fn existential_query_uses_path_index() {
        let db = db();
        // give one document a Release element
        let mut extra = parse(
            "<Item><Code>i9</Code><Section>CD</Section><Release>2005</Release>\
             <Price>3</Price><Characteristics><Description>x</Description>\
             </Characteristics></Item>",
        )
        .unwrap();
        extra.name = Some("i9".to_owned());
        db.store("items", extra);
        let out = db
            .execute(
                r#"for $i in collection("items")/Item
                   where exists($i/Release) return $i/Code"#,
            )
            .unwrap();
        assert_eq!(out.items.len(), 1);
        assert!(out.stats.index_used);
        assert_eq!(out.stats.docs_scanned, 1);
    }

    /// A range and an equality give the indexes nothing to probe: there
    /// is no value index, so both scan every document.
    #[test]
    fn range_query_falls_back_to_scan() {
        let db = db();
        for query in [
            r#"for $i in collection("items")/Item where $i/Price < 12 return $i/Code"#,
            r#"for $i in collection("items")/Item where $i/Section = "CD" return $i/Code"#,
        ] {
            let out = db.execute(query).unwrap();
            assert_eq!(out.items.len(), 2, "{query}");
            assert!(!out.stats.index_used, "{query}");
            assert_eq!(out.stats.docs_scanned, 4, "{query}");
        }
    }

    #[test]
    fn index_and_scan_agree() {
        let db = released_db();
        // same query, once through the indexes, once forced to scan
        for (query, expected, shortlisted) in [
            (
                r#"count(for $i in collection("items")/Item
                         where contains($i//Description, "good") return $i)"#,
                4.0,
                4,
            ),
            (r#"count(for $i in collection("items")/Item where exists($i/Release) return $i)"#, 2.0, 2),
        ] {
            db.set_index_enabled(true);
            let via_index = db.execute(query).unwrap();
            db.set_index_enabled(false);
            let via_scan = db.execute(query).unwrap();
            assert_eq!(via_index.items, [Item::Num(expected)], "{query}");
            assert_eq!(via_index.items, via_scan.items, "{query}");
            assert!(via_index.stats.index_used && !via_scan.stats.index_used, "{query}");
            assert_eq!(via_index.stats.docs_scanned, shortlisted, "{query}");
            assert_eq!(via_scan.stats.docs_scanned, 6, "{query}");
        }
    }

    #[test]
    fn or_of_indexed_predicates() {
        let db = released_db();
        // the union of both shortlists leaves out i2 alone
        let out = db
            .execute(
                r#"count(for $i in collection("items")/Item
                         where exists($i/Release) or contains($i//Description, "good")
                         return $i)"#,
            )
            .unwrap();
        assert_eq!(out.items[0], Item::Num(5.0));
        assert!(out.stats.index_used);
        assert_eq!(out.stats.docs_scanned, 5);
    }

    /// The index prefilter is not for single-scan selections alone: a
    /// query that also reads elsewhere still has its driving scan narrowed.
    #[test]
    fn prefilter_reaches_joins_documents_and_comparisons() {
        let db = released_db();
        for (query, expected) in [
            // also reads a document
            (
                r#"for $i in collection("items")/Item let $x := doc("i4")/Item
                   where exists($i/Release) return concat($i/Code, $x/Code)"#,
                vec![Item::Str("i5i4".into()), Item::Str("i6i4".into())],
            ),
            // a FLWOR under a comparison
            (
                r#"(for $i in collection("items")/Item
                    where exists($i/Release) return $i/Price) = "30""#,
                vec![Item::Bool(true)],
            ),
            // a join with a second collection scan
            (
                r#"count(for $i in collection("items")/Item, $j in collection("items")/Item
                         where exists($i/Release) return $j)"#,
                vec![Item::Num(12.0)],
            ),
        ] {
            let out = db.execute(query).unwrap();
            assert_eq!(out.items, expected, "{query}");
            assert!(out.stats.index_used, "{query}");
            assert_eq!(out.stats.docs_scanned, 2, "{query}");
            assert_eq!(out.stats.collection_size, 6, "{query}");
        }
    }

    /// Only the driving scan reads the shortlist. Any other read of the
    /// same collection sees all of it, so the answer is the same with the
    /// indexes on or off. Substituting by name (every read of `items`
    /// sees the candidates) answers 4 to each of these.
    #[test]
    fn prefilter_narrows_the_driving_scan_only() {
        let db = released_db();
        for (query, expected, index_used) in [
            (
                r#"count(for $i in collection("items")/Item, $j in collection("items")/Item
                         where exists($i/Release) return $j)"#,
                12.0,
                true,
            ),
            (
                r#"sum(for $i in collection("items")/Item where exists($i/Release)
                       return count(collection("items")/Item))"#,
                12.0,
                true,
            ),
            (
                r#"sum(for $i in collection("items")/Item where exists($i/Release)
                       return count(for $j in collection("items")/Item return $j))"#,
                12.0,
                true,
            ),
            // the first `for` ranges over a variable: no scan to narrow
            (
                r#"sum(let $all := collection("items")/Item
                       for $i in $all where exists($i/Release) return count($all))"#,
                12.0,
                false,
            ),
        ] {
            db.set_index_enabled(true);
            let indexed = db.execute(query).unwrap();
            assert_eq!(indexed.items, [Item::Num(expected)], "{query}");
            assert_eq!(indexed.stats.index_used, index_used, "{query}");
            assert_eq!(indexed.stats.docs_scanned, if index_used { 2 } else { 6 }, "{query}");
            db.set_index_enabled(false);
            let scanned = db.execute(query).unwrap();
            assert_eq!(scanned.items, indexed.items, "{query}");
            assert!(!scanned.stats.index_used, "{query}");
            assert_eq!(scanned.stats.docs_scanned, 6, "{query}");
        }
    }

    /// A failing query fails with the evaluator's error, whatever the
    /// host's core count. A `return` fails early in document order and a
    /// `where` late; the `where` failure is the one a clause-by-clause
    /// evaluation meets first. A scan split in two halves reported the
    /// first half's `return` failure instead.
    #[test]
    fn error_order_matches_the_evaluator() {
        let docs: Vec<Document> =
            (0..80).map(|i| parse(&format!("<Item><Code>{i}</Code></Item>")).unwrap()).collect();
        let db = Database::new();
        db.store_all("items", docs.iter().cloned());
        let query = r#"for $i in collection("items")/Item
                       where (if ($i/Code = "70") then nosuch() else 1 = 1)
                       return (if ($i/Code = "1") then $undefined else $i/Code)"#;
        let mut provider = partix_query::MemProvider::new();
        provider.add_collection("items", docs);
        let evaluator = partix_query::Evaluator::new(&provider);
        let expected = evaluator.eval(&parse_query(query).unwrap()).unwrap_err();
        assert_eq!(expected, EvalError::UnknownFunction("nosuch".into()));
        match db.execute(query) {
            Err(ExecError::Eval(error)) => assert_eq!(error, expected),
            other => panic!("expected {expected}, got {other:?}"),
        }
    }

    #[test]
    fn stats_record_result_bytes_and_time() {
        let db = db();
        let out = db
            .execute(r#"for $i in collection("items")/Item return $i"#)
            .unwrap();
        assert!(out.stats.result_bytes > 100);
        assert!(out.stats.elapsed >= 0.0);
    }

    #[test]
    fn parse_error_reported() {
        let db = db();
        assert!(matches!(db.execute("for $"), Err(ExecError::Parse(_))));
    }

    #[test]
    fn missing_collection_eval_error() {
        let db = db();
        assert!(matches!(
            db.execute(r#"for $i in collection("zzz")/a return $i"#),
            Err(ExecError::Eval(EvalError::UnknownCollection(_)))
        ));
    }

    /// The QH1–QH8 templates of the paper's horizontal query set (the
    /// fixture's items carry no `Name`, so selections return `Code`).
    const QH: [&str; 8] = [
        r#"for $i in collection("items")/Item where $i/Section = "CD" return $i/Code"#,
        r#"for $i in collection("items")/Item
           where $i/Section = "CD" or $i/Section = "DVD" return $i/Code"#,
        r#"for $i in collection("items")/Item where number($i/Price) < 12 return $i/Code"#,
        r#"for $i in collection("items")/Item where exists($i/Release) return $i/Code"#,
        r#"for $i in collection("items")/Item
           where contains($i//Description, "good") return $i/Code"#,
        r#"for $i in collection("items")/Item
           where $i/Section = "CD" and contains($i//Description, "good") return $i"#,
        r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#,
        r#"count(for $i in collection("items")/Item
                 where contains($i//Description, "good") return $i)"#,
    ];

    #[test]
    fn cold_collection_executes_identically() {
        let hot = db();
        let mut extra = parse(
            "<Item><Code>i9</Code><Section>CD</Section><Release>2005</Release>\
             <Price>3</Price><Characteristics><Description>x</Description>\
             </Characteristics></Item>",
        )
        .unwrap();
        extra.name = Some("i9".to_owned());
        hot.store("items", extra);
        let cold = Database::new();
        cold.create_collection("items", StorageMode::Cold).unwrap();
        for doc in partix_query::CollectionProvider::collection(&hot, "items").unwrap() {
            cold.store("items", (*doc).clone());
        }
        for q in QH {
            let (h, c) = (hot.execute(q).unwrap(), cold.execute(q).unwrap());
            assert_eq!(h.items, c.items, "{q}");
            assert_eq!(h.serialize(), c.serialize(), "{q}");
            assert!(!h.items.is_empty(), "{q} selects nothing");
            assert_eq!(h.stats.docs_scanned, c.stats.docs_scanned, "{q}");
            assert_eq!(h.stats.index_used, c.stats.index_used, "{q}");
            assert_eq!(h.stats.result_bytes, c.stats.result_bytes, "{q}");
        }
    }
}
