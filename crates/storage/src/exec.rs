//! Query execution with index-assisted pre-filtering and statistics.

use crate::db::{Collection, Database};
use partix_path::pred::BoolFn;
use partix_path::Predicate;
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
    /// Number of parallel morsels the scan split into; 0 means it was
    /// not split (see [`crate::parallel`]).
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
/// documents satisfying the predicate.
pub(crate) fn index_candidates(
    coll: &Collection,
    pred: &Predicate,
    value_index: bool,
) -> Option<Vec<u32>> {
    match pred {
        Predicate::Cmp { path, op, value } => {
            if !value_index || *op != partix_path::CmpOp::Eq {
                return None;
            }
            let partix_path::Value::Str(s) = value else { return None };
            // an index-exact path probes the value index by its full
            // label path — only documents structurally containing the
            // path with the right value (or an opaque occurrence) survive
            if let Some(key) = exact_path_key(path) {
                return Some(coll.probe_value_path(&key, s));
            }
            let label = last_label(path)?;
            Some(coll.probe_value_label(&label, s))
        }
        Predicate::Exists(path) => {
            // a document can only satisfy exists(P) if it contains P's
            // label path (exact probe) or at least P's final label
            // (fallback) — the structural path index answers both
            if let Some(key) = exact_path_key(path) {
                return Some(coll.probe_path(&key));
            }
            let label = last_label(path)?;
            Some(coll.probe_label(&label))
        }
        Predicate::Bool(BoolFn::Contains(_, needle)) => coll.probe_contains(needle),
        Predicate::Bool(BoolFn::StartsWith(_, needle)) => coll.probe_contains(needle),
        Predicate::And(ps) => {
            // intersect whatever probes succeed
            let mut acc: Option<Vec<u32>> = None;
            for p in ps {
                if let Some(c) = index_candidates(coll, p, value_index) {
                    acc = Some(match acc {
                        None => c,
                        Some(prev) => intersect_sorted(&prev, &c),
                    });
                }
            }
            acc
        }
        Predicate::Or(ps) => {
            // every branch must probe, else the union is unbounded
            let mut acc: Vec<u32> = Vec::new();
            for p in ps {
                let c = index_candidates(coll, p, value_index)?;
                acc = union_sorted(&acc, &c);
            }
            Some(acc)
        }
        _ => None,
    }
}

fn last_label(path: &partix_path::PathExpr) -> Option<String> {
    use partix_path::NodeTest;
    match &path.last_step()?.test {
        NodeTest::Name(n) | NodeTest::Attribute(n) => Some(n.clone()),
        NodeTest::AnyElement => None,
    }
}

/// The label-path index key of an index-exact path: absolute, child axes
/// only, name tests (a final attribute test keys as `@name`), e.g.
/// `/Item/Section` → `Item/Section`. Positional predicates are allowed —
/// the key then over-approximates, which probes tolerate. `None` means
/// the path has no exact key (descendant axis, wildcard, relative path)
/// and the caller must fall back to a final-label probe.
fn exact_path_key(path: &partix_path::PathExpr) -> Option<String> {
    use partix_path::{Axis, NodeTest};
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

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    // both inputs are sorted (index probes sort before returning), so a
    // linear merge beats the old concat-sort-dedup
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
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
    /// to the program: in morsels (one, on this thread, or several on the
    /// pool — see [`crate::parallel`]) when it decomposes, else to the
    /// whole program (joins, `doc(…)`), which reads everything but that
    /// one scan from this database.
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
                if program.is_decomposable() {
                    self.scan_morsels(program, docs, &mut stats)
                } else {
                    program.run_lending(self, &docs)
                }
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
    /// way (indexes, lowering, morsels): `for $d in collection("f")/r where
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
            .and_then(|pred| index_candidates(&guard, pred, self.value_index_enabled()));
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
        let slots = index_candidates(&guard, predicate, self.value_index_enabled())?;
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

    #[test]
    fn equality_query_uses_index() {
        let db = db();
        db.set_value_index_enabled(true);
        let out = db
            .execute(r#"for $i in collection("items")/Item where $i/Section = "CD" return $i/Code"#)
            .unwrap();
        assert_eq!(out.items.len(), 2);
        assert!(out.stats.index_used);
        assert_eq!(out.stats.docs_scanned, 2);
        assert_eq!(out.stats.collection_size, 4);
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
        let db = db();
        db.set_value_index_enabled(true);
        let out = db
            .execute(
                r#"for $i in collection("items")/Item
                   where $i/Section = "CD" and contains($i//Description, "good")
                   return $i/Code"#,
            )
            .unwrap();
        assert_eq!(out.items.len(), 2);
        assert!(out.stats.index_used);
        assert!(out.stats.docs_scanned <= 2);
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

    #[test]
    fn range_query_falls_back_to_scan() {
        let db = db();
        db.set_value_index_enabled(true);
        let out = db
            .execute(r#"for $i in collection("items")/Item where $i/Price < 12 return $i/Code"#)
            .unwrap();
        assert_eq!(out.items.len(), 2);
        assert!(!out.stats.index_used);
        assert_eq!(out.stats.docs_scanned, 4);
    }

    #[test]
    fn index_and_scan_agree() {
        let db = db();
        db.set_value_index_enabled(true);
        // same query, one with index (=), one forced to scan (>= on strings)
        let via_index = db
            .execute(r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#)
            .unwrap();
        let via_scan = db
            .execute(
                r#"count(for $i in collection("items")/Item
                         where $i/Section >= "CD" and $i/Section <= "CD" return $i)"#,
            )
            .unwrap();
        assert_eq!(via_index.items, via_scan.items);
    }

    #[test]
    fn or_of_indexed_predicates() {
        let db = db();
        db.set_value_index_enabled(true);
        let out = db
            .execute(
                r#"count(for $i in collection("items")/Item
                         where $i/Section = "CD" or $i/Section = "DVD" return $i)"#,
            )
            .unwrap();
        assert_eq!(out.items[0], Item::Num(3.0));
        assert!(out.stats.index_used);
        assert_eq!(out.stats.docs_scanned, 3);
    }

    /// The index prefilter is not the morsel path's alone: a query that
    /// runs whole still has its driving scan narrowed.
    #[test]
    fn prefilter_reaches_queries_that_do_not_decompose() {
        let db = db();
        db.set_value_index_enabled(true);
        for (query, expected) in [
            // also reads a document
            (
                r#"for $i in collection("items")/Item let $x := doc("i4")/Item
                   where $i/Section = "CD" return concat($i/Code, $x/Code)"#,
                vec![Item::Str("i1i4".into()), Item::Str("i3i4".into())],
            ),
            // a FLWOR under a comparison
            (
                r#"(for $i in collection("items")/Item
                    where $i/Section = "CD" return $i/Price) = "8""#,
                vec![Item::Bool(true)],
            ),
            // a join with a second collection scan
            (
                r#"count(for $i in collection("items")/Item, $j in collection("items")/Item
                         where $i/Section = "CD" return $j)"#,
                vec![Item::Num(8.0)],
            ),
        ] {
            let out = db.execute(query).unwrap();
            assert_eq!(out.items, expected, "{query}");
            assert!(out.stats.index_used, "{query}");
            assert_eq!(out.stats.docs_scanned, 2, "{query}");
            assert_eq!(out.stats.collection_size, 4, "{query}");
            assert_eq!(out.stats.morsels, 0, "{query}");
        }
    }

    /// Only the driving scan reads the shortlist. Any other read of the
    /// same collection sees all of it, so the answer is the same with the
    /// indexes on or off. Substituting by name (every read of `items`
    /// sees the candidates) answers 4 to each of these.
    #[test]
    fn prefilter_narrows_the_driving_scan_only() {
        let db = db();
        db.set_value_index_enabled(true);
        for (query, expected, index_used) in [
            (
                r#"count(for $i in collection("items")/Item, $j in collection("items")/Item
                         where $i/Section = "CD" return $j)"#,
                8.0,
                true,
            ),
            (
                r#"sum(for $i in collection("items")/Item where $i/Section = "CD"
                       return count(collection("items")/Item))"#,
                8.0,
                true,
            ),
            (
                r#"sum(for $i in collection("items")/Item where $i/Section = "CD"
                       return count(for $j in collection("items")/Item return $j))"#,
                8.0,
                true,
            ),
            // the first `for` ranges over a variable: no scan to narrow
            (
                r#"sum(let $all := collection("items")/Item
                       for $i in $all where $i/Section = "CD" return count($all))"#,
                8.0,
                false,
            ),
        ] {
            db.set_index_enabled(true);
            let indexed = db.execute(query).unwrap();
            assert_eq!(indexed.items, [Item::Num(expected)], "{query}");
            assert_eq!(indexed.stats.index_used, index_used, "{query}");
            assert_eq!(indexed.stats.docs_scanned, if index_used { 2 } else { 4 }, "{query}");
            db.set_index_enabled(false);
            let scanned = db.execute(query).unwrap();
            assert_eq!(scanned.items, indexed.items, "{query}");
            assert!(!scanned.stats.index_used, "{query}");
            assert_eq!(scanned.stats.docs_scanned, 4, "{query}");
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

    #[test]
    fn sorted_set_helpers_merge_correctly() {
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 6]), [1, 2, 3, 5, 6]);
        assert_eq!(union_sorted(&[], &[4, 9]), [4, 9]);
        assert_eq!(union_sorted(&[4, 9], &[]), [4, 9]);
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5]), [3, 5]);
        assert_eq!(intersect_sorted(&[1, 2], &[3]), Vec::<u32>::new());
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
        use crate::parallel::MorselConfig;
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
        for workers in [1, 4] {
            for value_index in [false, true] {
                for db in [&hot, &cold] {
                    db.set_morsel_config(MorselConfig { max_workers: workers, min_docs: 1 });
                    db.set_value_index_enabled(value_index);
                }
                let mut split = false;
                for q in QH {
                    let (h, c) = (hot.execute(q).unwrap(), cold.execute(q).unwrap());
                    assert_eq!(h.items, c.items, "{q}");
                    assert_eq!(h.serialize(), c.serialize(), "{q}");
                    assert!(!h.items.is_empty(), "{q} selects nothing");
                    assert_eq!(h.stats.docs_scanned, c.stats.docs_scanned, "{q}");
                    assert_eq!(h.stats.index_used, c.stats.index_used, "{q}");
                    assert_eq!(h.stats.result_bytes, c.stats.result_bytes, "{q}");
                    assert_eq!(h.stats.morsels, c.stats.morsels, "{q}");
                    split |= h.stats.morsels >= 2;
                }
                assert_eq!(split, workers > 1, "morsels on means some scan splits");
            }
        }
    }
}
