//! The oracle every harness and differential suite compares against: the
//! same query over the unfragmented copy on node 0 ([`CENTRAL`]).

use crate::setup::{CENTRAL, DIST};
use partix_engine::PartiX;
use partix_query::Item;

/// Canonical serialization: one line per item, sorted (fragment
/// concatenation order is not document order). Two answers are equivalent
/// iff these strings are byte-identical.
pub fn canonical(items: &[Item]) -> String {
    let mut lines: Vec<String> = items.iter().map(Item::serialize).collect();
    lines.sort();
    lines.join("\n")
}

/// Rewrite a query against [`DIST`] to the centralized copy.
pub fn centralized_text(query: &str) -> String {
    query.replace(&format!("collection(\"{DIST}\")"), &format!("collection(\"{CENTRAL}\")"))
}

/// The canonical centralized answer of every workload query, in workload
/// order. Panics when the oracle itself fails: nothing can be checked.
pub fn oracle_answers(px: &PartiX, workload: &[(&'static str, String)]) -> Vec<String> {
    workload
        .iter()
        .map(|(id, query)| {
            let central = px
                .execute_centralized(0, &centralized_text(query))
                .unwrap_or_else(|e| panic!("{id} centralized: {e}"));
            canonical(&central.items)
        })
        .collect()
}
