//! Analytical cost model for fragmentation designs and placements.
//!
//! Mirrors the paper's response-time decomposition (Sec. 5): the
//! parallel execution time of a distributed query is dominated by its
//! slowest site, plus the time to ship partial results back to the
//! coordinator. For a candidate placement the model therefore charges
//!
//! * **scan** — each access to a fragment scans its stored bytes at the
//!   node holding it; replicated fragments spread accesses evenly over
//!   their replicas (round-robin replica selection);
//! * **ship** — each access ships `selectivity × size` bytes to the
//!   coordinator, independent of placement;
//! * **imbalance** — a mild penalty on the spread between the busiest
//!   and the average node, nudging the search toward even load even
//!   when the bottleneck term alone is flat.
//!
//! Total cost = max node scan load + total ship cost + imbalance. The
//! units are arbitrary (weights fold in constants); only the ordering
//! of candidates matters.

use crate::profile::WorkloadProfile;
use std::collections::BTreeMap;

// Relative weights of the cost terms: scanning local storage is cheap
// relative to shipping results over the wire; imbalance is a
// tie-breaker, not a driver.

/// Per byte scanned at a node.
const SCAN_WEIGHT: f64 = 1.0;
/// Per byte shipped to the coordinator.
const SHIP_WEIGHT: f64 = 4.0;
/// Per byte of (max − mean) node load.
const IMBALANCE_WEIGHT: f64 = 0.25;

/// Cost prediction for one `(design, placement)` candidate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostReport {
    /// Scan load per node (index = node id).
    pub node_costs: Vec<f64>,
    /// The bottleneck term: the busiest node's scan load.
    pub max_node_cost: f64,
    /// Total result-shipping cost.
    pub ship_cost: f64,
    /// Imbalance penalty.
    pub imbalance_cost: f64,
    /// `max_node_cost + ship_cost + imbalance_cost` — the number the
    /// advisor minimizes.
    pub total_cost: f64,
}

/// Workload-derived per-fragment inputs to the model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FragmentLoad {
    pub accesses: f64,
    pub size_bytes: f64,
    pub selectivity: f64,
}

/// Per-fragment loads extracted from a profile, with defaults for
/// fragments the workload never touched (they still cost storage scans
/// when a query can't be pruned, so they get one nominal access).
pub fn fragment_loads(profile: &WorkloadProfile) -> BTreeMap<String, FragmentLoad> {
    profile
        .fragments
        .iter()
        .map(|f| {
            (
                f.fragment.clone(),
                FragmentLoad {
                    accesses: (f.accesses.max(1)) as f64,
                    size_bytes: f.size_bytes as f64,
                    selectivity: f.selectivity(),
                },
            )
        })
        .collect()
}

/// Score one placement: `placements` maps fragment name → replica node
/// ids (deduped). Fragments absent from `loads` are charged a nominal
/// single access over their (unknown, hence zero) size — i.e. free, so
/// callers should fill sizes via
/// [`WorkloadProfiler::observe_placement`](crate::profile::WorkloadProfiler::observe_placement)
/// first for meaningful scores.
pub fn score(
    loads: &BTreeMap<String, FragmentLoad>,
    placements: &BTreeMap<String, Vec<usize>>,
    nodes: usize,
) -> CostReport {
    let mut node_costs = vec![0.0; nodes];
    let mut ship_cost = 0.0;
    for (fragment, replicas) in placements {
        let load = loads.get(fragment).cloned().unwrap_or(FragmentLoad {
            accesses: 1.0,
            size_bytes: 0.0,
            selectivity: 1.0,
        });
        let scan = load.accesses * load.size_bytes * SCAN_WEIGHT;
        if !replicas.is_empty() {
            // round-robin replica selection spreads accesses evenly
            let share = scan / replicas.len() as f64;
            for &node in replicas {
                if let Some(cost) = node_costs.get_mut(node) {
                    *cost += share;
                }
            }
        }
        ship_cost += load.accesses * load.selectivity * load.size_bytes * SHIP_WEIGHT;
    }
    let max_node_cost = node_costs.iter().cloned().fold(0.0, f64::max);
    let mean = if node_costs.is_empty() {
        0.0
    } else {
        node_costs.iter().sum::<f64>() / node_costs.len() as f64
    };
    let imbalance_cost = (max_node_cost - mean) * IMBALANCE_WEIGHT;
    CostReport {
        max_node_cost,
        ship_cost,
        imbalance_cost,
        total_cost: max_node_cost + ship_cost + imbalance_cost,
        node_costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads() -> BTreeMap<String, FragmentLoad> {
        let mut m = BTreeMap::new();
        m.insert(
            "f_hot".to_owned(),
            FragmentLoad { accesses: 100.0, size_bytes: 1000.0, selectivity: 0.1 },
        );
        m.insert(
            "f_cold".to_owned(),
            FragmentLoad { accesses: 10.0, size_bytes: 1000.0, selectivity: 0.1 },
        );
        m
    }

    fn place(pairs: &[(&str, &[usize])]) -> BTreeMap<String, Vec<usize>> {
        pairs.iter().map(|(f, ns)| ((*f).to_owned(), ns.to_vec())).collect()
    }

    #[test]
    fn spreading_hot_fragments_beats_colocating_them() {
        let loads = loads();
        let colocated = score(&loads, &place(&[("f_hot", &[0]), ("f_cold", &[0])]), 2);
        let spread = score(&loads, &place(&[("f_hot", &[0]), ("f_cold", &[1])]), 2);
        assert!(spread.total_cost < colocated.total_cost);
        assert_eq!(spread.node_costs.len(), 2);
        // ship cost is placement-independent
        assert!((spread.ship_cost - colocated.ship_cost).abs() < 1e-9);
    }

    #[test]
    fn replication_halves_the_bottleneck_scan_load() {
        let loads = loads();
        let single = score(&loads, &place(&[("f_hot", &[0])]), 2);
        let replicated = score(&loads, &place(&[("f_hot", &[0, 1])]), 2);
        assert!((replicated.max_node_cost * 2.0 - single.max_node_cost).abs() < 1e-9);
    }

    #[test]
    fn imbalance_penalizes_skew_at_equal_bottleneck() {
        let mut loads = BTreeMap::new();
        for (name, acc) in [("a", 10.0), ("b", 10.0), ("c", 10.0)] {
            loads.insert(
                name.to_owned(),
                FragmentLoad { accesses: acc, size_bytes: 100.0, selectivity: 1.0 },
            );
        }
        // same ship cost, but packing b+c together idles node 2
        let even = score(&loads, &place(&[("a", &[0]), ("b", &[1]), ("c", &[2])]), 3);
        let skewed = score(&loads, &place(&[("a", &[0]), ("b", &[1]), ("c", &[1])]), 3);
        assert!(skewed.max_node_cost > even.max_node_cost);
        assert_eq!(even.imbalance_cost, 0.0);
        assert!(skewed.imbalance_cost > 0.0);
        assert!(skewed.total_cost > even.total_cost);
    }

    #[test]
    fn unknown_fragments_and_bad_nodes_are_tolerated() {
        let loads = BTreeMap::new();
        let report = score(&loads, &place(&[("mystery", &[0]), ("oob", &[99])]), 2);
        assert_eq!(report.total_cost, 0.0);
        assert_eq!(report.node_costs, vec![0.0, 0.0]);
    }
}
