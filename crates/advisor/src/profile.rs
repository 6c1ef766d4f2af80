//! Workload profiling: aggregate per-fragment access statistics from
//! query reports into a [`WorkloadProfile`].
//!
//! The profiler is the advisor's input stage. Every
//! [`QueryReport`](partix_engine::QueryReport) fed to
//! [`WorkloadProfiler::record`] contributes its per-site numbers
//! (fragment touched, node answering, bytes shipped, DBMS busy time)
//! and its coordinator stage breakdown. The aggregate is a
//! plain-data [`WorkloadProfile`], advised on in the process that
//! recorded it.

use partix_engine::{PartiX, QueryReport};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Aggregated statistics for one fragment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FragmentStats {
    pub fragment: String,
    /// Sub-queries that touched this fragment.
    pub accesses: u64,
    /// Result bytes shipped from this fragment's replicas.
    pub shipped_bytes: u64,
    /// DBMS-side busy time across all accesses (seconds).
    pub busy_s: f64,
    /// Stored size of the fragment (bytes); filled by
    /// [`WorkloadProfiler::observe_placement`], 0 if never observed.
    pub size_bytes: u64,
}

impl FragmentStats {
    /// Mean fraction of the fragment shipped back per access — the cost
    /// model's selectivity estimate. Clamped to `[0, 1]`; defaults to 1
    /// when sizes were never observed.
    pub fn selectivity(&self) -> f64 {
        if self.accesses == 0 || self.size_bytes == 0 {
            return 1.0;
        }
        let per_access = self.shipped_bytes as f64 / self.accesses as f64;
        (per_access / self.size_bytes as f64).clamp(0.0, 1.0)
    }
}

/// Aggregated statistics for one node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    pub node: usize,
    pub accesses: u64,
    pub shipped_bytes: u64,
    pub busy_s: f64,
}

/// Coordinator-stage totals over all recorded queries (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotals {
    pub parse_s: f64,
    pub localize_s: f64,
    pub dispatch_s: f64,
    pub compose_s: f64,
}

/// The profiler's aggregate: everything the advisor needs to know about
/// a workload, detached from the live system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadProfile {
    /// Queries recorded.
    pub queries: u64,
    /// Per-fragment stats, sorted by fragment name.
    pub fragments: Vec<FragmentStats>,
    /// Per-node stats, sorted by node id.
    pub nodes: Vec<NodeStats>,
    pub stages: StageTotals,
}

impl WorkloadProfile {
    pub fn fragment(&self, name: &str) -> Option<&FragmentStats> {
        self.fragments.iter().find(|f| f.fragment == name)
    }
}

#[derive(Debug, Default)]
struct ProfilerInner {
    queries: u64,
    fragments: BTreeMap<String, FragmentStats>,
    nodes: BTreeMap<usize, NodeStats>,
    stages: StageTotals,
}

/// Thread-safe aggregator turning [`QueryReport`]s into a
/// [`WorkloadProfile`].
#[derive(Debug, Default)]
pub struct WorkloadProfiler {
    inner: Mutex<ProfilerInner>,
}

impl WorkloadProfiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one query's report into the aggregate.
    pub fn record(&self, report: &QueryReport) {
        let mut inner = self.inner.lock();
        inner.queries += 1;
        inner.stages.parse_s += report.stages.parse_s;
        inner.stages.localize_s += report.stages.localize_s;
        inner.stages.dispatch_s += report.stages.dispatch_s;
        inner.stages.compose_s += report.stages.compose_s;
        for site in &report.sites {
            let frag = inner
                .fragments
                .entry(site.fragment.clone())
                .or_insert_with(|| FragmentStats {
                    fragment: site.fragment.clone(),
                    ..Default::default()
                });
            frag.accesses += 1;
            frag.shipped_bytes += site.result_bytes as u64;
            frag.busy_s += site.elapsed;
            let node = inner.nodes.entry(site.node).or_insert_with(|| NodeStats {
                node: site.node,
                ..Default::default()
            });
            node.accesses += 1;
            node.shipped_bytes += site.result_bytes as u64;
            node.busy_s += site.elapsed;
        }
    }

    /// Fill per-fragment stored sizes (and make every placed fragment
    /// appear in the profile, even if the workload never touched it) by
    /// asking `px`'s catalog and nodes about `collection`'s fragments.
    pub fn observe_placement(&self, px: &PartiX, collection: &str) {
        let catalog = px.catalog();
        let Some(dist) = catalog.distribution(collection) else { return };
        let mut sizes: Vec<(String, u64)> = Vec::new();
        for frag in &dist.design.fragments {
            let name = frag.name.clone();
            // all replicas hold identical copies; measure the first
            let bytes = dist
                .nodes_of(&name)
                .first()
                .and_then(|&n| px.cluster().node(n))
                .map(|node| {
                    node.fetch_docs(&name)
                        .iter()
                        .map(|d| d.approx_size())
                        .sum::<usize>() as u64
                })
                .unwrap_or(0);
            sizes.push((name, bytes));
        }
        drop(catalog);
        let mut inner = self.inner.lock();
        for (name, bytes) in sizes {
            let frag = inner.fragments.entry(name.clone()).or_insert_with(|| FragmentStats {
                fragment: name,
                ..Default::default()
            });
            frag.size_bytes = bytes;
        }
    }

    /// Snapshot the aggregate (fragments sorted by name, nodes by id).
    pub fn snapshot(&self) -> WorkloadProfile {
        let inner = self.inner.lock();
        WorkloadProfile {
            queries: inner.queries,
            fragments: inner.fragments.values().cloned().collect(),
            nodes: inner.nodes.values().cloned().collect(),
            stages: inner.stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_engine::SiteReport;

    fn site(fragment: &str, node: usize, bytes: usize) -> SiteReport {
        SiteReport {
            node,
            fragment: fragment.to_owned(),
            elapsed: 0.010,
            result_bytes: bytes,
            docs_scanned: 5,
            index_used: false,
            retries: 0,
            failovers: 0,
            timeouts: 0,
        }
    }

    fn sample_profile() -> WorkloadProfile {
        let profiler = WorkloadProfiler::new();
        let mut report = QueryReport {
            sites: vec![site("f_cd", 0, 300), site("f_dvd", 1, 100)],
            ..Default::default()
        };
        report.stages.dispatch_s = 0.5;
        profiler.record(&report);
        let again = QueryReport { sites: vec![site("f_cd", 0, 300)], ..Default::default() };
        profiler.record(&again);
        profiler.snapshot()
    }

    #[test]
    fn aggregates_sites_per_fragment_and_node() {
        let p = sample_profile();
        assert_eq!(p.queries, 2);
        let cd = p.fragment("f_cd").unwrap();
        assert_eq!(cd.accesses, 2);
        assert_eq!(cd.shipped_bytes, 600);
        assert_eq!(p.fragment("f_dvd").unwrap().accesses, 1);
        assert_eq!(p.nodes.len(), 2);
        assert_eq!(p.nodes[0].node, 0);
        assert_eq!(p.nodes[0].accesses, 2);
        assert!((p.stages.dispatch_s - 0.5).abs() < 1e-12);
        assert_eq!(p.fragment("f_dvd").unwrap().shipped_bytes, 100);
    }

    #[test]
    fn selectivity_estimates_shipped_fraction() {
        let mut f = FragmentStats {
            fragment: "f".into(),
            accesses: 2,
            shipped_bytes: 1000,
            size_bytes: 2000,
            ..Default::default()
        };
        // 2 accesses shipped 1000 B of a 2000 B fragment → 25%
        assert!((f.selectivity() - 0.25).abs() < 1e-12);
        f.size_bytes = 0;
        assert_eq!(f.selectivity(), 1.0); // unknown size → conservative
        f.size_bytes = 10;
        assert_eq!(f.selectivity(), 1.0); // clamped
    }
}
