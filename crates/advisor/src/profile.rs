//! Workload profiling: aggregate per-fragment access statistics from
//! query reports into a serializable [`WorkloadProfile`].
//!
//! The profiler is the advisor's input stage. Every
//! [`QueryReport`](partix_engine::QueryReport) fed to
//! [`WorkloadProfiler::record`] contributes its per-site numbers
//! (fragment touched, node answering, bytes shipped, DBMS busy time)
//! and its coordinator stage breakdown. The aggregate is a
//! plain-data [`WorkloadProfile`] that round-trips through JSON, so a
//! profile captured on one run (`partix stats`, a benchmark, production
//! traffic) can be replayed into `partix advise` later.

use crate::jsonio::{self, Json};
use partix_engine::{PartiX, QueryReport};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

    /// Total result bytes shipped to the coordinator.
    pub fn total_shipped_bytes(&self) -> u64 {
        self.fragments.iter().map(|f| f.shipped_bytes).sum()
    }

    /// Serialize to JSON (stable field order, round-trips via
    /// [`WorkloadProfile::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"queries\": {},", self.queries);
        let _ = writeln!(
            out,
            "  \"stages\": {{\"parse_s\": {}, \"localize_s\": {}, \"dispatch_s\": {}, \"compose_s\": {}}},",
            self.stages.parse_s, self.stages.localize_s, self.stages.dispatch_s, self.stages.compose_s
        );
        out.push_str("  \"fragments\": [");
        for (i, f) in self.fragments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"fragment\": \"{}\", \"accesses\": {}, \"shipped_bytes\": {}, \"busy_s\": {}, \"size_bytes\": {}}}",
                jsonio::escape(&f.fragment),
                f.accesses,
                f.shipped_bytes,
                f.busy_s,
                f.size_bytes
            );
        }
        out.push_str("\n  ],\n  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"node\": {}, \"accesses\": {}, \"shipped_bytes\": {}, \"busy_s\": {}}}",
                n.node, n.accesses, n.shipped_bytes, n.busy_s
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a profile previously produced by [`WorkloadProfile::to_json`].
    /// Fields it no longer writes (`cache_hits`) are ignored.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = jsonio::parse(text).map_err(|e| e.to_string())?;
        let need_u64 = |v: &Json, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing/invalid field {key:?}"))
        };
        let need_f64 = |v: &Json, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing/invalid field {key:?}"))
        };
        let mut profile = WorkloadProfile {
            queries: need_u64(&root, "queries")?,
            ..Default::default()
        };
        if let Some(stages) = root.get("stages") {
            profile.stages = StageTotals {
                parse_s: need_f64(stages, "parse_s")?,
                localize_s: need_f64(stages, "localize_s")?,
                dispatch_s: need_f64(stages, "dispatch_s")?,
                compose_s: need_f64(stages, "compose_s")?,
            };
        }
        for f in root
            .get("fragments")
            .and_then(Json::as_arr)
            .ok_or("missing \"fragments\" array")?
        {
            profile.fragments.push(FragmentStats {
                fragment: f
                    .get("fragment")
                    .and_then(Json::as_str)
                    .ok_or("fragment entry missing name")?
                    .to_owned(),
                accesses: need_u64(f, "accesses")?,
                shipped_bytes: need_u64(f, "shipped_bytes")?,
                busy_s: need_f64(f, "busy_s")?,
                size_bytes: need_u64(f, "size_bytes")?,
            });
        }
        for n in root.get("nodes").and_then(Json::as_arr).ok_or("missing \"nodes\" array")? {
            profile.nodes.push(NodeStats {
                node: need_u64(n, "node")? as usize,
                accesses: need_u64(n, "accesses")?,
                shipped_bytes: need_u64(n, "shipped_bytes")?,
                busy_s: need_f64(n, "busy_s")?,
            });
        }
        profile.fragments.sort_by(|a, b| a.fragment.cmp(&b.fragment));
        profile.nodes.sort_by_key(|n| n.node);
        Ok(profile)
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
        assert_eq!(p.total_shipped_bytes(), 700);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut p = sample_profile();
        p.fragments[0].size_bytes = 4096;
        let back = WorkloadProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn a_profile_that_still_counts_cache_hits_loads() {
        // as written before the result cache was deleted
        let text = r#"{
  "queries": 2,
  "stages": {"parse_s": 0, "localize_s": 0, "dispatch_s": 0.5, "compose_s": 0},
  "fragments": [
    {"fragment": "f_cd", "accesses": 2, "shipped_bytes": 600, "cache_hits": 1, "busy_s": 0.02, "size_bytes": 4096}
  ],
  "nodes": [
    {"node": 0, "accesses": 2, "shipped_bytes": 600, "busy_s": 0.02}
  ]
}
"#;
        let p = WorkloadProfile::from_json(text).unwrap();
        let cd = p.fragment("f_cd").unwrap();
        assert_eq!((cd.accesses, cd.shipped_bytes, cd.size_bytes), (2, 600, 4096));
        assert_eq!(p.nodes[0].accesses, 2);
        assert!(!p.to_json().contains("cache_hits"));
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(WorkloadProfile::from_json("{}").is_err());
        assert!(WorkloadProfile::from_json("not json").is_err());
        assert!(WorkloadProfile::from_json(r#"{"queries": 1, "fragments": [{}], "nodes": []}"#)
            .is_err());
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
