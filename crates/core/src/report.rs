//! Query execution reports: the numbers the paper's figures plot.

use crate::trace::{SpanRecord, StageBreakdown};
use std::fmt;

/// Execution record of one sub-query at one site.
#[derive(Debug, Clone)]
pub struct SiteReport {
    pub node: usize,
    pub fragment: String,
    /// DBMS-side execution time (seconds).
    pub elapsed: f64,
    /// Result size shipped back to the coordinator (bytes).
    pub result_bytes: usize,
    /// Documents fed to the node's evaluator.
    pub docs_scanned: usize,
    /// Whether the node used an index to pre-filter.
    pub index_used: bool,
    /// Morsels the node's scan split into for intra-fragment parallel
    /// execution (0 = the node evaluated sequentially).
    pub morsels: usize,
    /// Dispatch attempts beyond the first that this sub-query needed
    /// (failed/timed-out attempts, on any replica).
    pub retries: usize,
    /// Retries that moved the sub-query to a *different* replica node
    /// (mid-flight failover). `node` is the replica that answered.
    pub failovers: usize,
    /// Attempts abandoned because they exceeded the per-attempt deadline.
    pub timeouts: usize,
}

/// Full timing breakdown of one distributed query, following the paper's
/// measurement methodology (Sec. 5): sub-queries run in parallel at their
/// sites; the parallel elapsed time is the slowest site; transmission
/// time covers sending sub-queries and shipping partial results; result
/// composition happens at the coordinator.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    pub sites: Vec<SiteReport>,
    /// max over sites of the DBMS execution time.
    pub parallel_elapsed: f64,
    /// Σ over sites — what a serial execution of the sub-queries would
    /// cost (used to sanity-check superlinear speedups).
    pub serial_elapsed: f64,
    /// Modelled network time (sub-query dispatch + result shipping).
    pub transmission: f64,
    /// Coordinator-side composition (union / aggregation / join).
    pub composition: f64,
    /// Number of fragments the localization step pruned away.
    pub fragments_pruned: usize,
    /// True when the query was answered by reconstructing fragments at
    /// the coordinator (multi-fragment vertical fallback).
    pub reconstructed: bool,
    /// True when the plan came from the coordinator's parsed-query cache
    /// (only set by [`PartiX::execute`](crate::PartiX::execute); queries
    /// entering as pre-parsed ASTs never consult the plan cache).
    pub plan_cache_hit: bool,
    /// Σ over sites of dispatch retries (see [`SiteReport::retries`]).
    pub retries: usize,
    /// Σ over sites of replica failovers.
    pub failovers: usize,
    /// Σ over sites of per-attempt deadline expiries.
    pub timeouts: usize,
    /// True when the answer is missing at least one fragment — only
    /// possible with `ExecOptions::allow_partial`; the missing fragments
    /// are listed in `skipped`.
    pub partial: bool,
    /// Fragments that contributed nothing because every dispatch attempt
    /// on every replica failed (degraded mode).
    pub skipped: Vec<SkippedFragment>,
    /// Coordinator-stage attribution (parse / localize / dispatch /
    /// compose and per-sub-query dispatch detail). Always measured — the
    /// cost is a few monotonic-clock reads per query.
    pub stages: StageBreakdown,
    /// Raw spans behind `stages`, exportable via
    /// [`trace::chrome_trace`](crate::trace::chrome_trace). Collected
    /// only while the service's tracing flag is on
    /// ([`PartiX::set_tracing_enabled`](crate::PartiX::set_tracing_enabled)).
    pub spans: Vec<SpanRecord>,
}

/// One fragment dropped from a degraded (`allow_partial`) answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedFragment {
    pub fragment: String,
    /// The last error observed while trying this fragment's replicas.
    pub error: String,
}

impl QueryReport {
    /// The paper's reported response time: parallel execution + network +
    /// composition.
    pub fn total(&self) -> f64 {
        self.parallel_elapsed + self.transmission + self.composition
    }

    /// Total bytes shipped from sites to the coordinator.
    pub fn total_result_bytes(&self) -> usize {
        self.sites.iter().map(|s| s.result_bytes).sum()
    }
}

impl fmt::Display for QueryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total {:.6}s = parallel {:.6}s + net {:.6}s + compose {:.6}s ({} site(s), {} pruned{})",
            self.total(),
            self.parallel_elapsed,
            self.transmission,
            self.composition,
            self.sites.len(),
            self.fragments_pruned,
            if self.reconstructed { ", reconstructed" } else { "" },
        )?;
        if self.retries > 0 || self.timeouts > 0 || self.partial {
            writeln!(
                f,
                "  faults: {} retr{}, {} failover(s), {} timeout(s){}",
                self.retries,
                if self.retries == 1 { "y" } else { "ies" },
                self.failovers,
                self.timeouts,
                if self.partial { " — PARTIAL result" } else { "" },
            )?;
            for skipped in &self.skipped {
                writeln!(f, "  skipped [{}]: {}", skipped.fragment, skipped.error)?;
            }
        }
        if self.plan_cache_hit {
            writeln!(f, "  cache: plan hit")?;
        }
        for site in &self.sites {
            writeln!(
                f,
                "  node{} [{}]: {:.6}s, {} docs, {} B{}{}",
                site.node,
                site.fragment,
                site.elapsed,
                site.docs_scanned,
                site.result_bytes,
                if site.index_used { ", index" } else { "" },
                if site.morsels > 0 {
                    format!(", {} morsels", site.morsels)
                } else {
                    String::new()
                },
            )?;
        }
        if self.stages.is_measured() {
            writeln!(f, "  stage        time(ms)")?;
            for (name, secs) in [
                ("parse", self.stages.parse_s),
                ("localize", self.stages.localize_s),
                ("dispatch", self.stages.dispatch_s),
                ("compose", self.stages.compose_s),
            ] {
                writeln!(f, "  {name:<12} {:>8.3}", secs * 1e3)?;
            }
            for sub in &self.stages.subqueries {
                write!(
                    f,
                    "    [{}]@n{}: {} attempt(s), wait {:.3}ms, exec {:.3}ms, backoff {:.3}ms",
                    sub.fragment,
                    sub.node,
                    sub.attempts,
                    sub.queue_wait_s * 1e3,
                    sub.execute_s * 1e3,
                    sub.backoff_s * 1e3,
                )?;
                if sub.send_s > 0.0 || sub.recv_s > 0.0 {
                    // only network-backed sub-queries have wire time
                    write!(
                        f,
                        ", send {:.3}ms, recv {:.3}ms",
                        sub.send_s * 1e3,
                        sub.recv_s * 1e3,
                    )?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(node: usize, elapsed: f64, bytes: usize) -> SiteReport {
        SiteReport {
            node,
            fragment: format!("f{node}"),
            elapsed,
            result_bytes: bytes,
            docs_scanned: 10,
            index_used: false,
            morsels: 0,
            retries: 0,
            failovers: 0,
            timeouts: 0,
        }
    }

    #[test]
    fn totals_add_up() {
        let report = QueryReport {
            sites: vec![site(0, 0.5, 100), site(1, 0.2, 50)],
            parallel_elapsed: 0.5,
            serial_elapsed: 0.7,
            transmission: 0.1,
            composition: 0.05,
            fragments_pruned: 1,
            ..Default::default()
        };
        assert!((report.total() - 0.65).abs() < 1e-12);
        assert_eq!(report.total_result_bytes(), 150);
    }

    #[test]
    fn display_is_informative() {
        let report = QueryReport {
            sites: vec![site(0, 0.5, 100)],
            parallel_elapsed: 0.5,
            serial_elapsed: 0.5,
            fragments_pruned: 2,
            reconstructed: true,
            ..Default::default()
        };
        let text = report.to_string();
        assert!(text.contains("node0"));
        assert!(text.contains("reconstructed"));
        assert!(text.contains("2 pruned"));
    }

    #[test]
    fn display_shows_fault_line_and_skips() {
        let report = QueryReport {
            sites: vec![site(0, 0.1, 10)],
            retries: 2,
            failovers: 1,
            timeouts: 1,
            partial: true,
            skipped: vec![SkippedFragment {
                fragment: "f_dvd".into(),
                error: "every replica down".into(),
            }],
            ..Default::default()
        };
        let text = report.to_string();
        assert!(text.contains("2 retries, 1 failover(s), 1 timeout(s)"), "{text}");
        assert!(text.contains("PARTIAL"), "{text}");
        assert!(text.contains("skipped [f_dvd]: every replica down"), "{text}");
        // and stays silent on a clean run
        assert!(!QueryReport::default().to_string().contains("faults:"));
    }

    #[test]
    fn display_shows_stage_table_when_measured() {
        use crate::trace::SubQueryStage;
        let report = QueryReport {
            sites: vec![site(0, 0.1, 10)],
            stages: StageBreakdown {
                parse_s: 0.0001,
                localize_s: 0.0002,
                dispatch_s: 0.1,
                compose_s: 0.001,
                subqueries: vec![SubQueryStage {
                    fragment: "f0".into(),
                    node: 0,
                    attempts: 2,
                    execute_s: 0.09,
                    backoff_s: 0.005,
                    retries: 1,
                    ..Default::default()
                }],
            },
            ..Default::default()
        };
        let text = report.to_string();
        assert!(text.contains("stage        time(ms)"), "{text}");
        assert!(text.contains("dispatch"), "{text}");
        assert!(text.contains("[f0]@n0: 2 attempt(s)"), "{text}");
        // silent when tracing was off
        assert!(!QueryReport::default().to_string().contains("stage"));
    }

    #[test]
    fn display_shows_cache_line_when_hit() {
        let report = QueryReport {
            sites: vec![site(0, 0.0, 100)],
            plan_cache_hit: true,
            ..Default::default()
        };
        let text = report.to_string();
        assert!(text.contains("cache: plan hit"), "{text}");
        // and stays silent without cache activity
        let quiet = QueryReport::default().to_string();
        assert!(!quiet.contains("cache:"));
    }
}
