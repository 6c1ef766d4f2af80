//! Closed-loop multi-client throughput benchmark.
//!
//! Not a paper figure: the paper measures single-query response time
//! (`DispatchMode::Simulated`). This benchmark instead measures the
//! *coordinator runtime* under concurrent clients — N closed-loop
//! clients each issue their next query as soon as the previous one
//! returns, cycling a fixed repeated-query workload. Two
//! configurations are compared:
//!
//! * `pool-nocache` — [`DispatchMode::Pool`]: persistent per-node worker
//!   pools, result cache off;
//! * `pool`         — worker pools plus the sub-query result cache.
//!
//! Reported per run: QPS (completed queries / wall-clock) and p50/p99
//! client-observed latency, plus the coordinator cache counters.

use crate::output::json;
use crate::{queries, setup};
use partix_engine::{DispatchMode, PartiX, StageBreakdown};
use partix_gen::ItemProfile;
use std::time::Instant;

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Total database size in bytes.
    pub db_bytes: usize,
    /// Horizontal fragments (== nodes).
    pub fragments: usize,
    /// Concurrent-client counts to sweep.
    pub clients: Vec<usize>,
    /// Queries each client issues (after a shared warm-up pass).
    pub queries_per_client: usize,
}

impl Default for ThroughputConfig {
    fn default() -> ThroughputConfig {
        ThroughputConfig {
            db_bytes: 200_000,
            fragments: 4,
            clients: vec![1, 4, 16],
            queries_per_client: 40,
        }
    }
}

/// The compared coordinator configurations, in report order.
pub const MODES: [&str; 2] = ["pool-nocache", "pool"];

/// Per-stage latency samples accumulated over a run's queries, one
/// vector per coordinator stage of the [`StageBreakdown`].
#[derive(Debug, Clone, Default)]
pub struct StageSamples {
    pub parse: Vec<f64>,
    pub localize: Vec<f64>,
    pub dispatch: Vec<f64>,
    pub compose: Vec<f64>,
}

impl StageSamples {
    pub fn record(&mut self, stages: &StageBreakdown) {
        self.parse.push(stages.parse_s);
        self.localize.push(stages.localize_s);
        self.dispatch.push(stages.dispatch_s);
        self.compose.push(stages.compose_s);
    }

    pub fn merge(&mut self, other: StageSamples) {
        self.parse.extend(other.parse);
        self.localize.extend(other.localize);
        self.dispatch.extend(other.dispatch);
        self.compose.extend(other.compose);
    }

    /// Collapse the samples into per-stage p50/p99 milliseconds.
    pub fn percentiles_ms(&mut self) -> StagePercentiles {
        let p = |v: &mut Vec<f64>, q: f64| percentile(v, q) * 1e3;
        StagePercentiles {
            parse_p50_ms: p(&mut self.parse, 50.0),
            parse_p99_ms: p(&mut self.parse, 99.0),
            localize_p50_ms: p(&mut self.localize, 50.0),
            localize_p99_ms: p(&mut self.localize, 99.0),
            dispatch_p50_ms: p(&mut self.dispatch, 50.0),
            dispatch_p99_ms: p(&mut self.dispatch, 99.0),
            compose_p50_ms: p(&mut self.compose, 50.0),
            compose_p99_ms: p(&mut self.compose, 99.0),
        }
    }
}

/// Per-stage p50/p99 of one run, in milliseconds — the stage-attribution
/// numbers both `BENCH_throughput.json` and `BENCH_chaos.json` carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagePercentiles {
    pub parse_p50_ms: f64,
    pub parse_p99_ms: f64,
    pub localize_p50_ms: f64,
    pub localize_p99_ms: f64,
    pub dispatch_p50_ms: f64,
    pub dispatch_p99_ms: f64,
    pub compose_p50_ms: f64,
    pub compose_p99_ms: f64,
}

impl StagePercentiles {
    /// Append the eight `<stage>_p{50,99}_ms` fields to a JSON object
    /// under construction.
    pub fn json_fields(&self, out: &mut String) {
        json::num_field(out, "parse_p50_ms", self.parse_p50_ms);
        json::num_field(out, "parse_p99_ms", self.parse_p99_ms);
        json::num_field(out, "localize_p50_ms", self.localize_p50_ms);
        json::num_field(out, "localize_p99_ms", self.localize_p99_ms);
        json::num_field(out, "dispatch_p50_ms", self.dispatch_p50_ms);
        json::num_field(out, "dispatch_p99_ms", self.dispatch_p99_ms);
        json::num_field(out, "compose_p50_ms", self.compose_p50_ms);
        json::num_field(out, "compose_p99_ms", self.compose_p99_ms);
    }
}

/// One (mode, client-count) measurement.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub mode: &'static str,
    pub clients: usize,
    pub total_queries: usize,
    pub wall_s: f64,
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    /// Per-stage p50/p99 attribution of the run's queries.
    pub stages: StagePercentiles,
    /// True when every node sat behind a loopback TCP server
    /// ([`crate::remote::RemoteCluster`]) instead of in-process drivers.
    pub remote: bool,
    /// Genuine wire bytes (sent + received across all nodes) during the
    /// measured run — 0 for in-process runs, where no bytes exist.
    pub bytes_shipped: u64,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        json::str_field(&mut out, "mode", self.mode);
        json::num_field(&mut out, "clients", self.clients as f64);
        json::num_field(&mut out, "total_queries", self.total_queries as f64);
        json::num_field(&mut out, "wall_s", self.wall_s);
        json::num_field(&mut out, "qps", self.qps);
        json::num_field(&mut out, "p50_ms", self.p50_ms);
        json::num_field(&mut out, "p99_ms", self.p99_ms);
        json::num_field(&mut out, "plan_cache_hits", self.plan_hits as f64);
        json::num_field(&mut out, "plan_cache_misses", self.plan_misses as f64);
        json::num_field(&mut out, "result_cache_hits", self.result_hits as f64);
        json::num_field(&mut out, "result_cache_misses", self.result_misses as f64);
        json::bool_field(&mut out, "remote", self.remote);
        json::num_field(&mut out, "bytes_shipped", self.bytes_shipped as f64);
        self.stages.json_fields(&mut out);
        out.push('}');
        out
    }
}

/// Build a fresh middleware in one of the [`MODES`].
fn build_px(docs: &[partix_xml::Document], fragments: usize, mode: &str) -> PartiX {
    let mut px = setup::horizontal(docs, fragments);
    px.set_dispatch(DispatchMode::Pool);
    match mode {
        "pool-nocache" => {}
        "pool" => px.set_result_cache_enabled(true),
        other => panic!("unknown throughput mode {other}"),
    }
    px
}

/// Drive `clients` closed-loop clients through `queries_per_client`
/// queries each (round-robin over `workload`, staggered start offsets).
/// Returns wall-clock seconds, every client-observed latency, and the
/// per-stage samples from every query's report.
pub fn run_clients(
    px: &PartiX,
    clients: usize,
    queries_per_client: usize,
    workload: &[(&'static str, String)],
) -> (f64, Vec<f64>, StageSamples) {
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(clients * queries_per_client);
    let mut stages = StageSamples::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut observed = Vec::with_capacity(queries_per_client);
                    let mut stages = StageSamples::default();
                    for k in 0..queries_per_client {
                        let (_, query) = &workload[(client + k) % workload.len()];
                        let issued = Instant::now();
                        let result = px.execute(query).expect("throughput query");
                        observed.push(issued.elapsed().as_secs_f64());
                        stages.record(&result.report.stages);
                    }
                    (observed, stages)
                })
            })
            .collect();
        for handle in handles {
            let (observed, client_stages) = handle.join().expect("client thread");
            latencies.extend(observed);
            stages.merge(client_stages);
        }
    });
    (start.elapsed().as_secs_f64(), latencies, stages)
}

/// Nearest-rank percentile of an unsorted latency sample, in seconds.
///
/// Returns 0.0 on an empty sample (documented sentinel, not an error).
/// Sorting uses [`f64::total_cmp`], so a NaN sneaking into the sample
/// (e.g. a zero-duration clock quirk upstream) sorts to the end instead
/// of panicking the whole benchmark; it can then only surface in the
/// topmost percentiles, where it is visible as what it is — bad data.
pub fn percentile(latencies: &mut [f64], p: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * latencies.len() as f64).ceil() as usize;
    latencies[rank.clamp(1, latencies.len()) - 1]
}

/// Run the full sweep: every mode × every client count, fresh middleware
/// per run (cache counters then cover exactly one run).
pub fn run(config: &ThroughputConfig) -> Vec<RunResult> {
    run_with(config, false)
}

/// [`run`] with an optional remote transport: when `remote` is true,
/// every node of every middleware sits behind its own loopback TCP
/// server ([`crate::remote::RemoteCluster`]) and the reported
/// `bytes_shipped` counts genuine frame bytes on the measured run
/// (warm-up traffic excluded).
pub fn run_with(config: &ThroughputConfig, remote: bool) -> Vec<RunResult> {
    let docs = setup::item_db(config.db_bytes, ItemProfile::Small);
    let workload = queries::horizontal(setup::DIST);
    println!(
        "\n### throughput{}: ItemsSHor {} B, {} fragments, {} queries/client, repeated {}-query workload",
        if remote { " (remote TCP transport)" } else { "" },
        config.db_bytes,
        config.fragments,
        config.queries_per_client,
        workload.len(),
    );
    println!(
        "{:<14} {:>8} {:>9} {:>10} {:>10} {:>10} {:>12}",
        "mode", "clients", "QPS", "p50(ms)", "p99(ms)", "wall(s)", "cache h/m"
    );
    let mut results = Vec::new();
    for &mode in &MODES {
        for &clients in &config.clients {
            let px = build_px(&docs, config.fragments, mode);
            let wire = remote.then(|| crate::remote::RemoteCluster::attach(&px));
            // one warm-up pass over the workload (discarded), matching
            // the single-query experiments' protocol
            for (_, query) in &workload {
                px.execute(query).expect("warm-up query");
            }
            let stats_before = px.cache_stats();
            let bytes_before = wire.as_ref().map_or(0, crate::remote::RemoteCluster::wire_bytes);
            let (wall_s, mut latencies, mut stage_samples) =
                run_clients(&px, clients, config.queries_per_client, &workload);
            let stats = px.cache_stats();
            let bytes_shipped =
                wire.as_ref().map_or(0, |w| w.wire_bytes().saturating_sub(bytes_before));
            let total_queries = latencies.len();
            let p50_ms = percentile(&mut latencies, 50.0) * 1e3;
            let p99_ms = percentile(&mut latencies, 99.0) * 1e3;
            let result = RunResult {
                mode,
                clients,
                total_queries,
                wall_s,
                qps: total_queries as f64 / wall_s.max(1e-9),
                p50_ms,
                p99_ms,
                plan_hits: stats.plan_hits - stats_before.plan_hits,
                plan_misses: stats.plan_misses - stats_before.plan_misses,
                result_hits: stats.result_hits - stats_before.result_hits,
                result_misses: stats.result_misses - stats_before.result_misses,
                stages: stage_samples.percentiles_ms(),
                remote,
                bytes_shipped,
            };
            println!(
                "{:<14} {:>8} {:>9.1} {:>10.3} {:>10.3} {:>10.3} {:>7}/{}",
                result.mode,
                result.clients,
                result.qps,
                result.p50_ms,
                result.p99_ms,
                result.wall_s,
                result.result_hits,
                result.result_misses,
            );
            println!(
                "    stage p50/p99 ms: parse {:.3}/{:.3}, localize {:.3}/{:.3}, dispatch {:.3}/{:.3}, compose {:.3}/{:.3}",
                result.stages.parse_p50_ms,
                result.stages.parse_p99_ms,
                result.stages.localize_p50_ms,
                result.stages.localize_p99_ms,
                result.stages.dispatch_p50_ms,
                result.stages.dispatch_p99_ms,
                result.stages.compose_p50_ms,
                result.stages.compose_p99_ms,
            );
            if remote {
                println!("    wire: {} B shipped over TCP", result.bytes_shipped);
            }
            results.push(result);
        }
    }
    for &clients in &config.clients {
        let qps_of = |mode: &str| {
            results
                .iter()
                .find(|r| r.mode == mode && r.clients == clients)
                .map(|r| r.qps)
                .unwrap_or(0.0)
        };
        let baseline = qps_of("pool-nocache");
        if baseline > 0.0 {
            println!(
                "  {clients:>2} client(s): result cache {:.2}x vs pool alone",
                qps_of("pool") / baseline,
            );
        }
    }
    results
}

/// Measure the span-collection overhead: fault-free `pool-nocache` QPS
/// with tracing on vs. off, on *one* middleware instance whose tracing
/// flag is toggled between rounds ([`PartiX::set_tracing_enabled`] is
/// runtime-togglable for exactly this purpose). Using a single instance
/// matters: two side-by-side instances differ by heap layout alone —
/// measured at several percent on small containers, dwarfing the signal.
/// Each round measures both arms back-to-back (alternating which goes
/// first) and yields one paired overhead ratio; the reported figure is
/// the *median* across rounds, which cancels slow drift inside a pair
/// and rejects hiccup outliers outright. Positive = tracing costs QPS;
/// small negative values are run-to-run noise. The acceptance bar for
/// the observability layer is < 2%.
pub fn measure_trace_overhead(config: &ThroughputConfig) -> f64 {
    let docs = setup::item_db(config.db_bytes, ItemProfile::Small);
    let workload = queries::horizontal(setup::DIST);
    // Sequential (single-client) on purpose: span collection is per-query
    // work, so its cost shows up identically at any concurrency, while
    // multi-client rounds only add scheduler noise (several percent per
    // round on small containers) that swamps the signal being measured.
    let clients = 1;
    let px = build_px(&docs, config.fragments, "pool-nocache");
    for (_, query) in &workload {
        px.execute(query).expect("warm-up query");
    }
    // Rounds long enough (~0.5s each) that a single scheduler hiccup
    // cannot swing the per-round QPS estimate by percents, and enough
    // rounds that the median has real outliers to reject.
    const ROUNDS: usize = 9;
    let per_client = config.queries_per_client.max(1_000);
    let mut round_pcts = Vec::with_capacity(ROUNDS);
    let mut qps_sum = [0.0f64; 2]; // [tracing off, tracing on]
    for round in 0..ROUNDS {
        // Alternate which arm goes first: the second run of a pair sees a
        // ramped-up CPU, and a fixed order would hand that edge to one arm.
        let order = if round % 2 == 0 { [0usize, 1] } else { [1, 0] };
        let mut qps = [0.0f64; 2];
        for slot in order {
            px.set_tracing_enabled(slot == 1);
            let (wall_s, latencies, _) = run_clients(&px, clients, per_client, &workload);
            qps[slot] = latencies.len() as f64 / wall_s.max(1e-9);
        }
        if qps[0] > 0.0 {
            round_pcts.push(100.0 * (qps[0] - qps[1]) / qps[0]);
        }
        qps_sum[0] += qps[0];
        qps_sum[1] += qps[1];
    }
    if round_pcts.is_empty() {
        return 0.0;
    }
    let pct = percentile(&mut round_pcts, 50.0);
    println!(
        "tracing overhead: {:.1} QPS off vs {:.1} QPS on → median {pct:+.2}%",
        qps_sum[0] / ROUNDS as f64,
        qps_sum[1] / ROUNDS as f64,
    );
    pct
}

/// Serialize a sweep as one JSON document.
pub fn to_json(
    config: &ThroughputConfig,
    results: &[RunResult],
    trace_overhead_pct: f64,
) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    json::str_field(&mut out, "experiment", "throughput");
    json::num_field(&mut out, "db_bytes", config.db_bytes as f64);
    json::num_field(&mut out, "fragments", config.fragments as f64);
    json::num_field(&mut out, "queries_per_client", config.queries_per_client as f64);
    json::num_field(&mut out, "trace_overhead_pct", trace_overhead_pct);
    let runs: Vec<String> = results.iter().map(RunResult::to_json).collect();
    json::raw_field(&mut out, "runs", &format!("[{}]", runs.join(",")));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut lats = vec![0.4, 0.1, 0.2, 0.3];
        assert_eq!(percentile(&mut lats, 50.0), 0.2);
        assert_eq!(percentile(&mut lats, 99.0), 0.4);
        assert_eq!(percentile(&mut lats, 100.0), 0.4);
    }

    #[test]
    fn percentile_empty_and_single_samples() {
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(percentile(&mut [], 99.0), 0.0);
        let mut single = [0.7];
        assert_eq!(percentile(&mut single, 1.0), 0.7);
        assert_eq!(percentile(&mut single, 50.0), 0.7);
        assert_eq!(percentile(&mut single, 100.0), 0.7);
    }

    #[test]
    fn percentile_survives_nan_samples() {
        // a NaN must not panic the sort; total_cmp sends it to the end,
        // so the median of the finite values is unaffected
        let mut lats = vec![0.3, f64::NAN, 0.1, 0.2];
        assert_eq!(percentile(&mut lats, 50.0), 0.2);
        // only the topmost percentile sees the junk value
        assert!(percentile(&mut lats, 100.0).is_nan());
        let mut all_nan = vec![f64::NAN, f64::NAN];
        assert!(percentile(&mut all_nan, 50.0).is_nan());
    }

    #[test]
    fn stage_samples_collapse_to_percentiles() {
        let mut samples = StageSamples::default();
        for ms in [1.0, 2.0, 3.0, 4.0] {
            samples.record(&StageBreakdown {
                parse_s: ms / 1e3,
                localize_s: 2.0 * ms / 1e3,
                dispatch_s: 10.0 * ms / 1e3,
                compose_s: 0.5 * ms / 1e3,
                subqueries: Vec::new(),
            });
        }
        let p = samples.percentiles_ms();
        assert!((p.parse_p50_ms - 2.0).abs() < 1e-9);
        assert!((p.parse_p99_ms - 4.0).abs() < 1e-9);
        assert!((p.dispatch_p50_ms - 20.0).abs() < 1e-9);
        assert!(p.dispatch_p99_ms >= p.dispatch_p50_ms);
        let mut out = String::from("{");
        p.json_fields(&mut out);
        out.push('}');
        assert!(out.contains("\"dispatch_p99_ms\":"));
        assert!(out.contains("\"compose_p50_ms\":"));
    }

    #[test]
    fn sweep_runs_all_modes_and_counts_cache_hits() {
        let config = ThroughputConfig {
            db_bytes: 30_000,
            fragments: 2,
            clients: vec![2],
            queries_per_client: 10,
        };
        let results = run(&config);
        assert_eq!(results.len(), MODES.len());
        for r in &results {
            assert_eq!(r.total_queries, 2 * 10);
            assert!(r.qps > 0.0, "{}: no throughput", r.mode);
            assert!(r.p99_ms >= r.p50_ms, "{}: p99 < p50", r.mode);
        }
        // the cached configuration must actually hit: the workload
        // repeats and the warm-up pass populated the cache
        let pool = results.iter().find(|r| r.mode == "pool").expect("pool run");
        assert!(pool.result_hits > 0, "cached run recorded no hits");
        let nocache = results.iter().find(|r| r.mode == "pool-nocache").expect("run");
        assert_eq!(nocache.result_hits, 0);
        // dispatch dominates each query, so its percentiles are non-zero
        assert!(pool.stages.dispatch_p99_ms >= pool.stages.dispatch_p50_ms);
        assert!(pool.stages.dispatch_p50_ms > 0.0, "no dispatch stage time recorded");
        // and the counters land in the JSON
        let doc = to_json(&config, &results, 1.25);
        assert!(doc.contains("\"result_cache_hits\":"));
        assert!(doc.contains("\"mode\":\"pool\""));
        assert!(doc.contains("\"trace_overhead_pct\":1.25"));
        assert!(doc.contains("\"parse_p50_ms\":"));
        assert!(doc.contains("\"dispatch_p99_ms\":"));
        assert!(doc.starts_with('{') && doc.ends_with('}'));
    }
}
