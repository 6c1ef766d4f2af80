//! The one scenario runner behind `harness chaos | rebalance | scaleout |
//! multitenant | writes`.
//!
//! A scenario ([`crate::scenarios`]) says what is built — dataset, design,
//! transport, fault plan — and what happens between measured phases; the
//! runner owns what every scenario used to re-implement: the closed-loop
//! client fan-out ([`Fleet::run`]), the latency tally and its percentiles
//! ([`Tally`], [`percentile`]), the oracle check of every answer, and the
//! JSON record with the header the frozen benchmark also writes
//! (`host_cores`, `git_rev`, `dataset_bytes`).

use crate::oracle::canonical;
use crate::output::json;
use partix_engine::{DistributedResult, QueryReport};
use partix_query::Item;
use partix_xml::Document;
use std::time::{Duration, Instant};

/// What the command line decides; everything else about a scenario is a
/// constant of its definition.
#[derive(Debug, Clone)]
pub struct Knobs {
    /// Target database size in bytes (ItemsSHor documents).
    pub db_bytes: usize,
    /// Horizontal fragments, one node each.
    pub fragments: usize,
    /// `--clients`: a scenario runs the largest fleet, `multitenant` the
    /// smallest (its flood is a multiple of it).
    pub clients: Vec<usize>,
    /// Operations each closed-loop client issues per measured phase.
    pub ops_per_client: usize,
    /// Fault-schedule (`chaos`) and advisor-search (`rebalance`) seed.
    pub seed: u64,
    /// `chaos`: fraction of nodes given a fault schedule.
    pub rate: f64,
    /// `chaos`: replicas per fragment.
    pub replicas: usize,
    /// `chaos`: per-attempt dispatch deadline.
    pub timeout_ms: u64,
    /// `chaos` / `rebalance`: every node behind a loopback TCP server.
    pub remote: bool,
}

impl Knobs {
    pub fn dataset(&self) -> Vec<Document> {
        crate::setup::item_db(self.db_bytes, partix_gen::ItemProfile::Small)
    }

    pub fn most_clients(&self) -> usize {
        self.clients.iter().copied().max().unwrap_or(1)
    }

    /// Start a scenario's record: the shared header, then the knobs every
    /// scenario reports.
    pub fn record(&self, experiment: &str, docs: &[Document]) -> Fields {
        let dataset_bytes: usize = docs.iter().map(|d| partix_xml::to_string(d).len()).sum();
        Fields::default()
            .text("experiment", experiment)
            .count("host_cores", std::thread::available_parallelism().map_or(0, |n| n.get()))
            .text("git_rev", &git_revision())
            .count("dataset_bytes", dataset_bytes)
            .count("db_bytes", self.db_bytes)
            .count("fragments", self.fragments)
    }
}

/// The checked-out revision, read from `.git` without spawning anything;
/// `unknown` outside a repository.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".into(),
        rev => rev.chars().take(12).collect(),
    }
}

/// What one operation came to, as its client saw it.
pub enum Op {
    /// A query answered. `query` indexes the workload (and the oracle).
    Read { query: usize, items: Vec<Item>, report: Option<Box<QueryReport>> },
    /// A write acknowledged.
    Write,
    /// Turned away by admission control; the client honours the hint.
    Rejected { retry_after_ms: u64 },
    /// A typed failure the scenario tolerates.
    Failed,
}

impl Op {
    pub fn answered(query: usize, result: DistributedResult) -> Op {
        Op::Read { query, items: result.items, report: Some(Box::new(result.report)) }
    }
}

/// Coordinator stages of a [`partix_engine::StageBreakdown`], in order.
const STAGES: [&str; 4] = ["parse", "localize", "dispatch", "compose"];

/// Everything one fleet observed. Latencies are seconds.
#[derive(Debug, Default)]
pub struct Tally {
    pub wall_s: f64,
    pub reads: Vec<f64>,
    pub writes: Vec<f64>,
    pub rejected: usize,
    pub failed: usize,
    pub partial: usize,
    pub retries: usize,
    pub failovers: usize,
    pub timeouts: usize,
    /// Per-stage samples of the answered queries that carried a report.
    stages: [Vec<f64>; 4],
    /// Answers compared against the oracle, and how many differed.
    pub checks: usize,
    pub mismatches: usize,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.partial += other.partial;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.timeouts += other.timeouts;
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages) {
            mine.extend(theirs);
        }
        self.checks += other.checks;
        self.mismatches += other.mismatches;
    }

    /// Completed operations per wall-clock second.
    pub fn qps(&self) -> f64 {
        (self.reads.len() + self.writes.len()) as f64 / self.wall_s.max(1e-9)
    }

    /// Percentile `p` of the answered queries' latency, in milliseconds.
    pub fn read_ms(&self, p: f64) -> f64 {
        percentile(&mut self.reads.clone(), p) * 1e3
    }

    pub fn write_ms(&self, p: f64) -> f64 {
        percentile(&mut self.writes.clone(), p) * 1e3
    }

    /// The eight `<stage>_p{50,99}_ms` fields.
    pub fn stage_fields(&self, mut fields: Fields) -> Fields {
        for (stage, samples) in STAGES.iter().zip(&self.stages) {
            for p in [50u8, 99] {
                let ms = percentile(&mut samples.clone(), f64::from(p)) * 1e3;
                fields = fields.num(&format!("{stage}_p{p}_ms"), ms);
            }
        }
        fields
    }
}

/// Nearest-rank percentile of an unsorted sample.
///
/// Returns 0.0 on an empty sample (documented sentinel, not an error).
/// Sorting uses [`f64::total_cmp`], so a NaN sneaking into the sample
/// sorts to the end instead of panicking the whole run; it can then only
/// surface in the topmost percentiles, where it is visible as what it is —
/// bad data.
pub fn percentile(sample: &mut [f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sample.len() as f64).ceil() as usize;
    sample[rank.clamp(1, sample.len()) - 1]
}

/// The workload entry client `client` issues as its `k`-th operation:
/// round-robin with staggered starts.
pub fn turn<'w>(workload: &'w [(&'static str, String)], client: usize, k: usize) -> (usize, &'w str) {
    let query = (client + k) % workload.len();
    (query, &workload[query].1)
}

/// A fleet of closed-loop clients: each issues its next operation as soon
/// as the previous one returns.
pub struct Fleet<'a> {
    pub clients: usize,
    pub ops_per_client: usize,
    /// Canonical centralized answers by workload index
    /// ([`crate::oracle::oracle_answers`]); every [`Op::Read`] is checked
    /// against its entry.
    pub oracle: Option<&'a [String]>,
}

impl Fleet<'_> {
    /// Run the fleet to completion. `state` builds what a client keeps
    /// between operations (a connection, a write cursor); `op` performs the
    /// client's `k`-th operation and is what gets timed.
    pub fn run<S>(
        &self,
        state: impl Fn(usize) -> S + Sync,
        op: impl Fn(&mut S, usize, usize) -> Op + Sync,
    ) -> Tally {
        let start = Instant::now();
        let mut total = Tally::default();
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..self.clients)
                .map(|client| {
                    let (state, op) = (&state, &op);
                    scope.spawn(move || {
                        let mut state = state(client);
                        let mut tally = Tally::default();
                        for k in 0..self.ops_per_client {
                            let issued = Instant::now();
                            let done = op(&mut state, client, k);
                            self.record(&mut tally, done, issued.elapsed().as_secs_f64());
                        }
                        tally
                    })
                })
                .collect();
            for client in clients {
                total.merge(client.join().expect("client thread"));
            }
        });
        total.wall_s = start.elapsed().as_secs_f64();
        total
    }

    fn record(&self, tally: &mut Tally, done: Op, latency_s: f64) {
        match done {
            Op::Read { query, items, report } => {
                tally.reads.push(latency_s);
                if let Some(oracle) = self.oracle {
                    tally.checks += 1;
                    tally.mismatches += usize::from(canonical(&items) != oracle[query]);
                }
                if let Some(report) = report {
                    tally.partial += usize::from(report.partial);
                    tally.retries += report.retries;
                    tally.failovers += report.failovers;
                    tally.timeouts += report.timeouts;
                    let s = &report.stages;
                    for (samples, stage_s) in tally
                        .stages
                        .iter_mut()
                        .zip([s.parse_s, s.localize_s, s.dispatch_s, s.compose_s])
                    {
                        samples.push(stage_s);
                    }
                }
            }
            Op::Write => tally.writes.push(latency_s),
            Op::Rejected { retry_after_ms } => {
                tally.rejected += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(20)));
            }
            Op::Failed => tally.failed += 1,
        }
    }
}

/// A JSON value of a scenario record.
#[derive(Debug, PartialEq)]
pub enum Value {
    Num(f64),
    Text(String),
    Flag(bool),
    Rows(Vec<Fields>),
}

/// An ordered JSON object: what a scenario returns and the harness writes.
/// Tests read it back by key instead of parsing text; `Display` is the
/// one-line `key=value` form a scenario prints per run.
#[derive(Debug, Default, PartialEq)]
pub struct Fields(Vec<(String, Value)>);

impl Fields {
    fn with(mut self, key: &str, value: Value) -> Fields {
        self.0.push((key.to_owned(), value));
        self
    }

    pub fn num(self, key: &str, value: f64) -> Fields {
        self.with(key, Value::Num(value))
    }

    pub fn count(self, key: &str, value: usize) -> Fields {
        self.with(key, Value::Num(value as f64))
    }

    pub fn text(self, key: &str, value: &str) -> Fields {
        self.with(key, Value::Text(value.to_owned()))
    }

    pub fn flag(self, key: &str, value: bool) -> Fields {
        self.with(key, Value::Flag(value))
    }

    pub fn rows(self, key: &str, rows: Vec<Fields>) -> Fields {
        self.with(key, Value::Rows(rows))
    }

    /// The value under `key`; panics when the record has none (a test
    /// asking for a field the scenario does not emit is the failure).
    fn get(&self, key: &str) -> &Value {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, value)) => value,
            None => panic!("record has no field {key:?}"),
        }
    }

    pub fn number(&self, key: &str) -> f64 {
        match self.get(key) {
            Value::Num(n) => *n,
            other => panic!("{key} is not a number: {other:?}"),
        }
    }

    pub fn is(&self, key: &str) -> bool {
        *self.get(key) == Value::Flag(true)
    }

    pub fn table(&self, key: &str) -> &[Fields] {
        match self.get(key) {
            Value::Rows(rows) => rows,
            other => panic!("{key} is not a list: {other:?}"),
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (key, value) in &self.0 {
            match value {
                Value::Num(n) => json::num_field(&mut out, key, *n),
                Value::Text(s) => json::str_field(&mut out, key, s),
                Value::Flag(b) => json::bool_field(&mut out, key, *b),
                Value::Rows(rows) => {
                    let rows: Vec<String> = rows.iter().map(Fields::to_json).collect();
                    json::raw_field(&mut out, key, &format!("[{}]", rows.join(",")));
                }
            }
        }
        out.push('}');
        out
    }
}

impl std::fmt::Display for Fields {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (key, value) in &self.0 {
            match value {
                Value::Num(n) if n.fract() == 0.0 => write!(f, "{key}={n} ")?,
                Value::Num(n) => write!(f, "{key}={n:.3} ")?,
                Value::Text(s) => write!(f, "{key}={s} ")?,
                Value::Flag(b) => write!(f, "{key}={b} ")?,
                Value::Rows(rows) => write!(f, "{key}=[{} rows] ", rows.len())?,
            }
        }
        Ok(())
    }
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
    fn fleet_times_tallies_and_checks_every_operation() {
        let oracle = vec!["1".to_owned(), "2".to_owned()];
        let fleet = Fleet { clients: 3, ops_per_client: 4, oracle: Some(&oracle) };
        let tally = fleet.run(
            |client| client,
            |seen, client, k| {
                assert_eq!(*seen, client, "a client keeps its own state");
                match k {
                    // the oracle says "1" for query 0: one right, one wrong
                    0 => Op::Read { query: 0, items: vec![Item::Num(1.0)], report: None },
                    1 => Op::Read { query: 0, items: vec![Item::Num(7.0)], report: None },
                    2 => Op::Write,
                    _ => Op::Failed,
                }
            },
        );
        assert_eq!((tally.reads.len(), tally.writes.len(), tally.failed), (6, 3, 3));
        assert_eq!((tally.checks, tally.mismatches), (6, 3));
        assert!(tally.wall_s > 0.0 && tally.qps() > 0.0);
        assert!(tally.read_ms(99.0) >= tally.read_ms(50.0));
        let fields = tally.stage_fields(Fields::default());
        assert_eq!(fields.number("dispatch_p99_ms"), 0.0, "no report, no stage samples");
    }

    #[test]
    fn record_reads_back_by_key_and_serializes_in_order() {
        let record = Fields::default()
            .text("experiment", "x")
            .count("n", 3)
            .flag("verified", true)
            .rows("runs", vec![Fields::default().num("qps", 1.5)]);
        assert_eq!(record.number("n"), 3.0);
        assert!(record.is("verified"));
        assert_eq!(record.table("runs")[0].number("qps"), 1.5);
        assert_eq!(
            record.to_json(),
            r#"{"experiment":"x","n":3,"verified":true,"runs":[{"qps":1.5}]}"#
        );
        assert_eq!(record.to_string(), "experiment=x n=3 verified=true runs=[1 rows] ");
    }
}
