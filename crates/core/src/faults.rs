//! Deterministic fault injection for resilience tests and chaos runs.
//!
//! [`FaultInjector`] decorates any [`PartixDriver`] with a per-node
//! schedule of injected failures. Every fault is a pure function of the
//! injector's call counter, so a given schedule always fails the same
//! calls in the same way — re-running a chaos test with the same seed
//! replays the exact failure sequence ([`FaultPlan::from_seed`]).
//!
//! Fault kinds (mirroring how real deployments degrade):
//!
//! * [`Fault::ErrorAfter`] — the DBMS serves N queries then starts
//!   failing them ([`DriverError::Failed`]): a wedged engine that is
//!   still reachable.
//! * [`Fault::Latency`] — every call is slowed by a fixed real delay: a
//!   node with a saturated disk or link. Combined with the dispatcher's
//!   per-attempt deadline this produces *timeouts*, not errors.
//! * [`Fault::CrashAfter`] — the node serves N queries then becomes
//!   unreachable ([`DriverError::Unavailable`]) until
//!   [`FaultInjector::revive`] is called: a crash-until-revived outage.
//! * [`Fault::FlipFlop`] — availability cycles: `up` reachable calls,
//!   then `down` unreachable calls, repeating: a flapping node.
//!
//! The injector sits *below* the coordinator's availability check
//! (`Node::is_available` still reports `true`), which is exactly the
//! failure mode the plan-time check cannot see — the node dies or hangs
//! *after* the sub-query was dispatched to it. The retry/failover layer
//! in [`crate::service`] is what turns these injected faults back into
//! answered queries.

use crate::cluster::Node;
use crate::driver::{DriverError, PartixDriver};
use crate::service::PartiX;
use partix_query::Query;
use partix_storage::QueryOutput;
use partix_xml::Document;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One injected failure behaviour. All kinds key off the injector's
/// per-node call counter, never wall-clock time, so schedules are
/// deterministic and replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Serve `ok_calls` queries, then fail every later one with
    /// [`DriverError::Failed`] (DBMS wedged but reachable).
    ErrorAfter { ok_calls: usize },
    /// Delay every query by `millis` of real time (slow node). The
    /// delay also applies to calls that subsequently fail — a hanging
    /// node hangs before it errors.
    Latency { millis: u64 },
    /// Serve `ok_calls` queries, then answer [`DriverError::Unavailable`]
    /// until [`FaultInjector::revive`] is called (crash-until-revived).
    CrashAfter { ok_calls: usize },
    /// Cycle availability: `up` reachable calls, then `down` calls
    /// answering [`DriverError::Unavailable`], repeating.
    FlipFlop { up: usize, down: usize },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::ErrorAfter { ok_calls } => write!(f, "error-after-{ok_calls}"),
            Fault::Latency { millis } => write!(f, "latency-{millis}ms"),
            Fault::CrashAfter { ok_calls } => write!(f, "crash-after-{ok_calls}"),
            Fault::FlipFlop { up, down } => write!(f, "flipflop-{up}up{down}down"),
        }
    }
}

/// Cumulative injection counters of one [`FaultInjector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Query-path calls (executes and reconstruction fetches) that
    /// reached the injector.
    pub calls: usize,
    /// Calls answered with [`DriverError::Failed`].
    pub injected_errors: usize,
    /// Calls answered with [`DriverError::Unavailable`].
    pub injected_outages: usize,
    /// Calls slowed by an injected latency fault.
    pub delayed_calls: usize,
}

/// A [`PartixDriver`] decorator applying a fixed list of [`Fault`]s to
/// every query-path call: executes and the reconstruction fallback's
/// fetches ([`PartixDriver::try_fetch_collection`] and
/// [`PartixDriver::try_fetch_filtered`]). Stores and plain
/// fetches pass through unfaulted — publication is not under test, query
/// dispatch is.
pub struct FaultInjector {
    inner: Arc<dyn PartixDriver>,
    faults: Vec<Fault>,
    calls: AtomicUsize,
    revived: AtomicBool,
    injected_errors: AtomicUsize,
    injected_outages: AtomicUsize,
    delayed_calls: AtomicUsize,
}

impl FaultInjector {
    pub fn new(inner: Arc<dyn PartixDriver>, faults: Vec<Fault>) -> FaultInjector {
        FaultInjector {
            inner,
            faults,
            calls: AtomicUsize::new(0),
            revived: AtomicBool::new(false),
            injected_errors: AtomicUsize::new(0),
            injected_outages: AtomicUsize::new(0),
            delayed_calls: AtomicUsize::new(0),
        }
    }

    /// Wrap `node`'s active driver with `faults` and install the wrapper
    /// on the node. Returns a handle for [`FaultInjector::revive`] and
    /// [`FaultInjector::stats`].
    pub fn install(node: &Node, faults: Vec<Fault>) -> Arc<FaultInjector> {
        let injector = Arc::new(FaultInjector::new(node.active_driver(), faults));
        node.set_driver(Arc::clone(&injector) as Arc<dyn PartixDriver>);
        injector
    }

    /// End every [`Fault::CrashAfter`] outage: the node is reachable
    /// again (the crash-until-revived recovery).
    pub fn revive(&self) {
        self.revived.store(true, Ordering::Release);
    }

    /// The faults this injector applies.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    pub fn stats(&self) -> InjectionStats {
        InjectionStats {
            calls: self.calls.load(Ordering::Acquire),
            injected_errors: self.injected_errors.load(Ordering::Acquire),
            injected_outages: self.injected_outages.load(Ordering::Acquire),
            delayed_calls: self.delayed_calls.load(Ordering::Acquire),
        }
    }

    /// Count one query-path call (an execute or a reconstruction fetch)
    /// and apply the schedule to it: sleep the latency faults, then fail
    /// the call if its number says so.
    fn inject(&self) -> Result<(), DriverError> {
        let call = self.calls.fetch_add(1, Ordering::AcqRel);
        let delay: u64 = self
            .faults
            .iter()
            .map(|f| match f {
                Fault::Latency { millis } => *millis,
                _ => 0,
            })
            .sum();
        if delay > 0 {
            self.delayed_calls.fetch_add(1, Ordering::AcqRel);
            std::thread::sleep(Duration::from_millis(delay));
        }
        if let Some(err) = self.verdict(call) {
            match &err {
                DriverError::Unavailable(_) => {
                    self.injected_outages.fetch_add(1, Ordering::AcqRel)
                }
                DriverError::Failed(_) => {
                    self.injected_errors.fetch_add(1, Ordering::AcqRel)
                }
            };
            return Err(err);
        }
        Ok(())
    }

    /// The fault verdict for call number `call` (0-based), ignoring
    /// latency faults. `None` = the call goes through to the inner
    /// driver.
    fn verdict(&self, call: usize) -> Option<DriverError> {
        for fault in &self.faults {
            match *fault {
                Fault::CrashAfter { ok_calls } => {
                    if call >= ok_calls && !self.revived.load(Ordering::Acquire) {
                        return Some(DriverError::Unavailable(format!(
                            "injected crash (call {call} >= {ok_calls})"
                        )));
                    }
                }
                Fault::FlipFlop { up, down } => {
                    let period = (up + down).max(1);
                    if call % period >= up {
                        return Some(DriverError::Unavailable(format!(
                            "injected flap (call {call}, {up}up/{down}down)"
                        )));
                    }
                }
                Fault::ErrorAfter { ok_calls } => {
                    if call >= ok_calls {
                        return Some(DriverError::Failed(format!(
                            "injected DBMS error (call {call} >= {ok_calls})"
                        )));
                    }
                }
                Fault::Latency { .. } => {}
            }
        }
        None
    }
}

impl PartixDriver for FaultInjector {
    fn execute(&self, query: &Query) -> Result<Option<QueryOutput>, DriverError> {
        self.inject()?;
        self.inner.execute(query)
    }

    fn store(&self, collection: &str, docs: Vec<Document>) {
        self.inner.store(collection, docs);
    }

    fn fetch_collection(&self, collection: &str) -> Vec<Arc<Document>> {
        self.inner.fetch_collection(collection)
    }

    fn try_fetch_collection(&self, collection: &str) -> Result<Vec<Arc<Document>>, DriverError> {
        self.inject()?;
        self.inner.try_fetch_collection(collection)
    }

    fn try_fetch_filtered(
        &self,
        collection: &str,
        filter: &Query,
    ) -> Result<Vec<Arc<Document>>, DriverError> {
        self.inject()?;
        self.inner.try_fetch_filtered(collection, filter)
    }

    fn collections(&self) -> Vec<String> {
        self.inner.collections()
    }

    fn drop_collection(&self, collection: &str) {
        self.inner.drop_collection(collection);
    }

    fn health_check(&self) -> Result<(), DriverError> {
        self.inner.health_check()
    }

    fn counts_wire_bytes(&self) -> bool {
        self.inner.counts_wire_bytes()
    }

    /// Writes pass through unfaulted, like stores: the fault
    /// schedules target the query path, while write-path crash testing
    /// injects at the WAL stages ([`partix_storage::WalStage`]) where the
    /// recovery outcome is deterministic.
    fn write(&self, op: &partix_storage::WriteOp) -> Result<u32, DriverError> {
        self.inner.write(op)
    }
}

// ----------------------------------------------------- seeded schedules --

/// SplitMix64 step — a tiny deterministic generator so schedules do not
/// depend on any external RNG (and therefore reproduce bit-for-bit on
/// every platform).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `0..bound` (Lemire multiply-shift; the tiny bias is
/// irrelevant for fault scheduling).
fn draw(state: &mut u64, bound: u64) -> u64 {
    ((splitmix(state) as u128 * bound as u128) >> 64) as u64
}

/// A whole cluster's fault schedule, derived deterministically from a
/// seed: node `i` always receives the same faults for the same
/// `(seed, nodes, rate)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Per-node probability of being faulty at all.
    pub rate: f64,
    /// `node_faults[i]` = faults injected on cluster node `i`.
    pub node_faults: Vec<Vec<Fault>>,
}

impl FaultPlan {
    /// Build the schedule for a `nodes`-node cluster. `rate` is the
    /// probability each node draws any fault; a faulty node receives one
    /// or two fault kinds with bounded parameters (latencies 20–120 ms,
    /// outages after 1–12 served calls, flaps of a few calls each way).
    pub fn from_seed(seed: u64, nodes: usize, rate: f64) -> FaultPlan {
        let mut node_faults = Vec::with_capacity(nodes);
        for node in 0..nodes {
            // decorrelate nodes while keeping each node's schedule a
            // function of (seed, node) only — independent of cluster size
            let mut state = seed ^ (node as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            let faulty = (draw(&mut state, 1_000_000) as f64 / 1e6) < rate;
            if !faulty {
                node_faults.push(Vec::new());
                continue;
            }
            let count = 1 + draw(&mut state, 2) as usize;
            let mut faults = Vec::with_capacity(count);
            for _ in 0..count {
                let fault = match draw(&mut state, 4) {
                    0 => Fault::ErrorAfter { ok_calls: 1 + draw(&mut state, 12) as usize },
                    1 => Fault::Latency { millis: 20 + draw(&mut state, 100) },
                    2 => Fault::CrashAfter { ok_calls: 1 + draw(&mut state, 12) as usize },
                    _ => Fault::FlipFlop {
                        up: 1 + draw(&mut state, 4) as usize,
                        down: 1 + draw(&mut state, 3) as usize,
                    },
                };
                // keep at most one fault of each discriminant per node
                if !faults
                    .iter()
                    .any(|f| std::mem::discriminant(f) == std::mem::discriminant(&fault))
                {
                    faults.push(fault);
                }
            }
            node_faults.push(faults);
        }
        FaultPlan { seed, rate, node_faults }
    }

    /// Install the plan on every node of `px`, wrapping each node's
    /// active driver. Fault-free nodes are left untouched. Returns the
    /// injector handles in node order (`None` for untouched nodes).
    pub fn install(&self, px: &PartiX) -> Vec<Option<Arc<FaultInjector>>> {
        let cluster = px.cluster();
        (0..cluster.len())
            .map(|i| {
                let faults = self.node_faults.get(i).cloned().unwrap_or_default();
                if faults.is_empty() {
                    return None;
                }
                let node = cluster.node(i).expect("node in range");
                Some(FaultInjector::install(node, faults))
            })
            .collect()
    }

    /// Stable one-line rendering of the schedule — two runs with the
    /// same seed must produce byte-identical descriptions (the
    /// reproducibility contract chaos tests assert on).
    pub fn describe(&self) -> String {
        let mut out = format!("seed={:#x} rate={:.2}", self.seed, self.rate);
        for (node, faults) in self.node_faults.iter().enumerate() {
            if faults.is_empty() {
                continue;
            }
            let list: Vec<String> = faults.iter().map(Fault::to_string).collect();
            out.push_str(&format!(" n{node}:[{}]", list.join(",")));
        }
        out
    }

    /// Nodes that drew at least one fault.
    pub fn faulty_nodes(&self) -> Vec<usize> {
        self.node_faults
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_empty())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_query::parse_query;
    use partix_storage::Database;
    use partix_xml::parse;

    fn db() -> Arc<Database> {
        let db = Database::new();
        let mut d = parse("<Item><Code>1</Code></Item>").unwrap();
        d.name = Some("i1".into());
        db.store("items", d);
        Arc::new(db)
    }

    fn count_query() -> Query {
        parse_query(r#"count(collection("items")/Item)"#).unwrap()
    }

    #[test]
    fn error_after_n_calls() {
        let inj = FaultInjector::new(db(), vec![Fault::ErrorAfter { ok_calls: 2 }]);
        let q = count_query();
        assert!(inj.execute(&q).is_ok());
        assert!(inj.execute(&q).is_ok());
        assert!(matches!(inj.execute(&q), Err(DriverError::Failed(_))));
        assert!(matches!(inj.execute(&q), Err(DriverError::Failed(_))));
        let stats = inj.stats();
        assert_eq!((stats.calls, stats.injected_errors), (4, 2));
    }

    #[test]
    fn crash_until_revived() {
        let inj = FaultInjector::new(db(), vec![Fault::CrashAfter { ok_calls: 1 }]);
        let q = count_query();
        assert!(inj.execute(&q).is_ok());
        assert!(matches!(inj.execute(&q), Err(DriverError::Unavailable(_))));
        inj.revive();
        assert!(inj.execute(&q).is_ok());
        assert_eq!(inj.stats().injected_outages, 1);
    }

    #[test]
    fn flip_flop_cycles_deterministically() {
        let inj = FaultInjector::new(db(), vec![Fault::FlipFlop { up: 2, down: 1 }]);
        let q = count_query();
        let pattern: Vec<bool> = (0..9).map(|_| inj.execute(&q).is_ok()).collect();
        assert_eq!(
            pattern,
            [true, true, false, true, true, false, true, true, false]
        );
    }

    #[test]
    fn stores_and_plain_fetches_pass_through_a_failing_injector() {
        let backing = Arc::new(Database::new());
        let inj = FaultInjector::new(
            Arc::clone(&backing) as Arc<dyn PartixDriver>,
            vec![Fault::ErrorAfter { ok_calls: 0 }],
        );
        inj.store("c", vec![parse("<a/>").unwrap()]);
        assert_eq!(inj.collections(), ["c"]);
        assert_eq!(backing.collection_len("c").unwrap(), 1);
        assert_eq!(inj.fetch_collection("c").len(), 1);
        assert!(matches!(inj.try_fetch_collection("c"), Err(DriverError::Failed(_))));
        assert_eq!(inj.stats().calls, 1, "only the query-path fetch is counted");
    }

    #[test]
    fn latency_fault_delays_calls() {
        let inj = FaultInjector::new(db(), vec![Fault::Latency { millis: 30 }]);
        let q = count_query();
        let start = std::time::Instant::now();
        assert!(inj.execute(&q).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(inj.stats().delayed_calls, 1);
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let a = FaultPlan::from_seed(42, 8, 0.5);
        let b = FaultPlan::from_seed(42, 8, 0.5);
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
        // a node's schedule does not depend on cluster size
        let wider = FaultPlan::from_seed(42, 16, 0.5);
        assert_eq!(a.node_faults, wider.node_faults[..8]);
        // different seeds diverge (with 8 nodes the chance of an
        // identical schedule is negligible)
        let c = FaultPlan::from_seed(43, 8, 0.5);
        assert_ne!(a.describe(), c.describe());
    }

    #[test]
    fn plan_rate_bounds() {
        assert!(FaultPlan::from_seed(7, 32, 0.0).faulty_nodes().is_empty());
        assert_eq!(FaultPlan::from_seed(7, 32, 1.0).faulty_nodes().len(), 32);
    }

    #[test]
    fn install_wraps_only_faulty_nodes() {
        let px = PartiX::new(3, crate::cluster::NetworkModel::default());
        let mut plan = FaultPlan::from_seed(1, 3, 0.0);
        plan.node_faults[1] = vec![Fault::ErrorAfter { ok_calls: 0 }];
        let handles = plan.install(&px);
        assert!(handles[0].is_none());
        assert!(handles[1].is_some());
        assert!(handles[2].is_none());
        // the wrapped node now fails queries; others still work
        let q = count_query();
        assert!(px.cluster().node(0).unwrap().execute_query(&q).is_ok());
        assert!(px.cluster().node(1).unwrap().execute_query(&q).is_err());
    }
}
