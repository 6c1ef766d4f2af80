//! The *dispatch* stage: the one way a task reaches a node.
//!
//! [`PartiX::gather`] runs a plan's tasks — sub-queries and fetches,
//! filtered or whole, alike — and collects their outcomes in completion
//! order. Every task reaches a node: its retry / failover / deadline loop
//! is a [`Flight`] the gathering thread advances itself, each attempt
//! ending in [`run_on_node`] — the only function on the query path that
//! calls into a node, behind the panic firewall.
//!
//! An attempt is bound to the distribution it took its replica from. A
//! registration moves placements, never a fragment's contents, and a
//! rebalance drops a replica only after the registration that removes
//! it: so an answer that lands while its distribution is still the
//! collection's current one was read from a whole fragment. One that
//! lands after a registration is re-run on the current placement.

use super::error::stream_cancelled;
use super::plan::{Compose, Plan, Task, TaskOp, PASSTHROUGH};
use super::{DispatchMode, ExecOptions, PartiX, PartixError, RetryPolicy, Sink};
use crate::catalog::Distribution;
use crate::cluster::Node;
use crate::driver::DriverError;
use crate::metrics::{self, Histogram};
use crate::report::SkippedFragment;
use crate::trace::{SubQueryStage, Trace};
use crate::wirespan;
use partix_query::{Item, Sequence};
use partix_storage::QueryOutput;
use partix_tenant::PriorityClass;
use partix_xml::NodeId;
use std::sync::{mpsc, Arc, LazyLock};
use std::time::{Duration, Instant};

/// What one task brought back from its node.
#[derive(Default)]
pub(super) struct SiteOutput {
    /// A fetch's items are its documents, one root-node item each.
    pub items: Sequence,
    pub result_bytes: usize,
    pub docs_scanned: usize,
    pub index_used: bool,
    pub elapsed: f64,
    /// Wire time spent writing request frames (0 in-process).
    send_s: f64,
    /// Wire time spent waiting for / reading response frames.
    recv_s: f64,
    /// The serving driver already counted genuine wire bytes into
    /// `net.bytes_shipped` ([`PartixDriver::counts_wire_bytes`]) — the
    /// coordinator must not add its modeled count on top.
    ///
    /// [`PartixDriver::counts_wire_bytes`]: crate::PartixDriver::counts_wire_bytes
    pub wire_counted: bool,
}

impl From<QueryOutput> for SiteOutput {
    fn from(out: QueryOutput) -> SiteOutput {
        SiteOutput {
            items: out.items,
            result_bytes: out.stats.result_bytes,
            docs_scanned: out.stats.docs_scanned,
            index_used: out.stats.index_used,
            elapsed: out.stats.elapsed,
            ..SiteOutput::default()
        }
    }
}

/// A task's answer, in its plan position.
pub(super) struct SiteSlot {
    pub output: SiteOutput,
    /// Dispatch-stage attribution of the retry loop that produced the
    /// answer (it names the replica that answered).
    pub stage: SubQueryStage,
}

/// A task whose every attempt failed.
struct RunFailure {
    error: PartixError,
    /// What the failed loop cost — kept so degraded (`allow_partial`)
    /// answers still attribute the time they burned. Boxed to keep the
    /// `Err` variant small (clippy `result_large_err`).
    stage: Box<SubQueryStage>,
}

/// Everything the dispatch stage hands to the report assembly.
#[derive(Default)]
pub(super) struct Gathered {
    /// One per plan task, in task order; `None` = dropped in degraded
    /// mode.
    pub slots: Vec<Option<SiteSlot>>,
    /// Retry-loop attribution of the tasks that were dropped.
    pub failed: Vec<SubQueryStage>,
    pub skipped: Vec<SkippedFragment>,
    pub dispatch_s: f64,
}

enum DispatchError {
    /// The node (or its DBMS) is unreachable — retryable elsewhere.
    Down,
    /// The attempt outlived the per-attempt deadline.
    Timeout,
    /// The DBMS processed the request and failed it.
    Failed(String),
}

impl From<DriverError> for DispatchError {
    fn from(err: DriverError) -> DispatchError {
        match err {
            DriverError::Unavailable(_) => DispatchError::Down,
            DriverError::Failed(msg) => DispatchError::Failed(msg),
        }
    }
}

/// An attempt's answer, tagged (flight, attempt count) to drop stale ones.
type Answer = (usize, usize, Attempted);
/// The node's answer and how long the attempt sat queued (0 on a caller).
type Attempted = Result<(SiteOutput, Duration), DispatchError>;
/// A finished flight: its task's answer, or the failure of every attempt.
type Landed = Result<SiteSlot, RunFailure>;

/// One task's retry loop, advanced by the gathering thread; flight `i`
/// runs plan task `i`.
struct Flight {
    /// Its `attempts`, the count of attempts made, tags their answers.
    stage: SubQueryStage,
    last_error: Option<DispatchError>,
    /// Replicas whose DBMS failed this flight: the failure is the
    /// DBMS's answer, so the flight does not ask them again.
    rejected: Vec<usize>,
    /// The distribution the next or running attempt takes its replica
    /// from: the plan's, then the current one at each landing.
    dist: Option<Arc<Distribution>>,
    phase: Phase,
}

enum Phase {
    /// Not started yet.
    Idle,
    /// An attempt on `node` began at `since`; abandoned at `deadline`.
    Running { node: Arc<Node>, since: Instant, deadline: Option<Instant> },
    /// Backing off since `since`; the attempt on `node` starts at `until`.
    Backoff { node: usize, since: Instant, until: Instant },
    /// Answered, or failed for good.
    Landed,
}

/// What the flights of one gather share.
struct Gather<'a> {
    px: &'a PartiX,
    tasks: &'a [Arc<Task>],
    /// Per task, the replica its plan bound it to.
    nodes: &'a [usize],
    /// The distribution the plan was made against.
    planned: Option<&'a Distribution>,
    class: PriorityClass,
    policy: RetryPolicy,
    trace: &'a Trace,
    tx: mpsc::Sender<Answer>,
}

impl PartiX {
    /// Run the plan's tasks and gather their outcomes as they complete.
    /// When the composition streams, each task's answer goes to `sink`
    /// the moment every earlier one has, however slow later sites are.
    pub(super) fn gather(
        &self,
        plan: &Plan,
        options: ExecOptions,
        trace: &Trace,
        sink: &mut Sink<'_>,
    ) -> Result<Gathered, PartixError> {
        let dispatch_start = Instant::now();
        let allow_partial = plan.local.compose.degrades() && options.allow_partial;
        // each answer is a finished slice of the query's answer
        let streams = matches!(plan.local.compose, Compose::Concat | Compose::Passthrough);
        let (tasks, dist) = (&plan.tasks, &plan.local.dist);
        let mut gathered = Gathered {
            slots: tasks.iter().map(|_| None).collect(),
            skipped: plan.skipped.clone(),
            ..Gathered::default()
        };
        let mut flights: Vec<Flight> = tasks
            .iter()
            .zip(&plan.nodes)
            .map(|(task, &node)| {
                let fragment = task.fragment.clone();
                let stage = SubQueryStage { fragment, node, ..Default::default() };
                let dist = dist.clone();
                Flight { stage, last_error: None, rejected: vec![], dist, phase: Phase::Idle }
            })
            .collect();

        let mut resolved = vec![false; tasks.len()];
        let mut cursor = 0usize;
        let mut absorb = |i: usize, landed: Option<Landed>| {
            let Some(outcome) = landed else { return Ok(()) };
            match outcome {
                Ok(slot) => gathered.slots[i] = Some(slot),
                Err(RunFailure { error, stage }) if allow_partial => {
                    gathered.failed.push(*stage);
                    let fragment = tasks[i].fragment.clone();
                    gathered.skipped.push(SkippedFragment { fragment, error: error.to_string() });
                }
                Err(failure) => return Err(failure.error),
            }
            resolved[i] = true;
            if streams {
                emit_ready_prefix(&mut gathered.slots, &resolved, &mut cursor, sink)?;
            }
            Ok(())
        };
        let (tx, rx) = mpsc::channel();
        let (class, policy) = (self.class_for(options), self.retry_policy());
        let (nodes, planned) = (&plan.nodes[..], dist.as_deref());
        let g = Gather { px: self, tasks, nodes, planned, class, policy, trace, tx };
        let pooled = self.dispatch == DispatchMode::Pool;
        let (mut next, done) = (0, |f: &Flight| matches!(f.phase, Phase::Landed));
        // a fatal task returns at once (`?`): dropping the receiver
        // discards the answers of the attempts still out
        while !flights.iter().all(done) {
            // Pool starts every flight at once, the last one's first
            // attempt on this thread; Simulated one at a time, in plan
            // order — the sequential reference
            if next < flights.len() && (pooled || flights[..next].iter().all(done)) {
                let on_caller = pooled && next + 1 == flights.len();
                let landed = g.next_attempt(next, &mut flights[next], on_caller, false);
                absorb(next, landed)?;
                next += 1;
                continue;
            }
            // one wait for every flight: the next answer, or the earliest
            // deadline or backoff end
            let timer = |f: &Flight| match f.phase {
                Phase::Running { deadline, .. } => deadline,
                Phase::Backoff { until, .. } => Some(until),
                Phase::Idle | Phase::Landed => None,
            };
            let answer = match flights.iter().filter_map(timer).min() {
                Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())).ok(),
                None => rx.recv().ok(),
            };
            if let Some((i, tag, attempted)) = answer {
                let flight = &mut flights[i];
                if flight.stage.attempts == tag && matches!(flight.phase, Phase::Running { .. }) {
                    let landed = g.land(i, flight, attempted);
                    absorb(i, landed)?;
                }
            }
            let now = Instant::now();
            for (i, flight) in flights.iter_mut().enumerate() {
                let landed = g.tick(i, flight, now);
                absorb(i, landed)?;
            }
        }
        gathered.dispatch_s = dispatch_start.elapsed().as_secs_f64();
        trace.record("dispatch", 0, dispatch_start);
        Ok(gathered)
    }
}

/// A flight runs under the [`RetryPolicy`]: up to `max_attempts` tries,
/// each against the best replica *currently* live and not suspect,
/// walking the replica ring of the flight's distribution on every failure
/// (mid-flight failover). Crashes and deadline expiries mark the node
/// suspect; a successful answer clears the flag. A replica whose DBMS
/// failed the flight is skipped from then on. Each step returns the
/// outcome once landed.
impl Gather<'_> {
    /// Start the flight's next attempt — the first at once (`on_caller`:
    /// on this thread if the pool lets it), a retry after its backoff
    /// when `backoff` — or land it failed: attempts spent, or no replica
    /// up.
    fn next_attempt(
        &self,
        i: usize,
        f: &mut Flight,
        on_caller: bool,
        backoff: bool,
    ) -> Option<Landed> {
        let (task, bound, attempt) = (&self.tasks[i], self.nodes[i], f.stage.attempts);
        // each attempt starts one step further around the replica ring,
        // moving past whichever replica just failed
        let ring = f.dist.as_ref().map_or_else(|| vec![bound], |d| d.nodes_of(&task.fragment));
        let start = ring.iter().position(|&id| id == bound).unwrap_or(0).wrapping_add(attempt);
        let ring: Vec<usize> = (0..ring.len())
            .map(|k| ring[start.wrapping_add(k) % ring.len()])
            .filter(|id| !f.rejected.contains(id))
            .collect();
        let next = (attempt < self.policy.max_attempts.max(1))
            .then(|| self.px.first_usable(&ring, 0))
            .flatten();
        let Some(node_id) = next else {
            f.phase = Phase::Landed;
            let (node, fragment) = (f.stage.node, task.fragment.clone());
            let error = match f.last_error.take() {
                Some(DispatchError::Failed(error)) => {
                    PartixError::SubQuery { node, fragment, error }
                }
                _ => PartixError::NodeUnavailable { node, fragment },
            };
            return Some(Err(RunFailure { error, stage: Box::new(std::mem::take(&mut f.stage)) }));
        };
        if attempt > 0 {
            f.stage.retries += 1;
            f.stage.failovers += usize::from(f.stage.node != node_id);
        }
        if !backoff {
            return self.launch(i, f, node_id, on_caller);
        }
        let since = Instant::now();
        let until = since + self.policy.backoff(attempt - 1);
        f.phase = Phase::Backoff { node: node_id, since, until };
        None
    }

    /// Run the next attempt on `node_id`; where is all the dispatch mode
    /// decides. Simulated runs it here; Pool too when `on_caller`, there
    /// is no deadline (abandoning an attempt needs a free caller) and the
    /// node has a free slot with nothing queued; else it is a node job.
    fn launch(&self, i: usize, f: &mut Flight, node_id: usize, on_caller: bool) -> Option<Landed> {
        let node = Arc::clone(self.px.cluster.node(node_id).expect("picked from cluster"));
        let task = &self.tasks[i];
        f.stage.node = node_id;
        f.stage.attempts += 1;
        let since = Instant::now();
        let deadline = self.policy.timeout.map(|limit| since + limit);
        f.phase = Phase::Running { node: Arc::clone(&node), since, deadline };
        let here = || run_on_node(&node, task).map(|out| (out, Duration::ZERO));
        let caller_runs = on_caller && deadline.is_none();
        let ran = match self.px.dispatch {
            DispatchMode::Simulated => Some(here()),
            DispatchMode::Pool if caller_runs => self.px.pool().run_here(node_id, here),
            DispatchMode::Pool => None,
        };
        if let Some(attempted) = ran {
            return self.land(i, f, attempted);
        }
        let (tx, tag) = (self.tx.clone(), f.stage.attempts);
        let (job_node, job_task) = (Arc::clone(&node), Arc::clone(task));
        let job = Box::new(move || {
            // measured at job start: how long the attempt sat queued
            let wait = since.elapsed();
            let _ = tx.send((i, tag, run_on_node(&job_node, &job_task).map(|out| (out, wait))));
        });
        if self.px.pool().submit(node_id, self.class, job) {
            return None;
        }
        // node outside the pool (the cluster changed after it was built)
        self.land(i, f, here())
    }

    /// Account the running attempt's outcome: the flight lands answered
    /// or moves on. An answer after the deadline is a timeout, wherever
    /// the attempt ran. An answer read under a distribution the catalog
    /// has since replaced may come from a retired replica: it is
    /// discarded and the attempt re-run at once on the current placement,
    /// with no blame on its node.
    fn land(&self, i: usize, f: &mut Flight, attempted: Attempted) -> Option<Landed> {
        let Phase::Running { node, since, deadline } =
            std::mem::replace(&mut f.phase, Phase::Landed)
        else {
            unreachable!("only a running attempt lands");
        };
        let (task, lane) = (&self.tasks[i], i + 1);
        f.stage.execute_s += since.elapsed().as_secs_f64();
        if self.trace.is_enabled() {
            let verb = if matches!(task.op, TaskOp::Fetch { .. }) { "fetch" } else { "exec" };
            let name = format!("{verb}:{}#{}@n{}", task.fragment, f.stage.attempts - 1, node.id);
            self.trace.record(&name, lane, since);
        }
        let late = deadline.is_some_and(|deadline| Instant::now() > deadline);
        let current = self.current_distribution();
        // the flight holds its distribution, so no later one can reuse
        // its address
        let superseded = current.as_ref().map(Arc::as_ptr) != f.dist.as_ref().map(Arc::as_ptr);
        f.dist = current;
        match attempted {
            Ok(_) if !late && superseded => self.next_attempt(i, f, false, false),
            Ok((output, queue_wait)) if !late => {
                f.stage.queue_wait_s += queue_wait.as_secs_f64();
                f.stage.send_s += output.send_s;
                f.stage.recv_s += output.recv_s;
                if self.trace.is_enabled() && (output.send_s > 0.0 || output.recv_s > 0.0) {
                    // wire spans live inside the exec window; their
                    // durations were clocked where the attempt ran
                    for (name, dur_s) in [("send", output.send_s), ("recv", output.recv_s)] {
                        let name = format!("{name}:{}", task.fragment);
                        self.trace.record_window(&name, lane, since, dur_s);
                    }
                }
                node.clear_suspect();
                static LANDED: LazyLock<[Arc<Histogram>; 2]> = LazyLock::new(|| {
                    let names = ["subquery.execute", "subquery.queue_wait"];
                    names.map(|name| metrics::global().histogram(name))
                });
                LANDED[0].record_secs(output.elapsed);
                LANDED[1].record_secs(queue_wait.as_secs_f64());
                Some(Ok(SiteSlot { output, stage: std::mem::take(&mut f.stage) }))
            }
            attempted => {
                let error = attempted.err().filter(|_| !late).unwrap_or(DispatchError::Timeout);
                // a DBMS that processed and rejected the attempt is
                // healthy (another replica may still answer, e.g. a
                // fault injected on this one only) but would answer the
                // same again; a crashed or hanging node is neither
                match error {
                    DispatchError::Failed(_) => f.rejected.push(node.id),
                    _ => node.mark_suspect(self.policy.suspect_cooldown),
                }
                f.stage.timeouts += usize::from(matches!(error, DispatchError::Timeout));
                f.last_error = Some(error);
                self.next_attempt(i, f, false, true)
            }
        }
    }

    /// The collection's distribution now; `None` for a passthrough plan,
    /// which no placement binds.
    fn current_distribution(&self) -> Option<Arc<Distribution>> {
        let collection = &self.planned?.design.collection.name;
        self.px.catalog.read().distribution(collection).cloned()
    }

    /// Fire the flight's timer if it is due: abandon an attempt past its
    /// deadline (its late answer is dropped by its tag), or start, as a
    /// job, the attempt a finished backoff was waiting for.
    fn tick(&self, i: usize, f: &mut Flight, now: Instant) -> Option<Landed> {
        match f.phase {
            Phase::Running { deadline: Some(deadline), .. } if deadline <= now => {
                self.land(i, f, Err(DispatchError::Timeout))
            }
            Phase::Backoff { node, since, until } if until <= now => {
                f.stage.backoff_s += since.elapsed().as_secs_f64();
                if self.trace.is_enabled() {
                    let name = format!("backoff:{}", self.tasks[i].fragment);
                    self.trace.record(&name, i + 1, since);
                }
                self.launch(i, f, node, false)
            }
            _ => None,
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

/// Advance the streaming cursor over the contiguous prefix of resolved
/// slots, emitting each slot's items (moved out, not cloned) in task
/// order. Slots left `None` by degraded-mode skips resolve without
/// emitting. Fails once the consumer cancelled.
fn emit_ready_prefix(
    slots: &mut [Option<SiteSlot>],
    resolved: &[bool],
    cursor: &mut usize,
    sink: &mut Sink<'_>,
) -> Result<(), PartixError> {
    while *cursor < resolved.len() && resolved[*cursor] {
        if let Some(slot) = slots[*cursor].as_mut() {
            if !sink.emit(std::mem::take(&mut slot.output.items)) {
                return Err(stream_cancelled());
            }
        }
        *cursor += 1;
    }
    Ok(())
}

/// Perform `task` on `node` through its active driver: the single call
/// site of the query path into a node, reached only from a flight's
/// attempts, on the gathering thread or on a pool worker. It is the
/// panic firewall too: a panicking driver fails the attempt like a DBMS
/// error (retried on the next replica, the node not marked suspect) and
/// never unwinds into the thread that ran it.
fn run_on_node(node: &Node, task: &Task) -> Result<SiteOutput, DispatchError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call_node(node, task))).unwrap_or_else(
        |payload| {
            Err(DispatchError::Failed(format!("sub-query panicked: {}", panic_message(payload))))
        },
    )
}

/// [`run_on_node`] without the firewall.
fn call_node(node: &Node, task: &Task) -> Result<SiteOutput, DispatchError> {
    if !node.is_available() {
        return Err(DispatchError::Down);
    }
    let wire_counted = node.active_driver().counts_wire_bytes();
    // clear any stale wire timing left on this thread, then run
    // and collect what this call's driver recorded
    let _ = wirespan::take();
    let result = match &task.op {
        TaskOp::Execute { query } => match node.execute_query(query) {
            Ok(Some(out)) => Ok(SiteOutput::from(out)),
            // a passthrough ships the query itself: a collection missing
            // on the node is the query's error, as in a centralized run
            Ok(None) if task.fragment == PASSTHROUGH => {
                let names: Vec<String> =
                    query.collections().iter().map(|c| format!("{c:?}")).collect();
                Err(DispatchError::Failed(format!("unknown collection {}", names.join(" or "))))
            }
            // elsewhere it is a legitimately *empty* fragment (the
            // publisher stores nothing when a fragment selects nothing),
            // answered with an empty result
            Ok(None) => Ok(SiteOutput::default()),
            Err(e) => Err(e.into()),
        },
        TaskOp::Fetch { filter } => {
            let begun = Instant::now();
            node.try_fetch_docs(&task.fragment, filter.as_deref()).map_err(DispatchError::from).map(
                |docs| SiteOutput {
                    result_bytes: docs.iter().map(|d| d.approx_size()).sum(),
                    docs_scanned: docs.len(),
                    items: docs.into_iter().map(|d| Item::Node(d, NodeId::ROOT)).collect(),
                    elapsed: begun.elapsed().as_secs_f64(),
                    ..SiteOutput::default()
                },
            )
        }
    };
    let (send_s, recv_s) = wirespan::take();
    result.map(|out| SiteOutput { send_s, recv_s, wire_counted, ..out })
}
