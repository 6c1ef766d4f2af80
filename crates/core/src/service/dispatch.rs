//! The *dispatch* stage: the one way a task reaches a node.
//!
//! [`PartiX::gather`] runs a plan's tasks — sub-queries and fetches,
//! filtered or whole, alike — and collects their outcomes in completion
//! order; each task runs [`PartiX::run_subquery`]'s retry /
//! failover / deadline loop, whose every attempt ends in
//! [`run_on_node`] — the only function on the query path that calls
//! into a node.

use super::error::stream_cancelled;
use super::plan::{Compose, Plan, Task, TaskOp};
use super::{DispatchMode, ExecOptions, PartiX, PartixError, Sink};
use crate::cache::{CachedSite, ResultKey};
use crate::cluster::Node;
use crate::compose::{self, Composition};
use crate::driver::DriverError;
use crate::metrics;
use crate::report::SkippedFragment;
use crate::trace::{SubQueryStage, Trace};
use crate::wirespan;
use partix_query::Item;
use partix_storage::QueryOutput;
use partix_xml::NodeId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one task brought back from its node.
#[derive(Default)]
pub(super) struct SiteOutput {
    /// The part of the answer the result cache keeps. A fetch's `items`
    /// are its documents, one root-node item each.
    pub answer: CachedSite,
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
            answer: CachedSite {
                items: out.items,
                result_bytes: out.stats.result_bytes,
                docs_scanned: out.stats.docs_scanned,
                index_used: out.stats.index_used,
                morsels: out.stats.morsels,
            },
            elapsed: out.stats.elapsed,
            ..SiteOutput::default()
        }
    }
}

/// A task's answer, in its plan position.
pub(super) struct SiteSlot {
    pub output: SiteOutput,
    /// Dispatch-stage attribution of the retry loop that produced the
    /// answer (it names the replica that answered); `None` = served from
    /// the result cache, no node contacted.
    pub stage: Option<SubQueryStage>,
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
    pub cache_hits: usize,
    /// Whether any task actually reached a node.
    pub dispatched: bool,
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

impl PartiX {
    /// Run the plan's tasks and gather their outcomes as they complete.
    /// Tasks the result cache answers never dispatch. When the
    /// composition streams, each task's answer goes to `sink` the moment
    /// every earlier one has, however slow later sites are.
    pub(super) fn gather(
        &self,
        plan: &Plan,
        options: ExecOptions,
        trace: &Trace,
        sink: &mut Sink<'_>,
    ) -> Result<Gathered, PartixError> {
        let dispatch_start = Instant::now();
        let decomposed = matches!(plan.compose, Compose::Combine(_));
        let use_cache = decomposed && self.result_cache_enabled();
        let allow_partial = decomposed && options.allow_partial;
        // each answer is a finished slice of the query's answer
        let streams =
            matches!(plan.compose, Compose::Combine(Composition::Concat) | Compose::Passthrough);
        let class = self.class_for(options);
        let tasks = &plan.tasks;
        let mut gathered = Gathered {
            slots: tasks.iter().map(|_| None).collect(),
            skipped: plan.skipped.clone(),
            ..Gathered::default()
        };

        // pending tasks carry the pre-dispatch write epoch of *every*
        // replica: a failover may land on any of them, and the insert key
        // must use an epoch read before execution (a concurrent write
        // then leaves the entry under a stale key instead of poisoning
        // the current one)
        let mut pending: Vec<(usize, Vec<(usize, u64)>)> = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            let mut epochs = Vec::new();
            if use_cache {
                let epoch_on = |&id: &usize| {
                    Some((id, self.cluster.node(id)?.collection_epoch(&task.fragment)))
                };
                epochs = task.replicas.iter().filter_map(epoch_on).collect();
                if let Some(answer) = self.result_cache.get(&result_key(task, task.node, &epochs)) {
                    gathered.cache_hits += 1;
                    let output = SiteOutput { answer, ..SiteOutput::default() };
                    gathered.slots[i] = Some(SiteSlot { output, stage: None });
                    continue;
                }
            }
            pending.push((i, epochs));
        }
        gathered.dispatched = !pending.is_empty();

        let mut resolved: Vec<bool> = gathered.slots.iter().map(Option::is_some).collect();
        let mut cursor = 0usize;
        if streams {
            // the cache-hit prefix is ready before any task lands
            emit_ready_prefix(&mut gathered.slots, &resolved, &mut cursor, sink)?;
        }
        let run = |lane, i: usize| self.run_subquery_guarded(&tasks[i], class, trace, lane + 1);
        type Done = (usize, Vec<(usize, u64)>, Result<SiteSlot, RunFailure>);
        let mut absorb = |(i, epochs, outcome): Done| {
            match outcome {
                Ok(slot) => {
                    if use_cache {
                        // under the replica that actually answered —
                        // after a failover not the planner's pick
                        let node = slot.stage.as_ref().map_or(tasks[i].node, |s| s.node);
                        let key = result_key(&tasks[i], node, &epochs);
                        self.result_cache.insert(key, slot.output.answer.clone());
                    }
                    gathered.slots[i] = Some(slot);
                }
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
        // the second (and last) thing the dispatch mode decides, next to
        // `attempt`: whether the retry loops overlap
        if self.dispatch == DispatchMode::Simulated || pending.len() < 2 {
            // on the calling thread, one after the other: the sequential
            // reference — and all a lone task needs
            for (lane, (i, epochs)) in pending.into_iter().enumerate() {
                absorb((i, epochs, run(lane, i)))?;
            }
        } else {
            // every retry loop on its own coordinator thread (bounded by
            // the fragment count), answers in completion order. An early
            // return drops the receiver, which fails the remaining sends
            // harmlessly; the scope still joins every thread
            std::thread::scope(|scope| {
                let (tx, rx) = crossbeam::channel::unbounded();
                for (lane, (i, epochs)) in pending.into_iter().enumerate() {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        let _ = tx.send((i, epochs, run(lane, i)));
                    });
                }
                drop(tx);
                rx.iter().try_for_each(&mut absorb)
            })?;
        }
        gathered.dispatch_s = dispatch_start.elapsed().as_secs_f64();
        trace.record("dispatch", 0, dispatch_start);
        Ok(gathered)
    }

    /// [`PartiX::run_subquery`] with a panic firewall: a panicking
    /// driver (or a bug in the retry loop itself) becomes this one
    /// task's failure, never a process-wide unwind — not even into the
    /// concurrent queries sharing the coordinator.
    fn run_subquery_guarded(
        &self,
        task: &Arc<Task>,
        class: partix_tenant::PriorityClass,
        trace: &Trace,
        lane: usize,
    ) -> Result<SiteSlot, RunFailure> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_subquery(task, class, trace, lane)
        }))
        .unwrap_or_else(|payload| {
            Err(RunFailure {
                error: PartixError::SubQuery {
                    node: task.node,
                    fragment: task.fragment.clone(),
                    error: format!("sub-query panicked: {}", panic_message(payload)),
                },
                stage: Box::new(SubQueryStage {
                    fragment: task.fragment.clone(),
                    node: task.node,
                    attempts: 1,
                    ..Default::default()
                }),
            })
        })
    }

    /// Run one task to completion under the [`RetryPolicy`]: up to
    /// `max_attempts` tries, each against the best replica *currently*
    /// live and not suspect, walking the replica ring on every failure
    /// (mid-flight failover). Crashes and deadline expiries mark the
    /// node suspect; a successful answer clears the flag.
    ///
    /// [`RetryPolicy`]: super::RetryPolicy
    fn run_subquery(
        &self,
        task: &Arc<Task>,
        class: partix_tenant::PriorityClass,
        trace: &Trace,
        lane: usize,
    ) -> Result<SiteSlot, RunFailure> {
        let policy = self.retry_policy();
        let verb = match task.op {
            TaskOp::Execute { .. } => "exec",
            TaskOp::Fetch { .. } => "fetch",
        };
        // walk the replica ring starting at the planner's pick
        let ring = &task.replicas;
        let start = ring.iter().position(|&id| id == task.node).unwrap_or(0);
        let mut last_error: Option<DispatchError> = None;
        let mut stage = SubQueryStage {
            fragment: task.fragment.clone(),
            node: task.node,
            ..Default::default()
        };
        for attempt in 0..policy.max_attempts.max(1) {
            // each attempt starts one step further around the replica
            // ring, moving past whichever replica just failed
            let Some(node_id) = self.first_usable(ring, start.wrapping_add(attempt)) else {
                break; // every replica is down right now
            };
            if attempt > 0 {
                stage.retries += 1;
                if stage.node != node_id {
                    stage.failovers += 1;
                }
                let backoff_start = Instant::now();
                std::thread::sleep(policy.backoff(attempt - 1));
                stage.backoff_s += backoff_start.elapsed().as_secs_f64();
                trace.record(&format!("backoff:{}", task.fragment), lane, backoff_start);
            }
            stage.node = node_id;
            stage.attempts += 1;
            let node = Arc::clone(self.cluster.node(node_id).expect("picked from cluster"));
            let exec_start = Instant::now();
            let outcome = self.attempt(&node, task, class, policy.timeout);
            stage.execute_s += exec_start.elapsed().as_secs_f64();
            trace.record(
                &format!("{verb}:{}#{attempt}@n{node_id}", task.fragment),
                lane,
                exec_start,
            );
            match outcome {
                Ok((output, queue_wait)) => {
                    stage.queue_wait_s += queue_wait.as_secs_f64();
                    stage.send_s += output.send_s;
                    stage.recv_s += output.recv_s;
                    if output.send_s > 0.0 || output.recv_s > 0.0 {
                        // wire spans live inside the exec window; their
                        // durations were clocked on the worker thread
                        for (name, dur_s) in [("send", output.send_s), ("recv", output.recv_s)] {
                            let name = format!("{name}:{}", task.fragment);
                            trace.record_window(&name, lane, exec_start, dur_s);
                        }
                    }
                    node.clear_suspect();
                    let reg = metrics::global();
                    reg.histogram("subquery.execute").record_secs(output.elapsed);
                    reg.histogram("subquery.queue_wait").record_secs(queue_wait.as_secs_f64());
                    return Ok(SiteSlot { output, stage: Some(stage) });
                }
                Err(error) => {
                    // a DBMS that processed and rejected the attempt is
                    // healthy (another replica may still answer, e.g. a
                    // fault injected on this one only); a crashed or
                    // hanging node is not
                    if !matches!(error, DispatchError::Failed(_)) {
                        node.mark_suspect(policy.suspect_cooldown);
                    }
                    stage.timeouts += usize::from(matches!(error, DispatchError::Timeout));
                    last_error = Some(error);
                }
            }
        }
        let (node, fragment) = (stage.node, task.fragment.clone());
        let error = match last_error {
            Some(DispatchError::Failed(error)) => PartixError::SubQuery { node, fragment, error },
            _ => PartixError::NodeUnavailable { node, fragment },
        };
        Err(RunFailure { error, stage: Box::new(stage) })
    }

    /// One attempt against one node, honouring the per-attempt deadline —
    /// where the dispatch mode decides where a node call runs (its one
    /// other say is in [`PartiX::gather`]: whether retry loops overlap).
    /// A pooled attempt runs on the node's workers and is abandoned on
    /// expiry (a late answer is discarded — the channel's receiver is
    /// gone); an inline attempt cannot be interrupted, so its deadline is
    /// checked after the fact. On success the answer is paired with the
    /// time the attempt spent queued before a worker picked it up (zero
    /// inline).
    fn attempt(
        &self,
        node: &Arc<Node>,
        task: &Arc<Task>,
        class: partix_tenant::PriorityClass,
        timeout: Option<Duration>,
    ) -> Result<(SiteOutput, Duration), DispatchError> {
        let inline = || {
            let begun = Instant::now();
            let result = run_on_node(node, task);
            match timeout {
                Some(limit) if begun.elapsed() > limit => Err(DispatchError::Timeout),
                _ => result.map(|out| (out, Duration::ZERO)),
            }
        };
        match self.dispatch {
            DispatchMode::Simulated => inline(),
            DispatchMode::Pool => {
                let (tx, rx) = crossbeam::channel::bounded(1);
                let (job_node, job_task) = (Arc::clone(node), Arc::clone(task));
                let submitted_at = Instant::now();
                let submitted = self.pool().submit(
                    node.id,
                    class,
                    Box::new(move || {
                        // measured at job start: how long the attempt sat
                        // in the node's bounded queue
                        let wait = submitted_at.elapsed();
                        let _ = tx.send((wait, run_on_node(&job_node, &job_task)));
                    }),
                );
                if !submitted {
                    // node index outside the pool (cluster changed after
                    // pool construction): run inline
                    return inline();
                }
                // a disconnected channel means the job died without
                // answering (including a panic unwinding it) — treated
                // like an unreachable node
                let (wait, result) = match timeout {
                    Some(limit) => rx.recv_timeout(limit).map_err(|e| match e {
                        crossbeam::channel::RecvTimeoutError::Timeout => DispatchError::Timeout,
                        crossbeam::channel::RecvTimeoutError::Disconnected => DispatchError::Down,
                    })?,
                    None => rx.recv().map_err(|_| DispatchError::Down)?,
                };
                result.map(|out| (out, wait))
            }
        }
    }
}

/// The result-cache key of `task` as answered by replica `node`, whose
/// write epoch was read (into `epochs`) before the task was dispatched.
fn result_key(task: &Task, node: usize, epochs: &[(usize, u64)]) -> ResultKey {
    let TaskOp::Execute { query, avg } = &task.op else {
        unreachable!("only sub-queries of a decomposed plan are cached");
    };
    let epoch = epochs.iter().find(|&&(id, _)| id == node).map_or(0, |&(_, e)| e);
    ResultKey::new(node, &task.fragment, epoch, *avg, query)
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Advance the streaming cursor over the contiguous prefix of resolved
/// slots, emitting each slot's items (moved out, not cloned) in task
/// order — the order [`compose::combine`] would concatenate them. Slots
/// left `None` by degraded-mode skips resolve without emitting. Fails
/// once the consumer cancelled.
fn emit_ready_prefix(
    slots: &mut [Option<SiteSlot>],
    resolved: &[bool],
    cursor: &mut usize,
    sink: &mut Sink<'_>,
) -> Result<(), PartixError> {
    while *cursor < resolved.len() && resolved[*cursor] {
        if let Some(slot) = slots[*cursor].as_mut() {
            if !sink.emit(std::mem::take(&mut slot.output.answer.items)) {
                return Err(stream_cancelled());
            }
        }
        *cursor += 1;
    }
    Ok(())
}

/// Perform `task` on `node` through its active driver: the single call
/// site of the query path into a node, reached only from
/// [`PartiX::run_subquery`]'s attempts.
fn run_on_node(node: &Node, task: &Task) -> Result<SiteOutput, DispatchError> {
    if !node.is_available() {
        return Err(DispatchError::Down);
    }
    let wire_counted = node.active_driver().counts_wire_bytes();
    // clear any stale wire timing left on this worker thread, then run
    // and collect what this call's driver recorded
    let _ = wirespan::take();
    // a collection missing on the node is a legitimately *empty* fragment
    // (the publisher stores nothing when a fragment selects nothing),
    // answered with an empty result
    let exec = |query: &partix_query::Query| -> Result<SiteOutput, DispatchError> {
        Ok(node.execute_query(query)?.map(SiteOutput::from).unwrap_or_default())
    };
    let result = match &task.op {
        TaskOp::Execute { query, avg: false } => exec(query),
        // ship (sum, count) and return the pair [sum, count]
        TaskOp::Execute { query, avg: true } => compose::avg_decomposition(query)
            .ok_or_else(|| DispatchError::Failed("avg decomposition failed".into()))
            .and_then(|(sum_q, count_q)| {
                let (mut sum, count) = (exec(&sum_q)?, exec(&count_q)?);
                // both partial answers ship back and both evaluator
                // passes cost: merge the stats of the two sub-queries
                sum.elapsed += count.elapsed;
                sum.answer.items.extend(count.answer.items);
                sum.answer.result_bytes += count.answer.result_bytes;
                sum.answer.docs_scanned += count.answer.docs_scanned;
                sum.answer.index_used |= count.answer.index_used;
                sum.answer.morsels = sum.answer.morsels.max(count.answer.morsels);
                Ok(sum)
            }),
        TaskOp::Fetch { filter } => {
            let begun = Instant::now();
            node.try_fetch_docs(&task.fragment, filter.as_deref()).map_err(DispatchError::from).map(
                |docs| {
                    let answer = CachedSite {
                        result_bytes: docs.iter().map(|d| d.approx_size()).sum(),
                        docs_scanned: docs.len(),
                        items: docs.into_iter().map(|d| Item::Node(d, NodeId::ROOT)).collect(),
                        ..CachedSite::default()
                    };
                    let elapsed = begun.elapsed().as_secs_f64();
                    SiteOutput { answer, elapsed, ..SiteOutput::default() }
                },
            )
        }
    };
    let (send_s, recv_s) = wirespan::take();
    result.map(|out| SiteOutput { send_s, recv_s, wire_counted, ..out })
}
