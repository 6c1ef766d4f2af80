//! Persistent per-node worker pools for [`DispatchMode::Pool`](crate::DispatchMode).
//!
//! Spawning one OS thread per node call is fine for a single query and
//! ruinous under concurrent clients. The pool instead keeps a fixed set
//! of worker threads *per node* (mirroring one connection pool per
//! remote site in a real deployment), each draining a bounded task
//! queue. Concurrent `PartiX::execute` calls share the same workers; the
//! bounded queues provide backpressure instead of unbounded thread
//! growth. A node call of the query path is one job, but for the one a
//! caller would sleep on: it runs that itself ([`WorkerPool::run_here`]).
//!
//! Each node's queue is a [`DrrScheduler`]: one FIFO lane per
//! [`PriorityClass`], drained deficit-round-robin so an aggressive
//! tenant's class gets its weighted share of worker time and nothing
//! more — a backlogged class always drains within one rotation.
//!
//! Jobs are plain boxed closures; callers thread their own reply channel
//! through the closure, so the pool needs no knowledge of result types.

use crate::cluster::Cluster;
use crate::metrics;
use partix_tenant::{DrrScheduler, PriorityClass};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work routed to one node's workers.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Sizing knobs for the per-node worker pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Slots per node (≥ 1): how many of its attempts run at once, on its
    /// workers (one per slot) or on callers ([`WorkerPool::run_here`]).
    pub workers_per_node: usize,
    /// Bounded depth of each node's task queue (across all priority
    /// classes); submissions beyond this block, providing backpressure
    /// (≥ 1).
    pub queue_capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig { workers_per_node: 4, queue_capacity: 128 }
    }
}

/// Per-class queue-depth gauge name — fairness must be observable, so
/// each class exposes its own depth next to the `pool.queue.depth`
/// total.
pub fn class_depth_gauge(class: PriorityClass) -> &'static str {
    match class {
        PriorityClass::Interactive => "pool.queue.depth.interactive",
        PriorityClass::Standard => "pool.queue.depth.standard",
        PriorityClass::Batch => "pool.queue.depth.batch",
    }
}

/// Decrements the queue-depth gauges exactly once, whichever way the
/// job ends: run to completion, panic mid-run (the unwind drops the
/// closure's captures inside the worker's `catch_unwind` firewall), or
/// dropped unrun at pool teardown.
struct DepthGuard {
    total: Arc<metrics::Gauge>,
    class: Arc<metrics::Gauge>,
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        self.total.dec();
        self.class.dec();
    }
}

struct QueueState {
    jobs: DrrScheduler<Job>,
    /// Slots taken, by workers running jobs and by callers.
    busy: usize,
    /// Cleared at shutdown; workers then drain what is queued and exit.
    open: bool,
}

struct NodeShared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    slots: usize,
}

/// Fixed per-node worker threads draining bounded, weighted-fair task
/// queues.
pub struct WorkerPool {
    nodes: Vec<Arc<NodeShared>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `config.workers_per_node` threads for each node of
    /// `cluster`. Queue index i serves cluster node index i.
    pub fn new(cluster: &Cluster, config: PoolConfig) -> WorkerPool {
        let workers_per_node = config.workers_per_node.max(1);
        let capacity = config.queue_capacity.max(1);
        let nodes: Vec<Arc<NodeShared>> = cluster
            .nodes()
            .iter()
            .map(|_| {
                Arc::new(NodeShared {
                    state: Mutex::new(QueueState {
                        jobs: DrrScheduler::new(),
                        busy: 0,
                        open: true,
                    }),
                    not_empty: Condvar::new(),
                    not_full: Condvar::new(),
                    capacity,
                    slots: workers_per_node,
                })
            })
            .collect();
        let mut workers = Vec::with_capacity(nodes.len() * workers_per_node);
        for (shared, node) in nodes.iter().zip(cluster.nodes()) {
            for w in 0..workers_per_node {
                let shared = Arc::clone(shared);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("partix-pool-n{}w{}", node.id, w))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn pool worker"),
                );
            }
        }
        WorkerPool { nodes, workers }
    }

    /// Number of node queues (== cluster size at construction).
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Enqueue `job` on `node`'s queue under `class`, blocking while the
    /// queue is at capacity. Returns `false` if `node` is out of range
    /// (cluster grew after the pool was built) or the pool is shutting
    /// down — caller should fall back to inline execution.
    pub fn submit(&self, node: usize, class: PriorityClass, job: Job) -> bool {
        let Some(shared) = self.nodes.get(node) else { return false };
        let reg = metrics::global();
        let completed = reg.counter("pool.jobs.completed");
        let guard = DepthGuard {
            total: reg.gauge("pool.queue.depth"),
            class: reg.gauge(class_depth_gauge(class)),
        };
        guard.total.inc();
        guard.class.inc();
        let job: Job = Box::new(move || {
            job();
            completed.inc();
            drop(guard); // depth released after the run — or by unwind/teardown
        });
        let mut state = shared.state.lock().expect("pool queue lock");
        while state.open && state.jobs.len() >= shared.capacity {
            state = shared.not_full.wait(state).expect("pool queue lock");
        }
        if !state.open {
            return false; // guard drop unwinds the gauges
        }
        state.jobs.push(class, job);
        drop(state);
        shared.not_empty.notify_one();
        reg.counter("pool.jobs.submitted").inc();
        true
    }

    /// Run `f` on the calling thread in one of `node`'s slots: the
    /// attempt the caller would otherwise submit and sleep on. `None`,
    /// without running `f`, while a job is queued on the node (a caller
    /// never overtakes one, whatever its class) or every slot is busy.
    pub fn run_here<R>(&self, node: usize, f: impl FnOnce() -> R) -> Option<R> {
        let shared = self.nodes.get(node)?;
        let mut state = shared.state.lock().expect("pool queue lock");
        if state.busy >= shared.slots || !state.jobs.is_empty() {
            return None;
        }
        state.busy += 1;
        drop(state);
        metrics::global().counter("pool.jobs.on_caller").inc();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let mut state = shared.state.lock().expect("pool queue lock");
        state.busy -= 1;
        if !state.jobs.is_empty() {
            shared.not_empty.notify_one(); // the freed slot is theirs
        }
        Some(result.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
    }
}

fn worker_loop(shared: &NodeShared) {
    let mut state = shared.state.lock().expect("pool queue lock");
    loop {
        // a slot first, then a job
        if let Some((_, job)) = (state.busy < shared.slots).then(|| state.jobs.pop()).flatten() {
            state.busy += 1;
            drop(state);
            shared.not_full.notify_one();
            // A panicking job must not take the worker down with it —
            // the node would silently shed capacity until its queue
            // wedged. The unwind still drops the job's captures, so the
            // depth gauges stay balanced.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            state = shared.state.lock().expect("pool queue lock");
            state.busy -= 1;
            continue;
        }
        if !state.open && state.jobs.is_empty() {
            return; // drained after shutdown
        }
        state = shared.not_empty.wait(state).expect("pool queue lock");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close every queue; workers drain whatever is queued and exit
        // their loops, blocked submitters give up with `false`.
        for shared in &self.nodes {
            shared.state.lock().expect("pool queue lock").open = false;
            shared.not_empty.notify_all();
            shared.not_full.notify_all();
        }
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crossbeam::channel::unbounded;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const STD: PriorityClass = PriorityClass::Standard;

    #[test]
    fn jobs_run_on_their_node_queue() {
        let cluster = Cluster::new(3);
        let pool = WorkerPool::new(&cluster, PoolConfig::default());
        assert_eq!(pool.nodes(), 3);
        let (tx, rx) = unbounded();
        for node in 0..3 {
            for k in 0..4 {
                let tx = tx.clone();
                assert!(pool.submit(
                    node,
                    STD,
                    Box::new(move || {
                        tx.send(node * 10 + k).unwrap();
                    })
                ));
            }
        }
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        let mut expected: Vec<usize> =
            (0..3).flat_map(|n| (0..4).map(move |k| n * 10 + k)).collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let cluster = Cluster::new(1);
        let pool = WorkerPool::new(
            &cluster,
            PoolConfig { workers_per_node: 1, queue_capacity: 8 },
        );
        // silence the expected panic's default backtrace print
        let prior = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        assert!(pool.submit(0, STD, Box::new(|| panic!("injected job panic"))));
        // the sole worker survived and keeps serving jobs
        let (tx, rx) = unbounded();
        for k in 0..4 {
            let tx = tx.clone();
            assert!(pool.submit(0, STD, Box::new(move || tx.send(k).unwrap())));
        }
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        std::panic::set_hook(prior);
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    // `panicking_job_still_releases_the_depth_gauges` lives in
    // `tests/pool_gauges.rs`: it compares the process-global depth gauges
    // for exact equality, which only holds in a process of its own.

    #[test]
    fn out_of_range_node_is_rejected() {
        let cluster = Cluster::new(1);
        let pool = WorkerPool::new(&cluster, PoolConfig::default());
        assert!(!pool.submit(5, STD, Box::new(|| {})));
    }

    #[test]
    fn submissions_feed_pool_metrics() {
        let cluster = Cluster::new(1);
        let pool = WorkerPool::new(&cluster, PoolConfig::default());
        let reg = metrics::global();
        let before = reg.counter("pool.jobs.submitted").get();
        let (tx, rx) = unbounded();
        for _ in 0..3 {
            let tx = tx.clone();
            assert!(pool.submit(0, STD, Box::new(move || tx.send(()).unwrap())));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 3);
        // the registry is process-global, so assert deltas, not totals
        assert!(reg.counter("pool.jobs.submitted").get() >= before + 3);
        assert!(reg.counter("pool.jobs.completed").get() >= 3);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let cluster = Cluster::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(
                &cluster,
                PoolConfig { workers_per_node: 1, queue_capacity: 64 },
            );
            for _ in 0..32 {
                for node in 0..2 {
                    let counter = Arc::clone(&counter);
                    pool.submit(
                        node,
                        STD,
                        Box::new(move || {
                            counter.fetch_add(1, Ordering::Relaxed);
                        }),
                    );
                }
            }
        } // drop: workers must finish everything already queued
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn run_here_refuses_while_a_job_is_queued_or_every_slot_is_busy() {
        let cluster = Cluster::new(1);
        let pool = WorkerPool::new(
            &cluster,
            PoolConfig { workers_per_node: 1, queue_capacity: 8 },
        );
        assert_eq!(pool.run_here(0, || 7), Some(7));
        assert_eq!(pool.run_here(3, || 7), None, "node out of range");
        // the sole worker takes the node's only slot and parks in a job
        let (started_tx, started_rx) = unbounded();
        let (gate_tx, gate_rx) = unbounded::<()>();
        assert!(pool.submit(0, STD, Box::new(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })));
        started_rx.recv().unwrap();
        assert_eq!(pool.run_here(0, || ()), None, "every slot is busy");
        let (tx, rx) = unbounded();
        assert!(pool.submit(0, STD, Box::new(move || tx.send(()).unwrap())));
        // hand the slot back while the worker stays parked: the queued
        // job alone keeps the caller out
        pool.nodes[0].state.lock().unwrap().busy -= 1;
        assert_eq!(pool.run_here(0, || ()), None, "a job is queued");
        pool.nodes[0].state.lock().unwrap().busy += 1;
        gate_tx.send(()).unwrap();
        rx.recv().unwrap();
    }

    #[test]
    fn a_job_queued_behind_a_callers_slot_runs_once_the_caller_releases_it() {
        let cluster = Cluster::new(1);
        let pool = WorkerPool::new(
            &cluster,
            PoolConfig { workers_per_node: 1, queue_capacity: 8 },
        );
        let on_caller = metrics::global().counter("pool.jobs.on_caller");
        let before = on_caller.get();
        let (tx, rx) = unbounded();
        let waited = pool.run_here(0, || {
            assert!(pool.submit(0, STD, Box::new(move || tx.send(()).unwrap())));
            // the caller holds the node's only slot: the job must wait
            std::thread::sleep(std::time::Duration::from_millis(20));
            rx.try_recv().is_err()
        });
        assert_eq!(waited, Some(true), "the job ran in the caller's slot");
        // releasing the slot wakes the worker: no second submission needed
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)), Ok(()));
        // the registry is process-global: a delta, not a total
        assert!(on_caller.get() > before);
    }

    #[test]
    fn interactive_backlog_cannot_starve_batch() {
        let cluster = Cluster::new(1);
        let pool = WorkerPool::new(
            &cluster,
            PoolConfig { workers_per_node: 1, queue_capacity: 256 },
        );
        // Stall the single worker so every later submission queues, then
        // fill interactive far deeper than batch.
        let (gate_tx, gate_rx) = unbounded::<()>();
        assert!(pool.submit(0, STD, Box::new(move || gate_rx.recv().unwrap())));
        let (tx, rx) = unbounded::<&'static str>();
        for _ in 0..100 {
            let tx = tx.clone();
            assert!(pool.submit(0, PriorityClass::Interactive, Box::new(move || {
                tx.send("i").unwrap();
            })));
        }
        {
            let tx = tx.clone();
            assert!(pool.submit(0, PriorityClass::Batch, Box::new(move || {
                tx.send("b").unwrap();
            })));
        }
        drop(tx);
        gate_tx.send(()).unwrap();
        let drained: Vec<&str> = rx.iter().collect();
        assert_eq!(drained.len(), 101);
        let batch_at = drained.iter().position(|s| *s == "b").expect("batch ran");
        // DRR: the lone batch job surfaces within one interactive
        // quantum, not after the 100-deep interactive backlog.
        assert!(
            batch_at as u64 <= PriorityClass::Interactive.weight(),
            "batch starved until position {batch_at}"
        );
    }
}
