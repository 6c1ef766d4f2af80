//! The pool's depth gauges live in the process-global metrics registry,
//! so asserting that they return *exactly* to their baseline needs a
//! process nothing else submits pool jobs in: this file holds that one
//! test and must keep holding only it. (As a unit test next to the
//! pooled-query tests of `partix-engine` it saw their jobs in its
//! gauges and failed 2 runs in 15.)

use crossbeam::channel::unbounded;
use partix_engine::metrics;
use partix_engine::runtime::{class_depth_gauge, PoolConfig, WorkerPool};
use partix_engine::{Cluster, PriorityClass};

#[test]
fn panicking_job_still_releases_the_depth_gauges() {
    let cluster = Cluster::new(1);
    let pool = WorkerPool::new(
        &cluster,
        PoolConfig { workers_per_node: 1, queue_capacity: 8 },
    );
    let reg = metrics::global();
    let total_before = reg.gauge("pool.queue.depth").get();
    let class_before = reg.gauge(class_depth_gauge(PriorityClass::Batch)).get();
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (tx, rx) = unbounded();
    assert!(pool.submit(
        0,
        PriorityClass::Batch,
        Box::new(move || {
            tx.send(()).unwrap();
            panic!("injected after-send panic");
        })
    ));
    rx.recv().unwrap();
    // wait for the unwind to finish dropping the job's captures (the
    // guard releases the total first, the class gauge second)
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while reg.gauge("pool.queue.depth").get() > total_before
        || reg.gauge(class_depth_gauge(PriorityClass::Batch)).get() > class_before
    {
        assert!(std::time::Instant::now() < deadline, "gauge leaked by panic");
        std::thread::yield_now();
    }
    std::panic::set_hook(prior);
    // exactly once: a double release would leave a gauge below its baseline
    assert_eq!(reg.gauge("pool.queue.depth").get(), total_before);
    assert_eq!(
        reg.gauge(class_depth_gauge(PriorityClass::Batch)).get(),
        class_before
    );
}
