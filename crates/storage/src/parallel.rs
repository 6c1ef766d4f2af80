//! Morsel-driven intra-fragment parallel execution.
//!
//! PartiX parallelizes across fragments, but each node's evaluation of
//! its sub-query was sequential — one huge fragment (or a centralized
//! collection) bounded the whole query. This module closes that gap
//! (ROADMAP O3): when a query is morsel-decomposable
//! ([`partix_query::Program::is_decomposable`]), the driving collection's
//! candidate documents — one snapshot — are split into contiguous batches
//! ("morsels"), each lent to the lowered program as a slice and evaluated
//! concurrently on a shared worker pool, and the partial results are
//! merged back into the *exact* sequence the unsplit run produces — same
//! items, same order, same `order by` tie-breaking. A scan that is not
//! worth splitting takes the same path with one morsel, on the caller's
//! thread.
//!
//! ## Scheduling
//!
//! Morsels are claimed from a shared atomic cursor, so fast workers
//! steal the tail from slow ones (classic morsel-driven scheduling
//! rather than static assignment). The **calling thread participates**:
//! it claims and executes morsels like any pool worker. That makes the
//! design deadlock-free by construction — even if the pool is saturated
//! with other queries (or sized to zero), the caller alone drains every
//! morsel; pool workers only ever accelerate it. Jobs never block on
//! other jobs.
//!
//! ## Determinism
//!
//! Results are byte-identical to sequential execution. When several
//! morsels fail, the error of the **lowest-indexed** morsel is reported
//! — the same error a sequential left-to-right scan would have hit
//! first.

use crate::db::Database;
use crate::exec::QueryStats;
use parking_lot::Mutex;
use partix_query::morsel::{self, MorselPartial};
use partix_query::{EvalError, Program, Sequence};
use partix_xml::Document;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};

/// Hard ceiling on per-query morsel parallelism (and on shared pool
/// threads) — beyond this, merge and scheduling overheads dominate for
/// the document sizes PartiX handles.
pub const MAX_MORSEL_WORKERS: usize = 8;

/// Per-database knobs for morsel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselConfig {
    /// Maximum morsels evaluated concurrently for one query. Values
    /// below 2 disable the parallel path entirely.
    pub max_workers: usize,
    /// Smallest candidate set worth splitting, and the minimum documents
    /// per morsel: collections smaller than `2 * min_docs` (after index
    /// filtering) run sequentially — tiny scans are not worth the
    /// scheduling overhead.
    pub min_docs: usize,
}

impl Default for MorselConfig {
    /// `PARTIX_MORSEL_WORKERS` / `PARTIX_MORSEL_MIN_DOCS` override the
    /// defaults: all available cores (capped at [`MAX_MORSEL_WORKERS`])
    /// and 32 documents per morsel. On a single-core host the default
    /// resolves to 1 worker, i.e. the sequential path.
    fn default() -> MorselConfig {
        let max_workers = env_usize("PARTIX_MORSEL_WORKERS")
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
            .min(MAX_MORSEL_WORKERS);
        let min_docs = env_usize("PARTIX_MORSEL_MIN_DOCS").unwrap_or(32).max(1);
        MorselConfig { max_workers, min_docs }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

/// The shared morsel worker pool: plain daemon threads feeding off one
/// queue. Sized once, at first use, from the default config — per-query
/// parallelism beyond the pool size is made up by the calling thread.
struct MorselPool {
    tx: mpsc::Sender<Job>,
    workers: usize,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

fn pool() -> &'static MorselPool {
    static POOL: OnceLock<MorselPool> = OnceLock::new();
    POOL.get_or_init(|| {
        // at least one helper so the parallel path is genuinely
        // concurrent even on single-core hosts (tests rely on it)
        let workers = MorselConfig::default().max_workers.max(2) - 1;
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("morsel-{i}"))
                .spawn(move || loop {
                    // take the job with the lock released before running
                    // it: a long morsel must not serialize the queue
                    let job = { rx.lock().recv() };
                    match job {
                        Ok(job) => {
                            // jobs are panic-guarded internally; this is
                            // the backstop that keeps the worker alive
                            let _ = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(job),
                            );
                        }
                        Err(_) => break, // channel closed: process exit
                    }
                })
                .expect("spawn morsel worker");
        }
        MorselPool { tx, workers }
    })
}

/// Everything a morsel job needs, shared across workers for one query.
struct QueryCtx {
    program: Program,
    /// The candidate snapshot, in document order; `bounds[i]` is morsel
    /// `i`'s half-open range into it, lent to the program as a slice.
    docs: Vec<Arc<Document>>,
    bounds: Vec<(usize, usize)>,
    /// Next unclaimed morsel — the shared work-stealing cursor.
    next: AtomicUsize,
    tx: mpsc::Sender<(usize, Result<MorselPartial, EvalError>)>,
}

impl QueryCtx {
    /// Claim and execute morsels until the cursor runs out. Each morsel
    /// sends exactly one `(index, result)` message, panic included.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&(lo, hi)) = self.bounds.get(i) else { break };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.program.run_morsel(&self.docs[lo..hi])
            }))
            .unwrap_or_else(|_| {
                Err(EvalError::TypeError("morsel worker panicked".into()))
            });
            // the caller may have stopped listening only after receiving
            // every message, so a send failure is unreachable in practice;
            // ignore it rather than poison the worker
            let _ = self.tx.send((i, result));
        }
    }
}

impl Database {
    /// Run a decomposable `program` over `docs`, its candidate snapshot:
    /// as one morsel on the calling thread — morsels disabled, or too few
    /// candidates to be worth splitting; `stats.morsels` stays 0 — or as
    /// several across the pool. Either way the partials are merged into
    /// the answer of the unsplit run.
    pub(crate) fn scan_morsels(
        &self,
        program: Program,
        docs: Vec<Arc<Document>>,
        stats: &mut QueryStats,
    ) -> Result<Sequence, EvalError> {
        let config = self.morsel_config();
        let splits = docs.len() / config.min_docs.max(1);
        if config.max_workers < 2 || splits < 2 {
            let partial = program.run_morsel(&docs)?;
            return morsel::merge(&program, vec![partial]);
        }

        let morsels = splits.min(config.max_workers);
        // contiguous, near-even split preserving document order
        let mut bounds = Vec::with_capacity(morsels);
        let (base, extra) = (docs.len() / morsels, docs.len() % morsels);
        let mut lo = 0;
        for i in 0..morsels {
            let hi = lo + base + usize::from(i < extra);
            bounds.push((lo, hi));
            lo = hi;
        }

        let (tx, rx) = mpsc::channel();
        let ctx = Arc::new(QueryCtx { program, docs, bounds, next: AtomicUsize::new(0), tx });
        let p = pool();
        for _ in 0..(morsels - 1).min(p.workers) {
            let ctx = Arc::clone(&ctx);
            let _ = p.tx.send(Box::new(move || ctx.drain()));
        }
        ctx.drain(); // the caller works too — saturation cannot deadlock

        let mut results: Vec<Option<Result<MorselPartial, EvalError>>> =
            (0..morsels).map(|_| None).collect();
        for _ in 0..morsels {
            let (i, result) = rx.recv().expect("every morsel sends exactly once");
            results[i] = Some(result);
        }
        // first error by morsel index = the error a sequential
        // left-to-right scan would have reported
        let partials = results
            .into_iter()
            .map(|result| result.expect("all morsels reported"))
            .collect::<Result<Vec<_>, _>>()?;
        stats.morsels = morsels;
        morsel::merge(&ctx.program, partials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::StorageMode;
    use crate::exec::ExecError;
    use partix_query::Item;
    use partix_xml::parse;

    fn many_items(n: usize) -> Vec<Document> {
        (0..n)
            .map(|i| {
                let section = ["CD", "DVD", "BOOK"][i % 3];
                let xml = format!(
                    "<Item><Code>{i}</Code><Section>{section}</Section>\
                     <Price>{}</Price><Characteristics><Description>item \
                     number {i} is {}</Description></Characteristics></Item>",
                    (i * 7) % 50,
                    if i % 4 == 0 { "good" } else { "plain" },
                );
                let mut d = parse(&xml).unwrap();
                d.name = Some(format!("d{i}"));
                d
            })
            .collect()
    }

    fn db_with(n: usize, mode: StorageMode, config: MorselConfig) -> Database {
        let db = Database::new();
        db.create_collection("items", mode).unwrap();
        db.store_all("items", many_items(n));
        db.set_morsel_config(config);
        db
    }

    const PARALLEL: MorselConfig = MorselConfig { max_workers: 4, min_docs: 1 };
    const SEQUENTIAL: MorselConfig = MorselConfig { max_workers: 1, min_docs: 1 };

    fn assert_same_answers(q: &str, n: usize, mode: StorageMode) {
        let par = db_with(n, mode, PARALLEL);
        let seq = db_with(n, mode, SEQUENTIAL);
        let a = par.execute(q).unwrap();
        let b = seq.execute(q).unwrap();
        assert_eq!(a.serialize(), b.serialize(), "diverged on {q}");
        assert!(a.stats.morsels >= 2, "expected parallel path for {q}");
        assert_eq!(b.stats.morsels, 0, "expected sequential path");
        assert_eq!(a.stats.docs_scanned, b.stats.docs_scanned);
        assert_eq!(a.stats.collection_size, b.stats.collection_size);
    }

    #[test]
    fn parallel_matches_sequential_hot_and_cold() {
        let q = r#"for $i in collection("items")/Item
                   where $i/Section = "CD" return $i/Code"#;
        assert_same_answers(q, 40, StorageMode::Hot);
        assert_same_answers(q, 40, StorageMode::Cold);
    }

    #[test]
    fn ordered_query_keeps_exact_tie_order() {
        // prices repeat every 50/7 items → plenty of duplicate sort keys
        assert_same_answers(
            r#"for $i in collection("items")/Item
               order by number($i/Price) return $i/Code"#,
            60,
            StorageMode::Hot,
        );
        assert_same_answers(
            r#"for $i in collection("items")/Item
               order by number($i/Price) descending return $i/Code"#,
            60,
            StorageMode::Hot,
        );
    }

    #[test]
    fn aggregates_merge_exactly() {
        for agg in ["count", "sum", "min", "max", "avg"] {
            assert_same_answers(
                &format!(
                    r#"{agg}(for $i in collection("items")/Item
                             return number($i/Price))"#
                ),
                50,
                StorageMode::Hot,
            );
        }
    }

    #[test]
    fn small_collections_stay_sequential() {
        let db = db_with(10, StorageMode::Hot, MorselConfig { max_workers: 4, min_docs: 32 });
        let out = db
            .execute(r#"for $i in collection("items")/Item return $i/Code"#)
            .unwrap();
        assert_eq!(out.stats.morsels, 0);
        assert_eq!(out.items.len(), 10);
    }

    #[test]
    fn non_decomposable_queries_stay_sequential() {
        let db = db_with(40, StorageMode::Hot, PARALLEL);
        // correlated self-join: two collection refs
        let out = db
            .execute(
                r#"count(for $i in collection("items")/Item
                         where count(for $j in collection("items")/Item
                                     where $j/Section = $i/Section return $j) > 1
                         return $i)"#,
            )
            .unwrap();
        assert_eq!(out.stats.morsels, 0);
        assert_eq!(out.items[0], Item::Num(40.0));
    }

    #[test]
    fn index_prefilter_applies_to_morsels() {
        let db = db_with(60, StorageMode::Hot, PARALLEL);
        db.set_value_index_enabled(true);
        let out = db
            .execute(
                r#"for $i in collection("items")/Item
                   where $i/Section = "CD" return $i/Code"#,
            )
            .unwrap();
        assert!(out.stats.index_used);
        assert_eq!(out.stats.docs_scanned, 20);
        assert!(out.stats.morsels >= 2);
        assert_eq!(out.items.len(), 20);
    }

    #[test]
    fn errors_are_deterministic_first_morsel() {
        let par = db_with(40, StorageMode::Hot, PARALLEL);
        let seq = db_with(40, StorageMode::Hot, SEQUENTIAL);
        let q = r#"for $i in collection("items")/Item return $zzz"#;
        let (a, b) = (par.execute(q), seq.execute(q));
        let (Err(ExecError::Eval(a)), Err(ExecError::Eval(b))) = (a, b) else {
            panic!("both paths must error");
        };
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_collection_error_is_preserved() {
        let db = db_with(4, StorageMode::Hot, PARALLEL);
        assert!(matches!(
            db.execute(r#"for $i in collection("zzz")/a return $i"#),
            Err(ExecError::Eval(EvalError::UnknownCollection(_)))
        ));
    }

    #[test]
    fn config_roundtrips_and_env_defaults_are_sane() {
        let db = Database::new();
        let d = db.morsel_config();
        assert!(d.max_workers >= 1 && d.max_workers <= MAX_MORSEL_WORKERS);
        assert!(d.min_docs >= 1);
        db.set_morsel_config(MorselConfig { max_workers: 3, min_docs: 7 });
        assert_eq!(db.morsel_config(), MorselConfig { max_workers: 3, min_docs: 7 });
    }

    #[test]
    fn concurrent_morsel_queries_share_the_pool() {
        let db = Arc::new(db_with(60, StorageMode::Hot, PARALLEL));
        let expected = db
            .execute(r#"count(collection("items")//Description)"#)
            .unwrap()
            .items;
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    db.execute(r#"count(collection("items")//Description)"#)
                        .unwrap()
                        .items
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
    }
}
