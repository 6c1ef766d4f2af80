//! Coordinator-side caches for the execution runtime.
//!
//! Two layers sit in front of the dispatch path:
//!
//! * [`PlanCache`] — parsed-query plans keyed by the raw query text, so
//!   repeated queries skip the parser entirely;
//! * [`ResultCache`] — per-site sub-query results keyed by
//!   `(node, fragment, epoch, normalized sub-query)`. The epoch is the
//!   node's per-collection write counter
//!   ([`Node::collection_epoch`](crate::Node::collection_epoch)), bumped
//!   on every `store_docs`/`drop_collection`: a write makes every older
//!   key unreachable, so stale entries can never be served — they simply
//!   age out of the FIFO.
//!
//! Both caches are capacity-bounded with FIFO eviction (no LRU juggling
//! on the hot path) and keep cumulative hit/miss counters, surfaced
//! per-query in [`QueryReport`](crate::QueryReport) and cumulatively via
//! [`PartiX::cache_stats`](crate::PartiX::cache_stats).

use parking_lot::Mutex;
use partix_query::{parse_query, Query, QueryParseError, Sequence};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative counters across both coordinator caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub result_hits: u64,
    pub result_misses: u64,
}

/// Capacity-bounded map with FIFO eviction.
struct BoundedMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> BoundedMap<K, V> {
    fn new(capacity: usize) -> BoundedMap<K, V> {
        BoundedMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                } else {
                    break;
                }
            }
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

// ---------------------------------------------------------- plan cache --

/// Parsed-plan cache keyed by query text.
pub struct PlanCache {
    plans: Mutex<BoundedMap<String, Arc<Query>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            plans: Mutex::new(BoundedMap::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cached plan for `text`, parsing (and caching) on miss. The flag
    /// is `true` on a hit.
    pub fn get_or_parse(&self, text: &str) -> Result<(Arc<Query>, bool), QueryParseError> {
        if let Some(plan) = self.plans.lock().get(&text.to_owned()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            crate::metrics::global().counter("cache.plan.hits").inc();
            return Ok((Arc::clone(plan), true));
        }
        let plan = Arc::new(parse_query(text)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::metrics::global().counter("cache.plan.misses").inc();
        self.plans.lock().insert(text.to_owned(), Arc::clone(&plan));
        Ok((plan, false))
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.plans.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.plans.lock().clear();
    }
}

// -------------------------------------------------------- result cache --

/// Identity of one cacheable sub-query execution. The `epoch` component
/// makes invalidation free: any write to the fragment's collection bumps
/// the node epoch, so subsequent lookups hash to a different key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    pub node: usize,
    pub fragment: String,
    pub epoch: u64,
    pub avg_mode: bool,
    /// Normalized sub-query: the debug rendering of the rewritten AST
    /// (stable for a given expression, independent of source whitespace
    /// or the original collection name).
    pub fingerprint: String,
}

impl ResultKey {
    pub fn new(
        node: usize,
        fragment: &str,
        epoch: u64,
        avg_mode: bool,
        query: &Query,
    ) -> ResultKey {
        ResultKey {
            node,
            fragment: fragment.to_owned(),
            epoch,
            avg_mode,
            fingerprint: format!("{:?}", query.expr),
        }
    }
}

/// A cached site result: everything needed to replay the sub-query
/// answer without touching the node. Elapsed time is deliberately not
/// kept — a hit costs (approximately) nothing and is reported as such.
#[derive(Debug, Clone, Default)]
pub struct CachedSite {
    pub items: Sequence,
    pub result_bytes: usize,
    pub docs_scanned: usize,
    pub index_used: bool,
    /// Morsels the original (uncached) execution split into — replayed
    /// on hits so reports stay honest about how the answer was computed.
    pub morsels: usize,
}

/// Sub-query result cache (see module docs for the invalidation story).
pub struct ResultCache {
    entries: Mutex<BoundedMap<ResultKey, CachedSite>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            entries: Mutex::new(BoundedMap::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    pub fn get(&self, key: &ResultKey) -> Option<CachedSite> {
        match self.entries.lock().get(key) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                crate::metrics::global().counter("cache.result.hits").inc();
                Some(entry.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                crate::metrics::global().counter("cache.result.misses").inc();
                None
            }
        }
    }

    pub fn insert(&self, key: ResultKey, site: CachedSite) {
        self.entries.lock().insert(key, site);
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cache_hits_on_repeat() {
        let cache = PlanCache::new(8);
        let (a, hit_a) = cache.get_or_parse(r#"count(collection("c")/Item)"#).unwrap();
        let (b, hit_b) = cache.get_or_parse(r#"count(collection("c")/Item)"#).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn plan_cache_propagates_parse_errors() {
        let cache = PlanCache::new(8);
        assert!(cache.get_or_parse("for $").is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn plan_cache_evicts_fifo() {
        let cache = PlanCache::new(2);
        for q in [
            r#"count(collection("a")/X)"#,
            r#"count(collection("b")/X)"#,
            r#"count(collection("c")/X)"#,
        ] {
            cache.get_or_parse(q).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // oldest entry was evicted: re-requesting it is a miss
        let (_, hit) = cache.get_or_parse(r#"count(collection("a")/X)"#).unwrap();
        assert!(!hit);
    }

    fn key(fragment: &str, epoch: u64) -> ResultKey {
        let q = parse_query(r#"count(collection("f")/Item)"#).unwrap();
        ResultKey::new(0, fragment, epoch, false, &q)
    }

    fn site(bytes: usize) -> CachedSite {
        CachedSite {
            items: Vec::new(),
            result_bytes: bytes,
            docs_scanned: 1,
            index_used: false,
            morsels: 0,
        }
    }

    #[test]
    fn result_cache_roundtrip_and_epoch_isolation() {
        let cache = ResultCache::new(8);
        assert!(cache.get(&key("f1", 0)).is_none());
        cache.insert(key("f1", 0), site(10));
        assert_eq!(cache.get(&key("f1", 0)).unwrap().result_bytes, 10);
        // a bumped epoch reaches a different key: no stale hit possible
        assert!(cache.get(&key("f1", 1)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn result_key_distinguishes_queries_and_fragments() {
        let q1 = parse_query(r#"count(collection("f")/Item)"#).unwrap();
        let q2 = parse_query(r#"sum(for $i in collection("f")/Item return number($i/P))"#)
            .unwrap();
        assert_ne!(
            ResultKey::new(0, "f1", 0, false, &q1),
            ResultKey::new(0, "f1", 0, false, &q2)
        );
        assert_ne!(key("f1", 0), key("f2", 0));
        // identical expressions fingerprint identically
        let q1b = parse_query(r#"count(collection("f")/Item)"#).unwrap();
        assert_eq!(
            ResultKey::new(0, "f1", 0, false, &q1),
            ResultKey::new(0, "f1", 0, false, &q1b)
        );
    }

    #[test]
    fn result_cache_evicts_at_capacity() {
        let cache = ResultCache::new(2);
        cache.insert(key("f1", 0), site(1));
        cache.insert(key("f2", 0), site(2));
        cache.insert(key("f3", 0), site(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key("f1", 0)).is_none());
        assert!(cache.get(&key("f3", 0)).is_some());
    }
}
