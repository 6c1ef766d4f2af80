//! The coordinator's one cache: per query text, its parse and the plan
//! localized from it, so a repeated query skips the parser and the
//! localization. Capacity-bounded with FIFO eviction (no LRU juggling on
//! the hot path); a hit is one lookup by `&str` and two refcount bumps.
//! The plan is stored after the parse ([`PlanCache::store`]) and replaced
//! when the coordinator finds it no longer holds. Whether a query skipped
//! both is [`QueryReport::plan_cache_hit`](crate::QueryReport).

use crate::metrics::{self, Counter};
use parking_lot::Mutex;
use partix_query::{parse_query, Query, QueryParseError};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, LazyLock};

/// A text's parse and the plan stored beside it.
struct Entry<P> {
    query: Arc<Query>,
    plan: Option<Arc<P>>,
}

/// The entries and their insertion order (the eviction queue).
struct Plans<P> {
    map: HashMap<String, Entry<P>>,
    order: VecDeque<String>,
}

/// Parse and plan cache keyed by query text; `P` is the plan.
pub struct PlanCache<P> {
    plans: Mutex<Plans<P>>,
    capacity: usize,
}

impl<P> PlanCache<P> {
    pub fn new(capacity: usize) -> PlanCache<P> {
        let plans = Plans { map: HashMap::new(), order: VecDeque::new() };
        PlanCache { plans: Mutex::new(plans), capacity: capacity.max(1) }
    }

    /// The parse of `text` and the plan stored beside it, parsing (and
    /// caching) on miss.
    pub fn get_or_parse(
        &self,
        text: &str,
    ) -> Result<(Arc<Query>, Option<Arc<P>>), QueryParseError> {
        static LOOKUPS: LazyLock<[Arc<Counter>; 2]> = LazyLock::new(|| {
            ["cache.plan.hits", "cache.plan.misses"].map(|name| metrics::global().counter(name))
        });
        if let Some(entry) = self.plans.lock().map.get(text) {
            LOOKUPS[0].inc();
            return Ok((Arc::clone(&entry.query), entry.plan.clone()));
        }
        let query = Arc::new(parse_query(text)?);
        LOOKUPS[1].inc();
        let mut plans = self.plans.lock();
        let entry = Entry { query: Arc::clone(&query), plan: None };
        if plans.map.insert(text.to_owned(), entry).is_none() {
            plans.order.push_back(text.to_owned());
            while plans.map.len() > self.capacity {
                let Some(oldest) = plans.order.pop_front() else { break };
                plans.map.remove(&oldest);
            }
        }
        Ok((query, None))
    }

    /// Keep `plan` beside `text`'s parse, replacing the one there; a no-op
    /// once `text` was evicted.
    pub fn store(&self, text: &str, plan: Arc<P>) {
        if let Some(entry) = self.plans.lock().map.get_mut(text) {
            entry.plan = Some(plan);
        }
    }

    pub fn len(&self) -> usize {
        self.plans.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cache_hits_on_repeat() {
        let cache = PlanCache::new(8);
        let text = r#"count(collection("c")/Item)"#;
        let (a, plan_a) = cache.get_or_parse(text).unwrap();
        assert!(plan_a.is_none());
        cache.store(text, Arc::new(7));
        let (b, plan_b) = cache.get_or_parse(text).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(plan_b.as_deref(), Some(&7));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plan_cache_propagates_parse_errors() {
        let cache = PlanCache::<()>::new(8);
        assert!(cache.get_or_parse("for $").is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn plan_cache_evicts_fifo() {
        let cache = PlanCache::new(2);
        let texts = [
            r#"count(collection("a")/X)"#,
            r#"count(collection("b")/X)"#,
            r#"count(collection("c")/X)"#,
        ];
        for text in texts {
            cache.get_or_parse(text).unwrap();
            cache.store(text, Arc::new(()));
        }
        assert_eq!(cache.len(), 2);
        // the oldest entry was evicted: a plan stored for it is dropped,
        // and re-requesting it parses again
        cache.store(texts[0], Arc::new(()));
        let (_, plan) = cache.get_or_parse(texts[0]).unwrap();
        assert!(plan.is_none());
        // the newest stayed
        let (_, plan) = cache.get_or_parse(texts[2]).unwrap();
        assert!(plan.is_some());
    }
}
