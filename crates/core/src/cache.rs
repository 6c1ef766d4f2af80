//! The coordinator's one cache: parsed plans keyed by the raw query
//! text, so repeated queries skip the parser entirely. Capacity-bounded
//! with FIFO eviction (no LRU juggling on the hot path); a hit is one
//! lookup by `&str` and a refcount bump. Whether a query's plan came
//! from here is [`QueryReport::plan_cache_hit`](crate::QueryReport).

use parking_lot::Mutex;
use partix_query::{parse_query, Query, QueryParseError};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The plans and their insertion order (the eviction queue).
#[derive(Default)]
struct Plans {
    map: HashMap<String, Arc<Query>>,
    order: VecDeque<String>,
}

/// Parsed-plan cache keyed by query text.
pub struct PlanCache {
    plans: Mutex<Plans>,
    capacity: usize,
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache { plans: Mutex::new(Plans::default()), capacity: capacity.max(1) }
    }

    /// Cached plan for `text`, parsing (and caching) on miss. The flag
    /// is `true` on a hit.
    pub fn get_or_parse(&self, text: &str) -> Result<(Arc<Query>, bool), QueryParseError> {
        if let Some(plan) = self.plans.lock().map.get(text) {
            crate::metrics::global().counter("cache.plan.hits").inc();
            return Ok((Arc::clone(plan), true));
        }
        let plan = Arc::new(parse_query(text)?);
        crate::metrics::global().counter("cache.plan.misses").inc();
        let mut plans = self.plans.lock();
        if plans.map.insert(text.to_owned(), Arc::clone(&plan)).is_none() {
            plans.order.push_back(text.to_owned());
            while plans.map.len() > self.capacity {
                let Some(oldest) = plans.order.pop_front() else { break };
                plans.map.remove(&oldest);
            }
        }
        Ok((plan, false))
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
        let (a, hit_a) = cache.get_or_parse(r#"count(collection("c")/Item)"#).unwrap();
        let (b, hit_b) = cache.get_or_parse(r#"count(collection("c")/Item)"#).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
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
        // the two newest stayed
        let (_, hit) = cache.get_or_parse(r#"count(collection("c")/X)"#).unwrap();
        assert!(hit);
    }
}
