//! Process-wide metrics: named counters, gauges, and log-bucket latency
//! histograms, all updated lock-free through atomics.
//!
//! Instruments are registered on first use (`registry.counter("x")`
//! get-or-creates) and live for the life of the process, so hot paths
//! hold an `Arc<Counter>` and pay a single `fetch_add` per event. The
//! [`MetricsRegistry`] lock guards only the name→instrument map, never
//! the instrument values.
//!
//! Histograms use 48 fixed power-of-two buckets over microseconds
//! (1 µs … ~2^47 µs ≈ 4.5 years), giving ≤ 2× relative quantile error
//! with zero allocation and no locking — the same shape HdrHistogram-
//! style recorders use, simplified for an offline, dependency-free
//! build.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (queue depths, in-flight work). May go negative
/// transiently when decrements race ahead of increments.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds, bucket 0 also absorbs sub-µs samples.
const BUCKETS: usize = 48;

/// Lock-free latency histogram over fixed log-2 microsecond buckets.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(us: u64) -> usize {
        // floor(log2(us)) clamped to the table; 0 and 1 µs share bucket 0.
        (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Representative (upper-bound) value of a bucket, in seconds.
    fn bucket_upper_secs(i: usize) -> f64 {
        (1u64 << (i + 1).min(63)) as f64 / 1e6
    }

    pub fn record_secs(&self, secs: f64) {
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        let us = (secs * 1e6) as u64;
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean_secs(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / 1e6 / n as f64
    }

    /// Approximate quantile (`p` in 0..=100) as the upper bound of the
    /// bucket holding the p-th sample; 0.0 when empty. Error is bounded
    /// by the 2× bucket width.
    pub fn percentile_secs(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_secs(i);
            }
        }
        Self::bucket_upper_secs(BUCKETS - 1)
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean_secs", &self.mean_secs())
            .finish()
    }
}

/// One instrument's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    /// (count, mean seconds, p50 seconds, p99 seconds)
    Histogram(u64, f64, f64, f64),
}

/// A point-in-time, name-sorted view of every registered instrument.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Convenience for counters: the value, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return writeln!(f, "(no metrics recorded)");
        }
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => writeln!(f, "{name:<28} {v}")?,
                MetricValue::Gauge(v) => writeln!(f, "{name:<28} {v}")?,
                MetricValue::Histogram(n, mean, p50, p99) => writeln!(
                    f,
                    "{name:<28} n={n} mean={:.3}ms p50={:.3}ms p99={:.3}ms",
                    mean * 1e3,
                    p50 * 1e3,
                    p99 * 1e3,
                )?,
            }
        }
        Ok(())
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Named-instrument registry. The lock covers only registration and
/// snapshotting; recording goes straight to the shared atomics.
#[derive(Default)]
pub struct MetricsRegistry {
    instruments: RwLock<BTreeMap<String, Instrument>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.instrument(name, Instrument::Counter, |i| match i {
            Instrument::Counter(c) => Some(c),
            _ => None,
        })
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.instrument(name, Instrument::Gauge, |i| match i {
            Instrument::Gauge(g) => Some(g),
            _ => None,
        })
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.instrument(name, Instrument::Histogram, |i| match i {
            Instrument::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// The instrument `name`, registered as `kind` on first use.
    fn instrument<T: Default>(
        &self,
        name: &str,
        kind: fn(Arc<T>) -> Instrument,
        of: fn(&Instrument) -> Option<&Arc<T>>,
    ) -> Arc<T> {
        if let Some(found) = self.instruments.read().get(name).and_then(of) {
            return Arc::clone(found);
        }
        let mut map = self.instruments.write();
        let entry = map.entry(name.to_owned()).or_insert_with(|| kind(Arc::default()));
        let clash = || panic!("metric {name:?} already registered with a different type");
        Arc::clone(of(entry).unwrap_or_else(clash))
    }

    pub fn snapshot(&self) -> Snapshot {
        let entries = self
            .instruments
            .read()
            .iter()
            .map(|(name, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(
                        h.count(),
                        h.mean_secs(),
                        h.percentile_secs(50.0),
                        h.percentile_secs(99.0),
                    ),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// The process-wide registry every PartiX component records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("queries");
        c.inc();
        c.add(4);
        // second lookup returns the same instrument
        assert_eq!(reg.counter("queries").get(), 5);

        let g = reg.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(reg.gauge("depth").get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let h = Histogram::default();
        for ms in [1.0, 2.0, 4.0, 8.0, 100.0] {
            h.record_secs(ms / 1e3);
        }
        assert_eq!(h.count(), 5);
        // p50 bucket upper bound must cover the 4ms sample but is at
        // most 2x above it
        let p50 = h.percentile_secs(50.0);
        assert!((0.004..=0.008).contains(&p50), "p50={p50}");
        let p99 = h.percentile_secs(99.0);
        assert!(p99 >= 0.1, "p99={p99}");
        assert!((h.mean_secs() - 0.023).abs() < 0.001);
    }

    #[test]
    fn histogram_ignores_junk_and_handles_empty() {
        let h = Histogram::default();
        assert_eq!(h.percentile_secs(99.0), 0.0);
        assert_eq!(h.mean_secs(), 0.0);
        h.record_secs(f64::NAN);
        h.record_secs(f64::INFINITY);
        h.record_secs(-1.0);
        assert_eq!(h.count(), 0);
        h.record_secs(0.0); // sub-µs lands in bucket 0
        assert_eq!(h.count(), 1);
        assert!(h.percentile_secs(50.0) > 0.0);
    }

    #[test]
    fn bucket_index_is_monotonic_and_clamped() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        let mut last = 0;
        for us in [1u64, 5, 50, 500, 5_000, 50_000, 500_000] {
            let i = Histogram::bucket_index(us);
            assert!(i >= last);
            last = i;
        }
    }

    #[test]
    fn snapshot_lists_sorted_and_displays() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").add(2);
        reg.histogram("m.lat").record_secs(0.002);
        let snap = reg.snapshot();
        assert_eq!(snap.entries.len(), 3);
        assert_eq!(snap.entries[0].0, "a.first");
        assert_eq!(snap.counter("a.first"), 2);
        assert_eq!(snap.counter("missing"), 0);
        let text = snap.to_string();
        assert!(text.contains("z.last"));
        assert!(text.contains("p99="));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let c = reg.counter("hits");
                    let h = reg.histogram("lat");
                    for _ in 0..1000 {
                        c.inc();
                        h.record_secs(0.001);
                    }
                });
            }
        });
        assert_eq!(reg.counter("hits").get(), 8000);
        assert_eq!(reg.histogram("lat").count(), 8000);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("test.global.probe").inc();
        assert!(global().snapshot().counter("test.global.probe") >= 1);
    }
}
