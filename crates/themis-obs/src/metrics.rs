//! Engine metrics: atomic counters, gauges, and log-linear histograms,
//! collected in a [`MetricsRegistry`] whose export is deterministic.
//!
//! Everything here is `std::sync::atomic` — no locks on the record path,
//! no allocation after registration, no external dependencies. The
//! registry export sorts by metric name, so serializing it (the server's
//! `stats` op) is reproducible byte for byte regardless of registration
//! or update order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter. Increments are `Relaxed`: metrics are
/// observability, not synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (e.g. in-flight queries). Also
/// usable as an admission slot via [`Gauge::try_inc_below`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value outright.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }

    /// Subtract one (saturating at zero).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Atomically increment iff the current value is below `max`; returns
    /// whether the slot was taken. This is the admission-control CAS: the
    /// server's concurrent-query permit acquires through it.
    pub fn try_inc_below(&self, max: u64) -> bool {
        self.0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                if v < max {
                    Some(v + 1)
                } else {
                    None
                }
            })
            .is_ok()
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// Sub-bucket resolution: 2 bits → 4 sub-buckets per power of two, giving
/// bucket boundaries within ~25% of the true value at every magnitude.
const SUB_BITS: u32 = 2;
const SUB: u64 = 1 << SUB_BITS;
/// Indices 0..SUB are exact; then SUB buckets for each of the 64 - SUB_BITS
/// octaves whose top bit is at position SUB_BITS..64.
const BUCKETS: usize = SUB as usize + (SUB as usize) * (64 - SUB_BITS as usize);

/// The bucket a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let top = v >> (msb - u64::from(SUB_BITS));
        (SUB + (msb - u64::from(SUB_BITS)) * SUB + (top - SUB)) as usize
    }
}

/// The smallest value that lands in bucket `idx` (the quantile estimate
/// reported for it — deterministic and conservative).
fn bucket_floor(idx: usize) -> u64 {
    if idx < SUB as usize {
        idx as u64
    } else {
        let off = idx as u64 - SUB;
        (SUB + off % SUB) << (off / SUB)
    }
}

/// A log-linear histogram of `u64` observations (microseconds, rows, …).
///
/// Values 0–3 get exact buckets; above that, 4 sub-buckets per power of
/// two (so a reported quantile is at most ~25% below the true value).
/// Recording is two relaxed atomic adds; quantiles walk the 252 buckets.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if let Some(bucket) = self.buckets.get(bucket_index(v)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The lower bound of the bucket containing the `q`-quantile
    /// observation (`0.0 ≤ q ≤ 1.0`), or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, clamped to the count.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        bucket_floor(BUCKETS - 1)
    }

    /// Count, sum, and the p50/p90/p99 bucket floors in one snapshot.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// A point-in-time histogram summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Median bucket floor.
    pub p50: u64,
    /// 90th-percentile bucket floor.
    pub p90: u64,
    /// 99th-percentile bucket floor.
    pub p99: u64,
}

/// One exported metric value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram summary.
    Histogram(HistogramSummary),
}

#[derive(Debug, Clone)]
enum MetricHandle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
///
/// Handles are `Arc`s: register once (a brief mutex on a `Vec`, linear
/// scan by name), then record lock-free forever. [`MetricsRegistry::export`]
/// snapshots every metric **sorted by name**, so the serialized form never
/// depends on registration or update order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<(String, MetricHandle)>>,
}

impl MetricsRegistry {
    /// A fresh empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn with_inner<T>(&self, f: impl FnOnce(&mut Vec<(String, MetricHandle)>) -> T) -> T {
        let mut guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// Get or register the counter `name`. A name already registered as a
    /// different metric type yields a fresh unregistered handle (first
    /// registration wins the name).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.with_inner(|metrics| {
            for (n, handle) in metrics.iter() {
                if n == name {
                    if let MetricHandle::Counter(c) = handle {
                        return Arc::clone(c);
                    }
                    return Arc::new(Counter::new());
                }
            }
            let c = Arc::new(Counter::new());
            metrics.push((name.to_string(), MetricHandle::Counter(Arc::clone(&c))));
            c
        })
    }

    /// Get or register the gauge `name` (same name rules as
    /// [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.with_inner(|metrics| {
            for (n, handle) in metrics.iter() {
                if n == name {
                    if let MetricHandle::Gauge(g) = handle {
                        return Arc::clone(g);
                    }
                    return Arc::new(Gauge::new());
                }
            }
            let g = Arc::new(Gauge::new());
            metrics.push((name.to_string(), MetricHandle::Gauge(Arc::clone(&g))));
            g
        })
    }

    /// Get or register the histogram `name` (same name rules as
    /// [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.with_inner(|metrics| {
            for (n, handle) in metrics.iter() {
                if n == name {
                    if let MetricHandle::Histogram(h) = handle {
                        return Arc::clone(h);
                    }
                    return Arc::new(Histogram::new());
                }
            }
            let h = Arc::new(Histogram::new());
            metrics.push((name.to_string(), MetricHandle::Histogram(Arc::clone(&h))));
            h
        })
    }

    /// Snapshot every metric, **sorted by name**.
    pub fn export(&self) -> Vec<(String, MetricValue)> {
        let mut out: Vec<(String, MetricValue)> = self.with_inner(|metrics| {
            metrics
                .iter()
                .map(|(name, handle)| {
                    let value = match handle {
                        MetricHandle::Counter(c) => MetricValue::Counter(c.get()),
                        MetricHandle::Gauge(g) => MetricValue::Gauge(g.get()),
                        MetricHandle::Histogram(h) => MetricValue::Histogram(h.summary()),
                    };
                    (name.clone(), value)
                })
                .collect()
        });
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_count() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // saturates at zero
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn gauge_admission_cas_respects_the_cap() {
        let g = Gauge::new();
        assert!(g.try_inc_below(2));
        assert!(g.try_inc_below(2));
        assert!(!g.try_inc_below(2));
        assert_eq!(g.get(), 2);
        g.dec();
        assert!(g.try_inc_below(2));
        assert!(!g.try_inc_below(0));
    }

    #[test]
    fn bucket_index_and_floor_are_consistent() {
        // Exact small buckets.
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
        for v in [
            4u64,
            5,
            7,
            8,
            100,
            1_000,
            65_535,
            65_536,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "{v} -> {idx}");
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor({idx})={floor} > {v}");
            // The floor is within one sub-bucket (25%) of the value.
            assert!(floor >= v / 2, "floor({idx})={floor} too far below {v}");
            // Floors are the smallest member of their bucket.
            assert_eq!(bucket_index(floor), idx, "{v}");
        }
        // Bucket boundaries are monotone.
        let floors: Vec<u64> = (0..BUCKETS).map(bucket_floor).collect();
        assert!(floors.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn histogram_quantiles_walk_bucket_floors() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        let s = h.summary();
        // Quantile answers are bucket floors at most ~25% below the truth.
        assert!(s.p50 <= 50 && s.p50 >= 32, "{s:?}");
        assert!(s.p90 <= 90 && s.p90 >= 64, "{s:?}");
        assert!(s.p99 <= 99 && s.p99 >= 64, "{s:?}");
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "{s:?}");
        // Degenerate distribution: every quantile is the value's floor.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(3);
        }
        let s = h.summary();
        assert_eq!((s.p50, s.p90, s.p99), (3, 3, 3));
    }

    #[test]
    fn registry_export_is_sorted_and_type_stable() {
        let reg = MetricsRegistry::new();
        let zebra = reg.counter("zebra");
        let alpha = reg.counter("alpha");
        let gauge = reg.gauge("middle");
        let hist = reg.histogram("latency_us");
        zebra.add(2);
        alpha.inc();
        gauge.set(9);
        hist.record(100);
        // Re-registration returns the same underlying metric.
        reg.counter("zebra").inc();
        assert_eq!(zebra.get(), 3);
        // A type-mismatched name gets a detached handle; the original wins.
        reg.gauge("zebra").set(99);
        assert_eq!(zebra.get(), 3);
        let export = reg.export();
        let names: Vec<&str> = export.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "latency_us", "middle", "zebra"]);
        assert_eq!(export[0].1, MetricValue::Counter(1));
        assert_eq!(export[2].1, MetricValue::Gauge(9));
        let MetricValue::Histogram(s) = export[1].1 else {
            panic!("latency_us must be a histogram");
        };
        assert_eq!((s.count, s.sum), (1, 100));
    }
}
