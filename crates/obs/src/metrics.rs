//! The thread-safe metrics registry: counters, gauges, fixed-bucket
//! histograms and monotonic span timers.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use serde::Serialize;

/// Default histogram bucket upper bounds: log-ish spacing covering
/// sub-millisecond latencies (in seconds) up to hundreds of Mbps. Every
/// histogram also has an implicit overflow bucket above the last bound.
pub const DEFAULT_BUCKETS: [f64; 16] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
];

#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` slots; the last counts observations above every
    /// bound.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpanStats {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

/// Thread-safe registry behind every recorder.
///
/// All mutation goes through one mutex; the hot-path cost is a lock plus a
/// map lookup, which only instrumented (non-null) runs pay.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a counter.
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        *entry_or_insert(&mut inner.counters, name, 0) += delta;
    }

    /// Sets a gauge (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        *entry_or_insert(&mut inner.gauges, name, 0.0) = value;
    }

    /// Records one histogram observation. The histogram is created with
    /// [`DEFAULT_BUCKETS`] on first use; call
    /// [`MetricsRegistry::register_histogram`] first for custom buckets.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(&DEFAULT_BUCKETS))
            .observe(value);
    }

    /// Pre-registers a histogram with explicit bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records a completed wall-clock span.
    ///
    /// Besides the min/mean/max statistics, each span feeds a latency
    /// histogram named `<name>_seconds` ([`DEFAULT_BUCKETS`], in seconds)
    /// so profiling summaries show the distribution, not just extremes.
    pub fn record_span(&self, name: &str, nanos: u64) {
        self.observe(&format!("{name}_seconds"), nanos as f64 / 1e9);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(stats) = inner.spans.get_mut(name) {
            stats.count += 1;
            stats.total_ns += nanos;
            stats.min_ns = stats.min_ns.min(nanos);
            stats.max_ns = stats.max_ns.max(nanos);
        } else {
            inner.spans.insert(
                name.to_string(),
                SpanStats {
                    count: 1,
                    total_ns: nanos,
                    min_ns: nanos,
                    max_ns: nanos,
                },
            );
        }
    }

    /// Takes a consistent snapshot of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| HistogramSnapshot {
                    name: k.clone(),
                    bounds: h.bounds.clone(),
                    counts: h.counts.clone(),
                    sum: h.sum,
                    count: h.count,
                })
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(k, s)| SpanSnapshot {
                    name: k.clone(),
                    count: s.count,
                    total_ns: s.total_ns,
                    min_ns: s.min_ns,
                    max_ns: s.max_ns,
                })
                .collect(),
        }
    }
}

fn entry_or_insert<'m, V: Copy>(
    map: &'m mut BTreeMap<String, V>,
    name: &str,
    zero: V,
) -> &'m mut V {
    map.entry(name.to_string()).or_insert(zero)
}

/// A serializable point-in-time copy of a registry's metrics, sorted by
/// name.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Counter name/value pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauge name/value pairs.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span timer statistics.
    pub spans: Vec<SpanSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Looks up a span by name.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// One histogram's state.
#[derive(Debug, Clone, PartialEq, Serialize)]
// ecas-lint: allow(pub-surface, reason = "part of the crate's re-exported public API surface")
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one more slot than `bounds` for overflow.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// One span timer's statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
// ecas-lint: allow(pub-surface, reason = "part of the crate's re-exported public API surface")
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Total time across spans.
    pub total_ns: u64,
    /// Shortest span.
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

impl SpanSnapshot {
    /// Mean span duration in nanoseconds.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.add("segments", 2);
        r.add("segments", 3);
        r.add("stalls", 1);
        let s = r.snapshot();
        assert_eq!(s.counter("segments"), Some(5));
        assert_eq!(s.counter("stalls"), Some(1));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn gauges_keep_last_value() {
        let r = MetricsRegistry::new();
        r.gauge("buffer", 10.0);
        r.gauge("buffer", 4.5);
        assert_eq!(r.snapshot().gauge("buffer"), Some(4.5));
    }

    #[test]
    fn histogram_buckets_observations() {
        let r = MetricsRegistry::new();
        r.register_histogram("lat", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 100.0] {
            r.observe("lat", v);
        }
        let s = r.snapshot();
        let h = s.histogram("lat").unwrap();
        assert_eq!(h.counts, vec![1, 1, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.mean().unwrap() - 26.25).abs() < 1e-12);
    }

    #[test]
    fn default_buckets_used_without_registration() {
        let r = MetricsRegistry::new();
        r.observe("thr", 4.2);
        let s = r.snapshot();
        assert_eq!(
            s.histogram("thr").unwrap().bounds.len(),
            DEFAULT_BUCKETS.len()
        );
    }

    #[test]
    fn span_stats_track_extremes() {
        let r = MetricsRegistry::new();
        r.record_span("dl", 100);
        r.record_span("dl", 300);
        r.record_span("dl", 200);
        let s = r.snapshot();
        let span = s.span("dl").unwrap();
        assert_eq!(span.count, 3);
        assert_eq!(span.min_ns, 100);
        assert_eq!(span.max_ns, 300);
        assert!((span.mean_ns() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn registry_is_usable_across_threads() {
        let r = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        r.add("n", 1);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter("n"), Some(400));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_bounds() {
        let r = MetricsRegistry::new();
        r.register_histogram("bad", &[2.0, 1.0]);
    }
}
