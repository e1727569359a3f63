//! Host-side performance profiling: hierarchical wall-clock spans,
//! monotonic sampling and derived throughput gauges.
//!
//! This module is the *only* sanctioned home of wall-clock time in the
//! workspace (the `wall-clock` rule of `ecas-lint` denies
//! `std::time::Instant` everywhere else). Simulation crates stay
//! deterministic; the bench harness and the sweep engine measure
//! themselves through these types instead of reading the clock directly.
//!
//! Three layers:
//!
//! * [`Stopwatch`] — a monotonic-clock sample, for timing one closed
//!   region (the bench binaries' repeated-run loops);
//! * [`Profiler`] — hierarchical span timing into a
//!   [`MetricsRegistry`]: nested [`Profiler::span`] guards record under
//!   `parent/child` names, so a profile reads as a tree;
//! * [`PerfStats`] / [`session_seconds_per_core_second`] — summary
//!   statistics over repeated samples (median/p10/p90 via the
//!   workspace's single nearest-rank-from-below percentile convention,
//!   [`ecas_types::float::nearest_rank`]) and the derived throughput
//!   gauge the ROADMAP's fleet target is stated in: simulated
//!   session-seconds processed per core-second spent.
//!
//! Everything recorded here is wall-clock and therefore *not comparable*
//! across hosts or runs; deterministic work counters (the `<area>/<noun>`
//! counters of the crate docs) are the cross-host complement.
//!
//! # Example
//!
//! ```
//! use ecas_obs::perf::{Profiler, Stopwatch};
//! use ecas_types::units::Seconds;
//!
//! let profiler = Profiler::new();
//! {
//!     let _grid = profiler.span("grid");
//!     let _cell = profiler.span("cell"); // records as "grid/cell"
//! }
//! let watch = Stopwatch::start();
//! let core = Seconds::new(watch.elapsed_seconds().max(1e-9));
//! let gauge = profiler.record_throughput("sim", Seconds::new(120.0), core);
//! assert!(gauge > 0.0);
//! let snapshot = profiler.snapshot();
//! assert_eq!(snapshot.span("grid/cell").unwrap().count, 1);
//! ```

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ecas_types::float;
use ecas_types::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// A monotonic-clock sample: created at [`Stopwatch::start`], read with
/// [`Stopwatch::elapsed_seconds`] / [`Stopwatch::elapsed_nanos`].
///
/// Wraps [`Instant`], so it is immune to system-clock adjustments.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the watch now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturating at
    /// `u64::MAX` (≈ 584 years).
    #[must_use]
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Hierarchical wall-clock span profiling into a [`MetricsRegistry`].
///
/// [`Profiler::span`] opens an RAII guard; guards opened while another is
/// live record under `parent/child` names. Guards must drop in LIFO
/// order (natural scoping guarantees this); a guard records both into
/// the span table and the `<name>_seconds` histogram, exactly like
/// [`crate::Probe::record_span`].
#[derive(Debug, Default)]
pub struct Profiler {
    registry: Arc<MetricsRegistry>,
    stack: Mutex<Vec<String>>,
}

impl Profiler {
    /// Creates a profiler with a fresh registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a profiler recording into an existing registry (e.g. the
    /// one a `MemoryRecorder` or sweep engine already reports to).
    #[must_use]
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry,
            stack: Mutex::new(Vec::new()),
        }
    }

    /// The registry spans and gauges are recorded into.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Opens a hierarchical span: records on drop under the name path of
    /// every live ancestor span joined with `/`.
    #[must_use]
    pub fn span(&self, name: &str) -> ProfilerSpan<'_> {
        let mut stack = self.stack.lock().unwrap_or_else(PoisonError::into_inner);
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path.clone());
        ProfilerSpan {
            profiler: self,
            path,
            start: Instant::now(),
        }
    }

    /// Records the derived throughput gauge
    /// `perf/<name>_sess_s_per_core_s` — simulated session-seconds
    /// processed per core-second spent — and returns its value.
    /// Zero `core` records infinity (no measurable cost).
    pub fn record_throughput(&self, name: &str, sim: Seconds, core: Seconds) -> f64 {
        let value = session_seconds_per_core_second(sim, core);
        self.registry
            .gauge(&format!("perf/{name}_sess_s_per_core_s"), value);
        self.registry
            .gauge(&format!("perf/{name}_core_seconds"), core.value());
        value
    }

    /// Snapshot of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// An open hierarchical span; records its elapsed wall-clock time on
/// drop. Created by [`Profiler::span`].
#[derive(Debug)]
// ecas-lint: allow(pub-surface, reason = "guard type returned by the public Profiler::span")
pub struct ProfilerSpan<'p> {
    profiler: &'p Profiler,
    path: String,
    start: Instant,
}

impl ProfilerSpan<'_> {
    /// The full `parent/child` name this span records under.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for ProfilerSpan<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.profiler.registry.record_span(&self.path, nanos);
        let mut stack = self
            .profiler
            .stack
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = stack.iter().rposition(|p| *p == self.path) {
            stack.remove(pos);
        }
    }
}

/// The derived throughput gauge: simulated session-seconds per
/// core-second (a dimensionless ratio of two [`Seconds`]). Returns
/// [`f64::INFINITY`] when `core` is zero (work too fast to measure).
#[must_use]
pub fn session_seconds_per_core_second(sim: Seconds, core: Seconds) -> f64 {
    if core.is_zero() {
        f64::INFINITY
    } else {
        sim / core
    }
}

/// Order statistics over repeated wall-clock samples: median, p10 and
/// p90 under the nearest-rank-from-below convention shared with
/// `ecas_qoe::aggregate::percentile` and `ecas_net::SlidingPercentile`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfStats {
    /// Sample count the statistics were computed over.
    pub samples: u64,
    /// 10th percentile.
    pub p10: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl PerfStats {
    /// Computes the statistics, or `None` for an empty sample set.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        float::total_sort(&mut sorted);
        let pick =
            |p: f64| float::nearest_rank(sorted.len(), p).and_then(|i| sorted.get(i).copied());
        Some(Self {
            samples: samples.len() as u64,
            p10: pick(0.10)?,
            median: pick(0.50)?,
            p90: pick(0.90)?,
        })
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_hierarchical_names() {
        let profiler = Profiler::new();
        {
            let outer = profiler.span("grid");
            assert_eq!(outer.path(), "grid");
            {
                let inner = profiler.span("cell");
                assert_eq!(inner.path(), "grid/cell");
            }
            let sibling = profiler.span("merge");
            assert_eq!(sibling.path(), "grid/merge");
        }
        let snap = profiler.snapshot();
        assert_eq!(snap.span("grid").unwrap().count, 1);
        assert_eq!(snap.span("grid/cell").unwrap().count, 1);
        assert_eq!(snap.span("grid/merge").unwrap().count, 1);
        // Spans also feed the seconds histograms, like Probe::record_span.
        assert!(snap.histogram("grid/cell_seconds").is_some());
    }

    #[test]
    fn sequential_spans_do_not_nest() {
        let profiler = Profiler::new();
        {
            let _a = profiler.span("a");
        }
        {
            let _b = profiler.span("b");
        }
        let snap = profiler.snapshot();
        assert!(snap.span("b").is_some());
        assert!(snap.span("a/b").is_none());
    }

    #[test]
    fn throughput_gauge_divides_and_handles_zero_cost() {
        let s = Seconds::new;
        assert_eq!(session_seconds_per_core_second(s(100.0), s(2.0)), 50.0);
        assert!(session_seconds_per_core_second(s(100.0), s(0.0)).is_infinite());
        let profiler = Profiler::new();
        let v = profiler.record_throughput("sim", s(120.0), s(4.0));
        assert_eq!(v, 30.0);
        let snap = profiler.snapshot();
        assert_eq!(snap.gauge("perf/sim_sess_s_per_core_s"), Some(30.0));
        assert_eq!(snap.gauge("perf/sim_core_seconds"), Some(4.0));
    }

    #[test]
    fn perf_stats_use_nearest_rank_from_below() {
        // Same regression shape as qoe::aggregate: rounding the rank
        // would report a value above the requested quantile.
        let stats = PerfStats::from_samples(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(stats.samples, 4);
        assert_eq!(stats.p10, 1.0);
        assert_eq!(stats.median, 2.0);
        assert_eq!(stats.p90, 3.0);
        assert!(PerfStats::from_samples(&[]).is_none());
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let watch = Stopwatch::start();
        let first = watch.elapsed_nanos();
        let second = watch.elapsed_nanos();
        assert!(second >= first);
        assert!(watch.elapsed_seconds() >= 0.0);
    }
}
