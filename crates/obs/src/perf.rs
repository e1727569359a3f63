//! Host-side performance measurement: monotonic sampling, summary
//! statistics and the derived throughput gauge.
//!
//! This module is the *only* sanctioned home of wall-clock time in the
//! workspace (the `wall-clock` rule of `ecas-lint` denies
//! `std::time::Instant` everywhere else). Simulation crates stay
//! deterministic; the bench harness and the sweep engine measure
//! themselves through these types instead of reading the clock directly.
//!
//! Two layers:
//!
//! * [`Stopwatch`] — a monotonic-clock sample, for timing one closed
//!   region (the bench binaries' repeated-run loops, the sweep engine's
//!   `sweep/execute` span);
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
//! use ecas_obs::perf::{session_seconds_per_core_second, PerfStats, Stopwatch};
//! use ecas_types::units::Seconds;
//!
//! let samples: Vec<f64> = (0..3)
//!     .map(|_| {
//!         let watch = Stopwatch::start();
//!         let core = Seconds::new(watch.elapsed_seconds().max(1e-9));
//!         session_seconds_per_core_second(Seconds::new(120.0), core)
//!     })
//!     .collect();
//! let stats = PerfStats::from_samples(&samples).unwrap();
//! assert_eq!(stats.samples, 3);
//! assert!(stats.median > 0.0);
//! ```

use std::time::Instant;

use ecas_types::float;
use ecas_types::units::Seconds;
use serde::{Deserialize, Serialize};

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
    fn throughput_gauge_divides_and_handles_zero_cost() {
        let s = Seconds::new;
        assert_eq!(session_seconds_per_core_second(s(100.0), s(2.0)), 50.0);
        assert!(session_seconds_per_core_second(s(100.0), s(0.0)).is_infinite());
        assert_eq!(session_seconds_per_core_second(s(120.0), s(4.0)), 30.0);
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
