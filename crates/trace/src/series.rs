//! Time-indexed sample containers.
//!
//! A [`TimeSeries`] is an append-only, time-sorted vector of samples with
//! binary-search lookup. Channel-specific interpolation helpers
//! (step-hold throughput, linearly interpolated signal strength) are
//! provided as inherent methods on the concrete instantiations.

use std::fmt;

use ecas_types::units::{Dbm, Mbps, Seconds};
use serde::Serialize;

use crate::sample::{AccelSample, NetworkSample, PowerSample, SignalSample};

/// Types that carry a trace timestamp.
// ecas-lint: allow(pub-surface, reason = "part of the crate's re-exported public API surface")
pub trait Timestamped {
    /// The sample's time since the start of the trace.
    fn timestamp(&self) -> Seconds;
}

/// Error returned when constructing or extending an invalid time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesError {
    /// Samples were not in non-decreasing time order.
    OutOfOrder {
        /// Index of the first offending sample.
        at: usize,
    },
    /// The series was empty where at least one sample is required.
    Empty,
}

impl fmt::Display for SeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeriesError::OutOfOrder { at } => {
                write!(f, "samples out of time order at index {at}")
            }
            SeriesError::Empty => write!(f, "time series was empty"),
        }
    }
}

impl std::error::Error for SeriesError {}

/// An append-only, time-sorted sequence of samples.
///
/// # Examples
///
/// ```
/// use ecas_trace::sample::NetworkSample;
/// use ecas_trace::series::TimeSeries;
/// use ecas_types::units::{Mbps, Seconds};
///
/// let series = TimeSeries::new(vec![
///     NetworkSample::new(Seconds::new(0.0), Mbps::new(10.0)),
///     NetworkSample::new(Seconds::new(1.0), Mbps::new(20.0)),
/// ])?;
/// assert_eq!(series.throughput_at(Seconds::new(0.5)), Mbps::new(10.0));
/// # Ok::<(), ecas_trace::series::SeriesError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(into = "Vec<T>")]
pub struct TimeSeries<T>
where
    T: Timestamped + Clone,
{
    samples: Vec<T>,
}

impl<T: Timestamped + Clone> TimeSeries<T> {
    /// Builds a series from samples, validating non-decreasing time order.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::Empty`] for an empty vector and
    /// [`SeriesError::OutOfOrder`] if timestamps decrease anywhere.
    pub fn new(samples: Vec<T>) -> Result<Self, SeriesError> {
        if samples.is_empty() {
            return Err(SeriesError::Empty);
        }
        for i in 1..samples.len() {
            if samples[i].timestamp() < samples[i - 1].timestamp() {
                return Err(SeriesError::OutOfOrder { at: i });
            }
        }
        Ok(Self { samples })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series holds no samples (never true for a constructed
    /// series; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over the samples in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.samples.iter()
    }

    /// The earliest sample.
    #[must_use]
    pub fn first(&self) -> &T {
        // ecas-lint: allow(panic-safety, reason = "TimeSeries::new rejects empty input, so the series is never empty")
        self.samples.first().expect("series is never empty")
    }

    /// The latest sample.
    #[must_use]
    pub fn last(&self) -> &T {
        // ecas-lint: allow(panic-safety, reason = "TimeSeries::new rejects empty input, so the series is never empty")
        self.samples.last().expect("series is never empty")
    }

    /// Time span covered by the series (last minus first timestamp).
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.last()
            .timestamp()
            .saturating_sub(self.first().timestamp())
    }

    /// Appends a sample.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::OutOfOrder`] if `sample` is earlier than the
    /// current last sample.
    pub fn push(&mut self, sample: T) -> Result<(), SeriesError> {
        if sample.timestamp() < self.last().timestamp() {
            return Err(SeriesError::OutOfOrder {
                at: self.samples.len(),
            });
        }
        self.samples.push(sample);
        Ok(())
    }

    /// Index of the latest sample at or before `t`, or `None` if `t`
    /// precedes the first sample.
    #[must_use]
    pub fn index_at_or_before(&self, t: Seconds) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.samples.len();
        if self.samples[0].timestamp() > t {
            return None;
        }
        // Invariant: samples[lo].timestamp() <= t, samples[hi..] > t.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.samples[mid].timestamp() <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// The latest sample at or before `t`, or `None` if `t` precedes the
    /// first sample.
    #[must_use]
    pub fn at_or_before(&self, t: Seconds) -> Option<&T> {
        self.index_at_or_before(t).map(|i| &self.samples[i])
    }

    /// All samples with timestamps in the half-open window `[from, to)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecas_trace::sample::NetworkSample;
    /// use ecas_trace::series::TimeSeries;
    /// use ecas_types::units::{Mbps, Seconds};
    ///
    /// let s = TimeSeries::new(vec![
    ///     NetworkSample::new(Seconds::new(0.0), Mbps::new(1.0)),
    ///     NetworkSample::new(Seconds::new(1.0), Mbps::new(2.0)),
    ///     NetworkSample::new(Seconds::new(2.0), Mbps::new(3.0)),
    /// ])?;
    /// assert_eq!(s.window(Seconds::new(0.5), Seconds::new(2.0)).len(), 1);
    /// # Ok::<(), ecas_trace::series::SeriesError>(())
    /// ```
    #[must_use]
    pub fn window(&self, from: Seconds, to: Seconds) -> &[T] {
        let start = self.samples.partition_point(|s| s.timestamp() < from);
        let end = self.samples.partition_point(|s| s.timestamp() < to);
        &self.samples[start..end]
    }

    /// Borrows the underlying samples.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.samples
    }

    /// Consumes the series, returning the underlying samples.
    #[must_use]
    pub fn into_inner(self) -> Vec<T> {
        self.samples
    }
}

impl<T: Timestamped + Clone> From<TimeSeries<T>> for Vec<T> {
    fn from(series: TimeSeries<T>) -> Vec<T> {
        series.samples
    }
}

impl<'a, T: Timestamped + Clone> IntoIterator for &'a TimeSeries<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

fn lerp(x0: f64, y0: f64, x1: f64, y1: f64, x: f64) -> f64 {
    if x1 <= x0 {
        return y0;
    }
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

impl TimeSeries<NetworkSample> {
    /// Throughput at time `t` with step-hold semantics: the value of the
    /// latest sample at or before `t`; before the first sample, the first
    /// sample's value.
    #[must_use]
    pub fn throughput_at(&self, t: Seconds) -> Mbps {
        match self.at_or_before(t) {
            Some(s) => s.throughput,
            None => self.first().throughput,
        }
    }

    /// Mean throughput over the sample set (unweighted).
    #[must_use]
    pub fn mean_throughput(&self) -> Mbps {
        let sum: f64 = self.iter().map(|s| s.throughput.value()).sum();
        Mbps::new(sum / self.len() as f64)
    }
}

impl TimeSeries<SignalSample> {
    /// Signal strength at time `t`, linearly interpolated between the
    /// surrounding samples and clamped to the series ends outside its span.
    #[must_use]
    pub fn signal_at(&self, t: Seconds) -> Dbm {
        match self.index_at_or_before(t) {
            None => self.first().dbm,
            Some(i) if i + 1 == self.len() => self.last().dbm,
            Some(i) => {
                let a = &self.as_slice()[i];
                let b = &self.as_slice()[i + 1];
                Dbm::new(lerp(
                    a.time.value(),
                    a.dbm.value(),
                    b.time.value(),
                    b.dbm.value(),
                    t.value(),
                ))
            }
        }
    }

    /// Mean signal strength over the sample set (unweighted).
    #[must_use]
    pub fn mean_signal(&self) -> Dbm {
        let sum: f64 = self.iter().map(|s| s.dbm.value()).sum();
        Dbm::new(sum / self.len() as f64)
    }
}

impl TimeSeries<PowerSample> {
    /// Integrates power over time with the trapezoidal rule, returning
    /// total energy in joules.
    #[must_use]
    pub fn integrate_energy(&self) -> ecas_types::units::Joules {
        let s = self.as_slice();
        let mut total = 0.0;
        for w in s.windows(2) {
            let dt = w[1].time.value() - w[0].time.value();
            total += 0.5 * (w[0].power.value() + w[1].power.value()) * dt;
        }
        ecas_types::units::Joules::new(total)
    }
}

impl TimeSeries<AccelSample> {
    /// Sampling rate estimated from the median inter-sample gap (Hz).
    ///
    /// Returns `None` for series with fewer than two samples or a zero
    /// median gap.
    #[must_use]
    pub fn sample_rate(&self) -> Option<f64> {
        if self.len() < 2 {
            return None;
        }
        let mut gaps: Vec<f64> = self
            .as_slice()
            .windows(2)
            .map(|w| w[1].time.value() - w[0].time.value())
            .collect();
        ecas_types::float::total_sort(&mut gaps);
        let median = gaps[gaps.len() / 2];
        if median <= 0.0 {
            None
        } else {
            Some(1.0 / median)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_types::units::Watts;

    fn net(t: f64, m: f64) -> NetworkSample {
        NetworkSample::new(Seconds::new(t), Mbps::new(m))
    }

    fn series() -> TimeSeries<NetworkSample> {
        TimeSeries::new(vec![net(0.0, 10.0), net(1.0, 20.0), net(3.0, 5.0)]).unwrap()
    }

    #[test]
    fn rejects_empty_and_out_of_order() {
        assert_eq!(
            TimeSeries::<NetworkSample>::new(vec![]),
            Err(SeriesError::Empty)
        );
        assert_eq!(
            TimeSeries::new(vec![net(1.0, 1.0), net(0.5, 1.0)]),
            Err(SeriesError::OutOfOrder { at: 1 })
        );
    }

    #[test]
    fn accepts_equal_timestamps() {
        assert!(TimeSeries::new(vec![net(1.0, 1.0), net(1.0, 2.0)]).is_ok());
    }

    #[test]
    fn at_or_before_binary_search() {
        let s = series();
        assert_eq!(
            s.at_or_before(Seconds::new(0.0)).unwrap().throughput,
            Mbps::new(10.0)
        );
        assert_eq!(
            s.at_or_before(Seconds::new(0.9)).unwrap().throughput,
            Mbps::new(10.0)
        );
        assert_eq!(
            s.at_or_before(Seconds::new(1.0)).unwrap().throughput,
            Mbps::new(20.0)
        );
        assert_eq!(
            s.at_or_before(Seconds::new(99.0)).unwrap().throughput,
            Mbps::new(5.0)
        );
    }

    #[test]
    fn throughput_step_hold_before_first() {
        let s = TimeSeries::new(vec![net(5.0, 7.0), net(6.0, 9.0)]).unwrap();
        assert_eq!(s.throughput_at(Seconds::new(0.0)), Mbps::new(7.0));
    }

    #[test]
    fn window_half_open() {
        let s = series();
        assert_eq!(s.window(Seconds::new(0.0), Seconds::new(1.0)).len(), 1);
        assert_eq!(s.window(Seconds::new(0.0), Seconds::new(1.1)).len(), 2);
        assert_eq!(s.window(Seconds::new(5.0), Seconds::new(9.0)).len(), 0);
    }

    #[test]
    fn push_maintains_order() {
        let mut s = series();
        assert!(s.push(net(3.0, 8.0)).is_ok());
        assert!(s.push(net(2.0, 8.0)).is_err());
    }

    #[test]
    fn signal_interpolates_linearly() {
        let s = TimeSeries::new(vec![
            SignalSample::new(Seconds::new(0.0), Dbm::new(-90.0)),
            SignalSample::new(Seconds::new(10.0), Dbm::new(-100.0)),
        ])
        .unwrap();
        assert_eq!(s.signal_at(Seconds::new(5.0)), Dbm::new(-95.0));
        assert_eq!(s.signal_at(Seconds::new(0.0)), Dbm::new(-90.0));
        assert_eq!(s.signal_at(Seconds::new(20.0)), Dbm::new(-100.0));
    }

    #[test]
    fn power_trapezoid_integration() {
        let s = TimeSeries::new(vec![
            PowerSample::new(Seconds::new(0.0), Watts::new(2.0)),
            PowerSample::new(Seconds::new(2.0), Watts::new(4.0)),
        ])
        .unwrap();
        // Trapezoid: (2+4)/2 * 2 = 6 J.
        assert!((s.integrate_energy().value() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn accel_sample_rate_estimation() {
        let samples: Vec<AccelSample> = (0..100)
            .map(|i| AccelSample::new(Seconds::new(i as f64 * 0.02), 0.0, 0.0, 9.81))
            .collect();
        let s = TimeSeries::new(samples).unwrap();
        assert!((s.sample_rate().unwrap() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn duration_and_ends() {
        let s = series();
        assert_eq!(s.duration(), Seconds::new(3.0));
        assert_eq!(s.first().throughput, Mbps::new(10.0));
        assert_eq!(s.last().throughput, Mbps::new(5.0));
    }

    #[test]
    fn mean_throughput_and_signal() {
        let s = series();
        assert!((s.mean_throughput().value() - 35.0 / 3.0).abs() < 1e-12);
        let sig = TimeSeries::new(vec![
            SignalSample::new(Seconds::new(0.0), Dbm::new(-80.0)),
            SignalSample::new(Seconds::new(1.0), Dbm::new(-100.0)),
        ])
        .unwrap();
        assert_eq!(sig.mean_signal(), Dbm::new(-90.0));
    }
}
