//! Sliding time windows with streaming statistics.

use std::collections::VecDeque;

use ecas_types::units::Seconds;

/// A time-bounded sliding window over `(time, value)` pairs.
///
/// Samples older than `span` relative to the most recent sample are evicted
/// on insertion. Mean and standard deviation are computed over the
/// retained samples.
///
/// # Examples
///
/// ```
/// use ecas_sensors::window::SlidingWindow;
/// use ecas_types::units::Seconds;
///
/// let mut w = SlidingWindow::new(Seconds::new(5.0));
/// for i in 0..10 {
///     w.push(Seconds::new(i as f64), i as f64);
/// }
/// // Only samples within the trailing 5 s remain (times 4..=9).
/// assert_eq!(w.len(), 6);
/// assert!((w.mean().unwrap() - 6.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    span: Seconds,
    samples: VecDeque<(Seconds, f64)>,
}

impl SlidingWindow {
    /// Creates a window retaining the trailing `span` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    #[must_use]
    pub fn new(span: Seconds) -> Self {
        assert!(!span.is_zero(), "window span must be positive");
        Self {
            span,
            samples: VecDeque::new(),
        }
    }

    /// Inserts a sample and evicts samples older than the window span.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or `time` precedes the most recent sample.
    pub fn push(&mut self, time: Seconds, value: f64) {
        assert!(!value.is_nan(), "window values must not be NaN");
        if let Some(&(last, _)) = self.samples.back() {
            assert!(
                time >= last,
                "window samples must arrive in time order ({time} < {last})"
            );
        }
        self.samples.push_back((time, value));
        let cutoff = time.saturating_sub(self.span);
        while let Some(&(t, _)) = self.samples.front() {
            if t < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the retained values, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64)
    }

    /// Population standard deviation of the retained values, or `None`
    /// when empty.
    #[must_use]
    pub fn std(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self
            .samples
            .iter()
            .map(|&(_, v)| (v - mean).powi(2))
            .sum::<f64>()
            / self.samples.len() as f64;
        Some(var.sqrt())
    }

    /// Iterates over the retained `(time, value)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(Seconds, f64)> {
        self.samples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_keeps_trailing_span() {
        let mut w = SlidingWindow::new(Seconds::new(2.0));
        for i in 0..10 {
            w.push(Seconds::new(i as f64), 1.0);
        }
        // Samples at t = 7, 8, 9 are within [9-2, 9].
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn statistics_on_known_values() {
        let mut w = SlidingWindow::new(Seconds::new(100.0));
        for (i, v) in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().enumerate() {
            w.push(Seconds::new(i as f64), *v);
        }
        assert!((w.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((w.std().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_returns_none() {
        let w = SlidingWindow::new(Seconds::new(1.0));
        assert!(w.mean().is_none());
        assert!(w.std().is_none());
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rejects_time_regressions() {
        let mut w = SlidingWindow::new(Seconds::new(1.0));
        w.push(Seconds::new(1.0), 0.0);
        w.push(Seconds::new(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_values() {
        let mut w = SlidingWindow::new(Seconds::new(1.0));
        w.push(Seconds::zero(), f64::NAN);
    }
}
