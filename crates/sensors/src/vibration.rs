//! The vibration level of Eq. (5).
//!
//! The paper computes a scalar *vibration level* `v` from accelerometer
//! data collected during video watching. The provided text of Eq. (5) is
//! garbled; we reconstruct it (see `DESIGN.md`) as the RMS of the
//! gravity-removed acceleration magnitude over a window:
//!
//! ```text
//! v = sqrt( (1/N) * sum_i (|a_i| - mean_j |a_j|)^2 )        [m/s^2]
//! ```
//!
//! i.e. the population standard deviation of the magnitude signal, which is
//! identical to the RMS of the high-pass-filtered magnitude for windows
//! much longer than the vibration period. This measures exactly what the
//! paper needs: zero in a quiet room regardless of orientation, and growing
//! with shaking intensity on a vehicle.
//!
//! For online estimation (Section IV-B), the level is computed over the
//! trailing `0.2 * W` seconds with `W = 30 s`, i.e. a 6-second window — the
//! downloaded segment plays within seconds, so the vibration level at
//! download time predicts the level at playback time.

use ecas_trace::sample::AccelSample;
use ecas_trace::series::TimeSeries;
use ecas_types::units::{MetersPerSec2, Seconds};

use crate::window::SlidingWindow;

/// The paper's window `W` in seconds (Section IV-B).
const W_SECONDS: f64 = 30.0;

/// The fraction of `W` the online estimate reads (`0.2 * W`).
const WINDOW_FRACTION: f64 = 0.2;

/// Computes the Eq. (5) vibration level of a batch of accelerometer
/// samples (population std of the magnitude signal).
///
/// Returns `None` when `samples` is empty.
///
/// # Examples
///
/// ```
/// use ecas_sensors::vibration::vibration_level;
/// use ecas_trace::sample::AccelSample;
/// use ecas_types::units::Seconds;
///
/// let still: Vec<AccelSample> = (0..100)
///     .map(|i| AccelSample::new(Seconds::new(i as f64 * 0.02), 0.0, 0.0, 9.81))
///     .collect();
/// let level = vibration_level(&still).unwrap();
/// assert!(level.value() < 1e-12, "a still phone has zero vibration");
/// ```
#[must_use]
pub fn vibration_level(samples: &[AccelSample]) -> Option<MetersPerSec2> {
    if samples.is_empty() {
        return None;
    }
    let mags: Vec<f64> = samples.iter().map(AccelSample::magnitude).collect();
    let mean = mags.iter().sum::<f64>() / mags.len() as f64;
    let var = mags.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / mags.len() as f64;
    Some(MetersPerSec2::new(var.sqrt()))
}

/// Computes the vibration level of the slice of `series` within
/// `[from, to)`, or `None` if the window holds no samples.
#[must_use]
pub fn vibration_level_in_window(
    series: &TimeSeries<AccelSample>,
    from: Seconds,
    to: Seconds,
) -> Option<MetersPerSec2> {
    vibration_level(series.window(from, to))
}

/// Streaming vibration-level estimator (Section IV-B).
///
/// Accelerometer samples are pushed as they arrive; [`Self::level`]
/// returns the Eq. (5) statistic over the trailing `0.2 * W` seconds,
/// which is all the estimator retains.
///
/// # Examples
///
/// ```
/// use ecas_sensors::vibration::VibrationEstimator;
/// use ecas_trace::sample::AccelSample;
/// use ecas_types::units::Seconds;
///
/// let mut est = VibrationEstimator::new();
/// for i in 0..500 {
///     let t = i as f64 * 0.02;
///     let wobble = (t * 30.0).sin(); // ~5 Hz shaking
///     est.push(AccelSample::new(Seconds::new(t), 0.0, 0.0, 9.81 + wobble));
/// }
/// let level = est.level().unwrap();
/// assert!((level.value() - 0.707).abs() < 0.05, "RMS of a unit sine");
/// ```
#[derive(Debug, Clone)]
pub struct VibrationEstimator {
    window: SlidingWindow,
}

impl VibrationEstimator {
    /// Creates an estimator with the paper's defaults: `W = 30 s`, so the
    /// window holds the trailing `0.2 * W = 6 s`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            window: SlidingWindow::new(Seconds::new(W_SECONDS) * WINDOW_FRACTION),
        }
    }

    /// Feeds one accelerometer sample.
    ///
    /// # Panics
    ///
    /// Panics if samples arrive out of time order.
    pub fn push(&mut self, sample: AccelSample) {
        self.window.push(sample.time, sample.magnitude());
    }

    /// The vibration level over the trailing `0.2 * W` seconds, or `None`
    /// before any sample has arrived.
    #[must_use]
    pub fn level(&self) -> Option<MetersPerSec2> {
        self.window.std().map(MetersPerSec2::new)
    }
}

impl Default for VibrationEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_trace::synth::accel::AccelTraceGenerator;
    use ecas_trace::synth::context::{Context, ContextSchedule};

    fn synth(ctx: Context, secs: f64, seed: u64) -> TimeSeries<AccelSample> {
        AccelTraceGenerator::new(ContextSchedule::constant(ctx), Seconds::new(secs), seed)
            .generate()
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(vibration_level(&[]).is_none());
        let est = VibrationEstimator::new();
        assert!(est.level().is_none());
    }

    #[test]
    fn still_phone_scores_zero_regardless_of_orientation() {
        for (x, y, z) in [(0.0, 0.0, 9.81), (9.81, 0.0, 0.0), (5.66, 5.66, 5.66)] {
            let samples: Vec<AccelSample> = (0..200)
                .map(|i| AccelSample::new(Seconds::new(i as f64 * 0.02), x, y, z))
                .collect();
            let v = vibration_level(&samples).unwrap();
            assert!(v.value() < 1e-9, "orientation ({x},{y},{z}) scored {v}");
        }
    }

    #[test]
    fn level_orders_contexts() {
        let quiet = vibration_level(synth(Context::QuietRoom, 60.0, 1).as_slice()).unwrap();
        let walk = vibration_level(synth(Context::Walking, 60.0, 1).as_slice()).unwrap();
        let bus = vibration_level(synth(Context::MovingVehicle, 60.0, 1).as_slice()).unwrap();
        assert!(quiet < walk && walk < bus, "{quiet} {walk} {bus}");
    }

    #[test]
    fn batch_matches_paper_context_ranges() {
        let bus = vibration_level(synth(Context::MovingVehicle, 120.0, 2).as_slice()).unwrap();
        // Fig. 2(c) explores vibration in the 0–7 m/s² range; a vehicle sits
        // in the upper half.
        assert!(bus.value() > 3.0 && bus.value() < 8.0, "bus level {bus}");
    }

    #[test]
    fn online_estimator_tracks_context_change() {
        // 30 s quiet, then 30 s heavy shaking; after the switch the online
        // estimate (trailing 6 s) must rise quickly.
        let schedule = ContextSchedule::new(vec![
            (Seconds::zero(), Context::QuietRoom),
            (Seconds::new(30.0), Context::MovingVehicle),
        ])
        .unwrap();
        let series = AccelTraceGenerator::new(schedule, Seconds::new(60.0), 3).generate();
        let mut est = VibrationEstimator::new();
        let mut at_25 = None;
        let mut at_45 = None;
        for s in series.iter() {
            est.push(*s);
            if s.time.value() >= 25.0 && at_25.is_none() {
                at_25 = est.level();
            }
            if s.time.value() >= 45.0 && at_45.is_none() {
                at_45 = est.level();
            }
        }
        let quiet_level = at_25.unwrap().value();
        let bus_level = at_45.unwrap().value();
        assert!(
            bus_level > 4.0 * quiet_level,
            "online estimate failed to track: quiet {quiet_level}, bus {bus_level}"
        );
    }

    #[test]
    fn windowed_batch_equals_manual_slice() {
        let series = synth(Context::Walking, 30.0, 4);
        let from = Seconds::new(10.0);
        let to = Seconds::new(20.0);
        let a = vibration_level_in_window(&series, from, to).unwrap();
        let b = vibration_level(series.window(from, to)).unwrap();
        assert_eq!(a, b);
    }
}
