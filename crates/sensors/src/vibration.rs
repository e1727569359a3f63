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

use std::collections::VecDeque;

use ecas_trace::sample::AccelSample;
use ecas_trace::series::TimeSeries;
use ecas_types::units::{MetersPerSec2, Seconds};

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
    let mags: Vec<f64> = samples.iter().map(AccelSample::magnitude).collect();
    magnitude_std(mags.iter().copied())
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

/// Population standard deviation of `mags`, summed front to back: the one
/// Eq. (5) arithmetic the batch and online forms share, so both give the
/// same bits over the same samples. `None` when `mags` is empty.
fn magnitude_std<I>(mags: I) -> Option<MetersPerSec2>
where
    I: ExactSizeIterator<Item = f64> + Clone,
{
    if mags.len() == 0 {
        return None;
    }
    let n = mags.len() as f64;
    let mean = mags.clone().sum::<f64>() / n;
    let var = mags.map(|m| (m - mean).powi(2)).sum::<f64>() / n;
    Some(MetersPerSec2::new(var.sqrt()))
}

/// Online vibration-level estimator over one accelerometer channel
/// (Section IV-B).
///
/// The estimator borrows the channel's samples and reads them forward:
/// [`Self::level_at`] takes in every sample up to `now`, evicts those
/// older than `0.2 * W` before the newest one read, and returns Eq. (5)
/// over the rest. It holds the magnitudes of exactly those windowed
/// samples and copies nothing else.
///
/// # Examples
///
/// ```
/// use ecas_sensors::vibration::VibrationEstimator;
/// use ecas_trace::sample::AccelSample;
/// use ecas_types::units::Seconds;
///
/// let samples: Vec<AccelSample> = (0..500)
///     .map(|i| {
///         let t = i as f64 * 0.02;
///         let wobble = (t * 30.0).sin(); // ~5 Hz shaking
///         AccelSample::new(Seconds::new(t), 0.0, 0.0, 9.81 + wobble)
///     })
///     .collect();
/// let mut est = VibrationEstimator::new(&samples);
/// assert!(est.level_at(Seconds::zero()).is_some(), "the sample at t = 0");
/// let level = est.level_at(Seconds::new(10.0)).unwrap();
/// assert!((level.value() - 0.707).abs() < 0.05, "RMS of a unit sine");
/// ```
#[derive(Debug, Clone)]
pub struct VibrationEstimator<'a> {
    samples: &'a [AccelSample],
    /// The window span, `0.2 * W`.
    span: Seconds,
    /// Index of the oldest sample in the window.
    start: usize,
    /// Index one past the newest sample read.
    end: usize,
    /// Magnitudes of `samples[start..end]`, oldest first.
    window: VecDeque<f64>,
}

impl<'a> VibrationEstimator<'a> {
    /// Creates an estimator over `samples` (in time order, as a
    /// [`TimeSeries`] keeps them) with the paper's `W = 30 s`, so the
    /// window spans the trailing `0.2 * W = 6 s`.
    #[must_use]
    pub fn new(samples: &'a [AccelSample]) -> Self {
        let span = Seconds::new(W_SECONDS) * WINDOW_FRACTION;
        // Sized to the first window's samples, so a channel sampled at a
        // steady rate never grows the ring.
        let capacity = samples.first().map_or(0, |first| {
            samples.partition_point(|s| s.time <= first.time + span)
        });
        Self {
            samples,
            span,
            start: 0,
            end: 0,
            window: VecDeque::with_capacity(capacity),
        }
    }

    /// The vibration level over the trailing `0.2 * W` seconds of the
    /// samples taken at or before `now`, or `None` while there are none.
    ///
    /// The estimator only reads forward: a `now` earlier than a previous
    /// call's reads nothing new and returns the level over the samples
    /// already read.
    pub fn level_at(&mut self, now: Seconds) -> Option<MetersPerSec2> {
        let samples = self.samples;
        let end = self.end + samples[self.end..].partition_point(|s| s.time <= now);
        let newest = samples[..end].last()?;
        let cutoff = newest.time.saturating_sub(self.span);
        let start = self.start + samples[self.start..end].partition_point(|s| s.time < cutoff);
        self.window.drain(..start.min(self.end) - self.start);
        self.window.extend(
            samples[start.max(self.end)..end]
                .iter()
                .map(AccelSample::magnitude),
        );
        self.start = start;
        self.end = end;
        magnitude_std(self.window.iter().copied())
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
        let mut est = VibrationEstimator::new(&[]);
        assert!(est.level_at(Seconds::new(1.0)).is_none());
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
        let mut est = VibrationEstimator::new(series.as_slice());
        let quiet_level = est.level_at(Seconds::new(25.0)).unwrap().value();
        let bus_level = est.level_at(Seconds::new(45.0)).unwrap().value();
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
