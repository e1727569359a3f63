//! Context (activity) classification from accelerometer data.
//!
//! The paper parameterizes QoE directly by the scalar vibration level, but
//! a deployed system also wants to *name* the context (quiet room /
//! walking / moving vehicle) — e.g. to gate policies or annotate sessions.
//! This module provides a light-weight classifier over the same
//! magnitude-RMS feature as Eq. (5), refined with a gait-periodicity check:
//!
//! * near-zero vibration → [`Context::QuietRoom`];
//! * moderate vibration **with a ~2 Hz periodic component** (the human
//!   step frequency) → [`Context::Walking`];
//! * heavy or aperiodic vibration → [`Context::MovingVehicle`].

use ecas_trace::sample::AccelSample;
use ecas_trace::synth::context::Context;
use ecas_types::units::{MetersPerSec2, Seconds};

use crate::vibration::vibration_level;

/// Decision thresholds of the classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ClassifierConfig {
    /// Below this vibration level everything is a quiet room (m/s²).
    pub quiet_below: f64,
    /// Above this vibration level everything is a vehicle (m/s²).
    pub vehicle_above: f64,
    /// Minimum normalized autocorrelation peak for gait detection.
    pub gait_threshold: f64,
    /// Gait period search range in seconds (human steps: ~1.4–2.5 Hz).
    pub gait_period: (f64, f64),
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self {
            quiet_below: 0.8,
            vehicle_above: 3.5,
            gait_threshold: 0.25,
            gait_period: (0.4, 0.7),
        }
    }
}

/// Classifies watching context from a window of accelerometer samples,
/// or `None` when the window is empty.
fn classify_with(samples: &[AccelSample], config: &ClassifierConfig) -> Option<Context> {
    let level = vibration_level(samples)?;
    Some(decide(level, samples, config))
}

fn decide(level: MetersPerSec2, samples: &[AccelSample], config: &ClassifierConfig) -> Context {
    let v = level.value();
    if v < config.quiet_below {
        return Context::QuietRoom;
    }
    if v > config.vehicle_above {
        return Context::MovingVehicle;
    }
    // Mid-range vibration: check for gait periodicity.
    if gait_score(samples, config) >= config.gait_threshold {
        Context::Walking
    } else {
        Context::MovingVehicle
    }
}

/// Peak normalized autocorrelation of the magnitude signal over the gait
/// period range. Zero for too-short or constant inputs.
#[must_use]
pub(crate) fn gait_score(samples: &[AccelSample], config: &ClassifierConfig) -> f64 {
    if samples.len() < 16 {
        return 0.0;
    }
    let mags: Vec<f64> = samples.iter().map(AccelSample::magnitude).collect();
    let n = mags.len();
    let mean = mags.iter().sum::<f64>() / n as f64;
    let centered: Vec<f64> = mags.iter().map(|m| m - mean).collect();
    let var: f64 = centered.iter().map(|x| x * x).sum::<f64>() / n as f64;
    if var < 1e-12 {
        return 0.0;
    }
    // Estimate the sample interval from the window span.
    let span = samples[n - 1].time.value() - samples[0].time.value();
    if span <= 0.0 {
        return 0.0;
    }
    let dt = span / (n - 1) as f64;
    let lag_min = (config.gait_period.0 / dt).round() as usize;
    let lag_max = ((config.gait_period.1 / dt).round() as usize).min(n / 2);
    if lag_min == 0 || lag_min >= lag_max {
        return 0.0;
    }
    let mut best = 0.0f64;
    for lag in lag_min..=lag_max {
        let mut acc = 0.0;
        for i in 0..n - lag {
            acc += centered[i] * centered[i + lag];
        }
        let r = acc / ((n - lag) as f64 * var);
        best = best.max(r);
    }
    best
}

/// Streaming classifier over a sliding window.
#[derive(Debug, Clone)]
pub struct ActivityClassifier {
    config: ClassifierConfig,
    window: Seconds,
    samples: Vec<AccelSample>,
    /// Debounce state: a raw context must persist this long before
    /// [`Self::stable_context`] adopts it.
    confirm_span: Seconds,
    candidate: Option<(Context, Seconds)>,
    confirmed: Option<Context>,
}

impl ActivityClassifier {
    /// Creates a classifier over a 6-second window (matching the online
    /// vibration estimation span of Section IV-B).
    #[must_use]
    pub fn new() -> Self {
        Self {
            config: ClassifierConfig::default(),
            window: Seconds::new(6.0),
            samples: Vec::new(),
            confirm_span: Seconds::new(3.0),
            candidate: None,
            confirmed: None,
        }
    }

    /// Feeds one sample, evicting those older than the window.
    ///
    /// # Panics
    ///
    /// Panics if samples arrive out of time order.
    pub fn push(&mut self, sample: AccelSample) {
        if let Some(last) = self.samples.last() {
            assert!(
                sample.time >= last.time,
                "classifier samples must arrive in time order"
            );
        }
        self.samples.push(sample);
        let cutoff = sample.time.saturating_sub(self.window);
        let keep_from = self.samples.partition_point(|s| s.time < cutoff);
        self.samples.drain(..keep_from);

        // Debounce: adopt a raw context once it has persisted.
        if let Some(raw) = self.context() {
            match self.candidate {
                Some((ctx, since)) if ctx == raw => {
                    if sample.time.saturating_sub(since) >= self.confirm_span {
                        self.confirmed = Some(ctx);
                    }
                }
                _ => self.candidate = Some((raw, sample.time)),
            }
            if self.confirmed.is_none() {
                // Before anything persists long enough, report the raw
                // estimate so early consumers are not left blind.
                self.confirmed = Some(raw);
            }
        }
    }

    /// The debounced context: the last classification that persisted for
    /// the confirm span (raw estimate before anything persisted), or
    /// `None` before any sample.
    #[must_use]
    pub fn stable_context(&self) -> Option<Context> {
        self.confirmed
    }

    /// The current context estimate, or `None` before any sample.
    #[must_use]
    pub fn context(&self) -> Option<Context> {
        classify_with(&self.samples, &self.config)
    }
}

impl Default for ActivityClassifier {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use ecas_trace::synth::accel::AccelTraceGenerator;
    use ecas_trace::synth::context::ContextSchedule;

    fn classify(samples: &[AccelSample]) -> Option<Context> {
        classify_with(samples, &ClassifierConfig::default())
    }

    fn synth(ctx: Context, secs: f64, seed: u64) -> Vec<AccelSample> {
        AccelTraceGenerator::new(ContextSchedule::constant(ctx), Seconds::new(secs), seed)
            .generate()
            .into_inner()
    }

    #[test]
    fn classifies_all_three_synthetic_contexts() {
        for ctx in Context::all() {
            let mut hits = 0;
            for seed in 0..5 {
                let samples = synth(ctx, 20.0, seed);
                if classify(&samples) == Some(ctx) {
                    hits += 1;
                }
            }
            assert!(hits >= 4, "context {ctx} recognized only {hits}/5 times");
        }
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(classify(&[]).is_none());
        assert!(ActivityClassifier::new().context().is_none());
    }

    #[test]
    fn still_sensor_is_quiet_room() {
        let samples: Vec<AccelSample> = (0..200)
            .map(|i| AccelSample::new(Seconds::new(i as f64 * 0.02), 0.0, 0.0, 9.81))
            .collect();
        assert_eq!(classify(&samples), Some(Context::QuietRoom));
    }

    #[test]
    fn pure_gait_signal_is_walking() {
        // 2 Hz sinusoid with moderate amplitude: unmistakably gait.
        let samples: Vec<AccelSample> = (0..500)
            .map(|i| {
                let t = i as f64 * 0.02;
                let gait = 2.0 * (2.0 * std::f64::consts::PI * 2.0 * t).sin();
                AccelSample::new(Seconds::new(t), 0.0, 0.0, 9.81 + gait)
            })
            .collect();
        assert_eq!(classify(&samples), Some(Context::Walking));
        assert!(gait_score(&samples, &ClassifierConfig::default()) > 0.8);
    }

    #[test]
    fn aperiodic_heavy_vibration_is_vehicle() {
        let samples = synth(Context::MovingVehicle, 30.0, 9);
        assert_eq!(classify(&samples), Some(Context::MovingVehicle));
        // Vehicle noise has no strong 2 Hz component.
        assert!(gait_score(&samples, &ClassifierConfig::default()) < 0.5);
    }

    #[test]
    fn streaming_classifier_tracks_context_change() {
        let schedule = ContextSchedule::new(vec![
            (Seconds::zero(), Context::QuietRoom),
            (Seconds::new(30.0), Context::MovingVehicle),
        ])
        .unwrap();
        let series = AccelTraceGenerator::new(schedule, Seconds::new(60.0), 4).generate();
        let mut clf = ActivityClassifier::new();
        let mut at_20 = None;
        let mut at_50 = None;
        for s in series.iter() {
            clf.push(*s);
            if s.time.value() >= 20.0 && at_20.is_none() {
                at_20 = clf.context();
            }
            if s.time.value() >= 50.0 && at_50.is_none() {
                at_50 = clf.context();
            }
        }
        assert_eq!(at_20, Some(Context::QuietRoom));
        assert_eq!(at_50, Some(Context::MovingVehicle));
    }

    #[test]
    fn gait_score_zero_for_degenerate_inputs() {
        let config = ClassifierConfig::default();
        assert_eq!(gait_score(&[], &config), 0.0);
        let constant: Vec<AccelSample> = (0..100)
            .map(|i| AccelSample::new(Seconds::new(i as f64 * 0.02), 0.0, 0.0, 9.81))
            .collect();
        assert_eq!(gait_score(&constant, &config), 0.0);
    }
}

#[cfg(test)]
mod debounce_tests {
    use super::*;
    use ecas_trace::synth::accel::AccelTraceGenerator;
    use ecas_trace::synth::context::ContextSchedule;

    #[test]
    fn stable_context_does_not_flap_at_boundaries() {
        let schedule = ContextSchedule::new(vec![
            (Seconds::zero(), Context::Walking),
            (Seconds::new(30.0), Context::MovingVehicle),
        ])
        .unwrap();
        let series = AccelTraceGenerator::new(schedule, Seconds::new(60.0), 8).generate();
        let mut clf = ActivityClassifier::new();
        let mut transitions = 0;
        let mut last = None;
        for s in series.iter() {
            clf.push(*s);
            let ctx = clf.stable_context();
            if ctx != last && s.time.value() > 6.0 {
                transitions += 1;
                last = ctx;
            }
        }
        // One real transition (walking -> vehicle) plus at most one
        // initial adoption; raw context would flap many times.
        assert!(
            transitions <= 3,
            "stable context flapped {transitions} times"
        );
    }

    #[test]
    fn stable_context_eventually_adopts_new_context() {
        let schedule = ContextSchedule::new(vec![
            (Seconds::zero(), Context::QuietRoom),
            (Seconds::new(20.0), Context::MovingVehicle),
        ])
        .unwrap();
        let series = AccelTraceGenerator::new(schedule, Seconds::new(40.0), 9).generate();
        let mut clf = ActivityClassifier::new();
        for s in series.iter() {
            clf.push(*s);
        }
        assert_eq!(clf.stable_context(), Some(Context::MovingVehicle));
    }
}
