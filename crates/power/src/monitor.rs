//! A synthetic Monsoon power monitor.
//!
//! The paper validates its power models against a Monsoon monitor sampling
//! the phone's battery rail. We reproduce the validation loop with a
//! synthetic stand-in: a piecewise-constant *ground-truth* power profile
//! (with small real-world effects the analytic model ignores — ramp-ups,
//! per-burst efficiency jitter, background CPU spikes) is sampled at high
//! rate with measurement noise and integrated, yielding the "measured"
//! energy that Table VI compares against the model's "calculated" energy.

use ecas_obs::{names, Probe, SpanGuard};
use ecas_trace::sample::PowerSample;
use ecas_trace::series::TimeSeries;
use ecas_trace::synth::standard_normal;
use ecas_types::units::{Joules, Seconds, Watts};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

/// A piecewise-constant power profile: `(start, end, watts)` intervals.
///
/// Intervals may overlap; the instantaneous power is the sum of all active
/// intervals (screen + decode + radio compose additively).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct PowerProfile {
    intervals: Vec<(Seconds, Seconds, Watts)>,
}

impl PowerProfile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constant-power interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn add(&mut self, start: Seconds, end: Seconds, power: Watts) {
        assert!(end >= start, "interval end before start");
        if end > start && !power.is_zero() {
            self.intervals.push((start, end, power));
        }
    }

    /// Instantaneous power at time `t` (sum of active intervals).
    #[must_use]
    pub fn power_at(&self, t: Seconds) -> Watts {
        let mut total = 0.0;
        for &(s, e, p) in &self.intervals {
            if t >= s && t < e {
                total += p.value();
            }
        }
        Watts::new(total)
    }

    /// Exact energy of the profile (sum of interval areas).
    #[must_use]
    pub fn exact_energy(&self) -> Joules {
        let mut total = 0.0;
        for &(s, e, p) in &self.intervals {
            total += p.value() * (e.value() - s.value());
        }
        Joules::new(total)
    }

    /// End of the latest interval (zero for an empty profile).
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.intervals
            .iter()
            .map(|&(_, e, _)| e)
            .fold(Seconds::zero(), Seconds::max)
    }

    /// Number of intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the profile has no intervals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

/// The synthetic power monitor.
///
/// # Examples
///
/// ```
/// use ecas_power::monitor::{PowerMonitor, PowerProfile};
/// use ecas_types::units::{Seconds, Watts};
///
/// let mut profile = PowerProfile::new();
/// profile.add(Seconds::new(0.0), Seconds::new(10.0), Watts::new(2.0));
/// let monitor = PowerMonitor::new(1000.0, 0.01, 7);
/// let trace = monitor.measure(&profile);
/// let measured = trace.integrate_energy().value();
/// assert!((measured - 20.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PowerMonitor {
    sample_rate_hz: f64,
    noise_std: f64,
    seed: u64,
}

impl PowerMonitor {
    /// Creates a monitor sampling at `sample_rate_hz` with Gaussian
    /// measurement noise of `noise_std` watts.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate_hz` is not positive or `noise_std` is
    /// negative.
    #[must_use]
    pub fn new(sample_rate_hz: f64, noise_std: f64, seed: u64) -> Self {
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        assert!(noise_std >= 0.0, "noise std must be non-negative");
        Self {
            sample_rate_hz,
            noise_std,
            seed,
        }
    }

    /// Samples the profile over its whole duration. Deterministic per
    /// seed.
    #[must_use]
    pub fn measure(&self, profile: &PowerProfile) -> TimeSeries<PowerSample> {
        self.measure_with_probe(profile, &ecas_obs::NULL_PROBE)
    }

    /// Like [`Self::measure`] but instrumented: the sampling sweep is
    /// timed under a `power/measure` span and the measured/exact energies
    /// land in `power/measured_j` / `power/exact_j` gauges, mirroring the
    /// paper's Table VI "measured vs calculated" comparison.
    #[must_use]
    pub fn measure_with_probe(
        &self,
        profile: &PowerProfile,
        probe: &dyn Probe,
    ) -> TimeSeries<PowerSample> {
        let span = SpanGuard::new(probe, names::POWER_MEASURE_SPAN);
        let trace = self.sample(profile);
        drop(span);
        if probe.metrics_enabled() {
            probe.add(names::POWER_MEASUREMENTS, 1);
            probe.gauge(names::POWER_MEASURED_J, trace.integrate_energy().value());
            probe.gauge(names::POWER_EXACT_J, profile.exact_energy().value());
        }
        trace
    }

    fn sample(&self, profile: &PowerProfile) -> TimeSeries<PowerSample> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let dt = 1.0 / self.sample_rate_hz;
        let steps = (profile.duration().value() * self.sample_rate_hz).ceil() as usize + 1;
        let mut samples = Vec::with_capacity(steps);
        for k in 0..steps {
            let t = Seconds::new(k as f64 * dt);
            let truth = profile.power_at(t).value();
            let noise = self.noise_std * standard_normal(&mut rng);
            samples.push(PowerSample::new(t, Watts::new((truth + noise).max(0.0))));
        }
        // ecas-lint: allow(panic-safety, reason = "samples are pushed on a strictly increasing uniform grid")
        TimeSeries::new(samples).expect("uniform grid is ordered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_energy_is_sum_of_areas() {
        let mut p = PowerProfile::new();
        p.add(Seconds::new(0.0), Seconds::new(10.0), Watts::new(1.5));
        p.add(Seconds::new(2.0), Seconds::new(4.0), Watts::new(2.0));
        assert!((p.exact_energy().value() - 19.0).abs() < 1e-12);
        assert_eq!(p.duration(), Seconds::new(10.0));
    }

    #[test]
    fn overlapping_intervals_compose_additively() {
        let mut p = PowerProfile::new();
        p.add(Seconds::new(0.0), Seconds::new(10.0), Watts::new(1.0));
        p.add(Seconds::new(5.0), Seconds::new(10.0), Watts::new(0.5));
        assert_eq!(p.power_at(Seconds::new(2.0)), Watts::new(1.0));
        assert_eq!(p.power_at(Seconds::new(7.0)), Watts::new(1.5));
        assert_eq!(p.power_at(Seconds::new(10.0)), Watts::zero());
    }

    #[test]
    fn measurement_integrates_close_to_truth() {
        let mut p = PowerProfile::new();
        p.add(Seconds::new(0.0), Seconds::new(60.0), Watts::new(2.0));
        p.add(Seconds::new(10.0), Seconds::new(20.0), Watts::new(1.0));
        let monitor = PowerMonitor::new(500.0, 0.02, 3);
        let measured = monitor.measure(&p).integrate_energy().value();
        let truth = p.exact_energy().value();
        assert!(
            (measured - truth).abs() / truth < 0.01,
            "measured {measured}, truth {truth}"
        );
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let mut p = PowerProfile::new();
        p.add(Seconds::new(0.0), Seconds::new(5.0), Watts::new(1.0));
        let a = PowerMonitor::new(200.0, 0.05, 9).measure(&p);
        let b = PowerMonitor::new(200.0, 0.05, 9).measure(&p);
        assert_eq!(a, b);
        let c = PowerMonitor::new(200.0, 0.05, 10).measure(&p);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_noise_recovers_exact_constant() {
        let mut p = PowerProfile::new();
        p.add(Seconds::new(0.0), Seconds::new(10.0), Watts::new(3.0));
        let trace = PowerMonitor::new(100.0, 0.0, 1).measure(&p);
        for s in trace.iter().take(1000) {
            if s.time < Seconds::new(10.0) {
                assert_eq!(s.power, Watts::new(3.0));
            }
        }
    }

    #[test]
    fn probed_measurement_records_energy_gauges() {
        let mut p = PowerProfile::new();
        p.add(Seconds::new(0.0), Seconds::new(10.0), Watts::new(2.0));
        let monitor = PowerMonitor::new(500.0, 0.01, 5);
        let recorder = ecas_obs::MemoryRecorder::new();
        let trace = monitor.measure_with_probe(&p, &recorder);
        assert_eq!(
            trace,
            monitor.measure(&p),
            "probe must not perturb sampling"
        );
        let snap = recorder.metrics().snapshot();
        assert_eq!(snap.counter("power/measurements"), Some(1));
        assert_eq!(snap.span("power/measure").unwrap().count, 1);
        assert!((snap.gauge("power/exact_j").unwrap() - 20.0).abs() < 1e-12);
        assert!((snap.gauge("power/measured_j").unwrap() - 20.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "interval end before start")]
    fn rejects_inverted_interval() {
        let mut p = PowerProfile::new();
        p.add(Seconds::new(5.0), Seconds::new(1.0), Watts::new(1.0));
    }
}
