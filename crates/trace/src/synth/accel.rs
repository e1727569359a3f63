//! Accelerometer synthesis with controllable vibration level.
//!
//! The quantity the paper extracts from the accelerometer is the vibration
//! level of Eq. (5) — an RMS statistic of the gravity-removed acceleration
//! magnitude over a window. We therefore synthesize the *magnitude
//! fluctuation* process directly (AR(1)-colored noise with a per-context
//! RMS target, plus occasional road-bump bursts) and distribute it over the
//! three axes with a slowly wobbling orientation, so that:
//!
//! * the gravity component is present (as in a raw sensor),
//! * the windowed magnitude-RMS recovers the configured vibration level,
//! * walking contexts show the ~2 Hz step periodicity of real gait traces.

use ecas_types::units::{MetersPerSec2, Seconds};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sample::AccelSample;
use crate::series::TimeSeries;
use crate::synth::context::{Context, ContextSchedule};
use crate::synth::standard_normal;

/// Standard gravity (m/s²).
pub(crate) const GRAVITY: f64 = 9.80665;

/// Sampling rate of every generated trace (Hz).
const SAMPLE_RATE_HZ: f64 = 50.0;

/// Intensity scale applied when no session-average target is set.
const VIBRATION_SCALE: f64 = 1.0;

/// Generates a synthetic 3-axis accelerometer trace.
///
/// # Examples
///
/// ```
/// use ecas_trace::synth::accel::AccelTraceGenerator;
/// use ecas_trace::synth::context::{Context, ContextSchedule};
/// use ecas_types::units::Seconds;
///
/// let accel = AccelTraceGenerator::new(
///     ContextSchedule::constant(Context::QuietRoom),
///     Seconds::new(10.0),
///     7,
/// )
/// .generate();
/// // 50 Hz sampling covers the requested duration.
/// assert!(accel.len() >= 500);
/// ```
#[derive(Debug, Clone)]
pub struct AccelTraceGenerator {
    schedule: ContextSchedule,
    duration: Seconds,
    seed: u64,
    vibration_target: Option<MetersPerSec2>,
}

impl AccelTraceGenerator {
    /// Creates a generator covering `[0, duration]` at 50 Hz.
    #[must_use]
    pub fn new(schedule: ContextSchedule, duration: Seconds, seed: u64) -> Self {
        Self {
            schedule,
            duration,
            seed,
            vibration_target: None,
        }
    }

    /// Rescales intensities so the *session-average* vibration level lands
    /// on `target` (given the schedule's context occupancy).
    #[must_use]
    pub fn vibration_target(mut self, target: MetersPerSec2) -> Self {
        self.vibration_target = Some(target);
        self
    }

    fn effective_scale(&self) -> f64 {
        match self.vibration_target {
            None => VIBRATION_SCALE,
            Some(target) => {
                let occ = self.schedule.occupancy(self.duration);
                // Session-average RMS is the RMS of per-context RMS values
                // weighted by occupancy (variances add over time).
                let mean_sq = occ[0] * Context::QuietRoom.typical_vibration().value().powi(2)
                    + occ[1] * Context::Walking.typical_vibration().value().powi(2)
                    + occ[2] * Context::MovingVehicle.typical_vibration().value().powi(2);
                let base = mean_sq.sqrt();
                if base <= f64::EPSILON {
                    VIBRATION_SCALE
                } else {
                    target.value() / base
                }
            }
        }
    }

    /// Generates the accelerometer trace. Deterministic for a given seed.
    #[must_use]
    pub fn generate(&self) -> TimeSeries<AccelSample> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let dt = 1.0 / SAMPLE_RATE_HZ;
        let steps = (self.duration.value() * SAMPLE_RATE_HZ).ceil() as usize + 1;
        let scale = self.effective_scale();

        // AR(1) colored noise for the magnitude fluctuation. With
        // innovation std sigma_e and coefficient rho, the stationary std is
        // sigma_e / sqrt(1 - rho^2); we invert that to hit the target RMS.
        let rho: f64 = 0.9;
        let innovation_gain = (1.0 - rho * rho).sqrt();
        let mut fluct = 0.0;
        // Bump burst state: amplitude decays exponentially after each hit.
        let mut bump = 0.0;
        // Slow orientation wobble.
        let mut tilt: f64 = 0.0;

        let mut samples = Vec::with_capacity(steps);
        for step in 0..steps {
            let t = step as f64 * dt;
            let context = self.schedule.context_at(Seconds::new(t));
            let target_rms = context.typical_vibration().value() * scale;

            // Walking is dominated by the ~2 Hz step periodicity (as in
            // real gait traces); the sinusoid carries ~70% of the variance
            // and broadband noise the rest, keeping the total RMS on
            // target: (1.2·T)²/2 + (0.55·T)² ≈ T².
            let (noise_rms, gait) = if context == Context::Walking {
                (
                    0.55 * target_rms,
                    1.2 * target_rms * (2.0 * std::f64::consts::PI * 2.0 * t).sin(),
                )
            } else {
                (target_rms, 0.0)
            };
            fluct = rho * fluct + innovation_gain * noise_rms * standard_normal(&mut rng);

            // Road bumps on a vehicle: rare impulsive events.
            if context == Context::MovingVehicle && rng.gen::<f64>() < 0.3 * dt {
                bump += 2.0 * target_rms;
            }
            bump *= (-dt / 0.15f64).exp();

            let magnitude = (GRAVITY + fluct + gait + bump).max(0.0);

            // Distribute the magnitude over axes with a slow wobble so the
            // axes look like a hand-held phone rather than a fixed rig.
            tilt += 0.02 * dt * standard_normal(&mut rng);
            tilt = tilt.clamp(-0.3, 0.3);
            let x = magnitude * tilt.sin() * 0.6;
            let y = magnitude * tilt.sin() * 0.8;
            let z = (magnitude * magnitude - x * x - y * y).max(0.0).sqrt();

            samples.push(AccelSample::new(Seconds::new(t), x, y, z));
        }

        // ecas-lint: allow(panic-safety, reason = "samples are generated on a strictly increasing time grid")
        TimeSeries::new(samples).expect("generated accel samples are ordered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn magnitude_std(series: &TimeSeries<AccelSample>) -> f64 {
        let mags: Vec<f64> = series.iter().map(|s| s.magnitude()).collect();
        let mean = mags.iter().sum::<f64>() / mags.len() as f64;
        (mags.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / mags.len() as f64).sqrt()
    }

    fn gen(ctx: Context, seed: u64, secs: f64) -> TimeSeries<AccelSample> {
        AccelTraceGenerator::new(ContextSchedule::constant(ctx), Seconds::new(secs), seed)
            .generate()
    }

    #[test]
    fn quiet_room_vibration_near_typical() {
        let s = gen(Context::QuietRoom, 1, 60.0);
        let rms = magnitude_std(&s);
        let target = Context::QuietRoom.typical_vibration().value();
        assert!((rms - target).abs() / target < 0.3, "rms {rms} vs {target}");
    }

    #[test]
    fn vehicle_vibration_near_typical() {
        let s = gen(Context::MovingVehicle, 2, 120.0);
        let rms = magnitude_std(&s);
        let target = Context::MovingVehicle.typical_vibration().value();
        assert!(
            (rms - target).abs() / target < 0.35,
            "rms {rms} vs {target}"
        );
    }

    #[test]
    fn vibration_ordering_across_contexts() {
        let quiet = magnitude_std(&gen(Context::QuietRoom, 3, 60.0));
        let walk = magnitude_std(&gen(Context::Walking, 3, 60.0));
        let bus = magnitude_std(&gen(Context::MovingVehicle, 3, 60.0));
        assert!(quiet < walk && walk < bus, "{quiet} {walk} {bus}");
    }

    #[test]
    fn vibration_target_rescales() {
        let target = MetersPerSec2::new(3.0);
        let s = AccelTraceGenerator::new(
            ContextSchedule::constant(Context::MovingVehicle),
            Seconds::new(120.0),
            4,
        )
        .vibration_target(target)
        .generate();
        let rms = magnitude_std(&s);
        assert!(
            (rms - 3.0).abs() / 3.0 < 0.3,
            "rms {rms} should be near target 3.0"
        );
    }

    #[test]
    fn gravity_dominates_mean_magnitude() {
        let s = gen(Context::QuietRoom, 5, 30.0);
        let mean: f64 = s.iter().map(|x| x.magnitude()).sum::<f64>() / s.len() as f64;
        assert!((mean - GRAVITY).abs() < 0.5, "mean magnitude {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            gen(Context::Walking, 9, 20.0),
            gen(Context::Walking, 9, 20.0)
        );
        assert_ne!(
            gen(Context::Walking, 9, 20.0),
            gen(Context::Walking, 10, 20.0)
        );
    }
}
