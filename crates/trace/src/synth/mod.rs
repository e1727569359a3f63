//! Synthetic trace generation.
//!
//! The paper's traces were collected on an instrumented phone; this module
//! regenerates statistically equivalent traces (see `DESIGN.md` for the
//! substitution argument). Generation is fully deterministic given a seed.
//!
//! * [`context`] — contexts (quiet room / walking / moving vehicle) and
//!   time-schedules of context changes;
//! * [`link`] — joint throughput + signal-strength generation with a
//!   regime-switching Markov model;
//! * [`accel`] — accelerometer synthesis with controllable vibration level;
//! * [`SessionGenerator`] — bundles all channels into a
//!   [`crate::session::SessionTrace`].

pub mod accel;
pub mod context;
pub mod link;

use ecas_types::units::{MegaBytes, MetersPerSec2, Seconds};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::session::{SessionTrace, TraceMeta};
use crate::synth::accel::AccelTraceGenerator;
use crate::synth::context::ContextSchedule;
use crate::synth::link::LinkTraceGenerator;

/// Draws a standard normal variate via the Box–Muller transform.
///
/// `rand` 0.8 ships only uniform distributions by default; rather than pull
/// in `rand_distr` for two lines of math we implement Box–Muller here. The
/// trace generators, the simulated QoE study and the power monitor all
/// draw their Gaussian noise through this one function.
pub fn standard_normal(rng: &mut SmallRng) -> f64 {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates complete synthetic streaming-session traces.
///
/// # Examples
///
/// ```
/// use ecas_trace::synth::SessionGenerator;
/// use ecas_trace::synth::context::{Context, ContextSchedule};
/// use ecas_types::units::Seconds;
///
/// let session = SessionGenerator::new(
///     "bus-ride",
///     ContextSchedule::constant(Context::MovingVehicle),
///     Seconds::new(120.0),
///     42,
/// )
/// .generate();
/// assert_eq!(session.meta().name, "bus-ride");
/// assert!(session.network().duration().value() >= 120.0);
/// ```
#[derive(Debug, Clone)]
pub struct SessionGenerator {
    name: String,
    schedule: ContextSchedule,
    duration: Seconds,
    seed: u64,
    vibration_target: Option<MetersPerSec2>,
    data_size: Option<MegaBytes>,
    description: String,
}

impl SessionGenerator {
    /// Creates a generator for a session of `duration` under `schedule`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        schedule: ContextSchedule,
        duration: Seconds,
        seed: u64,
    ) -> Self {
        Self {
            name: name.into(),
            schedule,
            duration,
            seed,
            vibration_target: None,
            data_size: None,
            description: String::new(),
        }
    }

    /// Scales accelerometer noise so the session-average vibration level
    /// approximates `target` (used to hit the Table V column).
    #[must_use]
    pub fn vibration_target(mut self, target: MetersPerSec2) -> Self {
        self.vibration_target = Some(target);
        self
    }

    /// Records the original download size in the metadata (Table V column).
    #[must_use]
    pub fn data_size(mut self, size: MegaBytes) -> Self {
        self.data_size = Some(size);
        self
    }

    /// Sets a free-form context description in the metadata.
    #[must_use]
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Generates the session trace. Deterministic for a given seed.
    #[must_use]
    pub fn generate(&self) -> SessionTrace {
        // Derive independent sub-seeds so channels do not share RNG streams.
        let mut seeder = SmallRng::seed_from_u64(self.seed);
        let link_seed: u64 = seeder.gen();
        let accel_seed: u64 = seeder.gen();

        let (network, signal) =
            LinkTraceGenerator::new(self.schedule.clone(), self.duration, link_seed).generate();

        let mut accel_gen =
            AccelTraceGenerator::new(self.schedule.clone(), self.duration, accel_seed);
        if let Some(target) = self.vibration_target {
            accel_gen = accel_gen.vibration_target(target);
        }
        let accel = accel_gen.generate();

        // Session-average vibration: std of the magnitude channel.
        let mags: Vec<f64> = accel.iter().map(|s| s.magnitude()).collect();
        let mean = mags.iter().sum::<f64>() / mags.len() as f64;
        let var = mags.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / mags.len() as f64;
        let avg_vibration = MetersPerSec2::new(var.sqrt());

        let data_size = self.data_size.unwrap_or_else(|| {
            // Rough size of the original session assuming the mean
            // throughput was consumed for a third of the playback time.
            network.mean_throughput().data_over(self.duration) / 3.0
        });

        let meta = TraceMeta {
            name: self.name.clone(),
            video_length: self.duration,
            data_size,
            avg_vibration,
            description: self.description.clone(),
            seed: Some(self.seed),
        };

        // ecas-lint: allow(panic-safety, reason = "the synthesizers above always produce non-empty channels")
        SessionTrace::new(meta, network, signal, accel).expect("generated channels are non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::context::Context;

    #[test]
    fn generation_is_deterministic() {
        let make = || {
            SessionGenerator::new(
                "d",
                ContextSchedule::constant(Context::Walking),
                Seconds::new(30.0),
                7,
            )
            .generate()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SessionGenerator::new(
            "a",
            ContextSchedule::constant(Context::Walking),
            Seconds::new(30.0),
            1,
        )
        .generate();
        let b = SessionGenerator::new(
            "a",
            ContextSchedule::constant(Context::Walking),
            Seconds::new(30.0),
            2,
        )
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn vibration_target_is_respected() {
        let target = MetersPerSec2::new(6.5);
        let s = SessionGenerator::new(
            "v",
            ContextSchedule::constant(Context::MovingVehicle),
            Seconds::new(120.0),
            3,
        )
        .vibration_target(target)
        .generate();
        let got = s.meta().avg_vibration.value();
        assert!(
            (got - target.value()).abs() / target.value() < 0.15,
            "avg vibration {got} too far from target {}",
            target.value()
        );
    }

    #[test]
    fn quiet_room_has_low_vibration_and_strong_signal() {
        let s = SessionGenerator::new(
            "q",
            ContextSchedule::constant(Context::QuietRoom),
            Seconds::new(60.0),
            5,
        )
        .generate();
        assert!(s.meta().avg_vibration.value() < 1.0);
        assert!(s.signal().mean_signal().value() > -90.0);
    }

    #[test]
    fn vehicle_has_weaker_signal_than_room() {
        let room = SessionGenerator::new(
            "r",
            ContextSchedule::constant(Context::QuietRoom),
            Seconds::new(120.0),
            11,
        )
        .generate();
        let bus = SessionGenerator::new(
            "b",
            ContextSchedule::constant(Context::MovingVehicle),
            Seconds::new(120.0),
            11,
        )
        .generate();
        assert!(bus.signal().mean_signal() < room.signal().mean_signal());
        assert!(bus.network().mean_throughput() < room.network().mean_throughput());
    }

    #[test]
    fn standard_normal_has_plausible_moments() {
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
