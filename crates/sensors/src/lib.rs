//! Accelerometer signal processing and vibration-level estimation.
//!
//! The paper quantifies the watching context with a *vibration level*
//! computed from the smartphone's accelerometer (its Eq. 5). This crate
//! implements that statistic:
//!
//! * [`vibration`] — the Eq. 5 statistic itself, in an offline batch form
//!   ([`vibration::vibration_level`]) and the online estimator the player
//!   feeds the bitrate selector with ([`vibration::VibrationEstimator`]),
//!   which follows Section IV-B: the level is estimated over the trailing
//!   `0.2 * W` seconds with `W = 30 s`. The estimator reads the session's
//!   accelerometer samples in place, forward to each decision time, and
//!   keeps only the magnitudes of the 6 s window;
//! * [`activity`] — a context classifier over the same feature.
//!
//! # Examples
//!
//! ```
//! use ecas_sensors::vibration::VibrationEstimator;
//! use ecas_trace::synth::accel::AccelTraceGenerator;
//! use ecas_trace::synth::context::{Context, ContextSchedule};
//! use ecas_types::units::Seconds;
//!
//! let accel = AccelTraceGenerator::new(
//!     ContextSchedule::constant(Context::MovingVehicle),
//!     Seconds::new(60.0),
//!     1,
//! )
//! .generate();
//!
//! let mut estimator = VibrationEstimator::new(accel.as_slice());
//! let level = estimator.level_at(Seconds::new(60.0)).unwrap();
//! assert!(level.value() > 3.0, "vehicle context vibrates hard");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod vibration;

pub use activity::ActivityClassifier;
pub use vibration::{vibration_level, VibrationEstimator};
