//! Accelerometer signal processing and vibration-level estimation.
//!
//! The paper quantifies the watching context with a *vibration level*
//! computed from the smartphone's accelerometer (its Eq. 5). This crate
//! implements that statistic:
//!
//! * [`window`] — a sliding time window with streaming mean/std;
//! * [`vibration`] — the Eq. 5 statistic itself, in an offline batch form
//!   ([`vibration::vibration_level`]) and the online estimator used by the
//!   bitrate selector ([`vibration::VibrationEstimator`]), which follows
//!   Section IV-B: the level is estimated over the trailing `0.2 * W`
//!   seconds with `W = 30 s`, and the estimator holds exactly those 6 s;
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
//! let mut estimator = VibrationEstimator::new();
//! for sample in accel.iter() {
//!     estimator.push(*sample);
//! }
//! let level = estimator.level().unwrap();
//! assert!(level.value() > 3.0, "vehicle context vibrates hard");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod vibration;
pub mod window;

pub use activity::ActivityClassifier;
pub use vibration::{vibration_level, VibrationEstimator};
pub use window::SlidingWindow;
