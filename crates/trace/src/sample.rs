//! Individual trace samples.
//!
//! Each sample type corresponds to one of the measurement channels the paper
//! collects on the phone:
//!
//! * [`NetworkSample`] — downloading throughput (Tcpdump-derived);
//! * [`SignalSample`] — LTE signal strength (`dumpsys telephony.registry`);
//! * [`AccelSample`] — raw 3-axis accelerometer reading;
//! * [`PowerSample`] — instantaneous whole-phone power (Monsoon monitor).

use ecas_types::units::{Dbm, Mbps, Seconds, Watts};
use serde::Serialize;

use crate::series::Timestamped;

/// A downloading-throughput measurement at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NetworkSample {
    /// Time since the start of the trace.
    pub time: Seconds,
    /// Achievable downlink throughput at this time.
    pub throughput: Mbps,
}

impl NetworkSample {
    /// Constructs a network sample.
    #[must_use]
    pub fn new(time: Seconds, throughput: Mbps) -> Self {
        Self { time, throughput }
    }
}

impl Timestamped for NetworkSample {
    fn timestamp(&self) -> Seconds {
        self.time
    }
}

/// A received-signal-strength measurement at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SignalSample {
    /// Time since the start of the trace.
    pub time: Seconds,
    /// Received signal strength.
    pub dbm: Dbm,
}

impl SignalSample {
    /// Constructs a signal sample.
    #[must_use]
    pub fn new(time: Seconds, dbm: Dbm) -> Self {
        Self { time, dbm }
    }
}

impl Timestamped for SignalSample {
    fn timestamp(&self) -> Seconds {
        self.time
    }
}

/// A raw 3-axis accelerometer reading (m/s², gravity included).
///
/// Axis values are plain `f64` because raw accelerometer axes are signed;
/// the non-negative [`ecas_types::units::MetersPerSec2`] newtype is reserved
/// for the derived vibration *level* of Eq. (5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AccelSample {
    /// Time since the start of the trace.
    pub time: Seconds,
    /// Acceleration along the x axis (m/s²).
    pub x: f64,
    /// Acceleration along the y axis (m/s²).
    pub y: f64,
    /// Acceleration along the z axis (m/s²).
    pub z: f64,
}

impl AccelSample {
    /// Constructs an accelerometer sample.
    ///
    /// # Panics
    ///
    /// Panics if any axis value is NaN.
    #[must_use]
    pub fn new(time: Seconds, x: f64, y: f64, z: f64) -> Self {
        assert!(
            !x.is_nan() && !y.is_nan() && !z.is_nan(),
            "accelerometer axes must not be NaN"
        );
        Self { time, x, y, z }
    }

    /// Euclidean magnitude of the acceleration vector (m/s²).
    #[must_use]
    pub fn magnitude(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }
}

impl Timestamped for AccelSample {
    fn timestamp(&self) -> Seconds {
        self.time
    }
}

/// An instantaneous whole-phone power reading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerSample {
    /// Time since the start of the trace.
    pub time: Seconds,
    /// Instantaneous power draw.
    pub power: Watts,
}

impl PowerSample {
    /// Constructs a power sample.
    #[must_use]
    pub fn new(time: Seconds, power: Watts) -> Self {
        Self { time, power }
    }
}

impl Timestamped for PowerSample {
    fn timestamp(&self) -> Seconds {
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accel_magnitude_of_gravity_vector() {
        let s = AccelSample::new(Seconds::zero(), 0.0, 0.0, 9.81);
        assert!((s.magnitude() - 9.81).abs() < 1e-12);
        let s = AccelSample::new(Seconds::zero(), 3.0, 4.0, 0.0);
        assert!((s.magnitude() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn accel_rejects_nan() {
        let _ = AccelSample::new(Seconds::zero(), f64::NAN, 0.0, 0.0);
    }

    #[test]
    fn timestamps_are_exposed() {
        let t = Seconds::new(4.0);
        assert_eq!(NetworkSample::new(t, Mbps::new(1.0)).timestamp(), t);
        assert_eq!(SignalSample::new(t, Dbm::new(-90.0)).timestamp(), t);
        assert_eq!(AccelSample::new(t, 0.0, 0.0, 0.0).timestamp(), t);
        assert_eq!(PowerSample::new(t, Watts::new(1.0)).timestamp(), t);
    }
}
