//! Strongly-typed physical quantities.
//!
//! Every quantity that crosses a crate boundary in this workspace is wrapped
//! in a newtype so that a bitrate can never be confused with a throughput
//! sample in the wrong unit, a power with an energy, and so on
//! (Rust API guideline C-NEWTYPE).
//!
//! All newtypes wrap `f64`, reject NaN at construction, and additionally
//! validate the physically-plausible domain of the quantity:
//!
//! * [`Mbps`], [`Joules`], [`Watts`], [`Seconds`], [`MegaBytes`] and
//!   [`MetersPerSec2`] must be non-negative;
//! * [`Dbm`] must lie in `[-140, -10]` (the plausible range of cellular
//!   received signal strength);
//! * [`QoeScore`] must lie in `[0, 5]` (the five-level MOS scale after the
//!   ITU-T P.910 transform used in Section II of the paper).
//!
//! Dimensionally-meaningful arithmetic is provided: `Watts * Seconds ->
//! Joules`, `Mbps * Seconds -> MegaBytes`, `MegaBytes / Seconds -> Mbps`,
//! `MegaBytes / Mbps -> Seconds` and so on.
//!
//! # Examples
//!
//! ```
//! use ecas_types::units::{Mbps, MegaBytes, Seconds, Watts};
//!
//! let throughput = Mbps::new(8.0);
//! let duration = Seconds::new(2.0);
//! let data: MegaBytes = throughput * duration; // 2 MB
//! assert_eq!(data, MegaBytes::new(2.0));
//!
//! let energy = Watts::new(2.5) * Seconds::new(4.0);
//! assert_eq!(energy.value(), 10.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::error::UnitError;

/// Validation domain for a unit newtype.
enum Domain {
    NonNegative,
    Range(f64, f64),
}

fn validate(unit: &'static str, value: f64, domain: Domain) -> Result<f64, UnitError> {
    if value.is_nan() {
        return Err(UnitError::NotANumber { unit });
    }
    match domain {
        Domain::NonNegative => {
            if value < 0.0 {
                Err(UnitError::Negative { unit, value })
            } else {
                Ok(value)
            }
        }
        Domain::Range(min, max) => {
            if value < min || value > max {
                Err(UnitError::OutOfRange {
                    unit,
                    value,
                    min,
                    max,
                })
            } else {
                Ok(value)
            }
        }
    }
}

macro_rules! float_unit {
    (
        $(#[$meta:meta])*
        $name:ident, $unit_str:expr, $suffix:expr, $domain:expr
    ) => {
        $(#[$meta])*
        ///
        /// Serializes as the bare number; deserializing validates it
        /// like [`Self::try_new`].
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(try_from = "f64")]
        pub struct $name(f64);

        impl TryFrom<f64> for $name {
            type Error = UnitError;

            fn try_from(value: f64) -> Result<Self, UnitError> {
                Self::try_new(value)
            }
        }

        impl $name {
            /// Constructs a new value.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN or outside the valid domain of the
            /// quantity. Use [`Self::try_new`] for fallible construction.
            #[must_use]
            pub fn new(value: f64) -> Self {
                match Self::try_new(value) {
                    Ok(v) => v,
                    // ecas-lint: allow(panic-safety, reason = "new() is the documented panicking constructor; try_new is the fallible path")
                    Err(e) => panic!("invalid {}: {e}", $unit_str),
                }
            }

            /// Constructs a new value, validating the domain.
            ///
            /// # Errors
            ///
            /// Returns [`UnitError`] if `value` is NaN or outside the valid
            /// domain of the quantity.
            pub fn try_new(value: f64) -> Result<Self, UnitError> {
                validate($unit_str, value, $domain).map(Self)
            }

            /// Returns the raw `f64` value.
            #[must_use]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the smaller of two values.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                if self.0 <= other.0 {
                    self
                } else {
                    other
                }
            }

            /// Returns the larger of two values.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                if self.0 >= other.0 {
                    self
                } else {
                    other
                }
            }

            /// Returns a zero value of this unit.
            #[must_use]
            pub fn zero() -> Self {
                Self(0.0)
            }

            /// Returns `true` if the value is exactly zero.
            #[must_use]
            pub fn is_zero(self) -> bool {
                // ecas-lint: allow(float-compare, reason = "is_zero intentionally tests exact bit-level zero")
                self.0 == 0.0
            }

            /// Total ordering using `f64::total_cmp`.
            ///
            /// Values constructed through [`Self::new`] are never NaN, so
            /// this is a proper total order on valid values.
            #[must_use]
            pub fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.4} {}", self.0, $suffix)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name::new(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name::new(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            /// Dimensionless ratio of two values of the same unit.
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }
    };
}

/// Implements additive arithmetic (`Add`, `Sub`, `Sum`, assign variants) for
/// a unit where the sum and difference stay in the same unit.
macro_rules! additive_unit {
    ($name:ident) => {
        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name::new(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                *self = *self + rhs;
            }
        }

        impl Sub for $name {
            type Output = $name;
            /// Subtracts two values.
            ///
            /// # Panics
            ///
            /// Panics if the result would be outside the unit's domain (for
            /// non-negative quantities, if `rhs > self`). Use
            /// `saturating_sub` when clamping at zero is intended.
            fn sub(self, rhs: $name) -> $name {
                $name::new(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                *self = *self - rhs;
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::zero(), |acc, x| acc + x)
            }
        }

        impl $name {
            /// Subtracts `rhs`, clamping the result at zero instead of
            /// panicking.
            #[must_use]
            pub fn saturating_sub(self, rhs: $name) -> $name {
                $name::new((self.0 - rhs.0).max(0.0))
            }
        }
    };
}

float_unit!(
    /// A bitrate or throughput in megabits per second.
    ///
    /// Used both for the encoding bitrate of a video segment (Table II of
    /// the paper) and for measured network throughput.
    Mbps,
    "Mbps",
    "Mbps",
    Domain::NonNegative
);
additive_unit!(Mbps);

float_unit!(
    /// Received signal strength in dBm.
    ///
    /// LTE RSRP-style readings are negative; this type accepts the plausible
    /// range `[-140, -10]` dBm. Stronger (closer to zero) compares greater.
    Dbm,
    "Dbm",
    "dBm",
    Domain::Range(-140.0, -10.0)
);

float_unit!(
    /// An amount of energy in joules.
    Joules,
    "Joules",
    "J",
    Domain::NonNegative
);
additive_unit!(Joules);

float_unit!(
    /// Instantaneous power in watts.
    Watts,
    "Watts",
    "W",
    Domain::NonNegative
);
additive_unit!(Watts);

float_unit!(
    /// A duration or timestamp in seconds.
    Seconds,
    "Seconds",
    "s",
    Domain::NonNegative
);
additive_unit!(Seconds);

float_unit!(
    /// A data size in megabytes (10^6 bytes).
    MegaBytes,
    "MegaBytes",
    "MB",
    Domain::NonNegative
);
additive_unit!(MegaBytes);

float_unit!(
    /// A vibration level in metres per second squared.
    ///
    /// This is the RMS statistic of Eq. (5) of the paper, not a raw
    /// (signed) accelerometer axis sample, hence non-negative.
    MetersPerSec2,
    "MetersPerSec2",
    "m/s^2",
    Domain::NonNegative
);
additive_unit!(MetersPerSec2);

float_unit!(
    /// A Quality-of-Experience score on the five-level MOS scale.
    ///
    /// The paper collects ratings on the nine-grade ITU-T P.910 numerical
    /// scale and transforms them to `[1, 5]` via `1 + 4 * (x - 1) / 8`;
    /// impairment arithmetic may produce intermediate values down to zero.
    QoeScore,
    "QoeScore",
    "MOS",
    Domain::Range(0.0, 5.0)
);

impl QoeScore {
    /// Applies the paper's nine-grade to five-level transform
    /// `q5 = 1 + 4 * (q9 - 1) / 8`.
    ///
    /// # Panics
    ///
    /// Panics if `nine_grade` is outside `[1, 9]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecas_types::units::QoeScore;
    /// assert_eq!(QoeScore::from_nine_grade(9.0).value(), 5.0);
    /// assert_eq!(QoeScore::from_nine_grade(1.0).value(), 1.0);
    /// assert_eq!(QoeScore::from_nine_grade(5.0).value(), 3.0);
    /// ```
    #[must_use]
    pub fn from_nine_grade(nine_grade: f64) -> Self {
        assert!(
            (1.0..=9.0).contains(&nine_grade),
            "nine-grade rating {nine_grade} outside [1, 9]"
        );
        Self::new(1.0 + 4.0 * (nine_grade - 1.0) / 8.0)
    }

    /// Subtracts an impairment from this score, clamping at zero.
    #[must_use]
    pub fn impaired_by(self, impairment: f64) -> Self {
        Self::new((self.0 - impairment).clamp(0.0, 5.0))
    }
}

impl Dbm {
    /// Returns how many dB weaker this signal is than `reference`
    /// (positive when `self` is weaker).
    ///
    /// # Examples
    ///
    /// ```
    /// use ecas_types::units::Dbm;
    /// let weak = Dbm::new(-115.0);
    /// assert_eq!(weak.weaker_than(Dbm::new(-90.0)), 25.0);
    /// ```
    #[must_use]
    pub fn weaker_than(self, reference: Dbm) -> f64 {
        reference.0 - self.0
    }
}

impl Mbps {
    /// Converts a bitrate to the equivalent data rate in megabytes per
    /// second (divides by 8).
    #[must_use]
    pub fn megabytes_per_second(self) -> f64 {
        self.0 / 8.0
    }

    /// Returns the amount of data transferred at this rate over `duration`.
    #[must_use]
    pub fn data_over(self, duration: Seconds) -> MegaBytes {
        MegaBytes::new(self.megabytes_per_second() * duration.value())
    }
}

impl MegaBytes {
    /// Returns the time needed to transfer this much data at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    #[must_use]
    pub fn transfer_time(self, rate: Mbps) -> Seconds {
        assert!(!rate.is_zero(), "cannot transfer data at zero throughput");
        Seconds::new(self.0 / rate.megabytes_per_second())
    }

    /// Returns this size in megabits.
    #[must_use]
    pub fn megabits(self) -> f64 {
        self.0 * 8.0
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power over a duration.
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// How long this much energy lasts at a constant power draw.
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.value() / rhs.value())
    }
}

impl Mul<Seconds> for Mbps {
    type Output = MegaBytes;
    fn mul(self, rhs: Seconds) -> MegaBytes {
        self.data_over(rhs)
    }
}

impl Mul<Mbps> for Seconds {
    type Output = MegaBytes;
    fn mul(self, rhs: Mbps) -> MegaBytes {
        rhs.data_over(self)
    }
}

impl Div<Seconds> for MegaBytes {
    type Output = Mbps;
    /// Average throughput achieved transferring this much data over a
    /// duration.
    fn div(self, rhs: Seconds) -> Mbps {
        Mbps::new(self.megabits() / rhs.value())
    }
}

impl Div<Mbps> for MegaBytes {
    type Output = Seconds;
    /// Transfer time of this much data at a given rate.
    fn div(self, rhs: Mbps) -> Seconds {
        self.transfer_time(rhs)
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn construction_rejects_nan() {
        assert!(Mbps::try_new(f64::NAN).is_err());
        assert!(Dbm::try_new(f64::NAN).is_err());
        assert!(QoeScore::try_new(f64::NAN).is_err());
    }

    #[test]
    fn construction_rejects_negative_for_nonnegative_units() {
        assert!(Mbps::try_new(-0.1).is_err());
        assert!(Joules::try_new(-1.0).is_err());
        assert!(Watts::try_new(-1.0).is_err());
        assert!(Seconds::try_new(-1.0).is_err());
        assert!(MegaBytes::try_new(-1.0).is_err());
        assert!(MetersPerSec2::try_new(-1.0).is_err());
    }

    #[test]
    fn dbm_range_is_enforced() {
        assert!(Dbm::try_new(-90.0).is_ok());
        assert!(Dbm::try_new(5.0).is_err());
        assert!(Dbm::try_new(-200.0).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid Mbps")]
    fn new_panics_on_invalid() {
        let _ = Mbps::new(-1.0);
    }

    #[test]
    fn qoe_nine_grade_transform_matches_paper() {
        assert_eq!(QoeScore::from_nine_grade(9.0).value(), 5.0);
        assert_eq!(QoeScore::from_nine_grade(1.0).value(), 1.0);
        assert!((QoeScore::from_nine_grade(7.0).value() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn qoe_impairment_clamps_at_zero() {
        let q = QoeScore::new(1.2);
        assert_eq!(q.impaired_by(2.0).value(), 0.0);
        assert_eq!(q.impaired_by(0.2).value(), 1.0);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(2.0) * Seconds::new(3.0);
        assert_eq!(e, Joules::new(6.0));
        assert_eq!(e / Seconds::new(3.0), Watts::new(2.0));
        assert_eq!(e / Watts::new(2.0), Seconds::new(3.0));
    }

    #[test]
    fn bitrate_data_time_relations_are_consistent() {
        let rate = Mbps::new(4.0);
        let t = Seconds::new(10.0);
        let data = rate * t;
        assert_eq!(data, MegaBytes::new(5.0));
        assert_eq!(data / t, rate);
        assert_eq!(data / rate, t);
    }

    #[test]
    #[should_panic(expected = "zero throughput")]
    fn transfer_time_at_zero_rate_panics() {
        let _ = MegaBytes::new(1.0).transfer_time(Mbps::zero());
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            Seconds::new(1.0).saturating_sub(Seconds::new(5.0)),
            Seconds::zero()
        );
        assert_eq!(
            Seconds::new(5.0).saturating_sub(Seconds::new(1.0)),
            Seconds::new(4.0)
        );
    }

    #[test]
    fn sum_accumulates() {
        let total: Joules = [1.0, 2.0, 3.5].iter().map(|&j| Joules::new(j)).sum();
        assert_eq!(total, Joules::new(6.5));
    }

    #[test]
    fn dbm_weaker_than_sign_convention() {
        assert!(Dbm::new(-115.0).weaker_than(Dbm::new(-90.0)) > 0.0);
        assert!(Dbm::new(-80.0).weaker_than(Dbm::new(-90.0)) < 0.0);
    }

    #[test]
    fn display_includes_suffix() {
        assert!(Mbps::new(1.5).to_string().contains("Mbps"));
        assert!(Dbm::new(-90.0).to_string().contains("dBm"));
        assert!(Joules::new(1.0).to_string().contains('J'));
    }

    #[test]
    fn serde_is_transparent() {
        let j = serde_json::to_string(&Mbps::new(1.5)).unwrap();
        assert_eq!(j, "1.5");
        let back: Mbps = serde_json::from_str(&j).unwrap();
        assert_eq!(back, Mbps::new(1.5));
    }

    /// A unit read from JSON passes the same domain check as
    /// [`Mbps::try_new`] and friends.
    #[test]
    fn deserializing_validates_the_domain() {
        assert!(serde_json::from_str::<Mbps>("-5").is_err());
        assert!(serde_json::from_str::<Seconds>("-20").is_err());
        assert!(serde_json::from_str::<Dbm>("-200").is_err());
        assert!(serde_json::from_str::<QoeScore>("5.5").is_err());
        let err = serde_json::from_str::<Seconds>("-1").unwrap_err();
        assert!(err.to_string().contains("Seconds"), "{err}");
    }

    #[test]
    fn min_max_and_total_cmp() {
        let a = Mbps::new(1.0);
        let b = Mbps::new(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.total_cmp(&b), std::cmp::Ordering::Less);
    }
}
