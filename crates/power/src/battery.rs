//! A simple smartphone battery model.
//!
//! Translates session energies into user-facing battery terms ("this
//! bus ride cost 4 % of your battery"), the unit in which the paper's
//! motivation is ultimately felt. Models a fixed-capacity ideal battery:
//! capacity in milliamp-hours at a nominal voltage, drained by joules.

use ecas_types::units::Joules;
use serde::Serialize;

/// An ideal fixed-voltage battery.
///
/// # Examples
///
/// ```
/// use ecas_power::battery::Battery;
/// use ecas_types::units::Joules;
///
/// let mut battery = Battery::nexus_5x();
/// battery.drain(Joules::new(1000.0));
/// assert!(battery.state_of_charge() < 1.0);
/// assert!(battery.state_of_charge() > 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Battery {
    capacity: Joules,
    remaining: Joules,
}

impl Battery {
    /// Creates a full battery from capacity in mAh at a nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics if `mah` or `voltage` is not positive.
    #[must_use]
    pub fn from_mah(mah: f64, voltage: f64) -> Self {
        assert!(mah > 0.0, "capacity must be positive");
        assert!(voltage > 0.0, "voltage must be positive");
        // mAh * V = mWh; * 3.6 = J.
        let capacity = Joules::new(mah * voltage * 3.6);
        Self {
            capacity,
            remaining: capacity,
        }
    }

    /// The paper's device: an LG Nexus 5X (2700 mAh, 3.85 V nominal).
    #[must_use]
    pub fn nexus_5x() -> Self {
        Self::from_mah(2700.0, 3.85)
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> Joules {
        self.capacity
    }

    /// Remaining energy.
    #[must_use]
    pub fn remaining(&self) -> Joules {
        self.remaining
    }

    /// Remaining fraction in `[0, 1]`.
    #[must_use]
    pub fn state_of_charge(&self) -> f64 {
        self.remaining / self.capacity
    }

    /// Whether the battery is fully drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining.is_zero()
    }

    /// Drains `energy`, clamping at empty. Returns the energy actually
    /// drained.
    pub fn drain(&mut self, energy: Joules) -> Joules {
        let drained = energy.min(self.remaining);
        self.remaining = self.remaining.saturating_sub(drained);
        drained
    }

    /// The fraction of a *full* battery that `energy` represents.
    #[must_use]
    pub fn fraction_of_capacity(&self, energy: Joules) -> f64 {
        energy / self.capacity
    }
}

impl Default for Battery {
    fn default() -> Self {
        Self::nexus_5x()
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn nexus_capacity_in_joules() {
        // 2700 mAh * 3.85 V * 3.6 = 37 422 J.
        let b = Battery::nexus_5x();
        assert!((b.capacity().value() - 37_422.0).abs() < 1.0);
        assert_eq!(b.state_of_charge(), 1.0);
    }

    #[test]
    fn drain_and_clamp() {
        let mut b = Battery::from_mah(100.0, 1.0); // 360 J
        assert_eq!(b.drain(Joules::new(100.0)), Joules::new(100.0));
        assert!((b.state_of_charge() - 260.0 / 360.0).abs() < 1e-12);
        // Draining past empty clamps.
        let drained = b.drain(Joules::new(1e6));
        assert_eq!(drained, Joules::new(260.0));
        assert!(b.is_empty());
        assert_eq!(b.drain(Joules::new(1.0)), Joules::zero());
    }

    #[test]
    fn session_fraction_is_meaningful() {
        // A ~1500 J streaming session on a Nexus 5X is ~4% of the battery.
        let b = Battery::nexus_5x();
        let f = b.fraction_of_capacity(Joules::new(1500.0));
        assert!((0.03..=0.05).contains(&f), "fraction {f}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = Battery::from_mah(0.0, 3.85);
    }
}
