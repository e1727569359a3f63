//! The Eq. (11) optimization objective.
//!
//! Energy and QoE are measured in different units, so the paper normalizes
//! both by their value at the highest ladder bitrate and combines them with
//! the weighted-sum method:
//!
//! ```text
//! w(i, j) = η · E_ij / E_i^max − (1 − η) · Q_ij / Q_i^max
//! ```
//!
//! A smaller `η` weighs QoE more; a larger `η` weighs energy more; the
//! paper's evaluation uses `η = 0.5`.

use ecas_types::units::{Joules, QoeScore};
use serde::Serialize;

/// Floor of the QoE normalizer `Q_max`, so the QoE term stays finite when
/// the top bitrate's Eq. (1) score is (near) zero.
const MIN_Q_MAX: f64 = 1e-6;

/// The weighting factor `η` of Eq. (11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ObjectiveWeights {
    eta: f64,
}

impl ObjectiveWeights {
    /// Creates weights with the given `η ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is outside `[0, 1]` or NaN.
    #[must_use]
    pub fn new(eta: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&eta),
            "eta must be in [0, 1], got {eta}"
        );
        Self { eta }
    }

    /// The paper's evaluation setting `η = 0.5` (energy and QoE weighted
    /// equally).
    #[must_use]
    pub fn paper() -> Self {
        Self::new(0.5)
    }

    /// The weighting factor `η`.
    #[must_use]
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The Eq. (11) per-task cost. Lower is better. `q_max` is floored
    /// at 1e-6.
    ///
    /// # Panics
    ///
    /// Panics if the energy normalizer is zero.
    #[must_use]
    pub fn cost(&self, energy: Joules, e_max: Joules, qoe: QoeScore, q_max: QoeScore) -> f64 {
        self.combine(
            self.energy_term(energy, e_max),
            qoe,
            Self::qoe_normalizer(q_max),
        )
    }

    /// The normalized energy term `η · E / E_max`.
    ///
    /// # Panics
    ///
    /// Panics if `e_max` is zero.
    pub(crate) fn energy_term(&self, energy: Joules, e_max: Joules) -> f64 {
        assert!(!e_max.is_zero(), "energy normalizer must be positive");
        self.eta * (energy / e_max)
    }

    /// The divisor of the QoE term: `Q_max`, floored at 1e-6.
    pub(crate) fn qoe_normalizer(q_max: QoeScore) -> f64 {
        q_max.value().max(MIN_Q_MAX)
    }

    /// The Eq. (11) combination of an [`Self::energy_term`] with a QoE
    /// score: `energy_term − (1 − η) · Q / q_normalizer`, where
    /// `q_normalizer` comes from [`Self::qoe_normalizer`].
    pub(crate) fn combine(&self, energy_term: f64, qoe: QoeScore, q_normalizer: f64) -> f64 {
        energy_term - (1.0 - self.eta) * (qoe.value() / q_normalizer)
    }
}

impl Default for ObjectiveWeights {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn paper_eta_is_half() {
        assert_eq!(ObjectiveWeights::paper().eta(), 0.5);
    }

    #[test]
    fn cost_tradeoff_directions() {
        let w = ObjectiveWeights::paper();
        let e_max = Joules::new(10.0);
        let q_max = QoeScore::new(4.0);
        // More energy -> higher cost.
        let cheap = w.cost(Joules::new(2.0), e_max, QoeScore::new(3.0), q_max);
        let costly = w.cost(Joules::new(8.0), e_max, QoeScore::new(3.0), q_max);
        assert!(costly > cheap);
        // More QoE -> lower cost.
        let bad = w.cost(Joules::new(5.0), e_max, QoeScore::new(2.0), q_max);
        let good = w.cost(Joules::new(5.0), e_max, QoeScore::new(4.0), q_max);
        assert!(good < bad);
    }

    #[test]
    fn eta_extremes() {
        let e_max = Joules::new(10.0);
        let q_max = QoeScore::new(4.0);
        // eta = 1: pure energy minimization; QoE is ignored.
        let w = ObjectiveWeights::new(1.0);
        assert_eq!(
            w.cost(Joules::new(5.0), e_max, QoeScore::new(1.0), q_max),
            w.cost(Joules::new(5.0), e_max, QoeScore::new(5.0), q_max)
        );
        // eta = 0: pure QoE maximization; energy is ignored.
        let w = ObjectiveWeights::new(0.0);
        assert_eq!(
            w.cost(Joules::new(1.0), e_max, QoeScore::new(3.0), q_max),
            w.cost(Joules::new(9.0), e_max, QoeScore::new(3.0), q_max)
        );
    }

    #[test]
    #[should_panic(expected = "eta must be in")]
    fn rejects_bad_eta() {
        let _ = ObjectiveWeights::new(1.5);
    }

    #[test]
    fn zero_qoe_normalizer_is_floored() {
        let w = ObjectiveWeights::paper();
        let e_max = Joules::new(10.0);
        let cost = w.cost(Joules::new(5.0), e_max, QoeScore::zero(), QoeScore::zero());
        assert_eq!(cost, 0.25);
        let cost = w.cost(
            Joules::new(5.0),
            e_max,
            QoeScore::new(1e-7),
            QoeScore::zero(),
        );
        assert_eq!(cost, 0.25 - 0.5 * (1e-7 / 1e-6));
    }

    #[test]
    #[should_panic(expected = "normalizer must be positive")]
    fn rejects_zero_normalizer() {
        let w = ObjectiveWeights::paper();
        let _ = w.cost(
            Joules::new(1.0),
            Joules::zero(),
            QoeScore::new(3.0),
            QoeScore::new(4.0),
        );
    }
}
