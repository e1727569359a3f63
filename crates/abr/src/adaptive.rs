//! Adaptive-η extension: modulate the Eq. (11) weighting by context.
//!
//! The paper fixes η = 0.5 for the whole session. A natural extension —
//! in the spirit of its "different contexts have different QoE
//! requirements" argument — is to *increase* the energy weight exactly
//! when quality is cheap to sacrifice (heavy vibration) and decrease it
//! when the viewer can tell the difference (quiet room):
//!
//! ```text
//! η(v) = η_min + (η_max − η_min) · clamp(v / v_ref, 0, 1)
//! ```
//!
//! The selector is otherwise Algorithm 1 with the reference recomputed
//! under the per-decision η.

use ecas_sim::controller::{BitrateController, DecisionContext};
use ecas_types::ladder::LevelIndex;
use ecas_types::units::MetersPerSec2;

use crate::objective::ObjectiveWeights;
use crate::online::Online;

/// η in a quiet room.
const ETA_MIN: f64 = 0.35;
/// η at and above the reference vibration.
const ETA_MAX: f64 = 0.55;
/// Reference vibration `v_ref` (m/s²).
const V_REF: f64 = 6.0;

/// Algorithm 1 with a vibration-modulated η.
#[derive(Debug, Clone)]
pub struct AdaptiveEta {
    inner: Online,
}

impl AdaptiveEta {
    /// Creates the default adaptive selector: η from 0.35 (quiet room) to
    /// 0.55 (vibration ≥ 6 m/s²). The asymmetric band reflects the η
    /// sweep (`ablation_eta`): above ~0.6 the objective collapses to the
    /// ladder floor and QoE falls off a cliff, while below 0.5 the
    /// quiet-room QoE recovers quickly.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Online::with_eta(ETA_MIN),
        }
    }

    /// The η used for a given vibration level.
    #[must_use]
    pub fn eta_for(&self, vibration: MetersPerSec2) -> f64 {
        let x = (vibration.value() / V_REF).clamp(0.0, 1.0);
        ETA_MIN + (ETA_MAX - ETA_MIN) * x
    }
}

impl Default for AdaptiveEta {
    fn default() -> Self {
        Self::new()
    }
}

impl BitrateController for AdaptiveEta {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        let vibration = ctx.vibration.unwrap_or(MetersPerSec2::zero());
        let eta = self.eta_for(vibration);
        self.inner.set_weights(ObjectiveWeights::new(eta));
        self.inner.select(ctx)
    }

    fn name(&self) -> String {
        "adaptive-eta".to_string()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_sim::Simulator;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;
    use ecas_types::ladder::BitrateLadder;
    use ecas_types::units::Seconds;

    #[test]
    fn eta_interpolates_with_vibration() {
        let a = AdaptiveEta::new();
        assert!((a.eta_for(MetersPerSec2::zero()) - 0.35).abs() < 1e-12);
        assert!((a.eta_for(MetersPerSec2::new(3.0)) - 0.45).abs() < 1e-12);
        assert!((a.eta_for(MetersPerSec2::new(6.0)) - 0.55).abs() < 1e-12);
        // Clamped above the reference.
        assert!((a.eta_for(MetersPerSec2::new(12.0)) - 0.55).abs() < 1e-12);
    }

    #[test]
    fn quiet_room_scores_higher_qoe_than_fixed_eta() {
        let session = SessionGenerator::new(
            "adq",
            ContextSchedule::constant(Context::QuietRoom),
            Seconds::new(120.0),
            5,
        )
        .generate();
        let sim = Simulator::paper(BitrateLadder::evaluation());
        let adaptive = sim.run(&session, &mut AdaptiveEta::new());
        let fixed = sim.run(&session, &mut Online::paper());
        assert!(
            adaptive.mean_qoe >= fixed.mean_qoe,
            "adaptive {} vs fixed {}",
            adaptive.mean_qoe,
            fixed.mean_qoe
        );
    }

    #[test]
    fn vehicle_saves_at_least_as_much_energy_as_fixed_eta() {
        let session = SessionGenerator::new(
            "adv",
            ContextSchedule::constant(Context::MovingVehicle),
            Seconds::new(120.0),
            6,
        )
        .generate();
        let sim = Simulator::paper(BitrateLadder::evaluation());
        let adaptive = sim.run(&session, &mut AdaptiveEta::new());
        let fixed = sim.run(&session, &mut Online::paper());
        assert!(
            adaptive.total_energy().value() <= fixed.total_energy().value() * 1.05,
            "adaptive {} vs fixed {}",
            adaptive.total_energy(),
            fixed.total_energy()
        );
    }
}
