//! The paper's comparison metrics (Figures 5–7).
//!
//! All savings/degradations are measured against the "Youtube" baseline
//! (everything at the ladder maximum), exactly as in Section V:
//!
//! * **whole-phone energy saving** — `1 − E_a / E_youtube` (Fig. 5b left);
//! * **extra-energy saving** — the same after subtracting the session's
//!   *base energy* (everything at the lowest bitrate) from both sides
//!   (Fig. 5b right / Fig. 5c);
//! * **QoE degradation** — `1 − Q_a / Q_youtube` (Fig. 6c);
//! * **ratio** — energy saving over QoE degradation (Fig. 7).

use ecas_sim::result::SessionResult;
use ecas_types::units::{Joules, Seconds};
use serde::{Deserialize, Serialize};

use crate::approach::Approach;

/// Per-approach metrics on one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// ecas-lint: allow(pub-surface, reason = "exposed through TraceComparison's public fields and accessors")
pub struct ApproachMetrics {
    /// The approach.
    pub approach: Approach,
    /// Total (whole-phone) energy.
    pub energy: Joules,
    /// Energy above the trace's base energy.
    pub extra_energy: Joules,
    /// Mean per-task QoE.
    pub qoe: f64,
    /// Whole-phone energy saving vs Youtube, in `[0, 1]`.
    pub energy_saving: f64,
    /// Extra-energy saving vs Youtube, in `[0, 1]`.
    pub extra_energy_saving: f64,
    /// QoE degradation vs Youtube (can be slightly negative if better).
    pub qoe_degradation: f64,
    /// Total rebuffering. The serialized field name keeps the unit; the
    /// newtype keeps the arithmetic honest.
    pub rebuffer_seconds: Seconds,
    /// Number of bitrate switches.
    pub switches: usize,
}

impl ApproachMetrics {
    /// Fig. 7's ratio: whole-phone energy saving over QoE degradation.
    /// Degradations below 0.1 % are clamped to 0.1 % so a
    /// zero-degradation approach yields a large-but-finite ratio.
    #[must_use]
    pub fn saving_over_degradation(&self) -> f64 {
        self.energy_saving / self.qoe_degradation.max(0.001)
    }
}

/// All approaches compared on one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceComparison {
    /// Trace name ("trace1" … "trace5").
    pub trace: String,
    /// The trace's base energy (everything at the lowest bitrate).
    pub base_energy: Joules,
    /// Per-approach metrics, in the order the approaches were given.
    pub approaches: Vec<ApproachMetrics>,
}

impl TraceComparison {
    /// Builds the comparison from session results.
    ///
    /// `results` must contain exactly one result per approach in
    /// `approaches` order, all from the same trace, and the set must
    /// include [`Approach::Youtube`] to act as the baseline.
    ///
    /// # Panics
    ///
    /// Panics if the result/approach lengths differ or Youtube is absent.
    #[must_use]
    pub fn from_results(
        trace: impl Into<String>,
        base_energy: Joules,
        approaches: &[Approach],
        results: &[SessionResult],
    ) -> Self {
        assert_eq!(
            approaches.len(),
            results.len(),
            "one result per approach required"
        );
        let baseline = approaches
            .iter()
            .zip(results)
            .find_map(|(a, r)| (*a == Approach::Youtube).then_some(r));
        let Some(baseline) = baseline else {
            // ecas-lint: allow(panic-safety, reason = "documented # Panics contract: the Youtube baseline is a hard precondition of every comparison")
            panic!("the Youtube baseline must be included");
        };
        let e_ref = baseline.total_energy();
        let q_ref = baseline.mean_qoe.value();
        let extra_ref = (e_ref.value() - base_energy.value()).max(1e-9);

        let approaches = approaches
            .iter()
            .zip(results)
            .map(|(a, r)| {
                let energy = r.total_energy();
                let extra = (energy.value() - base_energy.value()).max(0.0);
                ApproachMetrics {
                    approach: *a,
                    energy,
                    extra_energy: Joules::new(extra),
                    qoe: r.mean_qoe.value(),
                    energy_saving: 1.0 - energy.value() / e_ref.value(),
                    extra_energy_saving: 1.0 - extra / extra_ref,
                    qoe_degradation: 1.0 - r.mean_qoe.value() / q_ref,
                    rebuffer_seconds: r.total_rebuffer,
                    switches: r.switches,
                }
            })
            .collect();

        Self {
            trace: trace.into(),
            base_energy,
            approaches,
        }
    }

    /// The metrics row for `approach`, if present.
    #[must_use]
    pub fn approach(&self, approach: Approach) -> Option<&ApproachMetrics> {
        self.approaches.iter().find(|m| m.approach == approach)
    }
}

/// Aggregated comparison over several traces (the "on average" numbers
/// quoted in Section V-B/C).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonSummary {
    /// The per-trace comparisons the summary was built from.
    pub traces: Vec<TraceComparison>,
}

impl ComparisonSummary {
    /// Mean whole-phone energy saving of `approach` across traces.
    #[must_use]
    pub fn mean_energy_saving(&self, approach: Approach) -> f64 {
        self.mean_of(approach, |m| m.energy_saving)
    }

    /// Mean extra-energy saving of `approach` across traces.
    #[must_use]
    pub fn mean_extra_energy_saving(&self, approach: Approach) -> f64 {
        self.mean_of(approach, |m| m.extra_energy_saving)
    }

    /// Mean QoE degradation of `approach` across traces.
    #[must_use]
    pub fn mean_qoe_degradation(&self, approach: Approach) -> f64 {
        self.mean_of(approach, |m| m.qoe_degradation)
    }

    /// Mean QoE of `approach` across traces (Fig. 6b).
    #[must_use]
    pub fn mean_qoe(&self, approach: Approach) -> f64 {
        self.mean_of(approach, |m| m.qoe)
    }

    /// Mean Fig. 7 ratio of `approach` across traces.
    #[must_use]
    pub fn mean_saving_over_degradation(&self, approach: Approach) -> f64 {
        self.mean_of(approach, ApproachMetrics::saving_over_degradation)
    }

    fn mean_of(&self, approach: Approach, f: impl Fn(&ApproachMetrics) -> f64) -> f64 {
        let values: Vec<f64> = self
            .traces
            .iter()
            .filter_map(|t| t.approach(approach))
            .map(&f)
            .collect();
        assert!(
            !values.is_empty(),
            "approach {} missing from summary",
            approach.label()
        );
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentRunner;
    use crate::sweep::{ExecPolicy, SweepEngine};
    use ecas_trace::session::SessionTrace;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;
    use ecas_types::units::Seconds;

    fn vehicle_session(seed: u64) -> SessionTrace {
        SessionGenerator::new(
            format!("veh{seed}"),
            ContextSchedule::constant(Context::MovingVehicle),
            Seconds::new(120.0),
            seed,
        )
        .generate()
    }

    /// The paper's five approaches compared on one vehicle session.
    fn paper_summary(seed: u64) -> ComparisonSummary {
        SweepEngine::new(ExperimentRunner::paper()).comparison(
            &[vehicle_session(seed)],
            &Approach::paper_set(),
            &ExecPolicy::parallel(),
        )
    }

    #[test]
    fn youtube_has_zero_saving_and_degradation() {
        let summary = paper_summary(1);
        assert!(summary.mean_energy_saving(Approach::Youtube).abs() < 1e-12);
        assert!(summary.mean_qoe_degradation(Approach::Youtube).abs() < 1e-12);
    }

    #[test]
    fn ours_saves_energy_on_vehicle_traces() {
        let summary = paper_summary(2);
        let saving = summary.mean_energy_saving(Approach::Ours);
        assert!(saving > 0.1, "ours saved only {saving}");
        let degradation = summary.mean_qoe_degradation(Approach::Ours);
        assert!(degradation < 0.15, "ours degraded QoE by {degradation}");
    }

    #[test]
    fn extra_saving_exceeds_whole_phone_saving() {
        let summary = paper_summary(3);
        let whole = summary.mean_energy_saving(Approach::Ours);
        let extra = summary.mean_extra_energy_saving(Approach::Ours);
        assert!(
            extra > whole,
            "extra saving ({extra}) must exceed whole-phone saving ({whole})"
        );
    }

    #[test]
    fn ratio_clamps_small_degradation() {
        let m = ApproachMetrics {
            approach: Approach::Ours,
            energy: Joules::new(100.0),
            extra_energy: Joules::new(10.0),
            qoe: 4.0,
            energy_saving: 0.3,
            extra_energy_saving: 0.8,
            qoe_degradation: 0.0,
            rebuffer_seconds: Seconds::zero(),
            switches: 0,
        };
        assert!((m.saving_over_degradation() - 300.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Youtube baseline")]
    fn comparison_requires_youtube() {
        let runner = ExperimentRunner::paper();
        let s = vehicle_session(4);
        let approaches = [Approach::Festive];
        let results = vec![runner.run(&s, &Approach::Festive)];
        let _ = TraceComparison::from_results("x", Joules::new(1.0), &approaches, &results);
    }
}
