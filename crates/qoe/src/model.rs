//! The per-task QoE model (Eq. 1).

use ecas_types::units::{Mbps, MetersPerSec2, QoeScore, Seconds};
use serde::Serialize;

use crate::impairment::VibrationImpairment;
use crate::params::QoeParams;
use crate::quality::OriginalQuality;

/// The combined QoE model of Eq. (1):
///
/// ```text
/// Q(t_i) = q0(r_i) − I(v_i, r_i) − μ·|q0(r_i) − q0(r_{i−1})| − λ·T_rebuf(i)
/// ```
///
/// clamped to `[0, 5]`.
///
/// # Examples
///
/// ```
/// use ecas_qoe::model::QoeModel;
/// use ecas_types::units::{Mbps, MetersPerSec2, Seconds};
///
/// let model = QoeModel::paper();
/// // A 2-second stall costs QoE.
/// let smooth = model.segment_qoe(Mbps::new(3.0), MetersPerSec2::new(1.0), None, Seconds::zero());
/// let stalled = model.segment_qoe(Mbps::new(3.0), MetersPerSec2::new(1.0), None, Seconds::new(2.0));
/// assert!(smooth > stalled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
#[serde(into = "QoeParams")]
pub struct QoeModel {
    params: QoeParams,
    quality: OriginalQuality,
    impairment: VibrationImpairment,
}

impl From<QoeModel> for QoeParams {
    fn from(model: QoeModel) -> Self {
        model.params
    }
}

impl QoeModel {
    /// Builds the model from a parameter bundle.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`QoeParams::is_valid`].
    #[must_use]
    pub fn new(params: QoeParams) -> Self {
        assert!(params.is_valid(), "invalid QoE parameters");
        Self {
            params,
            quality: OriginalQuality::new(params.quality),
            impairment: VibrationImpairment::new(params.impairment),
        }
    }

    /// The reference model (our Table III parameters).
    #[must_use]
    pub fn paper() -> Self {
        Self::new(QoeParams::paper())
    }

    /// The underlying parameters.
    #[must_use]
    pub fn params(&self) -> &QoeParams {
        &self.params
    }

    /// The original-quality component.
    #[must_use]
    pub fn quality(&self) -> &OriginalQuality {
        &self.quality
    }

    /// The vibration-impairment component.
    #[must_use]
    pub fn impairment(&self) -> &VibrationImpairment {
        &self.impairment
    }

    /// Context-aware quality without switch/rebuffer penalties:
    /// `q0(r) − I(v, r)`, clamped to `[0, 5]`.
    #[must_use]
    pub fn context_quality(&self, bitrate: Mbps, vibration: MetersPerSec2) -> QoeScore {
        self.quality
            .at(bitrate)
            .impaired_by(self.impairment.at(vibration, bitrate))
    }

    /// Full Eq. (1) QoE for one segment (task).
    ///
    /// `prev_bitrate` is the bitrate of the previous segment (`None` for
    /// the first segment, in which case no switch penalty applies);
    /// `rebuffer` is the stall time attributed to this task.
    #[must_use]
    pub fn segment_qoe(
        &self,
        bitrate: Mbps,
        vibration: MetersPerSec2,
        prev_bitrate: Option<Mbps>,
        rebuffer: Seconds,
    ) -> QoeScore {
        let level = self.level_qoe(bitrate, vibration, rebuffer);
        self.switched_qoe(
            &level,
            prev_bitrate.map(|prev| self.quality.at(prev).value()),
        )
    }

    /// The terms of Eq. (1) that do not depend on the previous segment,
    /// for a segment at `bitrate` under `vibration` that stalls for
    /// `rebuffer`. [`QoeModel::switched_qoe`] adds the switch penalty;
    /// together they are [`QoeModel::segment_qoe`], bit for bit.
    #[must_use]
    pub fn level_qoe(
        &self,
        bitrate: Mbps,
        vibration: MetersPerSec2,
        rebuffer: Seconds,
    ) -> LevelQoe {
        let original = self.quality.at(bitrate).value();
        LevelQoe {
            original,
            impaired: original - self.impairment.at(vibration, bitrate),
            stall: self.params.penalty.rebuffer_lambda * rebuffer.value(),
        }
    }

    /// Eq. (1) QoE of a segment with terms `level`, entered from a segment
    /// whose original quality `q0` is `prev_original` (`None` for the first
    /// segment: no switch penalty). The terms combine left to right,
    /// `((q0 − I) − μ·|q0 − q0_prev|) − λ·T_rebuf`, then clamp to `[0, 5]`.
    #[must_use]
    pub fn switched_qoe(&self, level: &LevelQoe, prev_original: Option<f64>) -> QoeScore {
        let switch = match prev_original {
            Some(prev) => self.params.penalty.switch_mu * (level.original - prev).abs(),
            None => 0.0,
        };
        QoeScore::new((level.impaired - switch - level.stall).clamp(0.0, 5.0))
    }

    /// The QoE of streaming the whole session at the ladder maximum with no
    /// switches and no stalls — the normalizer `Q_max` of Eq. (11).
    #[must_use]
    pub fn max_segment_qoe(&self, max_bitrate: Mbps, vibration: MetersPerSec2) -> QoeScore {
        self.context_quality(max_bitrate, vibration)
    }
}

/// The terms of Eq. (1) that do not depend on the previous segment's
/// bitrate: `q0(r)`, `q0(r) − I(v, r)` and `λ·T_rebuf`. A planner that
/// prices one segment against every possible predecessor computes these
/// once per bitrate and pays only the switch penalty per predecessor.
#[derive(Debug, Clone, Copy)]
pub struct LevelQoe {
    original: f64,
    impaired: f64,
    stall: f64,
}

impl LevelQoe {
    /// The original quality `q0(r)`: what the next segment's switch
    /// penalty compares against.
    #[must_use]
    pub fn original(&self) -> f64 {
        self.original
    }
}

impl Default for QoeModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> QoeModel {
        QoeModel::paper()
    }

    #[test]
    fn vibration_reduces_quality_more_at_high_bitrate() {
        let model = m();
        let v = MetersPerSec2::new(6.0);
        let none = MetersPerSec2::new(0.0);
        let hurt_high = model.context_quality(Mbps::new(5.8), none).value()
            - model.context_quality(Mbps::new(5.8), v).value();
        let hurt_low = model.context_quality(Mbps::new(0.375), none).value()
            - model.context_quality(Mbps::new(0.375), v).value();
        assert!(hurt_high > 3.0 * hurt_low, "{hurt_high} vs {hurt_low}");
    }

    #[test]
    fn four_percent_drop_on_vehicle() {
        // Section II: dropping 1080p -> 480p degrades QoE ~4 % on a vehicle
        // (vs 12 % in a room).
        let model = m();
        let v = MetersPerSec2::new(6.0);
        let hi = model.context_quality(Mbps::new(5.8), v).value();
        let lo = model.context_quality(Mbps::new(1.5), v).value();
        let drop = (hi - lo) / hi;
        assert!(
            (0.02..=0.07).contains(&drop),
            "vehicle drop = {drop}, want ~0.04"
        );
    }

    #[test]
    fn switch_penalty_applies_only_with_previous_segment() {
        let model = m();
        let v = MetersPerSec2::new(1.0);
        let no_prev = model.segment_qoe(Mbps::new(3.0), v, None, Seconds::zero());
        let same_prev = model.segment_qoe(Mbps::new(3.0), v, Some(Mbps::new(3.0)), Seconds::zero());
        let big_jump = model.segment_qoe(Mbps::new(3.0), v, Some(Mbps::new(0.1)), Seconds::zero());
        assert_eq!(no_prev, same_prev);
        assert!(big_jump < same_prev);
    }

    #[test]
    fn rebuffer_penalty_is_linear_in_stall_time() {
        let model = m();
        let v = MetersPerSec2::new(1.0);
        let q0 = model
            .segment_qoe(Mbps::new(3.0), v, None, Seconds::zero())
            .value();
        let q1 = model
            .segment_qoe(Mbps::new(3.0), v, None, Seconds::new(1.0))
            .value();
        let q2 = model
            .segment_qoe(Mbps::new(3.0), v, None, Seconds::new(2.0))
            .value();
        let lambda = model.params().penalty.rebuffer_lambda;
        assert!((q0 - q1 - lambda).abs() < 1e-9);
        assert!((q1 - q2 - lambda).abs() < 1e-9);
    }

    /// The split Eq. (1), level terms then switch term, keeps every bit of
    /// the formula written as one expression, with and without a previous
    /// segment.
    #[test]
    fn split_eq1_matches_the_whole_formula_bit_for_bit() {
        let model = m();
        let penalty = model.params().penalty;
        let q0 = |r: f64| model.quality().at(Mbps::new(r)).value();
        for r in [0.1, 0.375, 0.75, 1.5, 2.3, 3.0, 4.3, 5.8] {
            for v in [0.0, 0.3, 1.0, 3.0, 6.0, 9.5] {
                for stall in [0.0, 0.25, 1.0, 2.0, 7.5, 100.0] {
                    for prev in [None, Some(0.1), Some(1.5), Some(r), Some(5.8)] {
                        let (bitrate, vibration) = (Mbps::new(r), MetersPerSec2::new(v));
                        let switch =
                            prev.map_or(0.0, |p| penalty.switch_mu * (q0(r) - q0(p)).abs());
                        let whole = (q0(r)
                            - model.impairment().at(vibration, bitrate)
                            - switch
                            - penalty.rebuffer_lambda * stall)
                            .clamp(0.0, 5.0);
                        let level = model.level_qoe(bitrate, vibration, Seconds::new(stall));
                        assert_eq!(level.original().to_bits(), q0(r).to_bits());
                        let split = model.switched_qoe(&level, prev.map(q0));
                        let segment = model.segment_qoe(
                            bitrate,
                            vibration,
                            prev.map(Mbps::new),
                            Seconds::new(stall),
                        );
                        for qoe in [split, segment] {
                            assert_eq!(
                                qoe.value().to_bits(),
                                whole.to_bits(),
                                "r {r} v {v} stall {stall} prev {prev:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn qoe_never_escapes_mos_bounds() {
        let model = m();
        for r in [0.1, 1.5, 5.8] {
            for v in [0.0, 3.0, 7.0] {
                for stall in [0.0, 5.0, 100.0] {
                    let q = model
                        .segment_qoe(
                            Mbps::new(r),
                            MetersPerSec2::new(v),
                            Some(Mbps::new(5.8)),
                            Seconds::new(stall),
                        )
                        .value();
                    assert!((0.0..=5.0).contains(&q));
                }
            }
        }
    }
}
