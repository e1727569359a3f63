//! The original-quality curve `q0(r)` (Fig. 2b).
//!
//! Measured in a quiet room so that no vibration impairment applies, the
//! perceived quality rises steeply at low bitrates and saturates at high
//! bitrates — "further increasing the bitrate will not lead to significant
//! increase in the QoE" (Section III-B, consistent with refs [18, 19]).

use ecas_types::units::{Mbps, QoeScore};
use serde::Serialize;

use crate::params::QualityParams;

/// The original (context-free) quality model
/// `q0(r) = clamp(q_max − a·exp(−b·r^p), 1, 5)`.
///
/// # Examples
///
/// ```
/// use ecas_qoe::quality::OriginalQuality;
/// use ecas_types::units::Mbps;
///
/// let q0 = OriginalQuality::paper();
/// let low = q0.at(Mbps::new(0.1));
/// let high = q0.at(Mbps::new(5.8));
/// assert!(low.value() < 2.0 && high.value() > 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OriginalQuality {
    params: QualityParams,
}

impl OriginalQuality {
    /// Builds the model from parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`QualityParams::is_valid`].
    #[must_use]
    pub fn new(params: QualityParams) -> Self {
        assert!(params.is_valid(), "invalid quality parameters: {params:?}");
        Self { params }
    }

    /// The reference model calibrated to Fig. 2(b).
    #[must_use]
    pub fn paper() -> Self {
        Self::new(QualityParams::paper())
    }

    /// The underlying parameters.
    #[must_use]
    pub fn params(&self) -> &QualityParams {
        &self.params
    }

    /// Evaluates `q0(r)`, clamped to the five-level MOS scale `[1, 5]`.
    #[must_use]
    pub fn at(&self, bitrate: Mbps) -> QoeScore {
        let p = &self.params;
        let raw = p.q_max - p.a * (-p.b * bitrate.value().powf(p.p)).exp();
        QoeScore::new(raw.clamp(1.0, 5.0))
    }

    /// Relative quality drop (fraction in `[0, 1]`) when moving from
    /// `from` down to `to` — e.g. the paper's "12 %" from 1080p to 480p.
    ///
    /// # Panics
    ///
    /// Panics if `from` yields zero quality (cannot happen for clamped
    /// scores, which are at least 1).
    #[must_use]
    pub fn relative_drop(&self, from: Mbps, to: Mbps) -> f64 {
        let hi = self.at(from).value();
        let lo = self.at(to).value();
        assert!(hi > 0.0, "clamped quality is always at least 1");
        ((hi - lo) / hi).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_fig_2b() {
        let q0 = OriginalQuality::paper();
        let at = |r: f64| q0.at(Mbps::new(r)).value();
        assert!((at(0.1) - 1.5).abs() < 0.1, "q0(0.1) = {}", at(0.1));
        assert!((at(1.5) - 3.96).abs() < 0.1, "q0(1.5) = {}", at(1.5));
        assert!((at(5.8) - 4.5).abs() < 0.1, "q0(5.8) = {}", at(5.8));
    }

    #[test]
    fn twelve_percent_drop_1080p_to_480p() {
        let q0 = OriginalQuality::paper();
        let drop = q0.relative_drop(Mbps::new(5.8), Mbps::new(1.5));
        assert!((drop - 0.12).abs() < 0.02, "room drop = {drop}");
    }

    #[test]
    fn monotone_in_bitrate() {
        let q0 = OriginalQuality::paper();
        let rs = [0.05, 0.1, 0.375, 0.75, 1.5, 3.0, 5.8, 10.0, 50.0];
        for w in rs.windows(2) {
            assert!(
                q0.at(Mbps::new(w[0])) <= q0.at(Mbps::new(w[1])),
                "q0 not monotone between {} and {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn saturates_at_high_bitrate() {
        let q0 = OriginalQuality::paper();
        // The marginal gain from 3.0 to 5.8 is much smaller than from
        // 0.375 to 1.5 (the "does not improve too much" observation).
        let low_gain = q0.at(Mbps::new(1.5)).value() - q0.at(Mbps::new(0.375)).value();
        let high_gain = q0.at(Mbps::new(5.8)).value() - q0.at(Mbps::new(3.0)).value();
        assert!(high_gain < 0.5 * low_gain);
    }

    #[test]
    fn clamped_to_mos_scale() {
        let q0 = OriginalQuality::paper();
        for r in [0.0, 0.001, 0.01, 100.0, 1000.0] {
            let q = q0.at(Mbps::new(r)).value();
            assert!((1.0..=5.0).contains(&q), "q0({r}) = {q}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid quality parameters")]
    fn rejects_invalid_params() {
        let mut p = QualityParams::paper();
        p.p = -0.5;
        let _ = OriginalQuality::new(p);
    }
}
