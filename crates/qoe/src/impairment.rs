//! The vibration-impairment surface `I(v, r)` (Fig. 2c).
//!
//! Vibration makes high-resolution detail pointless: at 0.1 Mbps the video
//! is poor everywhere so the impairment vanishes, while at 5.8 Mbps heavy
//! vibration wipes out about half a MOS point. The surface grows in both
//! the vibration level and the bitrate.

use ecas_types::units::{Mbps, MetersPerSec2};
use serde::Serialize;

use crate::params::ImpairmentParams;

/// The impairment surface `I(v, r) = k·v^p·r^q` (non-negative, zero at
/// `v = 0`).
///
/// # Examples
///
/// ```
/// use ecas_qoe::impairment::VibrationImpairment;
/// use ecas_types::units::{MetersPerSec2, Mbps};
///
/// let imp = VibrationImpairment::paper();
/// let calm = imp.at(MetersPerSec2::new(0.0), Mbps::new(5.8));
/// let rough = imp.at(MetersPerSec2::new(6.0), Mbps::new(5.8));
/// assert_eq!(calm, 0.0);
/// assert!(rough > 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VibrationImpairment {
    params: ImpairmentParams,
}

impl VibrationImpairment {
    /// Builds the surface from parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`ImpairmentParams::is_valid`].
    #[must_use]
    pub fn new(params: ImpairmentParams) -> Self {
        assert!(
            params.is_valid(),
            "invalid impairment parameters: {params:?}"
        );
        Self { params }
    }

    /// The reference surface calibrated to the Fig. 2(c) anchors.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(ImpairmentParams::paper())
    }

    /// The underlying parameters.
    #[must_use]
    pub fn params(&self) -> &ImpairmentParams {
        &self.params
    }

    /// Evaluates `I(v, r)` in MOS points (non-negative).
    #[must_use]
    pub fn at(&self, vibration: MetersPerSec2, bitrate: Mbps) -> f64 {
        let p = &self.params;
        p.k * vibration.value().powf(p.p) * bitrate.value().powf(p.q)
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn imp(v: f64, r: f64) -> f64 {
        VibrationImpairment::paper().at(MetersPerSec2::new(v), Mbps::new(r))
    }

    #[test]
    fn matches_fig_2c_anchor_values() {
        // The paper quotes these four values in Section III-B.
        assert!((imp(2.0, 1.5) - 0.049).abs() < 0.01, "{}", imp(2.0, 1.5));
        assert!((imp(6.0, 1.5) - 0.184).abs() < 0.03, "{}", imp(6.0, 1.5));
        assert!((imp(2.0, 5.8) - 0.174).abs() < 0.03, "{}", imp(2.0, 5.8));
        assert!((imp(6.0, 5.8) - 0.549).abs() < 0.05, "{}", imp(6.0, 5.8));
    }

    #[test]
    fn zero_vibration_means_zero_impairment() {
        for r in [0.1, 1.5, 5.8] {
            assert_eq!(imp(0.0, r), 0.0);
        }
    }

    #[test]
    fn negligible_at_lowest_bitrate() {
        // "when the bitrate is very small … the vibration impairment is
        // almost zero".
        assert!(imp(6.0, 0.1) < 0.02, "{}", imp(6.0, 0.1));
    }

    #[test]
    fn monotone_in_vibration_and_bitrate() {
        for (v1, v2) in [(0.5, 1.0), (2.0, 4.0), (5.0, 7.0)] {
            assert!(imp(v1, 3.0) < imp(v2, 3.0));
        }
        for (r1, r2) in [(0.1, 0.375), (1.5, 3.0), (3.0, 5.8)] {
            assert!(imp(4.0, r1) < imp(4.0, r2));
        }
    }

    #[test]
    fn surface_stays_below_one_mos_point_in_measured_range() {
        // Fig. 2(c)'s z-axis tops out below 0.8.
        for v in [0.0, 2.0, 4.0, 6.0, 7.0] {
            for r in [0.1, 0.375, 0.75, 1.5, 3.0, 5.8] {
                assert!(imp(v, r) < 1.0, "I({v},{r}) = {}", imp(v, r));
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid impairment parameters")]
    fn rejects_invalid_params() {
        let mut p = ImpairmentParams::paper();
        p.k = -1.0;
        let _ = VibrationImpairment::new(p);
    }
}
