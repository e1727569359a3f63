//! Model parameter sets (the role of Table III in the paper).

use serde::Serialize;

/// Parameters of the original-quality curve
/// `q0(r) = q_max − a·exp(−b·r^p)` (Fig. 2b fit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QualityParams {
    /// Asymptotic quality at infinite bitrate (≤ 5).
    pub q_max: f64,
    /// Depth of the quality deficit at zero bitrate.
    pub a: f64,
    /// Rate constant of the saturation.
    pub b: f64,
    /// Stretching exponent in `(0, 1]`.
    pub p: f64,
}

impl QualityParams {
    /// The reference parameters used as ground truth for the synthetic
    /// subjective study. Calibrated (see `DESIGN.md`) to four Fig. 2(b)
    /// anchors — `q0(0.1) ≈ 1.5`, `q0(0.75) ≈ 3.2`, `q0(1.5) ≈ 3.96`,
    /// `q0(5.8) ≈ 4.5` — which also reproduce the 12 % room-context drop
    /// from 1080p to 480p quoted in Section II.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            q_max: 4.5033,
            a: 3.5485,
            b: 1.3035,
            p: 0.8955,
        }
    }

    /// Validates the parameter ranges.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.q_max.is_finite()
            && self.a.is_finite()
            && self.b.is_finite()
            && self.p.is_finite()
            && self.q_max > 1.0
            && self.q_max <= 5.0 + 1e-9
            && self.a > 0.0
            && self.b > 0.0
            && self.p > 0.0
            && self.p <= 1.5
    }
}

/// Parameters of the vibration-impairment surface `I(v, r) = k·v^p·r^q`
/// (Fig. 2c fit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ImpairmentParams {
    /// Scale factor.
    pub k: f64,
    /// Exponent on the vibration level.
    pub p: f64,
    /// Exponent on the bitrate.
    pub q: f64,
}

impl ImpairmentParams {
    /// The reference parameters used as ground truth for the synthetic
    /// subjective study. Calibrated against the four anchor values the
    /// paper quotes from Fig. 2(c):
    /// `I(2, 1.5) = 0.049`, `I(6, 1.5) = 0.184`,
    /// `I(2, 5.8) = 0.174`, `I(6, 5.8) = 0.549`.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            k: 0.0161,
            p: 1.10,
            q: 0.87,
        }
    }

    /// Validates the parameter ranges.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.k.is_finite()
            && self.p.is_finite()
            && self.q.is_finite()
            && self.k > 0.0
            && self.p > 0.0
            && self.q > 0.0
    }
}

/// Weights of the switch and rebuffering penalties in Eq. (1).
///
/// The paper's Eq. (1) structure follows the multi-metric QoE literature it
/// cites (refs [16, 25]): a bitrate-switch term and a rebuffering term. The
/// paper does not publish the weights; these defaults are documented
/// assumptions (see `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
// ecas-lint: allow(pub-surface, reason = "part of the crate's re-exported public API surface")
pub struct PenaltyParams {
    /// Weight of `|q0(r_i) − q0(r_{i−1})|` per segment transition.
    pub switch_mu: f64,
    /// QoE points deducted per second of rebuffering.
    pub rebuffer_lambda: f64,
}

impl PenaltyParams {
    /// Default penalty weights.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            switch_mu: 0.5,
            rebuffer_lambda: 0.75,
        }
    }

    /// Disables both penalties (useful for isolating the context model).
    #[must_use]
    pub fn none() -> Self {
        Self {
            switch_mu: 0.0,
            rebuffer_lambda: 0.0,
        }
    }

    /// Validates the parameter ranges.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.switch_mu.is_finite()
            && self.rebuffer_lambda.is_finite()
            && self.switch_mu >= 0.0
            && self.rebuffer_lambda >= 0.0
    }
}

/// The full QoE parameter bundle (our Table III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QoeParams {
    /// Original-quality curve parameters.
    pub quality: QualityParams,
    /// Vibration-impairment surface parameters.
    pub impairment: ImpairmentParams,
    /// Switch / rebuffer penalty weights.
    pub penalty: PenaltyParams,
}

impl QoeParams {
    /// The reference (ground-truth) bundle.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            quality: QualityParams::paper(),
            impairment: ImpairmentParams::paper(),
            penalty: PenaltyParams::paper(),
        }
    }

    /// Validates all components.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.quality.is_valid() && self.impairment.is_valid() && self.penalty.is_valid()
    }
}

impl Default for QoeParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_are_valid() {
        assert!(QualityParams::paper().is_valid());
        assert!(ImpairmentParams::paper().is_valid());
        assert!(PenaltyParams::paper().is_valid());
        assert!(QoeParams::paper().is_valid());
        assert!(QoeParams::default().is_valid());
    }

    #[test]
    fn invalid_params_detected() {
        let mut q = QualityParams::paper();
        q.b = -1.0;
        assert!(!q.is_valid());
        let mut i = ImpairmentParams::paper();
        i.k = 0.0;
        assert!(!i.is_valid());
        let mut p = PenaltyParams::paper();
        p.switch_mu = f64::NAN;
        assert!(!p.is_valid());
    }
}
