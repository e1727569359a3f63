//! Power model parameters.

use ecas_types::units::{Dbm, Seconds};
use serde::Serialize;

/// Parameters of the radio (download) power model
/// `P_dl(s, thr) = β(s) + α(s)·thr` with
/// `β(s) = β0 + β1·max(0, s_ref − s)` and
/// `α(s) = α0·(1 + α1·max(0, s_ref − s))`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
// ecas-lint: allow(pub-surface, reason = "part of the crate's re-exported public API surface")
pub struct RadioPowerParams {
    /// Baseline radio power at the reference signal (W).
    pub beta0: f64,
    /// Additional baseline power per dB below the reference (W/dB).
    pub beta1: f64,
    /// Energy per megabit at the reference signal (equivalently W per
    /// Mbps of sustained throughput).
    pub alpha0: f64,
    /// Relative growth of `α` per dB below the reference (1/dB).
    pub alpha1: f64,
    /// Reference signal strength below which costs grow.
    pub s_ref: Dbm,
    /// Radio tail power after a download burst ends (W) — the LTE
    /// RRC-tail effect studied in the paper's refs [7, 29, 30].
    pub tail_power: f64,
    /// Tail duration after each burst. The newtype rejects NaN and
    /// negative durations at construction.
    pub tail_seconds: Seconds,
}

impl RadioPowerParams {
    /// Calibrated reference values (Fig. 1a anchors: ≈ 49 J / 100 MB at
    /// −90 dBm and ≈ 193 J / 100 MB at −115 dBm given the bulk-download
    /// throughput map).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            beta0: 1.10,
            beta1: 0.050,
            alpha0: 0.0264,
            alpha1: 0.030,
            s_ref: Dbm::new(-90.0),
            tail_power: 0.80,
            tail_seconds: Seconds::new(1.0),
        }
    }

    /// Validates the parameter ranges.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.beta0 > 0.0
            && self.beta1 >= 0.0
            && self.alpha0 > 0.0
            && self.alpha1 >= 0.0
            && self.tail_power >= 0.0
            && [self.beta0, self.beta1, self.alpha0, self.alpha1]
                .iter()
                .all(|v| v.is_finite())
    }
}

/// Parameters of the playback power model
/// `P_play(r) = screen + γ0 + γ1·r`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
// ecas-lint: allow(pub-surface, reason = "part of the crate's re-exported public API surface")
pub struct PlaybackPowerParams {
    /// Screen power while the video is on screen (W).
    pub screen: f64,
    /// Baseline decode/render power (W).
    pub gamma0: f64,
    /// Additional decode power per Mbps of video bitrate (W/Mbps).
    pub gamma1: f64,
}

impl PlaybackPowerParams {
    /// Calibrated reference values (whole-phone streaming draw ≈ 2 W at
    /// 1080p, matching the Fig. 5 energy magnitudes).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            screen: 0.75,
            gamma0: 0.50,
            gamma1: 0.020,
        }
    }

    /// Validates the parameter ranges.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.screen > 0.0
            && self.gamma0 >= 0.0
            && self.gamma1 >= 0.0
            && [self.screen, self.gamma0, self.gamma1]
                .iter()
                .all(|v| v.is_finite())
    }
}

/// The full power parameter bundle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerParams {
    /// Radio (download) power parameters.
    pub radio: RadioPowerParams,
    /// Playback power parameters.
    pub playback: PlaybackPowerParams,
}

impl PowerParams {
    /// The calibrated reference bundle.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            radio: RadioPowerParams::paper(),
            playback: PlaybackPowerParams::paper(),
        }
    }

    /// Validates all components.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.radio.is_valid() && self.playback.is_valid()
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_valid() {
        assert!(RadioPowerParams::paper().is_valid());
        assert!(PlaybackPowerParams::paper().is_valid());
        assert!(PowerParams::paper().is_valid());
    }

    #[test]
    fn invalid_params_detected() {
        let mut r = RadioPowerParams::paper();
        r.alpha0 = 0.0;
        assert!(!r.is_valid());
        let mut p = PlaybackPowerParams::paper();
        p.screen = -1.0;
        assert!(!p.is_valid());
    }
}
