//! The combined power model.

use ecas_types::units::{Dbm, Joules, Mbps, MegaBytes, Seconds, Watts};
use serde::Serialize;

use crate::params::PowerParams;

/// The whole-phone power model: screen + decode while playing, radio while
/// downloading, radio tail after bursts.
///
/// # Examples
///
/// ```
/// use ecas_power::model::PowerModel;
/// use ecas_types::units::{Dbm, Mbps};
///
/// let m = PowerModel::paper();
/// let strong = m.radio_power(Dbm::new(-85.0), Mbps::new(20.0));
/// let weak = m.radio_power(Dbm::new(-115.0), Mbps::new(20.0));
/// assert!(weak > strong, "weak signal draws more radio power");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerModel {
    params: PowerParams,
}

impl PowerModel {
    /// Builds the model from parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`PowerParams::is_valid`].
    #[must_use]
    pub fn new(params: PowerParams) -> Self {
        assert!(params.is_valid(), "invalid power parameters");
        Self { params }
    }

    /// The calibrated reference model.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(PowerParams::paper())
    }

    /// The underlying parameters.
    #[must_use]
    pub fn params(&self) -> &PowerParams {
        &self.params
    }

    /// Signal-dependent baseline radio power `β(s)`.
    #[must_use]
    pub fn beta(&self, signal: Dbm) -> f64 {
        let r = &self.params.radio;
        r.beta0 + r.beta1 * signal.weaker_than(r.s_ref).max(0.0)
    }

    /// Signal-dependent per-throughput radio cost `α(s)` (W per Mbps).
    #[must_use]
    pub fn alpha(&self, signal: Dbm) -> f64 {
        let r = &self.params.radio;
        r.alpha0 * (1.0 + r.alpha1 * signal.weaker_than(r.s_ref).max(0.0))
    }

    /// Instantaneous radio power while downloading at `throughput` under
    /// `signal` (Eq. 7).
    #[must_use]
    pub fn radio_power(&self, signal: Dbm, throughput: Mbps) -> Watts {
        Watts::new(self.beta(signal) + self.alpha(signal) * throughput.value())
    }

    /// Radio tail power after a download burst (the LTE RRC tail).
    #[must_use]
    pub fn tail_power(&self) -> Watts {
        Watts::new(self.params.radio.tail_power)
    }

    /// Tail duration after each burst.
    #[must_use]
    pub fn tail_seconds(&self) -> Seconds {
        self.params.radio.tail_seconds
    }

    /// Screen power while the player is on screen.
    #[must_use]
    pub fn screen_power(&self) -> Watts {
        Watts::new(self.params.playback.screen)
    }

    /// Decode/render power while playing a stream of `bitrate` (Eq. 6
    /// without the screen term).
    #[must_use]
    pub fn decode_power(&self, bitrate: Mbps) -> Watts {
        let p = &self.params.playback;
        Watts::new(p.gamma0 + p.gamma1 * bitrate.value())
    }

    /// Whole-phone playback-only power (screen + decode), the paper's
    /// no-transmission model.
    #[must_use]
    pub fn playback_power(&self, bitrate: Mbps) -> Watts {
        self.screen_power() + self.decode_power(bitrate)
    }

    /// Energy to download `data` as one sustained bulk transfer under
    /// `signal`, using the bulk throughput map — the Fig. 1(a) experiment.
    ///
    /// Only the radio energy is counted, matching the paper's measurement
    /// ("we focus on the power consumption of the wireless interface").
    #[must_use]
    pub fn bulk_download_energy(&self, data: MegaBytes, signal: Dbm) -> Joules {
        let thr = self.bulk_throughput(signal);
        let time = data.transfer_time(thr);
        self.radio_power(signal, thr) * time
    }

    /// The achievable bulk-download throughput at a given signal strength,
    /// used by the Fig. 1(a) experiment and by the synthetic validation.
    ///
    /// Piecewise linear: ≈ 31.5 Mbps at −90 dBm, shrinking 0.78 Mbps per
    /// dB below it (floor 1 Mbps) and growing 0.5 Mbps per dB above it
    /// (cap 45 Mbps).
    #[must_use]
    pub fn bulk_throughput(&self, signal: Dbm) -> Mbps {
        let weaker = signal.weaker_than(self.params.radio.s_ref);
        let thr = if weaker >= 0.0 {
            31.5 - 0.78 * weaker
        } else {
            31.5 + 0.5 * (-weaker)
        };
        Mbps::new(thr.clamp(1.0, 45.0))
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn m() -> PowerModel {
        PowerModel::paper()
    }

    #[test]
    fn fig_1a_anchors() {
        // 100 MB costs ~49 J at -90 dBm and ~193 J at -115 dBm.
        let at = |s: f64| {
            m().bulk_download_energy(MegaBytes::new(100.0), Dbm::new(s))
                .value()
        };
        let strong = at(-90.0);
        let weak = at(-115.0);
        assert!((strong - 49.0).abs() < 5.0, "E(-90) = {strong}");
        assert!((weak - 193.0).abs() < 20.0, "E(-115) = {weak}");
    }

    #[test]
    fn fig_1a_curve_is_monotone_in_weakness() {
        let model = m();
        let mut prev = 0.0;
        for s in [-90.0, -95.0, -100.0, -105.0, -110.0, -115.0] {
            let e = model
                .bulk_download_energy(MegaBytes::new(100.0), Dbm::new(s))
                .value();
            assert!(e > prev, "E({s}) = {e} not increasing");
            prev = e;
        }
    }

    #[test]
    fn radio_power_in_plausible_lte_range() {
        let model = m();
        for s in [-80.0, -90.0, -100.0, -115.0] {
            for thr in [1.0, 10.0, 30.0] {
                let p = model.radio_power(Dbm::new(s), Mbps::new(thr)).value();
                assert!((0.5..=6.0).contains(&p), "P({s}, {thr}) = {p}");
            }
        }
    }

    #[test]
    fn playback_power_grows_mildly_with_bitrate() {
        let model = m();
        let low = model.playback_power(Mbps::new(0.1)).value();
        let high = model.playback_power(Mbps::new(5.8)).value();
        assert!(high > low);
        assert!(high - low < 0.3, "decode delta is small vs screen");
        assert!((1.2..=2.0).contains(&high), "whole-phone playback {high} W");
    }

    #[test]
    fn alpha_beta_grow_only_below_reference() {
        let model = m();
        assert_eq!(model.beta(Dbm::new(-80.0)), model.beta(Dbm::new(-90.0)));
        assert!(model.beta(Dbm::new(-100.0)) > model.beta(Dbm::new(-90.0)));
        assert_eq!(model.alpha(Dbm::new(-85.0)), model.alpha(Dbm::new(-90.0)));
        assert!(model.alpha(Dbm::new(-110.0)) > model.alpha(Dbm::new(-90.0)));
    }

    #[test]
    fn bulk_throughput_bounds() {
        let model = m();
        assert_eq!(model.bulk_throughput(Dbm::new(-140.0)), Mbps::new(1.0));
        assert_eq!(model.bulk_throughput(Dbm::new(-20.0)), Mbps::new(45.0));
        let mid = model.bulk_throughput(Dbm::new(-90.0)).value();
        assert!((mid - 31.5).abs() < 1e-9);
    }
}
