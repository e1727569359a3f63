//! Per-task energy (Eqs. 8–10).
//!
//! A *task* downloads one segment of duration `τ` encoded at bitrate `r`
//! while (usually) the previously-buffered video plays. The paper
//! distinguishes two cases:
//!
//! * **No rebuffering** (Eq. 8): the segment of size `D(r) = r·τ/8`
//!   downloads in `T_dl = D/thr ≤` available time; energy is radio power
//!   over `T_dl` plus playback power over the task span `τ`.
//! * **Rebuffering** (Eq. 9): the download outlasts the buffer; during the
//!   stall there is no playback, so the stalled time is charged at
//!   download-only power (screen stays on showing the spinner).
//!
//! Eq. 10 selects between them. This *planning* model deliberately indexes
//! throughput and signal by task so the optimal algorithm's edge weights
//! are separable (see `DESIGN.md`); the event simulator in `ecas-sim`
//! computes the same quantities from actual timelines.

use ecas_types::units::{Dbm, Joules, Mbps, Seconds};
use serde::Serialize;

use crate::model::PowerModel;

/// The conditions a task executes under (from the trace, indexed by task).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TaskConditions {
    /// Estimated/observed downlink throughput during the task.
    pub throughput: Mbps,
    /// Signal strength during the task.
    pub signal: Dbm,
    /// Playback time available before the buffer drains (clamped at the
    /// buffer threshold; `τ` at steady state).
    pub buffer_ahead: Seconds,
}

/// Energy breakdown of one task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
// ecas-lint: allow(pub-surface, reason = "result type of the public TaskEnergyModel::energy")
pub struct TaskEnergy {
    /// Radio energy spent downloading.
    pub download: Joules,
    /// Screen + decode energy over the task span.
    pub playback: Joules,
    /// Stall time implied by the plan (zero when the segment arrives in
    /// time).
    pub rebuffer: Seconds,
    /// Total energy (download + playback, including the stall period).
    pub total: Joules,
}

/// Planning-level task-energy model (Eqs. 8–10).
///
/// # Examples
///
/// ```
/// use ecas_power::model::PowerModel;
/// use ecas_power::task::{TaskConditions, TaskEnergyModel};
/// use ecas_types::units::{Dbm, Mbps, Seconds};
///
/// let model = TaskEnergyModel::new(PowerModel::paper(), Seconds::new(2.0));
/// let cond = TaskConditions {
///     throughput: Mbps::new(20.0),
///     signal: Dbm::new(-90.0),
///     buffer_ahead: Seconds::new(30.0),
/// };
/// let cheap = model.energy(Mbps::new(0.375), cond);
/// let costly = model.energy(Mbps::new(5.8), cond);
/// assert!(costly.total > cheap.total, "higher bitrate costs more energy");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TaskEnergyModel {
    power: PowerModel,
    segment_duration: Seconds,
}

impl TaskEnergyModel {
    /// Builds the model for segments of `segment_duration` (the paper uses
    /// 2-second segments).
    ///
    /// # Panics
    ///
    /// Panics if `segment_duration` is zero.
    #[must_use]
    pub fn new(power: PowerModel, segment_duration: Seconds) -> Self {
        assert!(
            !segment_duration.is_zero(),
            "segment duration must be positive"
        );
        Self {
            power,
            segment_duration,
        }
    }

    /// The underlying power model.
    #[must_use]
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The segment duration `τ`.
    #[must_use]
    pub fn segment_duration(&self) -> Seconds {
        self.segment_duration
    }

    /// Energy to execute a task that downloads a segment encoded at
    /// `bitrate` under `conditions` (Eqs. 8–10).
    #[must_use]
    pub fn energy(&self, bitrate: Mbps, conditions: TaskConditions) -> TaskEnergy {
        let tau = self.segment_duration;
        let size = bitrate.data_over(tau);
        let thr = conditions.throughput.max(Mbps::new(0.01));
        let t_dl = size.transfer_time(thr);

        let radio = self.power.radio_power(conditions.signal, thr);
        let download = radio * t_dl;

        // Does the segment arrive before the buffer drains? (Eq. 10)
        //
        // Planning energy counts the *bitrate-dependent* components only:
        // radio transmission and decode/processing, per the paper's power
        // models ("we focus on the power consumption of the wireless
        // interface"). The screen draws the same regardless of the chosen
        // bitrate, so including it would only dilute the Eq. (11) energy
        // term; the simulator still measures whole-phone energy. A stall,
        // however, *extends* screen-on time, so stalled seconds are
        // charged at screen power — a real marginal cost of choosing an
        // unsustainable bitrate.
        let available = conditions.buffer_ahead;
        if t_dl <= available {
            // Eq. 8: playback continues for the whole task span.
            let playback = self.power.decode_power(bitrate) * tau;
            TaskEnergy {
                download,
                playback,
                rebuffer: Seconds::zero(),
                total: download + playback,
            }
        } else {
            // Eq. 9: the buffer drains after `available`; the remainder of
            // the download is a stall with the screen on but no decode.
            let stall = t_dl.saturating_sub(available);
            let playing = self.power.decode_power(bitrate) * tau;
            let stalled_screen = self.power.screen_power() * stall;
            TaskEnergy {
                download,
                playback: playing + stalled_screen,
                rebuffer: stall,
                total: download + playing + stalled_screen,
            }
        }
    }

    /// Total energy for downloading the segment at the *highest* ladder
    /// bitrate — the normalizer `E_max` of Eq. (11).
    #[must_use]
    pub fn max_energy(&self, max_bitrate: Mbps, conditions: TaskConditions) -> Joules {
        self.energy(max_bitrate, conditions).total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TaskEnergyModel {
        TaskEnergyModel::new(PowerModel::paper(), Seconds::new(2.0))
    }

    fn cond(thr: f64, s: f64, ahead: f64) -> TaskConditions {
        TaskConditions {
            throughput: Mbps::new(thr),
            signal: Dbm::new(s),
            buffer_ahead: Seconds::new(ahead),
        }
    }

    #[test]
    fn energy_monotone_in_bitrate() {
        let m = model();
        let c = cond(20.0, -95.0, 30.0);
        let ladder = [0.1, 0.375, 0.75, 1.5, 3.0, 5.8];
        let mut prev = 0.0;
        for r in ladder {
            let e = m.energy(Mbps::new(r), c).total.value();
            assert!(e > prev, "E({r}) = {e} not increasing");
            prev = e;
        }
    }

    #[test]
    fn energy_monotone_in_signal_weakness() {
        let m = model();
        let mut prev = 0.0;
        for s in [-85.0, -95.0, -105.0, -115.0] {
            let e = m.energy(Mbps::new(3.0), cond(15.0, s, 30.0)).total.value();
            assert!(e > prev, "E(s={s}) = {e} not increasing");
            prev = e;
        }
    }

    #[test]
    fn no_rebuffer_when_throughput_sufficient() {
        let m = model();
        // 5.8 Mbps segment over 20 Mbps link: t_dl = 0.58 s < 30 s.
        let e = m.energy(Mbps::new(5.8), cond(20.0, -90.0, 30.0));
        assert_eq!(e.rebuffer, Seconds::zero());
        assert_eq!(e.total, e.download + e.playback);
    }

    #[test]
    fn rebuffer_when_throughput_insufficient() {
        let m = model();
        // 5.8 Mbps segment over 0.5 Mbps link with only 2 s of buffer:
        // t_dl = 1.45 MB / 0.0625 MB/s = 23.2 s >> 2 s.
        let e = m.energy(Mbps::new(5.8), cond(0.5, -110.0, 2.0));
        assert!(e.rebuffer.value() > 20.0, "stall {:?}", e.rebuffer);
        // A stalled task costs more than the same task with a full buffer
        // thanks to the screen burning during the stall.
        let buffered = m.energy(Mbps::new(5.8), cond(0.5, -110.0, 30.0));
        assert!(e.total > buffered.total);
    }

    #[test]
    fn downloading_cheap_segment_fast_costs_less_radio() {
        let m = model();
        let c = cond(20.0, -100.0, 30.0);
        let small = m.energy(Mbps::new(0.375), c);
        let large = m.energy(Mbps::new(5.8), c);
        assert!(large.download.value() > 10.0 * small.download.value());
    }

    #[test]
    fn max_energy_equals_energy_at_max() {
        let m = model();
        let c = cond(10.0, -95.0, 30.0);
        assert_eq!(
            m.max_energy(Mbps::new(5.8), c),
            m.energy(Mbps::new(5.8), c).total
        );
    }

    #[test]
    fn zero_throughput_clamped_not_panicking() {
        let m = model();
        let e = m.energy(Mbps::new(1.0), cond(0.0, -115.0, 5.0));
        assert!(e.total.value().is_finite());
        assert!(e.rebuffer.value() > 0.0);
    }

    #[test]
    #[should_panic(expected = "segment duration must be positive")]
    fn rejects_zero_segment_duration() {
        let _ = TaskEnergyModel::new(PowerModel::paper(), Seconds::zero());
    }
}
