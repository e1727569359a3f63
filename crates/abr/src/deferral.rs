//! Signal-aware download deferral — opportunistic scheduling on top of any
//! bitrate controller.
//!
//! The paper's energy model makes bytes dearest exactly when the signal is
//! weakest (Fig. 1a). Its refs \[7, 8\] exploit this by *scheduling*
//! downloads, not just sizing them: with a buffer in hand, a download can
//! wait out a deep fade and fetch the same bytes at a fraction of the
//! energy seconds later. [`SignalDeferral`] wraps any inner controller
//! and defers whenever the signal is below a threshold while the buffer
//! retains a comfortable reserve.

use ecas_sim::controller::{BitrateController, Decision, DecisionContext};
use ecas_types::ladder::LevelIndex;
use ecas_types::units::{Dbm, Seconds};

/// Signal strength below which a download is deferred (dBm).
const THRESHOLD_DBM: f64 = -104.0;
/// Fraction of the buffer threshold that must remain buffered to defer.
const RESERVE_FRACTION: f64 = 0.6;
/// How long one deferral waits (s).
const WAIT_S: f64 = 2.0;

/// Opportunistic deferral wrapper.
///
/// # Examples
///
/// ```
/// use ecas_abr::{Online, SignalDeferral};
/// use ecas_sim::Simulator;
/// use ecas_trace::videos::EvalTraceSpec;
/// use ecas_types::ladder::BitrateLadder;
///
/// let session = EvalTraceSpec::table_v()[2].generate(); // vehicle trace
/// let sim = Simulator::paper(BitrateLadder::evaluation());
/// let plain = sim.run(&session, &mut Online::paper());
/// let deferred = sim.run(&session, &mut SignalDeferral::wrap(Online::paper()));
/// // Waiting out fades must not cause stalls.
/// assert!(deferred.total_rebuffer.value() < 1.0);
/// # let _ = plain;
/// ```
#[derive(Debug, Clone)]
pub struct SignalDeferral<C> {
    inner: C,
}

impl<C: BitrateController> SignalDeferral<C> {
    /// Wraps `inner` with the default policy: defer while the signal is
    /// below −104 dBm and more than 60 % of the buffer threshold remains
    /// (the reserve must outlast a worst-case fade-priced download).
    #[must_use]
    pub fn wrap(inner: C) -> Self {
        Self { inner }
    }
}

impl<C: BitrateController> BitrateController for SignalDeferral<C> {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        self.inner.select(ctx)
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        let reserve = ctx.buffer_threshold.value() * RESERVE_FRACTION;
        if ctx.playback_started
            && ctx.signal < Dbm::new(THRESHOLD_DBM)
            && ctx.buffer_level.value() > reserve
        {
            Decision::Defer(Seconds::new(WAIT_S))
        } else {
            Decision::Download(self.inner.select(ctx))
        }
    }

    fn name(&self) -> String {
        format!("{}+defer", self.inner.name())
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Online;
    use ecas_sim::controller::FixedLevel;
    use ecas_sim::Simulator;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;
    use ecas_types::ids::SegmentIndex;
    use ecas_types::ladder::BitrateLadder;
    use ecas_types::units::MetersPerSec2;

    fn ctx<'a>(
        ladder: &'a BitrateLadder,
        buffer: f64,
        signal: f64,
        playing: bool,
    ) -> DecisionContext<'a> {
        DecisionContext {
            segment: SegmentIndex::new(10),
            total_segments: 100,
            now: Seconds::new(30.0),
            buffer_level: Seconds::new(buffer),
            prev_level: None,
            ladder,
            segment_duration: Seconds::new(2.0),
            buffer_threshold: Seconds::new(30.0),
            playback_started: playing,
            history: &[],
            vibration: Some(MetersPerSec2::new(5.0)),
            signal: Dbm::new(signal),
        }
    }

    #[test]
    fn defers_in_deep_fade_with_buffer() {
        let ladder = BitrateLadder::evaluation();
        let mut d = SignalDeferral::wrap(FixedLevel::highest());
        match d.decide(&ctx(&ladder, 20.0, -115.0, true)) {
            Decision::Defer(wait) => assert_eq!(wait, Seconds::new(2.0)),
            other => panic!("expected deferral, got {other:?}"),
        }
    }

    #[test]
    fn downloads_when_signal_strong_or_buffer_low() {
        let ladder = BitrateLadder::evaluation();
        let mut d = SignalDeferral::wrap(FixedLevel::highest());
        assert!(matches!(
            d.decide(&ctx(&ladder, 20.0, -85.0, true)),
            Decision::Download(_)
        ));
        assert!(matches!(
            d.decide(&ctx(&ladder, 5.0, -115.0, true)),
            Decision::Download(_)
        ));
        // Startup phase never defers.
        assert!(matches!(
            d.decide(&ctx(&ladder, 20.0, -115.0, false)),
            Decision::Download(_)
        ));
    }

    #[test]
    fn deferral_saves_radio_energy_on_vehicle_without_stalls() {
        let session = SessionGenerator::new(
            "defer",
            ContextSchedule::constant(Context::MovingVehicle),
            Seconds::new(300.0),
            13,
        )
        .generate();
        let sim = Simulator::paper(BitrateLadder::evaluation());
        let plain = sim.run(&session, &mut Online::paper());
        let deferred = sim.run(&session, &mut SignalDeferral::wrap(Online::paper()));
        assert!(
            deferred.total_rebuffer.value() < 1.0,
            "deferral stalled {}",
            deferred.total_rebuffer
        );
        // Radio energy should not get worse; usually it improves because
        // fewer bytes are bought at fade prices.
        assert!(
            deferred.energy.radio.value() <= plain.energy.radio.value() * 1.05,
            "deferred radio {} vs plain {}",
            deferred.energy.radio,
            plain.energy.radio
        );
    }

    #[test]
    fn fixed_bitrate_with_deferral_buys_cheaper_bytes() {
        // With the bitrate pinned, deferral isolates the scheduling gain:
        // the same bytes are bought at stronger signal on average.
        let session = SessionGenerator::new(
            "defer-fixed",
            ContextSchedule::constant(Context::MovingVehicle),
            Seconds::new(300.0),
            17,
        )
        .generate();
        let sim = Simulator::paper(BitrateLadder::evaluation());
        let mid = ecas_types::ladder::LevelIndex::new(7); // 1.5 Mbps
        let plain = sim.run(&session, &mut FixedLevel::new(mid));
        let deferred = sim.run(&session, &mut SignalDeferral::wrap(FixedLevel::new(mid)));
        assert_eq!(plain.downloaded, deferred.downloaded, "same bytes");
        let mean_signal = |r: &ecas_sim::SessionResult| {
            r.tasks.iter().map(|t| t.signal.value()).sum::<f64>() / r.tasks.len() as f64
        };
        assert!(
            mean_signal(&deferred) >= mean_signal(&plain) - 0.3,
            "deferred bought bytes at weaker signal: {} vs {}",
            mean_signal(&deferred),
            mean_signal(&plain)
        );
    }

    #[test]
    fn name_reflects_wrapping() {
        let d = SignalDeferral::wrap(Online::paper());
        assert_eq!(d.name(), "ours+defer");
    }
}
