//! A PID buffer controller (paper's ref \[4\], Qin et al., INFOCOM'17) —
//! related-work extension.
//!
//! The controller regulates the playback buffer toward a setpoint with a
//! discrete PID loop: the control output scales the bandwidth estimate
//! into a target bitrate. When the buffer sits below the setpoint the
//! controller requests less than the link can carry (refilling); above
//! it, slightly more (draining). This reproduces the "fresh look at
//! PID-based rate adaptation" design at the level of detail the paper
//! uses for its other baselines.

use ecas_net::{BandwidthEstimator, HarmonicMean};
use ecas_sim::controller::{BitrateController, DecisionContext};
use ecas_types::ladder::LevelIndex;

/// Buffer setpoint the loop regulates toward (s).
const SETPOINT_S: f64 = 20.0;
/// Proportional gain.
const KP: f64 = 0.06;
/// Integral gain.
const KI: f64 = 0.002;
/// Derivative gain.
const KD: f64 = 0.08;

/// Discrete PID buffer-tracking controller.
#[derive(Debug, Clone)]
pub struct Pid {
    integral: f64,
    prev_error: Option<f64>,
    estimator: HarmonicMean,
    history_len: usize,
}

impl Pid {
    /// Creates a PID controller with a 20 s buffer setpoint and standard
    /// conservative gains.
    #[must_use]
    pub fn new() -> Self {
        Self {
            integral: 0.0,
            prev_error: None,
            estimator: HarmonicMean::new(5),
            history_len: 0,
        }
    }
}

impl Default for Pid {
    fn default() -> Self {
        Self::new()
    }
}

impl BitrateController for Pid {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        if ctx.history.len() < self.history_len {
            // The history shrank: a new session started without reset();
            // recover by starting the estimator over.
            self.reset();
        }
        for obs in ctx.history_since(self.history_len) {
            self.estimator.observe(obs.throughput);
        }
        self.history_len = ctx.history.len();

        let Some(bandwidth) = self.estimator.estimate() else {
            return ctx.ladder.lowest_level();
        };

        // Error > 0 when the buffer is below the setpoint (need to refill
        // by requesting below the link rate).
        let error = SETPOINT_S - ctx.buffer_level.value();
        self.integral = (self.integral + error).clamp(-200.0, 200.0);
        let derivative = match self.prev_error {
            Some(prev) => error - prev,
            None => 0.0,
        };
        self.prev_error = Some(error);

        let control = KP * error + KI * self.integral + KD * derivative;
        // Map the control into a bandwidth multiplier in [0.2, 1.3]:
        // zero error -> request ~95% of the estimate.
        let multiplier = (0.95 - control).clamp(0.2, 1.3);
        let target = bandwidth * multiplier;
        ctx.ladder.highest_at_most_or_lowest(target)
    }

    fn name(&self) -> String {
        "pid".to_string()
    }

    fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
        self.estimator.reset();
        self.history_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_sim::controller::ThroughputObservation;
    use ecas_types::ids::SegmentIndex;
    use ecas_types::ladder::BitrateLadder;
    use ecas_types::units::{Dbm, Mbps, Seconds};

    fn ctx<'a>(
        ladder: &'a BitrateLadder,
        history: &'a [ThroughputObservation],
        buffer: f64,
    ) -> DecisionContext<'a> {
        DecisionContext {
            segment: SegmentIndex::new(history.len()),
            total_segments: 100,
            now: Seconds::zero(),
            buffer_level: Seconds::new(buffer),
            prev_level: None,
            ladder,
            segment_duration: Seconds::new(2.0),
            buffer_threshold: Seconds::new(30.0),
            playback_started: true,
            history,
            vibration: None,
            signal: Dbm::new(-90.0),
        }
    }

    fn obs(values: &[f64]) -> Vec<ThroughputObservation> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| ThroughputObservation {
                segment: SegmentIndex::new(i),
                throughput: Mbps::new(v),
                completed_at: Seconds::new(i as f64),
            })
            .collect()
    }

    #[test]
    fn low_buffer_requests_below_estimate() {
        let ladder = BitrateLadder::evaluation();
        let mut pid = Pid::new();
        let history = obs(&[6.0; 5]);
        let level = pid.select(&ctx(&ladder, &history, 2.0));
        // Error = 18 -> control ~1.1+ -> multiplier clamps low.
        assert!(
            ladder.bitrate(level).value() <= 2.0,
            "low buffer picked {}",
            ladder.bitrate(level)
        );
    }

    #[test]
    fn buffer_at_setpoint_tracks_estimate() {
        let ladder = BitrateLadder::evaluation();
        let mut pid = Pid::new();
        let history = obs(&[6.0; 5]);
        let level = pid.select(&ctx(&ladder, &history, 20.0));
        // Zero error -> 95% of 6 Mbps -> 5.7 -> picks 4.3.
        assert_eq!(ladder.bitrate(level), Mbps::new(4.3));
    }

    #[test]
    fn full_buffer_may_exceed_estimate() {
        let ladder = BitrateLadder::evaluation();
        let mut pid = Pid::new();
        let history = obs(&[5.0; 5]);
        let below = pid.select(&ctx(&ladder, &history, 20.0)).value();
        let mut pid2 = Pid::new();
        let above = pid2.select(&ctx(&ladder, &history, 29.0)).value();
        assert!(above >= below, "full buffer must not request less");
    }

    #[test]
    fn cold_start_lowest_and_reset_works() {
        let ladder = BitrateLadder::evaluation();
        let mut pid = Pid::new();
        assert_eq!(pid.select(&ctx(&ladder, &[], 0.0)), ladder.lowest_level());
        let history = obs(&[8.0; 5]);
        let _ = pid.select(&ctx(&ladder, &history, 20.0));
        pid.reset();
        assert_eq!(pid.select(&ctx(&ladder, &[], 0.0)), ladder.lowest_level());
    }

    #[test]
    fn integral_is_clamped() {
        let ladder = BitrateLadder::evaluation();
        let mut pid = Pid::new();
        let history = obs(&[6.0; 5]);
        // Hammer the controller with a persistently empty buffer; the
        // integral must not wind up unboundedly.
        for _ in 0..10_000 {
            let _ = pid.select(&ctx(&ladder, &history, 0.0));
        }
        assert!(pid.integral.abs() <= 200.0);
    }
}
