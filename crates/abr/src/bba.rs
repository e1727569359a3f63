//! The BBA baseline (paper's ref \[24\], as described in Section V-A).
//!
//! "A buffer-based bitrate adaptation approach. BBA uses throughput to
//! control video bitrate at the startup phase. After reaching the steady
//! state, BBA maps the current buffer level to bitrate selection using a
//! linear function" — and "requests the highest bitrate after the buffered
//! data is larger than the pre-defined upper threshold".

use ecas_net::{BandwidthEstimator, HarmonicMean};
use ecas_sim::controller::{BitrateController, DecisionContext};
use ecas_types::ladder::LevelIndex;
use ecas_types::units::Mbps;

/// Buffer level below which BBA requests the lowest bitrate (s).
const RESERVOIR_S: f64 = 5.0;

/// Fraction of the buffer threshold above which BBA requests the highest
/// bitrate.
const CUSHION_FRACTION: f64 = 0.75;

/// The BBA controller.
///
/// The buffer map uses a *reservoir* below which the lowest bitrate is
/// requested and a *cushion* above which the highest bitrate is requested;
/// between the two the rate grows linearly with the buffer level
/// (Huang et al., SIGCOMM'14). Defaults: reservoir 5 s, cushion `0.75·B` — BBA "requests the highest
/// bitrate after the buffered data is larger than the pre-defined upper
/// threshold" (Section V-A), which makes it the more aggressive of the
/// two baselines.
#[derive(Debug, Clone)]
pub struct Bba {
    startup_estimator: HarmonicMean,
    history_len: usize,
    steady: bool,
}

impl Bba {
    /// Creates BBA with the default reservoir (5 s) and cushion (0.75·B).
    #[must_use]
    pub fn new() -> Self {
        Self {
            startup_estimator: HarmonicMean::new(5),
            history_len: 0,
            steady: false,
        }
    }
}

impl Default for Bba {
    fn default() -> Self {
        Self::new()
    }
}

impl BitrateController for Bba {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        if ctx.history.len() < self.history_len {
            // The history shrank: a new session started without reset();
            // recover by starting the estimator over.
            self.reset();
        }
        for obs in ctx.history_since(self.history_len) {
            self.startup_estimator.observe(obs.throughput);
        }
        self.history_len = ctx.history.len();

        let cushion = ctx.buffer_threshold.value() * CUSHION_FRACTION;
        let buffer = ctx.buffer_level.value();

        // Enter the steady state once the buffer first crosses the
        // cushion; stay there for the rest of the session.
        if buffer >= cushion {
            self.steady = true;
        }

        if !self.steady {
            // Startup: throughput-driven like a rate-based player.
            return match self.startup_estimator.estimate() {
                None => ctx.ladder.lowest_level(),
                Some(bw) => ctx.ladder.highest_at_most_or_lowest(bw),
            };
        }

        // Steady state: linear buffer -> rate map.
        let r_min = ctx.ladder.lowest().bitrate().value();
        let r_max = ctx.ladder.highest().bitrate().value();
        let reservoir = RESERVOIR_S;
        let rate = if buffer <= reservoir {
            r_min
        } else if buffer >= cushion {
            r_max
        } else {
            r_min + (r_max - r_min) * (buffer - reservoir) / (cushion - reservoir)
        };
        ctx.ladder.highest_at_most_or_lowest(Mbps::new(rate))
    }

    fn name(&self) -> String {
        "bba".to_string()
    }

    fn reset(&mut self) {
        self.startup_estimator.reset();
        self.history_len = 0;
        self.steady = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_sim::controller::ThroughputObservation;
    use ecas_types::ids::SegmentIndex;
    use ecas_types::ladder::BitrateLadder;
    use ecas_types::units::{Dbm, Seconds};

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
    fn startup_uses_throughput() {
        let ladder = BitrateLadder::evaluation();
        let mut b = Bba::new();
        let history = obs(&[4.0, 4.0]);
        let level = b.select(&ctx(&ladder, &history, 6.0));
        assert_eq!(ladder.bitrate(level), Mbps::new(3.6));
    }

    #[test]
    fn steady_state_full_buffer_requests_max() {
        let ladder = BitrateLadder::evaluation();
        let mut b = Bba::new();
        let history = obs(&[2.0]);
        let level = b.select(&ctx(&ladder, &history, 28.0)); // above 0.75*30
        assert_eq!(level, ladder.highest_level());
    }

    #[test]
    fn steady_state_reservoir_requests_min() {
        let ladder = BitrateLadder::evaluation();
        let mut b = Bba::new();
        // Cross into steady state first.
        let history = obs(&[2.0]);
        let _ = b.select(&ctx(&ladder, &history, 28.0));
        // Buffer collapses below the reservoir.
        let level = b.select(&ctx(&ladder, &history, 3.0));
        assert_eq!(level, ladder.lowest_level());
    }

    #[test]
    fn steady_state_map_is_monotone_in_buffer() {
        let ladder = BitrateLadder::evaluation();
        let mut b = Bba::new();
        let history = obs(&[2.0]);
        let _ = b.select(&ctx(&ladder, &history, 28.0)); // enter steady
        let mut prev = 0usize;
        for buffer in [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 27.5] {
            let level = b.select(&ctx(&ladder, &history, buffer)).value();
            assert!(level >= prev, "map not monotone at buffer {buffer}");
            prev = level;
        }
    }

    #[test]
    fn aggressiveness_vs_festive_on_full_buffer() {
        // The paper notes BBA is more aggressive than FESTIVE once the
        // buffer is full: it requests the max regardless of throughput.
        let ladder = BitrateLadder::evaluation();
        let mut b = Bba::new();
        let history = obs(&[2.0, 2.0, 2.0]); // slow link!
        let level = b.select(&ctx(&ladder, &history, 29.0));
        assert_eq!(level, ladder.highest_level());
    }

    #[test]
    fn reset_returns_to_startup() {
        let ladder = BitrateLadder::evaluation();
        let mut b = Bba::new();
        let history = obs(&[2.0]);
        let _ = b.select(&ctx(&ladder, &history, 28.0));
        b.reset();
        // Fresh startup with no history: lowest level.
        assert_eq!(b.select(&ctx(&ladder, &[], 1.0)), ladder.lowest_level());
    }
}
