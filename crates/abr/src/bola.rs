//! BOLA (paper's ref \[5\]) — related-work extension.
//!
//! BOLA-BASIC (Spiteri et al., INFOCOM'16) chooses the level maximizing
//! `(V·(u_j + γ·τ) − Q) / S_j`, where `u_j = ln(S_j / S_min)` is the
//! utility of level `j`, `S_j` its segment size, `Q` the buffer level in
//! seconds, `τ` the segment duration, and `V`, `γ` control parameters
//! derived from the buffer threshold. It uses no bandwidth estimate at
//! all — a pure buffer-based Lyapunov scheme, included here as an
//! ablation baseline alongside BBA.

use ecas_sim::controller::{BitrateController, DecisionContext};
use ecas_types::ladder::LevelIndex;

/// Rebuffer-avoidance utility slope `γ`.
const GAMMA: f64 = 0.5;

/// The BOLA-BASIC controller.
///
/// # Examples
///
/// ```
/// use ecas_abr::Bola;
/// use ecas_sim::Simulator;
/// use ecas_trace::videos::EvalTraceSpec;
/// use ecas_types::ladder::BitrateLadder;
///
/// let session = EvalTraceSpec::table_v()[1].generate();
/// let sim = Simulator::paper(BitrateLadder::evaluation());
/// let result = sim.run(&session, &mut Bola::new());
/// assert!(result.total_rebuffer.value() < 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bola;

impl Bola {
    /// BOLA with parameters derived from the player's buffer threshold.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Default for Bola {
    fn default() -> Self {
        Self::new()
    }
}

impl BitrateController for Bola {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        let tau = ctx.segment_duration.value();
        let s_min = ctx.ladder.lowest().bitrate().value() * tau / 8.0;
        let s_max = ctx.ladder.highest().bitrate().value() * tau / 8.0;
        let u_max = (s_max / s_min).ln();
        // Derive V so the full buffer maps to the highest utility:
        // at Q = B the best score must still be attainable at the top
        // level: V*(u_max + gamma*tau) ≈ B.
        let v = ctx.buffer_threshold.value() / (u_max + GAMMA * tau);

        let q = ctx.buffer_level.value();
        let mut best = ctx.ladder.lowest_level();
        let mut best_score = f64::NEG_INFINITY;
        let mut any_positive = false;
        for level in ctx.ladder.levels() {
            let size = ctx.ladder.bitrate(level).value() * tau / 8.0;
            let utility = (size / s_min).ln();
            let score = (v * (utility + GAMMA * tau) - q) / size;
            if score >= 0.0 {
                any_positive = true;
                if score > best_score {
                    best_score = score;
                    best = level;
                }
            }
        }
        if any_positive {
            best
        } else {
            // Buffer beyond every level's activation point: request the
            // highest utility (BOLA's behaviour at a full buffer).
            ctx.ladder.highest_level()
        }
    }

    fn name(&self) -> String {
        "bola".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_types::ids::SegmentIndex;
    use ecas_types::ladder::BitrateLadder;
    use ecas_types::units::{Dbm, Seconds};

    fn ctx(ladder: &BitrateLadder, buffer: f64) -> DecisionContext<'_> {
        DecisionContext {
            segment: SegmentIndex::new(5),
            total_segments: 100,
            now: Seconds::new(10.0),
            buffer_level: Seconds::new(buffer),
            prev_level: None,
            ladder,
            segment_duration: Seconds::new(2.0),
            buffer_threshold: Seconds::new(30.0),
            playback_started: true,
            history: &[],
            vibration: None,
            signal: Dbm::new(-90.0),
        }
    }

    #[test]
    fn empty_buffer_requests_low() {
        let ladder = BitrateLadder::evaluation();
        let mut b = Bola::new();
        let level = b.select(&ctx(&ladder, 0.5));
        assert!(
            level.value() <= 2,
            "near-empty buffer must pick low, got {level}"
        );
    }

    #[test]
    fn level_monotone_in_buffer() {
        let ladder = BitrateLadder::evaluation();
        let mut b = Bola::new();
        let mut prev = 0usize;
        for buffer in [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0] {
            let level = b.select(&ctx(&ladder, buffer)).value();
            assert!(
                level >= prev,
                "not monotone at buffer {buffer}: {level} < {prev}"
            );
            prev = level;
        }
    }

    #[test]
    fn full_buffer_requests_near_max() {
        let ladder = BitrateLadder::evaluation();
        let mut b = Bola::new();
        let level = b.select(&ctx(&ladder, 29.0));
        assert!(level.value() >= ladder.len() - 2, "full buffer got {level}");
    }
}
