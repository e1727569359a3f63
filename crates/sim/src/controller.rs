//! The bitrate-controller extension point.
//!
//! The simulator asks a [`BitrateController`] for the encoding level of
//! each segment just before downloading it. All the paper's approaches
//! (YouTube-fixed, FESTIVE, BBA, the online algorithm, the optimal
//! planner) implement this trait in the `ecas-abr` crate.

use ecas_types::ids::SegmentIndex;
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::{Dbm, Mbps, MetersPerSec2, Seconds};
use serde::Serialize;

/// The measured throughput of one completed segment download.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ThroughputObservation {
    /// Which segment the observation belongs to.
    pub segment: SegmentIndex,
    /// Average throughput achieved over the download.
    pub throughput: Mbps,
    /// Wall-clock time the download completed.
    pub completed_at: Seconds,
}

/// Everything a controller may inspect when choosing a level.
#[derive(Debug)]
pub struct DecisionContext<'a> {
    /// Index of the segment about to be downloaded.
    pub segment: SegmentIndex,
    /// Total number of segments in the video.
    pub total_segments: usize,
    /// Current wall-clock time.
    pub now: Seconds,
    /// Seconds of video currently buffered.
    pub buffer_level: Seconds,
    /// Level chosen for the previous segment (`None` for the first).
    pub prev_level: Option<LevelIndex>,
    /// The bitrate ladder in use.
    pub ladder: &'a BitrateLadder,
    /// Segment duration `τ`.
    pub segment_duration: Seconds,
    /// Buffer threshold `B`.
    pub buffer_threshold: Seconds,
    /// Whether playback has started (startup phase if `false`).
    pub playback_started: bool,
    /// Download throughput of past segments, oldest first.
    pub history: &'a [ThroughputObservation],
    /// Current online vibration estimate (Eq. 5 over the trailing
    /// `0.2·W`), `None` before any accelerometer data.
    pub vibration: Option<MetersPerSec2>,
    /// Current signal-strength reading.
    pub signal: Dbm,
}

impl DecisionContext<'_> {
    /// The throughput observations recorded after the first `seen`
    /// entries — what an incremental estimator has not consumed yet.
    /// Out-of-range `seen` (e.g. stale state from a previous session)
    /// yields an empty slice rather than panicking.
    #[must_use]
    pub fn history_since(&self, seen: usize) -> &[ThroughputObservation] {
        self.history.get(seen..).unwrap_or_default()
    }
}

/// A scheduling decision: download the next segment now, or wait.
///
/// Deferral is the opportunistic-scheduling hook (the paper's refs
/// \[7, 8\]): when the byte price is momentarily high (deep fade) and the
/// buffer affords it, a controller may postpone the download and re-decide
/// later. The simulator ignores deferrals when the buffer is too low to
/// afford them (below one segment duration), preventing self-inflicted
/// stalls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Download the next segment at this level now.
    Download(LevelIndex),
    /// Wait this long, then ask again.
    Defer(Seconds),
}

/// Chooses the encoding level for each segment.
pub trait BitrateController {
    /// Picks the level for the segment described by `ctx`.
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex;

    /// Full scheduling decision; the default downloads immediately at
    /// [`Self::select`]'s level. Override to defer downloads.
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        Decision::Download(self.select(ctx))
    }

    /// Human-readable name used in experiment reports.
    fn name(&self) -> String;

    /// Resets internal state so the controller can run another session.
    fn reset(&mut self) {}
}

/// A controller that always picks the same level — the "Youtube" baseline
/// downloads everything at the ladder maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedLevel {
    level: Option<LevelIndex>,
}

impl FixedLevel {
    /// Always pick `level`.
    #[must_use]
    pub fn new(level: LevelIndex) -> Self {
        Self { level: Some(level) }
    }

    /// Always pick the highest ladder level (the paper's "Youtube"
    /// baseline: every segment at 5.8 Mbps / 1080p).
    #[must_use]
    pub fn highest() -> Self {
        Self { level: None }
    }
}

impl BitrateController for FixedLevel {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        match self.level {
            Some(level) => LevelIndex::new(level.value().min(ctx.ladder.len() - 1)),
            None => ctx.ladder.highest_level(),
        }
    }

    fn name(&self) -> String {
        match self.level {
            Some(level) => format!("fixed:{}", level.value()),
            None => "youtube".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(ladder: &BitrateLadder) -> DecisionContext<'_> {
        DecisionContext {
            segment: SegmentIndex::new(0),
            total_segments: 10,
            now: Seconds::zero(),
            buffer_level: Seconds::zero(),
            prev_level: None,
            ladder,
            segment_duration: Seconds::new(2.0),
            buffer_threshold: Seconds::new(30.0),
            playback_started: false,
            history: &[],
            vibration: None,
            signal: Dbm::new(-90.0),
        }
    }

    #[test]
    fn fixed_highest_picks_ladder_top() {
        let ladder = BitrateLadder::evaluation();
        let mut c = FixedLevel::highest();
        assert_eq!(c.select(&ctx(&ladder)), ladder.highest_level());
        assert_eq!(c.name(), "youtube");
    }

    #[test]
    fn fixed_level_is_clamped_to_ladder() {
        let ladder = BitrateLadder::table_ii();
        let mut c = FixedLevel::new(LevelIndex::new(100));
        assert_eq!(c.select(&ctx(&ladder)), ladder.highest_level());
        let mut c = FixedLevel::new(LevelIndex::new(2));
        assert_eq!(c.select(&ctx(&ladder)), LevelIndex::new(2));
        assert_eq!(c.name(), "fixed:2");
    }
}
