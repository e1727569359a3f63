//! Viewer-abandonment analysis.
//!
//! The paper's ref \[6\] (Hu & Cao, INFOCOM'15 — the same group's earlier
//! work) showed that much of streaming's energy is wasted on video the
//! viewer never watches because they quit early. A player that prebuffers
//! aggressively wastes more. This module quantifies that effect for any
//! simulated session: given a quit time, how much downloaded data — and
//! how much radio energy — was spent on segments past the playhead?

use ecas_sim::result::SessionResult;
use ecas_types::units::{Joules, MegaBytes, Seconds};
use serde::Serialize;

/// What an early quit wastes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
// ecas-lint: allow(pub-surface, reason = "re-exported viewer-model result type; part of the crate's published surface")
pub struct QuitAnalysis {
    /// The quit time analyzed.
    pub quit_at: Seconds,
    /// Seconds of video actually watched by the quit time.
    pub watched: Seconds,
    /// Segments downloaded by the quit time but never watched.
    pub wasted_segments: usize,
    /// Data volume of those segments.
    pub wasted_data: MegaBytes,
    /// Radio energy spent downloading them.
    pub wasted_radio_energy: Joules,
}

/// Analyzes what would be wasted if the viewer quit `quit_at` seconds into
/// the session (wall-clock).
///
/// # Examples
///
/// ```
/// use ecas_core::viewer::quit_analysis;
/// use ecas_core::{Approach, ExperimentRunner};
/// use ecas_core::trace::videos::EvalTraceSpec;
/// use ecas_core::types::units::Seconds;
///
/// let session = EvalTraceSpec::table_v()[0].generate();
/// let result = ExperimentRunner::paper().run(&session, &Approach::Youtube);
/// let quit = quit_analysis(&result, Seconds::new(2.0), Seconds::new(60.0));
/// // Quitting mid-session strands the in-flight buffer.
/// assert!(quit.wasted_segments > 0);
/// ```
///
/// The playhead at the quit time is reconstructed from the session's
/// startup delay and the stalls recorded before the quit; segments whose
/// download completed before the quit but whose playback slot lies beyond
/// the playhead count as wasted.
///
/// # Panics
///
/// Panics if the session has no tasks.
#[must_use]
pub fn quit_analysis(
    result: &SessionResult,
    segment_duration: Seconds,
    quit_at: Seconds,
) -> QuitAnalysis {
    assert!(!result.tasks.is_empty(), "session has no tasks");
    let tau = segment_duration.value();
    let quit = quit_at.value();

    // Stall time accrued before the quit: stalls are recorded per task at
    // the task's download end.
    let stalls_before: f64 = result
        .tasks
        .iter()
        .filter(|t| t.download_end.value() <= quit)
        .map(|t| t.rebuffer.value())
        .sum();
    let playhead =
        (quit - result.startup_delay.value() - stalls_before).clamp(0.0, result.played.value());
    // Epsilon absorbs rounding in `quit - startup - stalls`: at the exact
    // end of a session the playhead can land a few ulps short of a segment
    // boundary, which would misclassify the final played segment as wasted.
    let watched_segments = (playhead / tau + 1e-9).floor() as usize;

    let mut wasted_segments = 0usize;
    let mut wasted_data = 0.0;
    let mut wasted_energy = 0.0;
    for task in &result.tasks {
        if task.download_end.value() <= quit && task.task.value() >= watched_segments {
            wasted_segments += 1;
            wasted_data += task.size.value();
            wasted_energy += task.radio_energy.value();
        }
    }

    QuitAnalysis {
        quit_at,
        watched: Seconds::new(playhead),
        wasted_segments,
        wasted_data: MegaBytes::new(wasted_data),
        wasted_radio_energy: Joules::new(wasted_energy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Approach, ExperimentRunner};
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;

    fn run(approach: Approach) -> SessionResult {
        let session = SessionGenerator::new(
            "quit",
            ContextSchedule::constant(Context::QuietRoom),
            Seconds::new(120.0),
            3,
        )
        .generate();
        ExperimentRunner::paper().run(&session, &approach)
    }

    #[test]
    fn quit_at_end_wastes_only_the_buffer_tail() {
        let r = run(Approach::Youtube);
        let q = quit_analysis(&r, Seconds::new(2.0), r.wall_time);
        // At the very end everything downloaded has been played.
        assert_eq!(q.wasted_segments, 0);
        assert_eq!(q.wasted_data, MegaBytes::zero());
    }

    #[test]
    fn early_quit_wastes_roughly_the_buffer() {
        let r = run(Approach::Youtube);
        // Quit mid-session: the ~30 s buffer (≈15 segments) is in flight.
        let q = quit_analysis(&r, Seconds::new(2.0), Seconds::new(60.0));
        assert!(
            (10..=18).contains(&q.wasted_segments),
            "wasted {} segments",
            q.wasted_segments
        );
        assert!(q.wasted_radio_energy.value() > 0.0);
        assert!(q.watched.value() < 60.0);
    }

    #[test]
    fn quit_before_startup_wastes_everything_downloaded() {
        let r = run(Approach::Youtube);
        // Quit strictly before the first frame renders.
        let quit = r.startup_delay.value() * 0.5;
        let q = quit_analysis(&r, Seconds::new(2.0), Seconds::new(quit));
        assert_eq!(q.watched, Seconds::zero());
        let downloaded_by_then = r
            .tasks
            .iter()
            .filter(|t| t.download_end.value() <= quit)
            .count();
        assert_eq!(q.wasted_segments, downloaded_by_then);
    }

    #[test]
    fn lower_bitrate_wastes_less_data_on_quit() {
        let youtube = run(Approach::Youtube);
        let ours = run(Approach::Ours);
        let q_youtube = quit_analysis(&youtube, Seconds::new(2.0), Seconds::new(60.0));
        let q_ours = quit_analysis(&ours, Seconds::new(2.0), Seconds::new(60.0));
        assert!(
            q_ours.wasted_data < q_youtube.wasted_data,
            "ours wasted {} vs youtube {}",
            q_ours.wasted_data,
            q_youtube.wasted_data
        );
    }
}
