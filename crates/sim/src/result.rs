//! Simulation outputs: per-task records and session-level metrics.

use ecas_types::ids::TaskId;
use ecas_types::ladder::LevelIndex;
use ecas_types::units::{Dbm, Joules, Mbps, MegaBytes, MetersPerSec2, QoeScore, Seconds};
use serde::{Deserialize, Serialize};

/// Everything recorded about one task (one segment download).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The task identifier (equal to the segment index).
    pub task: TaskId,
    /// The chosen ladder level.
    pub level: LevelIndex,
    /// The chosen encoding bitrate.
    pub bitrate: Mbps,
    /// Segment size at the chosen bitrate.
    pub size: MegaBytes,
    /// Wall-clock start of the download.
    pub download_start: Seconds,
    /// Wall-clock end of the download.
    pub download_end: Seconds,
    /// Average throughput achieved over the download.
    pub throughput: Mbps,
    /// Average signal strength over the download.
    pub signal: Dbm,
    /// Vibration estimate at decision time (zero before sensor warm-up).
    pub vibration: MetersPerSec2,
    /// Stall time that occurred while waiting for this segment.
    pub rebuffer: Seconds,
    /// Radio energy of this download (excluding tail).
    pub radio_energy: Joules,
    /// Eq. (1) QoE of the task.
    pub qoe: QoeScore,
}

/// Energy decomposition of a session.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Screen energy over the whole session.
    pub screen: Joules,
    /// Decode/render energy while playing.
    pub decode: Joules,
    /// Radio energy during downloads.
    pub radio: Joules,
    /// Radio tail energy after bursts.
    pub tail: Joules,
}

impl EnergyBreakdown {
    /// Total of all components.
    #[must_use]
    pub fn total(&self) -> Joules {
        self.screen + self.decode + self.radio + self.tail
    }
}

/// The outcome of simulating one session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionResult {
    /// Name of the controller that produced this session.
    pub controller: String,
    /// Name of the trace the session ran against.
    pub trace: String,
    /// Per-task records in task order.
    pub tasks: Vec<TaskRecord>,
    /// Energy decomposition.
    pub energy: EnergyBreakdown,
    /// Mean per-task QoE (Eq. 1 averaged over tasks).
    pub mean_qoe: QoeScore,
    /// Total stall time across the session.
    pub total_rebuffer: Seconds,
    /// Time from session start to first frame.
    pub startup_delay: Seconds,
    /// Number of bitrate switches between consecutive segments.
    pub switches: usize,
    /// Seconds of video actually played.
    pub played: Seconds,
    /// Wall-clock duration of the session.
    pub wall_time: Seconds,
    /// Total bytes downloaded (delivered segments; aborted partial
    /// transfers are accounted in [`SessionResult::wasted_energy`] only).
    pub downloaded: MegaBytes,
    /// Download retries across the session (fault injection only).
    pub retries: usize,
    /// Aborted download attempts (injected failures + stall timeouts).
    pub aborts: usize,
    /// Segments delivered at the fallback (lowest) ladder level after
    /// exhausting the retry budget.
    pub degraded_segments: usize,
    /// Injected link-outage time overlapping the session.
    pub outage_time: Seconds,
    /// Radio energy spent on aborted download attempts (a subset of
    /// [`EnergyBreakdown::radio`], already included in the totals).
    pub wasted_energy: Joules,
}

impl SessionResult {
    /// Total session energy.
    ///
    /// A method over [`EnergyBreakdown::total`] rather than a stored
    /// field: the old denormalized `total_energy` field could drift from
    /// the breakdown it claimed to summarize.
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.energy.total()
    }

    /// Mean bitrate over tasks (unweighted).
    ///
    /// # Panics
    ///
    /// Panics if the session has no tasks.
    #[must_use]
    pub fn mean_bitrate(&self) -> Mbps {
        assert!(!self.tasks.is_empty(), "session has no tasks");
        let sum: f64 = self.tasks.iter().map(|t| t.bitrate.value()).sum();
        Mbps::new(sum / self.tasks.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_components() {
        let b = EnergyBreakdown {
            screen: Joules::new(10.0),
            decode: Joules::new(2.0),
            radio: Joules::new(5.0),
            tail: Joules::new(1.0),
        };
        assert_eq!(b.total(), Joules::new(18.0));
    }

    #[test]
    fn default_breakdown_is_zero() {
        assert_eq!(EnergyBreakdown::default().total(), Joules::zero());
    }
}

#[cfg(test)]
mod analysis_tests {
    use super::*;
    use crate::controller::FixedLevel;
    use crate::Simulator;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;
    use ecas_types::ladder::BitrateLadder;

    fn result() -> SessionResult {
        let session = SessionGenerator::new(
            "an",
            ContextSchedule::constant(Context::Walking),
            Seconds::new(40.0),
            3,
        )
        .generate();
        Simulator::paper(BitrateLadder::evaluation()).run(&session, &mut FixedLevel::highest())
    }

    #[test]
    fn task_radio_energy_below_breakdown_radio() {
        let r = result();
        // Breakdown radio equals the task sum (both exclude the tail).
        let task_radio: Joules = r.tasks.iter().map(|t| t.radio_energy).sum();
        assert!(
            (task_radio.value() - r.energy.radio.value()).abs() < 1e-6,
            "{} vs {}",
            task_radio,
            r.energy.radio
        );
    }
}
