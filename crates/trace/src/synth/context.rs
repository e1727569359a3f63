//! Watching contexts and context schedules.
//!
//! The paper distinguishes two measured contexts — a quiet room and a
//! moving vehicle — and motivates the work with the observation that the
//! same video is perceived differently in each. We add `Walking` as an
//! intermediate regime for richer schedules; it behaves like a mild
//! vehicle for the link and a mild vibration source for the accelerometer.

use std::fmt;

use ecas_types::units::{MetersPerSec2, Seconds};
use serde::{Deserialize, Serialize};

/// The environment the viewer is in while watching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Context {
    /// Static indoor environment with strong signal and no vibration.
    QuietRoom,
    /// On foot: mild periodic vibration, moderately strong signal.
    Walking,
    /// On a bus/train: strong vibration, weak and fluctuating signal.
    MovingVehicle,
}

impl Context {
    /// Typical vibration level (Eq. 5 RMS) observed in this context,
    /// matching the ranges of Fig. 2(c) and Table V.
    #[must_use]
    pub fn typical_vibration(self) -> MetersPerSec2 {
        match self {
            Context::QuietRoom => MetersPerSec2::new(0.3),
            Context::Walking => MetersPerSec2::new(2.0),
            Context::MovingVehicle => MetersPerSec2::new(6.0),
        }
    }

    /// All contexts.
    #[must_use]
    pub fn all() -> [Context; 3] {
        [Context::QuietRoom, Context::Walking, Context::MovingVehicle]
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Context::QuietRoom => "quiet-room",
            Context::Walking => "walking",
            Context::MovingVehicle => "moving-vehicle",
        };
        f.write_str(s)
    }
}

/// Error returned when constructing an invalid [`ContextSchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule had no entries.
    Empty,
    /// The first entry did not start at time zero.
    DoesNotStartAtZero,
    /// Entries were not strictly increasing in start time.
    NotAscending {
        /// Index of the first offending entry.
        at: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Empty => write!(f, "context schedule was empty"),
            ScheduleError::DoesNotStartAtZero => {
                write!(f, "context schedule must start at time zero")
            }
            ScheduleError::NotAscending { at } => {
                write!(f, "context schedule not strictly ascending at index {at}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A timeline of context changes: each entry is (start time, context), and
/// a context holds until the next entry.
///
/// # Examples
///
/// ```
/// use ecas_trace::synth::context::{Context, ContextSchedule};
/// use ecas_types::units::Seconds;
///
/// let schedule = ContextSchedule::new(vec![
///     (Seconds::new(0.0), Context::Walking),
///     (Seconds::new(60.0), Context::MovingVehicle),
/// ])?;
/// assert_eq!(schedule.context_at(Seconds::new(10.0)), Context::Walking);
/// assert_eq!(schedule.context_at(Seconds::new(90.0)), Context::MovingVehicle);
/// # Ok::<(), ecas_trace::synth::context::ScheduleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContextSchedule {
    entries: Vec<(Seconds, Context)>,
}

impl ContextSchedule {
    /// Builds a schedule from `(start, context)` entries.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if `entries` is empty, does not start at
    /// zero, or start times are not strictly increasing.
    pub fn new(entries: Vec<(Seconds, Context)>) -> Result<Self, ScheduleError> {
        if entries.is_empty() {
            return Err(ScheduleError::Empty);
        }
        if !entries[0].0.is_zero() {
            return Err(ScheduleError::DoesNotStartAtZero);
        }
        for i in 1..entries.len() {
            if entries[i].0 <= entries[i - 1].0 {
                return Err(ScheduleError::NotAscending { at: i });
            }
        }
        Ok(Self { entries })
    }

    /// A schedule that stays in one context forever.
    #[must_use]
    pub fn constant(context: Context) -> Self {
        Self {
            entries: vec![(Seconds::zero(), context)],
        }
    }

    /// A canonical commute schedule: walk to the stop, ride the bus, walk
    /// into the office, then sit down — scaled to fill `total`.
    #[must_use]
    pub fn commute(total: Seconds) -> Self {
        let t = total.value();
        Self::new(vec![
            (Seconds::zero(), Context::Walking),
            (Seconds::new(t * 0.10), Context::MovingVehicle),
            (Seconds::new(t * 0.80), Context::Walking),
            (Seconds::new(t * 0.90), Context::QuietRoom),
        ])
        // ecas-lint: allow(panic-safety, reason = "the schedule literal is sorted and non-empty by construction")
        .expect("commute schedule fractions are valid")
    }

    /// The context active at time `t` (the last entry at or before `t`).
    #[must_use]
    pub fn context_at(&self, t: Seconds) -> Context {
        let idx = self.entries.partition_point(|(start, _)| *start <= t);
        // idx >= 1 because entries[0].0 == 0 <= t for all valid t.
        self.entries[idx.saturating_sub(1)].1
    }

    /// Iterates over the `(start, context)` entries.
    pub fn iter(&self) -> std::slice::Iter<'_, (Seconds, Context)> {
        self.entries.iter()
    }

    /// The fraction of `[0, total)` spent in each context, in the order of
    /// [`Context::all`].
    #[must_use]
    pub fn occupancy(&self, total: Seconds) -> [f64; 3] {
        let mut out = [0.0; 3];
        for (i, (start, ctx)) in self.entries.iter().enumerate() {
            let end = self
                .entries
                .get(i + 1)
                .map_or(total, |(next, _)| (*next).min(total));
            if *start >= total {
                break;
            }
            let span = end.saturating_sub(*start).value();
            let slot = match ctx {
                Context::QuietRoom => 0,
                Context::Walking => 1,
                Context::MovingVehicle => 2,
            };
            out[slot] += span;
        }
        let t = total.value();
        if t > 0.0 {
            for v in &mut out {
                *v /= t;
            }
        }
        out
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_everywhere() {
        let s = ContextSchedule::constant(Context::QuietRoom);
        assert_eq!(s.context_at(Seconds::zero()), Context::QuietRoom);
        assert_eq!(s.context_at(Seconds::new(1e6)), Context::QuietRoom);
    }

    #[test]
    fn context_at_switches_on_boundaries() {
        let s = ContextSchedule::new(vec![
            (Seconds::zero(), Context::QuietRoom),
            (Seconds::new(10.0), Context::MovingVehicle),
        ])
        .unwrap();
        assert_eq!(s.context_at(Seconds::new(9.99)), Context::QuietRoom);
        assert_eq!(s.context_at(Seconds::new(10.0)), Context::MovingVehicle);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(ContextSchedule::new(vec![]), Err(ScheduleError::Empty));
        assert_eq!(
            ContextSchedule::new(vec![(Seconds::new(1.0), Context::Walking)]),
            Err(ScheduleError::DoesNotStartAtZero)
        );
        assert_eq!(
            ContextSchedule::new(vec![
                (Seconds::zero(), Context::Walking),
                (Seconds::zero(), Context::QuietRoom),
            ]),
            Err(ScheduleError::NotAscending { at: 1 })
        );
    }

    #[test]
    fn occupancy_sums_to_one() {
        let s = ContextSchedule::commute(Seconds::new(600.0));
        let occ = s.occupancy(Seconds::new(600.0));
        let sum: f64 = occ.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // The commute is dominated by the vehicle leg.
        assert!(occ[2] > 0.5);
    }

    #[test]
    fn occupancy_of_constant_schedule() {
        let s = ContextSchedule::constant(Context::Walking);
        let occ = s.occupancy(Seconds::new(100.0));
        assert_eq!(occ, [0.0, 1.0, 0.0]);
    }

    #[test]
    fn vibration_levels_are_ordered() {
        assert!(Context::QuietRoom.typical_vibration() < Context::Walking.typical_vibration());
        assert!(Context::Walking.typical_vibration() < Context::MovingVehicle.typical_vibration());
    }

    #[test]
    fn display_names() {
        assert_eq!(Context::MovingVehicle.to_string(), "moving-vehicle");
    }
}
