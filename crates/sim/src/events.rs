//! Session event log.
//!
//! The simulator can record a timestamped event stream alongside the
//! aggregate [`crate::result::SessionResult`] — the equivalent of a
//! player's debug log. Useful for plotting session timelines, debugging
//! controller behaviour around fades, and asserting fine-grained
//! properties in tests.

use ecas_types::ids::SegmentIndex;
use ecas_types::ladder::LevelIndex;
use ecas_types::units::{Mbps, MetersPerSec2, Seconds};
use serde::Serialize;

/// Why a download attempt was abandoned (see the fault-injected download
/// path in [`crate::Simulator`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AbortReason {
    /// The fault plan injected a mid-flight failure (reset connection).
    InjectedFailure,
    /// The attempt exceeded the retry policy's per-attempt time budget.
    StallTimeout,
}

impl AbortReason {
    /// Short label used in timelines.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AbortReason::InjectedFailure => "injected-failure",
            AbortReason::StallTimeout => "stall-timeout",
        }
    }
}

/// One timestamped event in a streaming session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum SessionEvent {
    /// The controller chose a level for a segment.
    Decision {
        /// Decision time.
        at: Seconds,
        /// The segment being decided.
        segment: SegmentIndex,
        /// The chosen level.
        level: LevelIndex,
        /// The online vibration estimate at decision time.
        vibration: MetersPerSec2,
        /// Buffer level at decision time.
        buffer: Seconds,
    },
    /// A segment download started.
    DownloadStart {
        /// Start time.
        at: Seconds,
        /// The segment.
        segment: SegmentIndex,
    },
    /// A segment download completed.
    DownloadEnd {
        /// Completion time.
        at: Seconds,
        /// The segment.
        segment: SegmentIndex,
        /// Average throughput achieved.
        throughput: Mbps,
    },
    /// Playback started (startup complete).
    PlaybackStart {
        /// First-frame time.
        at: Seconds,
    },
    /// The buffer drained and playback stalled.
    StallStart {
        /// Stall onset.
        at: Seconds,
    },
    /// Playback resumed after a stall.
    StallEnd {
        /// Resume time.
        at: Seconds,
    },
    /// The controller deferred a download (opportunistic scheduling).
    Deferred {
        /// Deferral start.
        at: Seconds,
        /// Deferral duration.
        duration: Seconds,
    },
    /// The player idled because the buffer was full.
    IdleWait {
        /// Wait start.
        at: Seconds,
        /// Wait duration.
        duration: Seconds,
    },
    /// Playback of the whole video completed.
    PlaybackEnd {
        /// Completion time.
        at: Seconds,
    },
    /// A download attempt was aborted (injected failure or stall timeout).
    DownloadAborted {
        /// Abort time.
        at: Seconds,
        /// The segment being downloaded.
        segment: SegmentIndex,
        /// The 1-based attempt number that failed.
        attempt: usize,
        /// Why the attempt was abandoned.
        reason: AbortReason,
    },
    /// The player scheduled another attempt after a backoff wait.
    Retry {
        /// Time the retry was scheduled (the abort time).
        at: Seconds,
        /// The segment being retried.
        segment: SegmentIndex,
        /// The 1-based attempt number about to run.
        attempt: usize,
        /// Backoff wait before the attempt starts.
        backoff: Seconds,
    },
    /// An injected link outage began (throughput is zero until the end).
    OutageStart {
        /// Outage onset as observed by the player.
        at: Seconds,
    },
    /// An injected link outage ended.
    OutageEnd {
        /// Outage end.
        at: Seconds,
    },
}

impl SessionEvent {
    /// The event's timestamp.
    #[must_use]
    pub fn at(&self) -> Seconds {
        match *self {
            SessionEvent::Decision { at, .. }
            | SessionEvent::DownloadStart { at, .. }
            | SessionEvent::DownloadEnd { at, .. }
            | SessionEvent::PlaybackStart { at }
            | SessionEvent::StallStart { at }
            | SessionEvent::StallEnd { at }
            | SessionEvent::Deferred { at, .. }
            | SessionEvent::IdleWait { at, .. }
            | SessionEvent::PlaybackEnd { at }
            | SessionEvent::DownloadAborted { at, .. }
            | SessionEvent::Retry { at, .. }
            | SessionEvent::OutageStart { at }
            | SessionEvent::OutageEnd { at } => at,
        }
    }
}

/// An append-only event log with time-ordered insertion.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct EventLog {
    events: Vec<SessionEvent>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the event is earlier than the last one.
    pub fn push(&mut self, event: SessionEvent) {
        if let Some(last) = self.events.last() {
            debug_assert!(
                event.at() >= last.at(),
                "event log must be time ordered: {event:?} after {last:?}"
            );
        }
        self.events.push(event);
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over events in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, SessionEvent> {
        self.events.iter()
    }

    /// The log as JSONL, the bytes an events file holds: each event's
    /// compact JSON from `Serialize::write_json`, then a newline.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            // A `String` sink never fails, and serialization only
            // forwards sink errors.
            let _ = event.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// All stall intervals as `(start, end)` pairs. An unterminated stall
    /// (cannot happen in a completed session) is ignored.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecas_sim::{EventLog, SessionEvent};
    /// use ecas_types::units::Seconds;
    ///
    /// let mut log = EventLog::new();
    /// log.push(SessionEvent::StallStart { at: Seconds::new(5.0) });
    /// log.push(SessionEvent::StallEnd { at: Seconds::new(6.5) });
    /// assert_eq!(log.stall_intervals().len(), 1);
    /// ```
    #[must_use]
    pub fn stall_intervals(&self) -> Vec<(Seconds, Seconds)> {
        let mut out = Vec::new();
        let mut open: Option<Seconds> = None;
        for e in &self.events {
            match *e {
                SessionEvent::StallStart { at } => open = Some(at),
                SessionEvent::StallEnd { at } => {
                    if let Some(start) = open.take() {
                        out.push((start, at));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// The decisions, in segment order.
    #[must_use]
    pub fn decisions(&self) -> Vec<(SegmentIndex, LevelIndex)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                SessionEvent::Decision { segment, level, .. } => Some((segment, level)),
                _ => None,
            })
            .collect()
    }

    /// Renders a compact one-line-per-event text timeline.
    #[must_use]
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let line = match *e {
                SessionEvent::Decision {
                    at,
                    segment,
                    level,
                    vibration,
                    buffer,
                } => format!(
                    "{:8.2}s  decide   {segment} -> {level} (vib {:.1}, buf {:.1}s)",
                    at.value(),
                    vibration.value(),
                    buffer.value()
                ),
                SessionEvent::DownloadStart { at, segment } => {
                    format!("{:8.2}s  dl-start {segment}", at.value())
                }
                SessionEvent::DownloadEnd {
                    at,
                    segment,
                    throughput,
                } => format!(
                    "{:8.2}s  dl-end   {segment} @ {:.2} Mbps",
                    at.value(),
                    throughput.value()
                ),
                SessionEvent::PlaybackStart { at } => {
                    format!("{:8.2}s  play", at.value())
                }
                SessionEvent::StallStart { at } => format!("{:8.2}s  stall", at.value()),
                SessionEvent::StallEnd { at } => format!("{:8.2}s  resume", at.value()),
                SessionEvent::Deferred { at, duration } => format!(
                    "{:8.2}s  defer    {:.2}s (expensive bytes)",
                    at.value(),
                    duration.value()
                ),
                SessionEvent::IdleWait { at, duration } => format!(
                    "{:8.2}s  idle     {:.2}s (buffer full)",
                    at.value(),
                    duration.value()
                ),
                SessionEvent::PlaybackEnd { at } => format!("{:8.2}s  end", at.value()),
                SessionEvent::DownloadAborted {
                    at,
                    segment,
                    attempt,
                    reason,
                } => format!(
                    "{:8.2}s  abort    {segment} attempt {attempt} ({})",
                    at.value(),
                    reason.label()
                ),
                SessionEvent::Retry {
                    at,
                    segment,
                    attempt,
                    backoff,
                } => format!(
                    "{:8.2}s  retry    {segment} attempt {attempt} after {:.2}s backoff",
                    at.value(),
                    backoff.value()
                ),
                SessionEvent::OutageStart { at } => {
                    format!("{:8.2}s  outage   link down", at.value())
                }
                SessionEvent::OutageEnd { at } => {
                    format!("{:8.2}s  restore  link up", at.value())
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = &'a SessionEvent;
    type IntoIter = std::slice::Iter<'a, SessionEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> Seconds {
        Seconds::new(v)
    }

    #[test]
    fn stall_intervals_pair_up() {
        let mut log = EventLog::new();
        log.push(SessionEvent::PlaybackStart { at: t(1.0) });
        log.push(SessionEvent::StallStart { at: t(5.0) });
        log.push(SessionEvent::StallEnd { at: t(7.5) });
        log.push(SessionEvent::StallStart { at: t(9.0) });
        log.push(SessionEvent::StallEnd { at: t(9.2) });
        assert_eq!(
            log.stall_intervals(),
            vec![(t(5.0), t(7.5)), (t(9.0), t(9.2))]
        );
    }

    #[test]
    fn decisions_extracted_in_order() {
        let mut log = EventLog::new();
        for i in 0..3 {
            log.push(SessionEvent::Decision {
                at: t(i as f64),
                segment: SegmentIndex::new(i),
                level: LevelIndex::new(i + 1),
                vibration: MetersPerSec2::zero(),
                buffer: Seconds::zero(),
            });
        }
        let d = log.decisions();
        assert_eq!(d.len(), 3);
        assert_eq!(d[2], (SegmentIndex::new(2), LevelIndex::new(3)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time ordered")]
    fn rejects_time_regression_in_debug() {
        let mut log = EventLog::new();
        log.push(SessionEvent::PlaybackStart { at: t(5.0) });
        log.push(SessionEvent::StallStart { at: t(1.0) });
    }

    #[test]
    fn timeline_rendering_mentions_all_events() {
        let mut log = EventLog::new();
        log.push(SessionEvent::DownloadStart {
            at: t(0.0),
            segment: SegmentIndex::new(0),
        });
        log.push(SessionEvent::DownloadEnd {
            at: t(0.8),
            segment: SegmentIndex::new(0),
            throughput: Mbps::new(4.0),
        });
        log.push(SessionEvent::PlaybackEnd { at: t(2.0) });
        let text = log.render_timeline();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("dl-start"));
        assert!(text.contains("4.00 Mbps"));
    }

    #[test]
    fn to_jsonl_writes_one_compact_line_per_event() {
        assert_eq!(EventLog::new().to_jsonl(), "");
        let mut log = EventLog::new();
        log.push(SessionEvent::PlaybackStart { at: t(1.0) });
        log.push(SessionEvent::DownloadStart {
            at: t(2.0),
            segment: SegmentIndex::new(3),
        });
        assert_eq!(
            log.to_jsonl(),
            "{\"PlaybackStart\":{\"at\":1.0}}\n\
             {\"DownloadStart\":{\"at\":2.0,\"segment\":3}}\n"
        );
    }
}
