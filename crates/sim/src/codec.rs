//! Binary codec for [`EventLog`] and [`SessionResult`] payloads.
//!
//! These are the two sim-owned sections of the `.ecasr` session record
//! (see `ecas-trace`'s [`record`](ecas_trace::record) module for the
//! container and DESIGN.md § 13 for the layout). Both codecs are built
//! from the shared wire primitives: varints for counts and indices,
//! XOR-delta chains for `f64` columns (timestamps compress well because
//! consecutive values share high bits), and one tag byte per event
//! variant.
//!
//! Decoding never trusts its input: truncation, malformed varints,
//! out-of-range values and time-order violations all surface as typed
//! [`RecordError`]s — hostile bytes must not panic, whatever the build
//! profile.
//!
//! # Examples
//!
//! ```
//! use ecas_sim::codec;
//! use ecas_sim::{EventLog, SessionEvent};
//! use ecas_types::units::Seconds;
//!
//! let mut log = EventLog::new();
//! log.push(SessionEvent::PlaybackStart { at: Seconds::new(1.25) });
//! log.push(SessionEvent::PlaybackEnd { at: Seconds::new(61.25) });
//! let bytes = codec::encode_log(&log);
//! assert_eq!(codec::decode_log(&bytes).unwrap(), log);
//! ```

use ecas_trace::record::wire::{get_str, get_varint, put_str, put_varint, F64Delta, Reader};
use ecas_trace::record::RecordError;
use ecas_types::ids::{SegmentIndex, TaskId};
use ecas_types::ladder::LevelIndex;
use ecas_types::units::{Dbm, Joules, Mbps, MegaBytes, MetersPerSec2, QoeScore, Seconds};

use crate::events::{AbortReason, EventLog, SessionEvent};
use crate::result::{EnergyBreakdown, SessionResult, TaskRecord};

// Event tag bytes. Stable across releases within a schema version: a
// new variant gets the next free tag, removed variants retire their tag.
const TAG_DECISION: u8 = 1;
const TAG_DOWNLOAD_START: u8 = 2;
const TAG_DOWNLOAD_END: u8 = 3;
const TAG_PLAYBACK_START: u8 = 4;
const TAG_STALL_START: u8 = 5;
const TAG_STALL_END: u8 = 6;
const TAG_DEFERRED: u8 = 7;
const TAG_IDLE_WAIT: u8 = 8;
const TAG_PLAYBACK_END: u8 = 9;
const TAG_DOWNLOAD_ABORTED: u8 = 10;
const TAG_RETRY: u8 = 11;
const TAG_OUTAGE_START: u8 = 12;
const TAG_OUTAGE_END: u8 = 13;

fn corrupt(context: &str, e: impl std::fmt::Display) -> RecordError {
    RecordError::Corrupt(format!("{context}: {e}"))
}

fn seconds(v: f64, context: &str) -> Result<Seconds, RecordError> {
    Seconds::try_new(v).map_err(|e| corrupt(context, e))
}

/// Encodes an event log. Timestamps ride one shared delta chain (they
/// are globally non-decreasing), durations and magnitudes ride a second.
#[must_use]
pub fn encode_log(log: &EventLog) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, log.len() as u64);
    let mut times = F64Delta::new();
    let mut values = F64Delta::new();
    for event in log {
        match *event {
            SessionEvent::Decision {
                at,
                segment,
                level,
                vibration,
                buffer,
            } => {
                out.push(TAG_DECISION);
                times.put(&mut out, at.value());
                put_varint(&mut out, segment.value() as u64);
                put_varint(&mut out, level.value() as u64);
                values.put(&mut out, vibration.value());
                values.put(&mut out, buffer.value());
            }
            SessionEvent::DownloadStart { at, segment } => {
                out.push(TAG_DOWNLOAD_START);
                times.put(&mut out, at.value());
                put_varint(&mut out, segment.value() as u64);
            }
            SessionEvent::DownloadEnd {
                at,
                segment,
                throughput,
            } => {
                out.push(TAG_DOWNLOAD_END);
                times.put(&mut out, at.value());
                put_varint(&mut out, segment.value() as u64);
                values.put(&mut out, throughput.value());
            }
            SessionEvent::PlaybackStart { at } => {
                out.push(TAG_PLAYBACK_START);
                times.put(&mut out, at.value());
            }
            SessionEvent::StallStart { at } => {
                out.push(TAG_STALL_START);
                times.put(&mut out, at.value());
            }
            SessionEvent::StallEnd { at } => {
                out.push(TAG_STALL_END);
                times.put(&mut out, at.value());
            }
            SessionEvent::Deferred { at, duration } => {
                out.push(TAG_DEFERRED);
                times.put(&mut out, at.value());
                values.put(&mut out, duration.value());
            }
            SessionEvent::IdleWait { at, duration } => {
                out.push(TAG_IDLE_WAIT);
                times.put(&mut out, at.value());
                values.put(&mut out, duration.value());
            }
            SessionEvent::PlaybackEnd { at } => {
                out.push(TAG_PLAYBACK_END);
                times.put(&mut out, at.value());
            }
            SessionEvent::DownloadAborted {
                at,
                segment,
                attempt,
                reason,
            } => {
                out.push(TAG_DOWNLOAD_ABORTED);
                times.put(&mut out, at.value());
                put_varint(&mut out, segment.value() as u64);
                put_varint(&mut out, attempt as u64);
                out.push(match reason {
                    AbortReason::InjectedFailure => 0,
                    AbortReason::StallTimeout => 1,
                });
            }
            SessionEvent::Retry {
                at,
                segment,
                attempt,
                backoff,
            } => {
                out.push(TAG_RETRY);
                times.put(&mut out, at.value());
                put_varint(&mut out, segment.value() as u64);
                put_varint(&mut out, attempt as u64);
                values.put(&mut out, backoff.value());
            }
            SessionEvent::OutageStart { at } => {
                out.push(TAG_OUTAGE_START);
                times.put(&mut out, at.value());
            }
            SessionEvent::OutageEnd { at } => {
                out.push(TAG_OUTAGE_END);
                times.put(&mut out, at.value());
            }
        }
    }
    out
}

/// Decodes an event log written by [`encode_log`].
///
/// # Errors
///
/// Returns a [`RecordError`] on truncation, an unknown event tag, an
/// out-of-range field, or a time-order violation between events.
pub fn decode_log(data: &[u8]) -> Result<EventLog, RecordError> {
    let mut r = Reader::new(data);
    let count = get_varint(&mut r)?;
    // Every event costs at least 2 bytes (tag + timestamp varint).
    if count > (r.remaining() as u64) / 2 {
        return Err(RecordError::Corrupt(format!(
            "event count {count} exceeds what {} remaining bytes could hold",
            r.remaining()
        )));
    }
    let mut times = F64Delta::new();
    let mut values = F64Delta::new();
    let mut log = EventLog::new();
    let mut prev_at = 0.0f64;
    for _ in 0..count {
        let tag = r.byte("event tag")?;
        let at = seconds(times.get(&mut r)?, "event timestamp")?;
        if at.value() < prev_at {
            return Err(RecordError::Corrupt(format!(
                "event log time regression: {} after {prev_at}",
                at.value()
            )));
        }
        prev_at = at.value();
        let event = match tag {
            TAG_DECISION => {
                let segment = SegmentIndex::new(get_varint(&mut r)? as usize);
                let level = LevelIndex::new(get_varint(&mut r)? as usize);
                let vibration = MetersPerSec2::try_new(values.get(&mut r)?)
                    .map_err(|e| corrupt("decision vibration", e))?;
                let buffer = seconds(values.get(&mut r)?, "decision buffer")?;
                SessionEvent::Decision {
                    at,
                    segment,
                    level,
                    vibration,
                    buffer,
                }
            }
            TAG_DOWNLOAD_START => SessionEvent::DownloadStart {
                at,
                segment: SegmentIndex::new(get_varint(&mut r)? as usize),
            },
            TAG_DOWNLOAD_END => {
                let segment = SegmentIndex::new(get_varint(&mut r)? as usize);
                let throughput = Mbps::try_new(values.get(&mut r)?)
                    .map_err(|e| corrupt("download throughput", e))?;
                SessionEvent::DownloadEnd {
                    at,
                    segment,
                    throughput,
                }
            }
            TAG_PLAYBACK_START => SessionEvent::PlaybackStart { at },
            TAG_STALL_START => SessionEvent::StallStart { at },
            TAG_STALL_END => SessionEvent::StallEnd { at },
            TAG_DEFERRED => SessionEvent::Deferred {
                at,
                duration: seconds(values.get(&mut r)?, "deferral duration")?,
            },
            TAG_IDLE_WAIT => SessionEvent::IdleWait {
                at,
                duration: seconds(values.get(&mut r)?, "idle duration")?,
            },
            TAG_PLAYBACK_END => SessionEvent::PlaybackEnd { at },
            TAG_DOWNLOAD_ABORTED => {
                let segment = SegmentIndex::new(get_varint(&mut r)? as usize);
                let attempt = get_varint(&mut r)? as usize;
                let reason = match r.byte("abort reason")? {
                    0 => AbortReason::InjectedFailure,
                    1 => AbortReason::StallTimeout,
                    other => {
                        return Err(RecordError::Corrupt(format!(
                            "unknown abort reason {other}"
                        )))
                    }
                };
                SessionEvent::DownloadAborted {
                    at,
                    segment,
                    attempt,
                    reason,
                }
            }
            TAG_RETRY => {
                let segment = SegmentIndex::new(get_varint(&mut r)? as usize);
                let attempt = get_varint(&mut r)? as usize;
                let backoff = seconds(values.get(&mut r)?, "retry backoff")?;
                SessionEvent::Retry {
                    at,
                    segment,
                    attempt,
                    backoff,
                }
            }
            TAG_OUTAGE_START => SessionEvent::OutageStart { at },
            TAG_OUTAGE_END => SessionEvent::OutageEnd { at },
            other => {
                return Err(RecordError::Corrupt(format!("unknown event tag {other}")));
            }
        };
        log.push(event);
    }
    if !r.is_empty() {
        return Err(RecordError::Corrupt(format!(
            "{} trailing bytes after the last event",
            r.remaining()
        )));
    }
    Ok(log)
}

/// Encodes a session result. Per-task fields are stored column-wise,
/// each column on its own delta chain, so near-constant columns
/// (bitrate, signal) and monotone columns (timestamps) compress well.
#[must_use]
pub fn encode_result(result: &SessionResult) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &result.controller);
    put_str(&mut out, &result.trace);

    put_varint(&mut out, result.tasks.len() as u64);
    for t in &result.tasks {
        put_varint(&mut out, t.task.value() as u64);
        put_varint(&mut out, t.level.value() as u64);
    }
    let columns: [fn(&TaskRecord) -> f64; 10] = [
        |t| t.bitrate.value(),
        |t| t.size.value(),
        |t| t.download_start.value(),
        |t| t.download_end.value(),
        |t| t.throughput.value(),
        |t| t.signal.value(),
        |t| t.vibration.value(),
        |t| t.rebuffer.value(),
        |t| t.radio_energy.value(),
        |t| t.qoe.value(),
    ];
    for field in columns {
        let mut chain = F64Delta::new();
        for t in &result.tasks {
            chain.put(&mut out, field(t));
        }
    }

    let mut scalars = F64Delta::new();
    let scalar_values = [
        result.energy.screen.value(),
        result.energy.decode.value(),
        result.energy.radio.value(),
        result.energy.tail.value(),
        result.mean_qoe.value(),
        result.total_rebuffer.value(),
        result.startup_delay.value(),
        result.played.value(),
        result.wall_time.value(),
        result.downloaded.value(),
        result.outage_time.value(),
        result.wasted_energy.value(),
    ];
    for v in scalar_values {
        scalars.put(&mut out, v);
    }
    put_varint(&mut out, result.switches as u64);
    put_varint(&mut out, result.retries as u64);
    put_varint(&mut out, result.aborts as u64);
    put_varint(&mut out, result.degraded_segments as u64);
    out
}

/// Decodes a session result written by [`encode_result`].
///
/// # Errors
///
/// Returns a [`RecordError`] on truncation or any out-of-range field.
pub fn decode_result(data: &[u8]) -> Result<SessionResult, RecordError> {
    let mut r = Reader::new(data);
    let controller = get_str(&mut r, "controller name")?;
    let trace = get_str(&mut r, "trace name")?;

    let count = get_varint(&mut r)?;
    // Each task costs at least 12 bytes (two varints + ten chain values).
    if count > (r.remaining() as u64) / 12 {
        return Err(RecordError::Corrupt(format!(
            "task count {count} exceeds what {} remaining bytes could hold",
            r.remaining()
        )));
    }
    let count = count as usize;
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        let task = TaskId::new(get_varint(&mut r)? as usize);
        let level = LevelIndex::new(get_varint(&mut r)? as usize);
        ids.push((task, level));
    }
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(10);
    for _ in 0..10 {
        let mut chain = F64Delta::new();
        let mut column = Vec::with_capacity(count);
        for _ in 0..count {
            column.push(chain.get(&mut r)?);
        }
        columns.push(column);
    }
    let col = |i: usize| -> &[f64] { columns.get(i).map(Vec::as_slice).unwrap_or(&[]) };
    let mut tasks = Vec::with_capacity(count);
    for (i, (task, level)) in ids.into_iter().enumerate() {
        let get = |c: usize, what: &str| -> Result<f64, RecordError> {
            col(c)
                .get(i)
                .copied()
                .ok_or_else(|| RecordError::Corrupt(format!("missing {what} column value")))
        };
        tasks.push(TaskRecord {
            task,
            level,
            bitrate: Mbps::try_new(get(0, "bitrate")?).map_err(|e| corrupt("task bitrate", e))?,
            size: MegaBytes::try_new(get(1, "size")?).map_err(|e| corrupt("task size", e))?,
            download_start: seconds(get(2, "download start")?, "task download start")?,
            download_end: seconds(get(3, "download end")?, "task download end")?,
            throughput: Mbps::try_new(get(4, "throughput")?)
                .map_err(|e| corrupt("task throughput", e))?,
            signal: Dbm::try_new(get(5, "signal")?).map_err(|e| corrupt("task signal", e))?,
            vibration: MetersPerSec2::try_new(get(6, "vibration")?)
                .map_err(|e| corrupt("task vibration", e))?,
            rebuffer: seconds(get(7, "rebuffer")?, "task rebuffer")?,
            radio_energy: Joules::try_new(get(8, "radio energy")?)
                .map_err(|e| corrupt("task radio energy", e))?,
            qoe: QoeScore::try_new(get(9, "qoe")?).map_err(|e| corrupt("task qoe", e))?,
        });
    }

    let mut scalars = F64Delta::new();
    // The closure's &mut borrow of `r` ends with this block, freeing it
    // for the trailing varints below.
    let (
        energy,
        mean_qoe,
        total_rebuffer,
        startup_delay,
        played,
        wall_time,
        downloaded,
        outage_time,
        wasted_energy,
    ) = {
        let mut next = || scalars.get(&mut r);
        let energy = EnergyBreakdown {
            screen: Joules::try_new(next()?).map_err(|e| corrupt("screen energy", e))?,
            decode: Joules::try_new(next()?).map_err(|e| corrupt("decode energy", e))?,
            radio: Joules::try_new(next()?).map_err(|e| corrupt("radio energy", e))?,
            tail: Joules::try_new(next()?).map_err(|e| corrupt("tail energy", e))?,
        };
        let mean_qoe = QoeScore::try_new(next()?).map_err(|e| corrupt("mean qoe", e))?;
        let total_rebuffer = seconds(next()?, "total rebuffer")?;
        let startup_delay = seconds(next()?, "startup delay")?;
        let played = seconds(next()?, "played")?;
        let wall_time = seconds(next()?, "wall time")?;
        let downloaded = MegaBytes::try_new(next()?).map_err(|e| corrupt("downloaded", e))?;
        let outage_time = seconds(next()?, "outage time")?;
        let wasted_energy = Joules::try_new(next()?).map_err(|e| corrupt("wasted energy", e))?;
        (
            energy,
            mean_qoe,
            total_rebuffer,
            startup_delay,
            played,
            wall_time,
            downloaded,
            outage_time,
            wasted_energy,
        )
    };

    let switches = get_varint(&mut r)? as usize;
    let retries = get_varint(&mut r)? as usize;
    let aborts = get_varint(&mut r)? as usize;
    let degraded_segments = get_varint(&mut r)? as usize;
    if !r.is_empty() {
        return Err(RecordError::Corrupt(format!(
            "{} trailing bytes after the result",
            r.remaining()
        )));
    }
    Ok(SessionResult {
        controller,
        trace,
        tasks,
        energy,
        mean_qoe,
        total_rebuffer,
        startup_delay,
        switches,
        played,
        wall_time,
        downloaded,
        retries,
        aborts,
        degraded_segments,
        outage_time,
        wasted_energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::FixedLevel;
    use crate::fault::FaultSpec;
    use crate::Simulator;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;
    use ecas_types::ladder::BitrateLadder;

    fn run(fault: Option<FaultSpec>) -> (SessionResult, EventLog) {
        let session = SessionGenerator::new(
            "codec",
            ContextSchedule::constant(Context::Walking),
            Seconds::new(60.0),
            11,
        )
        .generate();
        let sim = Simulator::paper(BitrateLadder::evaluation());
        let sim = match fault {
            Some(f) => sim.with_faults(f),
            None => sim,
        };
        sim.run_logged(&session, &mut FixedLevel::highest())
    }

    #[test]
    fn log_roundtrip_clean_session() {
        let (_, log) = run(None);
        assert!(!log.is_empty());
        let bytes = encode_log(&log);
        assert_eq!(decode_log(&bytes).unwrap(), log);
    }

    #[test]
    fn log_roundtrip_covers_every_event_variant() {
        use ecas_types::ids::SegmentIndex;
        use ecas_types::ladder::LevelIndex;
        use ecas_types::units::{Mbps, MetersPerSec2, Seconds};
        let mut log = EventLog::new();
        let events = [
            SessionEvent::Decision {
                at: Seconds::new(0.0),
                segment: SegmentIndex::new(0),
                level: LevelIndex::new(3),
                vibration: MetersPerSec2::new(0.4),
                buffer: Seconds::new(1.5),
            },
            SessionEvent::DownloadStart {
                at: Seconds::new(0.1),
                segment: SegmentIndex::new(0),
            },
            SessionEvent::OutageStart {
                at: Seconds::new(0.2),
            },
            SessionEvent::DownloadAborted {
                at: Seconds::new(0.3),
                segment: SegmentIndex::new(0),
                attempt: 1,
                reason: AbortReason::InjectedFailure,
            },
            SessionEvent::Retry {
                at: Seconds::new(0.4),
                segment: SegmentIndex::new(0),
                attempt: 2,
                backoff: Seconds::new(0.25),
            },
            SessionEvent::OutageEnd {
                at: Seconds::new(0.5),
            },
            SessionEvent::DownloadEnd {
                at: Seconds::new(0.9),
                segment: SegmentIndex::new(0),
                throughput: Mbps::new(3.5),
            },
            SessionEvent::PlaybackStart {
                at: Seconds::new(1.0),
            },
            SessionEvent::StallStart {
                at: Seconds::new(2.0),
            },
            SessionEvent::StallEnd {
                at: Seconds::new(2.5),
            },
            SessionEvent::Deferred {
                at: Seconds::new(3.0),
                duration: Seconds::new(0.8),
            },
            SessionEvent::IdleWait {
                at: Seconds::new(4.0),
                duration: Seconds::new(0.6),
            },
            SessionEvent::PlaybackEnd {
                at: Seconds::new(5.0),
            },
        ];
        for event in events {
            log.push(event);
        }
        let bytes = encode_log(&log);
        assert_eq!(decode_log(&bytes).unwrap(), log);
    }

    #[test]
    fn log_roundtrip_faulted_session_covers_fault_events() {
        let (_, log) = run(Some(FaultSpec::severe(3)));
        let bytes = encode_log(&log);
        let back = decode_log(&bytes).unwrap();
        assert_eq!(back, log);
        // The fixture must actually exercise the fault-path variants.
        let has = |f: fn(&SessionEvent) -> bool| log.iter().any(f);
        assert!(has(|e| matches!(e, SessionEvent::DownloadAborted { .. })));
        assert!(has(|e| matches!(e, SessionEvent::Retry { .. })));
    }

    #[test]
    fn result_roundtrip_clean_and_faulted() {
        for fault in [None, Some(FaultSpec::severe(3))] {
            let (result, _) = run(fault);
            let bytes = encode_result(&result);
            assert_eq!(decode_result(&bytes).unwrap(), result);
        }
    }

    #[test]
    fn log_truncation_never_panics() {
        let (_, log) = run(None);
        let bytes = encode_log(&log);
        for cut in 0..bytes.len() {
            assert!(
                decode_log(&bytes[..cut]).is_err(),
                "log prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn result_truncation_never_panics() {
        let (result, _) = run(None);
        let bytes = encode_result(&result);
        for cut in 0..bytes.len() {
            assert!(
                decode_result(&bytes[..cut]).is_err(),
                "result prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn unknown_event_tag_is_corrupt() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1);
        bytes.push(200); // no such tag
        let mut times = F64Delta::new();
        times.put(&mut bytes, 1.0);
        assert!(matches!(
            decode_log(&bytes),
            Err(RecordError::Corrupt(msg)) if msg.contains("tag")
        ));
    }

    #[test]
    fn time_regression_is_corrupt_not_panic() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 2);
        let mut times = F64Delta::new();
        bytes.push(TAG_PLAYBACK_START);
        times.put(&mut bytes, 5.0);
        bytes.push(TAG_PLAYBACK_END);
        times.put(&mut bytes, 1.0);
        assert!(matches!(
            decode_log(&bytes),
            Err(RecordError::Corrupt(msg)) if msg.contains("regression")
        ));
    }

    #[test]
    fn hostile_counts_are_corrupt_not_oom() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX / 2);
        assert!(decode_log(&bytes).is_err());

        let mut bytes = Vec::new();
        put_str(&mut bytes, "c");
        put_str(&mut bytes, "t");
        put_varint(&mut bytes, u64::MAX / 16);
        assert!(decode_result(&bytes).is_err());
    }

    #[test]
    fn log_encoding_is_compact() {
        let (_, log) = run(None);
        let bytes = encode_log(&log);
        let json = serde_json::to_string(&log).unwrap();
        assert!(
            bytes.len() * 3 < json.len(),
            "binary log ({}) should be well under a third of JSON ({})",
            bytes.len(),
            json.len()
        );
    }
}
