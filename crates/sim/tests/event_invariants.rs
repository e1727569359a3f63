//! Event-stream invariants: structural timeline properties that must
//! hold for any session — time-ordering, decision-before-download,
//! non-overlapping stalls.

use ecas_sim::controller::FixedLevel;
use ecas_sim::{EventLog, SessionEvent, Simulator};
use ecas_trace::synth::context::{Context, ContextSchedule};
use ecas_trace::synth::SessionGenerator;
use ecas_types::ids::SegmentIndex;
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::Seconds;

fn session(ctx: Context, secs: f64, seed: u64) -> ecas_trace::session::SessionTrace {
    SessionGenerator::new(
        "inv",
        ContextSchedule::constant(ctx),
        Seconds::new(secs),
        seed,
    )
    .generate()
}

/// A grid of sessions exercising every context, several seeds and both
/// ladder extremes — stalls, idle waits and switches all occur somewhere.
fn logged_sessions() -> Vec<EventLog> {
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let mut logs = Vec::new();
    for (ctx, secs) in [
        (Context::QuietRoom, 60.0),
        (Context::Walking, 90.0),
        (Context::MovingVehicle, 240.0),
    ] {
        for seed in [1, 17, 99] {
            let s = session(ctx, secs, seed);
            for level in [FixedLevel::highest(), FixedLevel::new(LevelIndex::new(0))] {
                let (_, log) = sim.run_logged(&s, &mut level.clone());
                logs.push(log);
            }
        }
    }
    logs
}

#[test]
fn events_are_sorted_by_time_in_every_session() {
    for log in logged_sessions() {
        let mut prev = Seconds::zero();
        for e in &log {
            assert!(e.at() >= prev, "{e:?} before {prev}");
            prev = e.at();
        }
    }
}

#[test]
fn each_decision_precedes_its_download_start() {
    for log in logged_sessions() {
        let mut decided_at: Vec<Option<Seconds>> = Vec::new();
        for e in &log {
            match *e {
                SessionEvent::Decision { at, segment, .. } => {
                    let idx = segment.value();
                    if decided_at.len() <= idx {
                        decided_at.resize(idx + 1, None);
                    }
                    decided_at[idx] = Some(at);
                }
                SessionEvent::DownloadStart { at, segment } => {
                    let decided = decided_at
                        .get(segment.value())
                        .copied()
                        .flatten()
                        .unwrap_or_else(|| panic!("download of {segment} before any decision"));
                    assert!(
                        decided <= at,
                        "{segment} decided at {decided}, downloaded {at}"
                    );
                }
                _ => {}
            }
        }
    }
}

#[test]
fn stall_intervals_never_overlap() {
    for log in logged_sessions() {
        let intervals = log.stall_intervals();
        for (start, end) in &intervals {
            assert!(end >= start, "inverted stall {start}..{end}");
        }
        for pair in intervals.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "overlapping stalls {:?} and {:?}",
                pair[0],
                pair[1]
            );
        }
    }
}

#[test]
fn downloads_never_overlap_and_pair_up() {
    for log in logged_sessions() {
        let mut open: Option<SegmentIndex> = None;
        for e in &log {
            match *e {
                SessionEvent::DownloadStart { segment, .. } => {
                    assert!(open.is_none(), "{segment} started while {open:?} open");
                    open = Some(segment);
                }
                SessionEvent::DownloadEnd { segment, .. } => {
                    assert_eq!(open.take(), Some(segment), "unmatched end for {segment}");
                }
                _ => {}
            }
        }
        assert!(open.is_none(), "unterminated download {open:?}");
    }
}
