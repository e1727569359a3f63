//! VBR segment-size integration tests.

use ecas_sim::controller::FixedLevel;
use ecas_sim::Simulator;
use ecas_trace::synth::context::{Context, ContextSchedule};
use ecas_trace::synth::SessionGenerator;
use ecas_trace::vbr::SegmentSizes;
use ecas_trace::videos::TestVideo;
use ecas_types::ladder::BitrateLadder;
use ecas_types::units::Seconds;

fn session(secs: f64, seed: u64) -> ecas_trace::session::SessionTrace {
    SessionGenerator::new(
        "vbr",
        ContextSchedule::constant(Context::Walking),
        Seconds::new(secs),
        seed,
    )
    .generate()
}

fn high_motion() -> TestVideo {
    TestVideo {
        genre: "Battle",
        explanation: "test",
        spatial_info: 52.0,
        temporal_info: 22.0,
    }
}

#[test]
fn vbr_sessions_complete_with_varying_task_sizes() {
    let s = session(120.0, 1);
    let ladder = BitrateLadder::evaluation();
    let sizes = SegmentSizes::vbr(&ladder, 60, Seconds::new(2.0), &high_motion(), 5);
    let sim = Simulator::paper(ladder).with_segment_sizes(sizes);
    let r = sim.run(&s, &mut FixedLevel::highest());
    assert!((r.played.value() - 120.0).abs() < 1e-6);
    let min = r
        .tasks
        .iter()
        .map(|t| t.size.value())
        .fold(f64::MAX, f64::min);
    let max = r
        .tasks
        .iter()
        .map(|t| t.size.value())
        .fold(f64::MIN, f64::max);
    assert!(max > 1.2 * min, "sizes did not vary: {min}..{max}");
}

#[test]
fn vbr_total_download_close_to_cbr() {
    // Mean-corrected VBR moves per-segment sizes but not the total much.
    let s = session(240.0, 2);
    let ladder = BitrateLadder::evaluation();
    let sizes = SegmentSizes::vbr(&ladder, 120, Seconds::new(2.0), &high_motion(), 6);
    let cbr = Simulator::paper(ladder.clone()).run(&s, &mut FixedLevel::highest());
    let vbr = Simulator::paper(ladder)
        .with_segment_sizes(sizes)
        .run(&s, &mut FixedLevel::highest());
    let gap = (vbr.downloaded.value() - cbr.downloaded.value()).abs() / cbr.downloaded.value();
    assert!(gap < 0.01, "total downloaded diverged by {gap}");
}

#[test]
fn short_table_falls_back_to_cbr_sizes() {
    let s = session(40.0, 3);
    let ladder = BitrateLadder::evaluation();
    // Table covers only the first 5 of 20 segments.
    let sizes = SegmentSizes::vbr(&ladder, 5, Seconds::new(2.0), &high_motion(), 7);
    let sim = Simulator::paper(ladder.clone()).with_segment_sizes(sizes);
    let r = sim.run(&s, &mut FixedLevel::highest());
    let nominal = ladder
        .segment_size(ladder.highest_level(), Seconds::new(2.0))
        .value();
    for t in r.tasks.iter().skip(5) {
        assert!((t.size.value() - nominal).abs() < 1e-12);
    }
}

#[test]
fn simulator_builds_from_the_paper_manifest_ladder() {
    use ecas_trace::mpd::Manifest;
    let manifest = Manifest::paper(Seconds::new(60.0));
    let sim = Simulator::paper(manifest.ladder.clone());
    assert_eq!(sim.config().segment_duration, manifest.segment_duration);
    let s = session(60.0, 9);
    let r = sim.run(&s, &mut FixedLevel::highest());
    assert_eq!(r.tasks.len(), 30);
    assert!((r.tasks[0].bitrate.value() - 5.8).abs() < 1e-6);
}
