//! Failure-injection / pathological-input tests for the simulator: the
//! player must terminate and keep its invariants under hostile traces.

use ecas_sim::controller::FixedLevel;
use ecas_sim::{PlayerConfig, Simulator};
use ecas_trace::sample::{AccelSample, NetworkSample, SignalSample};
use ecas_trace::series::TimeSeries;
use ecas_trace::session::{SessionTrace, TraceMeta};
use ecas_trace::synth::context::{Context, ContextSchedule};
use ecas_trace::synth::SessionGenerator;
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::{Dbm, Mbps, MegaBytes, MetersPerSec2, Seconds};

fn session_with_network(samples: Vec<NetworkSample>, video_len: f64) -> SessionTrace {
    let meta = TraceMeta {
        name: "torture".into(),
        video_length: Seconds::new(video_len),
        data_size: MegaBytes::new(1.0),
        avg_vibration: MetersPerSec2::new(1.0),
        description: "pathological".into(),
        seed: None,
    };
    let network = TimeSeries::new(samples).unwrap();
    let signal =
        TimeSeries::new(vec![SignalSample::new(Seconds::zero(), Dbm::new(-115.0))]).unwrap();
    let accel = TimeSeries::new(
        (0..((video_len * 10.0) as usize))
            .map(|i| AccelSample::new(Seconds::new(i as f64 * 0.1), 0.0, 0.0, 9.81))
            .collect(),
    )
    .unwrap();
    SessionTrace::new(meta, network, signal, accel).unwrap()
}

#[test]
fn near_zero_throughput_still_terminates() {
    // 0.06 Mbps forever: even the lowest level (0.1 Mbps) cannot keep up.
    let s = session_with_network(
        vec![NetworkSample::new(Seconds::zero(), Mbps::new(0.06))],
        20.0,
    );
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let r = sim.run(&s, &mut FixedLevel::new(LevelIndex::new(0)));
    // Everything plays eventually; massive stalls are recorded.
    assert!((r.played.value() - 20.0).abs() < 1e-6);
    assert!(r.total_rebuffer.value() > 5.0);
    assert!(r.wall_time > r.played);
}

/// An hour-long session: past t ≈ 2048 s one ulp of the clock outlasts
/// the last bytes of a fast download, so `t + dt` rounded back to `t` and
/// the download loop spun forever on this trace.
#[test]
fn hour_long_session_terminates() {
    let s = SessionGenerator::new(
        "hour",
        ContextSchedule::constant(Context::QuietRoom),
        Seconds::new(3600.0),
        1,
    )
    .generate();
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let r = sim.run(&s, &mut FixedLevel::highest());
    assert_eq!(r.tasks.len(), 1800);
    assert!((r.played.value() - 3600.0).abs() < 1e-6);
}

#[test]
fn zero_throughput_sample_is_floored_not_fatal() {
    let s = session_with_network(
        vec![
            NetworkSample::new(Seconds::zero(), Mbps::new(10.0)),
            NetworkSample::new(Seconds::new(5.0), Mbps::zero()),
            NetworkSample::new(Seconds::new(10.0), Mbps::new(10.0)),
        ],
        20.0,
    );
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let r = sim.run(&s, &mut FixedLevel::new(LevelIndex::new(3)));
    assert!((r.played.value() - 20.0).abs() < 1e-6);
    assert!(r.total_energy().value().is_finite());
}

#[test]
fn single_segment_video() {
    let s = session_with_network(
        vec![NetworkSample::new(Seconds::zero(), Mbps::new(10.0))],
        2.0,
    );
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let r = sim.run(&s, &mut FixedLevel::highest());
    assert_eq!(r.tasks.len(), 1);
    assert!((r.played.value() - 2.0).abs() < 1e-6);
    assert_eq!(r.switches, 0);
}

#[test]
fn video_length_not_multiple_of_segment_duration() {
    // 19.5 s at tau = 2 s -> 10 segments, 20 s of playable content.
    let s = session_with_network(
        vec![NetworkSample::new(Seconds::zero(), Mbps::new(10.0))],
        19.5,
    );
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let r = sim.run(&s, &mut FixedLevel::highest());
    assert_eq!(r.tasks.len(), 10);
    assert!((r.played.value() - 20.0).abs() < 1e-6);
}

#[test]
fn throughput_spike_by_many_orders_of_magnitude() {
    let s = session_with_network(
        vec![
            NetworkSample::new(Seconds::zero(), Mbps::new(0.2)),
            NetworkSample::new(Seconds::new(10.0), Mbps::new(80.0)),
            NetworkSample::new(Seconds::new(12.0), Mbps::new(0.2)),
        ],
        30.0,
    );
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let r = sim.run(&s, &mut FixedLevel::new(LevelIndex::new(5)));
    assert!((r.played.value() - 30.0).abs() < 1e-6);
    for t in &r.tasks {
        assert!(t.throughput.value() <= 80.0 + 1e-9);
        assert!(t.radio_energy.value().is_finite());
    }
}

#[test]
fn tiny_buffer_threshold_config() {
    let config = PlayerConfig {
        segment_duration: Seconds::new(2.0),
        buffer_threshold: Seconds::new(2.0), // exactly one segment
        startup_threshold: Seconds::new(2.0),
        radio_tail: true,
        ..PlayerConfig::paper()
    };
    assert!(config.is_valid());
    let s = session_with_network(
        vec![NetworkSample::new(Seconds::zero(), Mbps::new(50.0))],
        20.0,
    );
    let sim = Simulator::new(
        config,
        BitrateLadder::evaluation(),
        ecas_power::model::PowerModel::paper(),
        ecas_qoe::model::QoeModel::paper(),
    );
    let r = sim.run(&s, &mut FixedLevel::new(LevelIndex::new(0)));
    assert!((r.played.value() - 20.0).abs() < 1e-6);
}

#[test]
fn a_controller_that_thrashes_levels_every_segment() {
    struct Thrash(usize);
    impl ecas_sim::controller::BitrateController for Thrash {
        fn select(
            &mut self,
            ctx: &ecas_sim::controller::DecisionContext<'_>,
        ) -> ecas_types::ladder::LevelIndex {
            self.0 += 1;
            if self.0.is_multiple_of(2) {
                ctx.ladder.lowest_level()
            } else {
                ctx.ladder.highest_level()
            }
        }
        fn name(&self) -> String {
            "thrash".into()
        }
    }
    let s = session_with_network(
        vec![NetworkSample::new(Seconds::zero(), Mbps::new(30.0))],
        40.0,
    );
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let r = sim.run(&s, &mut Thrash(0));
    assert_eq!(r.switches, r.tasks.len() - 1, "every boundary switches");
    // Heavy switching destroys QoE via the Eq. 1 switch penalty.
    assert!(r.mean_qoe.value() < 3.5);
}

#[test]
fn deferral_spam_cannot_stall_or_hang() {
    // A malicious controller that defers whenever permitted.
    struct AlwaysDefer;
    impl ecas_sim::controller::BitrateController for AlwaysDefer {
        fn select(
            &mut self,
            ctx: &ecas_sim::controller::DecisionContext<'_>,
        ) -> ecas_types::ladder::LevelIndex {
            ctx.ladder.lowest_level()
        }
        fn decide(
            &mut self,
            _ctx: &ecas_sim::controller::DecisionContext<'_>,
        ) -> ecas_sim::controller::Decision {
            ecas_sim::controller::Decision::Defer(Seconds::new(1000.0))
        }
        fn name(&self) -> String {
            "always-defer".into()
        }
    }
    let s = session_with_network(
        vec![NetworkSample::new(Seconds::zero(), Mbps::new(20.0))],
        20.0,
    );
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let r = sim.run(&s, &mut AlwaysDefer);
    // The simulator forces downloads when the buffer cannot afford the
    // wait, so the video still completes, stall-free or nearly so.
    assert!((r.played.value() - 20.0).abs() < 1e-6);
    assert!(r.total_rebuffer.value() < 1.0);
}
