//! Regression tests for deferral wait clamping.
//!
//! The deferral path once clamped the wait with `clamp(0.05, slack)`,
//! which panics whenever the buffer slack lands in `(1e-9, 0.05)` —
//! `f64::clamp` requires `min <= max`. These tests pin the exact panic
//! reproducer and sweep the whole wait range.

use ecas_sim::controller::{BitrateController, Decision, DecisionContext};
use ecas_sim::Simulator;
use ecas_trace::sample::{AccelSample, NetworkSample, SignalSample};
use ecas_trace::series::TimeSeries;
use ecas_trace::session::{SessionTrace, TraceMeta};
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::{Dbm, Mbps, MegaBytes, MetersPerSec2, Seconds};

/// Always asks to defer by a fixed wait; downloads the lowest level when
/// the simulator forces a pick.
struct AlwaysDefer {
    wait: Seconds,
}

impl BitrateController for AlwaysDefer {
    fn select(&mut self, _ctx: &DecisionContext<'_>) -> LevelIndex {
        LevelIndex::new(0)
    }

    fn decide(&mut self, _ctx: &DecisionContext<'_>) -> Decision {
        Decision::Defer(self.wait)
    }

    fn name(&self) -> String {
        "always-defer".into()
    }
}

fn constant_session(throughput: Mbps, video_len: f64) -> SessionTrace {
    let meta = TraceMeta {
        name: "deferral".into(),
        video_length: Seconds::new(video_len),
        data_size: MegaBytes::new(1.0),
        avg_vibration: MetersPerSec2::new(1.0),
        description: "deferral regression".into(),
        seed: None,
    };
    let network = TimeSeries::new(vec![NetworkSample::new(Seconds::zero(), throughput)]).unwrap();
    let signal =
        TimeSeries::new(vec![SignalSample::new(Seconds::zero(), Dbm::new(-95.0))]).unwrap();
    let accel = TimeSeries::new(
        (0..((video_len * 10.0) as usize))
            .map(|i| AccelSample::new(Seconds::new(i as f64 * 0.1), 0.0, 0.0, 9.81))
            .collect(),
    )
    .unwrap();
    SessionTrace::new(meta, network, signal, accel).unwrap()
}

/// A one-level ladder and a startup threshold of one segment so the
/// buffer slack can be steered precisely by the link speed.
fn tight_simulator() -> Simulator {
    let ladder = BitrateLadder::from_bitrates(vec![Mbps::new(1.0)]).unwrap();
    let config = ecas_sim::PlayerConfig {
        startup_threshold: Seconds::new(2.0),
        ..ecas_sim::PlayerConfig::paper()
    };
    Simulator::new(
        config,
        ladder,
        ecas_power::PowerModel::paper(),
        ecas_qoe::QoeModel::paper(),
    )
}

/// The exact `f64::clamp` panic reproducer: a 1 Mbps single-level ladder
/// over a 2/1.98 Mbps link makes every download take 1.98 s, so segment
/// 2's decision sees a buffer of 2.02 s — a slack of 0.02, inside the
/// fatal `(1e-9, 0.05)` window of the old `wait.clamp(0.05, slack)`.
#[test]
fn sub_floor_slack_deferral_does_not_panic() {
    let sim = tight_simulator();
    let s = constant_session(Mbps::new(2.0 / 1.98), 20.0);
    let r = sim.run(
        &s,
        &mut AlwaysDefer {
            wait: Seconds::new(0.5),
        },
    );
    assert!((r.played.value() - 20.0).abs() < 1e-6);
    assert_eq!(r.tasks.len(), 10);
}

/// Every wait in `[0, 2B]` must be survivable, and on a link that is
/// comfortably faster than the single ladder level a deferral can never
/// be the *cause* of a stall — the wait is bounded by the buffer slack.
#[test]
fn wait_sweep_never_panics_or_self_stalls() {
    let b = ecas_sim::PlayerConfig::paper().buffer_threshold.value();
    for i in 0..=60 {
        let wait = 2.0 * b * f64::from(i) / 60.0;
        let sim = tight_simulator();
        let s = constant_session(Mbps::new(8.0), 30.0);
        let r = sim.run(
            &s,
            &mut AlwaysDefer {
                wait: Seconds::new(wait),
            },
        );
        assert!((r.played.value() - 30.0).abs() < 1e-6, "wait={wait}");
        assert!(
            r.total_rebuffer.value() <= 1e-9,
            "deferral of {wait}s caused a {} stall on a fast link",
            r.total_rebuffer
        );
    }
}

/// Zero-wait deferrals must still make progress (the floor substitutes a
/// minimum wait), not spin forever in the decision loop.
#[test]
fn zero_wait_deferral_terminates() {
    let sim = tight_simulator();
    let s = constant_session(Mbps::new(8.0), 20.0);
    let r = sim.run(
        &s,
        &mut AlwaysDefer {
            wait: Seconds::zero(),
        },
    );
    assert!((r.played.value() - 20.0).abs() < 1e-6);
}
