//! Determinism and serialization guarantees across the whole stack.

use ecas::obs::{fnv1a_64, stable_hash, NULL_PROBE};
use ecas::record::{RecordScenario, RecordedSession};
use ecas::sim::FaultSpec;
use ecas::trace::population::{FleetContext, PopulationSpec};
use ecas::trace::videos::EvalTraceSpec;
use ecas::trace::SessionTrace;
use ecas::types::units::Seconds;
use ecas::{Approach, ExecPolicy, ExperimentRunner, FleetEngine, Scenario, SweepEngine};
use serde::Serialize;

#[test]
fn whole_evaluation_is_deterministic() {
    let run = || {
        let sessions: Vec<_> = EvalTraceSpec::table_v()[..2]
            .iter()
            .map(EvalTraceSpec::generate)
            .collect();
        SweepEngine::new(ExperimentRunner::paper()).run_grid(
            &sessions,
            &Approach::paper_set(),
            &ExecPolicy::Sequential,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn session_results_serde_roundtrip() {
    let session = EvalTraceSpec::table_v()[0].generate();
    let runner = ExperimentRunner::paper();
    for approach in Approach::paper_set() {
        let result = runner.run(&session, &approach);
        let json = serde_json::to_string(&result).unwrap();
        let back: ecas::sim::SessionResult = serde_json::from_str(&json).unwrap();
        assert_eq!(result, back);
    }
}

#[test]
fn traces_roundtrip_through_the_bin_codec() {
    let session = EvalTraceSpec::table_v()[1].generate();
    let mut bin = Vec::new();
    session.write_to(&mut bin).unwrap();
    assert_eq!(session, SessionTrace::read_from(bin.as_slice()).unwrap());
}

#[test]
fn parallel_and_sequential_grids_agree() {
    let sessions: Vec<_> = EvalTraceSpec::table_v()[..3]
        .iter()
        .map(EvalTraceSpec::generate)
        .collect();
    let engine = SweepEngine::new(ExperimentRunner::paper());
    let approaches = [Approach::Youtube, Approach::Festive, Approach::Ours];
    assert_eq!(
        engine.run_grid(&sessions, &approaches, &ExecPolicy::Sequential),
        engine.run_grid(&sessions, &approaches, &ExecPolicy::parallel())
    );
}

/// Asserts that the compact JSON streamed from `value` — what
/// `serde_json::to_string` returns and `stable_hash` hashes — hashes to
/// `pin`. The Table V pins are FNV-1a over the bytes the former
/// value-tree renderer produced for the same value.
fn assert_pinned<T: Serialize>(what: &str, value: &T, pin: u64) {
    let text = serde_json::to_string(value).unwrap();
    let hash = fnv1a_64(text.as_bytes());
    assert_eq!(hash, pin, "{what}: {hash:016x}");
    assert_eq!(stable_hash(value), pin, "{what}");
}

#[test]
fn streamed_json_is_pinned_for_real_values() {
    let sessions: Vec<SessionTrace> = EvalTraceSpec::table_v()
        .iter()
        .map(EvalTraceSpec::generate)
        .collect();
    let trace_pins = [
        0x5d2e2a9373b7b24b,
        0x37da3eeb44434862,
        0x4c1ada17af5bd02f,
        0x812126a0760a9d38,
        0xb7fb15408814dac4,
    ];
    for (session, pin) in sessions.iter().zip(trace_pins) {
        assert_pinned(&session.meta().name, session, pin);
    }
    let runner = ExperimentRunner::paper();
    assert_pinned("config", runner.simulator().config(), 0x0d9ed689524c6112);
    // (approach, result pin, event log pin) on Table V trace 1.
    let run_pins = [
        (Approach::Youtube, 0x2156da42f50a26cc, 0x44f00bf3d07cd0cb),
        (Approach::Festive, 0x90f1299e7a3f7dde, 0x1cd7cbe58f870e9a),
        (Approach::Bba, 0x4f45216ce42fa2af, 0xd774cd65dba0303f),
        (Approach::Ours, 0xced498f521cbc0ed, 0x2e86e36d2f821a6c),
        (Approach::Optimal, 0x0ab82fef652c97f7, 0xa6eb6e86c3251225),
    ];
    assert_eq!(run_pins.map(|(a, _, _)| a), Approach::paper_set());
    for (approach, result_pin, log_pin) in run_pins {
        let (result, log) = runner.run_with_probe(&sessions[0], &approach, &NULL_PROBE);
        assert_pinned(&format!("{} result", approach.label()), &result, result_pin);
        assert_pinned(&format!("{} log", approach.label()), &log, log_pin);
    }
    let scenario = RecordScenario {
        session: RecordedSession::TableV { id: 1 },
        approach: Approach::Ours,
        eta: 0.5,
        fault: Some(FaultSpec::scaled(0.5, 1)),
    };
    assert_pinned("record scenario", &scenario, 0xce2b12e024955601);
    let manifest = ecas::observe::manifest(&Scenario::paper_evaluation(), &runner);
    assert_pinned("manifest", &manifest, 0xcb394ae82390834b);
}

#[test]
fn fleet_report_and_short_users_are_pinned() {
    let spec = PopulationSpec::new(200, 7).mean_duration(Seconds::new(24.0));
    let report = FleetEngine::paper().run(&spec, &ExecPolicy::Sequential);
    assert_pinned("fleet report", &report, 0x2fd99daa11ddf4f2);
    // (user index, context, result pin, event log pin), run under Ours
    // as the fleet runs them.
    let user_pins = [
        (
            1,
            FleetContext::Walking,
            0xecd728c0b38dcf7e,
            0x985905169b81c76f,
        ),
        (
            7,
            FleetContext::Vehicle,
            0xc85a520bc66f770e,
            0xe62809d7ae993908,
        ),
        (
            10,
            FleetContext::Commute,
            0x9071f0e90855b69e,
            0x942cf8ffd9b9364b,
        ),
    ];
    let runner = ExperimentRunner::paper();
    for (index, context, result_pin, log_pin) in user_pins {
        let user = spec.user(index);
        assert_eq!(user.context, context, "user {index}");
        let (result, log) = runner.run_with_probe(&user.synthesize(), &Approach::Ours, &NULL_PROBE);
        assert_pinned(&format!("user {index} result"), &result, result_pin);
        assert_pinned(&format!("user {index} log"), &log, log_pin);
    }
}
