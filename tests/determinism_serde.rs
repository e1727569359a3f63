//! Determinism and serialization guarantees across the whole stack.

use ecas::obs::{fnv1a_64, stable_hash, NULL_PROBE};
use ecas::record::{RecordScenario, RecordedSession};
use ecas::sim::FaultSpec;
use ecas::trace::io::TraceFormat;
use ecas::trace::videos::EvalTraceSpec;
use ecas::trace::SessionTrace;
use ecas::{Approach, ExecPolicy, ExperimentRunner, Scenario, SweepEngine};
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
fn comparison_summary_serde_roundtrip() {
    let sessions: Vec<_> = EvalTraceSpec::table_v()[..1]
        .iter()
        .map(EvalTraceSpec::generate)
        .collect();
    let runner = ExperimentRunner::paper();
    let summary = ecas::ComparisonSummary::evaluate(&runner, &sessions, &Approach::paper_set());
    let json = serde_json::to_string(&summary).unwrap();
    let back: ecas::ComparisonSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(summary, back);
}

#[test]
fn traces_roundtrip_through_both_codecs() {
    let session = EvalTraceSpec::table_v()[1].generate();

    let mut json_buf = Vec::new();
    session.write_to(&mut json_buf, TraceFormat::Json).unwrap();
    assert_eq!(
        session,
        SessionTrace::read_from(json_buf.as_slice(), TraceFormat::Json).unwrap()
    );

    let mut bin = Vec::new();
    session.write_to(&mut bin, TraceFormat::Binary).unwrap();
    assert_eq!(
        session,
        SessionTrace::read_from(bin.as_slice(), TraceFormat::Binary).unwrap()
    );
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
/// `serde_json::to_string` returns and `stable_hash` hashes — is the
/// value tree's rendering, byte for byte.
fn assert_streams_like_tree<T: Serialize>(value: &T) {
    let tree = serde_json::to_value(value).unwrap().to_string();
    // `assert!`, not `assert_eq!`: a failure must not print megabytes.
    assert!(serde_json::to_string(value).unwrap() == tree);
    assert_eq!(stable_hash(value), fnv1a_64(tree.as_bytes()));
}

#[test]
fn streamed_json_matches_the_value_tree_for_real_values() {
    let sessions: Vec<SessionTrace> = EvalTraceSpec::table_v()
        .iter()
        .map(EvalTraceSpec::generate)
        .collect();
    for session in &sessions {
        assert_streams_like_tree(session);
    }
    let runner = ExperimentRunner::paper();
    assert_streams_like_tree(runner.simulator().config());
    for approach in Approach::paper_set() {
        let (result, log) = runner.run_with_probe(&sessions[0], &approach, &NULL_PROBE);
        assert_streams_like_tree(&result);
        assert_streams_like_tree(&log);
    }
    assert_streams_like_tree(&RecordScenario {
        session: RecordedSession::TableV { id: 1 },
        approach: Approach::Ours,
        eta: 0.5,
        fault: Some(FaultSpec::scaled(0.5, 1)),
    });
    assert_streams_like_tree(&ecas::observe::manifest(
        &Scenario::paper_evaluation(),
        &runner,
    ));
}
