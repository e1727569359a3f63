//! Determinism and serialization guarantees across the whole stack.

use ecas::trace::io::TraceFormat;
use ecas::trace::videos::EvalTraceSpec;
use ecas::trace::SessionTrace;
use ecas::{Approach, ExecPolicy, ExperimentRunner, SweepEngine};

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
