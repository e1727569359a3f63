//! Replay-identity and differential-optimality checks over the paper's
//! canonical evaluation set (Table V × every approach) and a faulted
//! scenario. These are the oracle's acceptance tests; `oracle_fuzz`
//! extends the same checks over randomized scenarios.

use ecas_core::oracle::{Oracle, ReplayVerdict};
use ecas_core::trace::synth::context::Context;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::{Approach, ExperimentRunner, Scenario, TraceSelection};
use ecas_obs::NULL_PROBE;
use ecas_sim::FaultSpec;

/// Every approach on every Table V trace replays to the simulator's
/// result within tolerance, and no realized objective beats the
/// shortest-path optimum.
#[test]
fn table_v_replays_and_respects_the_optimal_bound() {
    let runner = ExperimentRunner::paper();
    let oracle = Oracle::new(runner.simulator(), runner.eta());
    for spec in &EvalTraceSpec::table_v() {
        let session = spec.generate();
        // One optimal plan per session, shared across all ten approaches.
        let optimal = oracle.optimal_objective(&session);
        for approach in Approach::all() {
            let (result, log) = runner.run_with_probe(&session, &approach, &NULL_PROBE);
            let verdict = oracle.check_replay(&session, &result, Some(&log));
            assert!(
                verdict.is_pass(),
                "{} on {}: {}",
                approach.label(),
                result.trace,
                verdict.render()
            );
            let objective = oracle
                .check_objective_against(&session, &result, optimal)
                .expect("task count matches the session");
            assert!(
                objective.holds(),
                "{} on {}: {}",
                approach.label(),
                result.trace,
                objective.render()
            );
        }
    }
}

/// Replay identity survives fault injection: retries, aborts, backoff
/// tails, degraded segments and outage accounting all reconstruct from
/// the event log.
#[test]
fn moderate_faults_replay_exactly() {
    let scenario = Scenario::builder("oracle-moderate-faults")
        .traces(TraceSelection::Synthetic {
            context: Context::MovingVehicle,
            seconds: 90.0,
            count: 2,
            base_seed: 7,
        })
        .approaches(Approach::paper_set().to_vec())
        .fault(FaultSpec::moderate(42))
        .build();
    let runner = scenario.runner();
    let oracle = Oracle::new(runner.simulator(), runner.eta());
    let mut faulted_sessions = 0usize;
    for session in scenario.traces.sessions() {
        for approach in &scenario.approaches {
            let (result, log) = runner.run_with_probe(&session, approach, &NULL_PROBE);
            if result.retries > 0 || result.outage_time.value() > 0.0 {
                faulted_sessions += 1;
            }
            let verdict = oracle.check_replay(&session, &result, Some(&log));
            assert!(
                verdict.is_pass(),
                "{} on {}: {}",
                approach.label(),
                result.trace,
                verdict.render()
            );
        }
    }
    assert!(
        faulted_sessions > 0,
        "the moderate fault spec never bit — the scenario exercises nothing"
    );
}

/// An unlogged run yields an explicit skip, never a silent pass.
#[test]
fn unlogged_runs_are_reported_as_skipped() {
    let runner = ExperimentRunner::paper();
    let oracle = Oracle::new(runner.simulator(), runner.eta());
    let session = EvalTraceSpec::table_v()[0].generate();
    let result = runner.run(&session, &Approach::Ours);
    match oracle.check_replay(&session, &result, None) {
        ReplayVerdict::Skipped { reason } => {
            assert!(reason.contains("no event log"), "{reason}");
        }
        other => panic!("expected Skipped, got {}", other.render()),
    }
}

/// Tampering with any accounted field is caught and named. This guards
/// the diff itself: a diff that compares nothing would pass everything.
#[test]
fn tampered_fields_are_caught_and_named() {
    let runner = ExperimentRunner::paper();
    let oracle = Oracle::new(runner.simulator(), runner.eta());
    let session = EvalTraceSpec::table_v()[1].generate();
    let (reference, log) = runner.run_with_probe(&session, &Approach::Bba, &NULL_PROBE);

    type Tamper = Box<dyn Fn(&mut ecas_sim::SessionResult)>;
    let tampered: Vec<(&str, Tamper)> = vec![
        (
            "wall_time",
            Box::new(|r| r.wall_time = ecas_core::types::units::Seconds::new(r.wall_time.value() + 0.5)),
        ),
        (
            "energy.tail",
            Box::new(|r| r.energy.tail = ecas_core::types::units::Joules::new(r.energy.tail.value() * 1.01)),
        ),
        ("switches", Box::new(|r| r.switches += 1)),
        (
            "tasks[0].qoe",
            Box::new(|r| {
                if let Some(t) = r.tasks.first_mut() {
                    t.qoe = ecas_core::types::units::QoeScore::new(t.qoe.value() + 0.25);
                }
            }),
        ),
    ];
    for (field, tamper) in tampered {
        let mut result = reference.clone();
        tamper(&mut result);
        match oracle.check_replay(&session, &result, Some(&log)) {
            ReplayVerdict::Fail { divergences } => {
                assert!(
                    divergences.iter().any(|d| d.field == field),
                    "tampering {field} flagged {:?}",
                    divergences.iter().map(|d| d.field.clone()).collect::<Vec<_>>()
                );
            }
            other => panic!("tampering {field} passed: {}", other.render()),
        }
    }
}
