//! Integration tests for the deterministic fault-injection subsystem:
//! reproducibility, retry/degradation behaviour, outage accounting, and
//! equivalence with the fault-free player when the spec is inactive.

use ecas_sim::controller::FixedLevel;
use ecas_sim::{AbortReason, FaultSpec, SessionEvent, Simulator};
use ecas_trace::session::SessionTrace;
use ecas_trace::synth::context::{Context, ContextSchedule};
use ecas_trace::synth::SessionGenerator;
use ecas_types::ladder::BitrateLadder;
use ecas_types::units::Seconds;

fn session(secs: f64, seed: u64) -> SessionTrace {
    SessionGenerator::new(
        "fault-test",
        ContextSchedule::constant(Context::Walking),
        Seconds::new(secs),
        seed,
    )
    .generate()
}

fn faulty_sim(spec: FaultSpec) -> Simulator {
    Simulator::paper(BitrateLadder::evaluation()).with_faults(spec)
}

#[test]
fn same_seed_and_spec_reproduce_byte_identical_output() {
    let s = session(90.0, 4);
    let spec = FaultSpec::severe(17);
    let (r1, log1) = faulty_sim(spec).run_logged(&s, &mut FixedLevel::highest());
    let (r2, log2) = faulty_sim(spec).run_logged(&s, &mut FixedLevel::highest());
    // Byte-identical serialized results AND event logs, not just equal
    // structs: the acceptance bar for deterministic replay.
    assert_eq!(
        serde_json::to_string(&r1).unwrap(),
        serde_json::to_string(&r2).unwrap()
    );
    let jsonl = |log: &ecas_sim::EventLog| -> String {
        log.iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(jsonl(&log1), jsonl(&log2));
    // And the faults actually bit: a severe 90 s session retries.
    assert!(r1.retries > 0, "severe spec produced no retries");
}

#[test]
fn different_fault_seeds_diverge() {
    let s = session(90.0, 4);
    let r1 = faulty_sim(FaultSpec::severe(1)).run(&s, &mut FixedLevel::highest());
    let r2 = faulty_sim(FaultSpec::severe(2)).run(&s, &mut FixedLevel::highest());
    assert_ne!(r1, r2, "different fault seeds must perturb differently");
}

#[test]
fn inactive_spec_is_byte_identical_to_no_faults() {
    let s = session(60.0, 9);
    let plain = Simulator::paper(BitrateLadder::evaluation()).run(&s, &mut FixedLevel::highest());
    let gated = faulty_sim(FaultSpec::disabled(99)).run(&s, &mut FixedLevel::highest());
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&gated).unwrap()
    );
}

#[test]
fn certain_failure_degrades_every_segment_but_delivers_all() {
    let mut spec = FaultSpec::disabled(3);
    spec.failure_probability = 1.0;
    let s = session(20.0, 6);
    let (r, log) = faulty_sim(spec).run_logged(&s, &mut FixedLevel::highest());
    let n = r.tasks.len();
    assert_eq!(n, 10);
    assert!(
        (r.played.value() - 20.0).abs() < 1e-6,
        "all segments deliver"
    );
    // Every segment burns the whole retry budget, then the degraded
    // fallback attempt (exempt from injection) succeeds.
    let budget = ecas_sim::RetryPolicy::paper().max_attempts;
    assert_eq!(r.degraded_segments, n);
    assert_eq!(r.aborts, n * budget);
    assert_eq!(r.retries, r.aborts);
    assert!(r.wasted_energy.value() > 0.0);
    // All tasks fall to the ladder floor and the aborts carry the
    // injected-failure reason.
    assert!(r.tasks.iter().all(|t| t.level.value() == 0));
    assert!(log.iter().any(|e| matches!(
        e,
        SessionEvent::DownloadAborted {
            reason: AbortReason::InjectedFailure,
            ..
        }
    )));
}

#[test]
fn outages_are_logged_in_pairs_and_accounted() {
    let mut spec = FaultSpec::disabled(8);
    spec.outages_per_minute = 6.0;
    spec.outage_min = Seconds::new(1.0);
    spec.outage_max = Seconds::new(3.0);
    let s = session(120.0, 2);
    let (r, log) = faulty_sim(spec).run_logged(&s, &mut FixedLevel::highest());
    assert!(
        r.outage_time.value() > 0.0,
        "six outages a minute must overlap a 2-minute session"
    );
    let starts = log
        .iter()
        .filter(|e| matches!(e, SessionEvent::OutageStart { .. }))
        .count();
    let ends = log
        .iter()
        .filter(|e| matches!(e, SessionEvent::OutageEnd { .. }))
        .count();
    assert!(starts > 0, "no outage observed by the player");
    // Every observed outage eventually closes, except at most one still
    // open when the session ends.
    assert!(
        ends == starts || ends + 1 == starts,
        "unbalanced outage events: {starts} starts, {ends} ends"
    );
    // The log stays time-ordered (EventLog debug-asserts this on push,
    // so a completed run is proof; spot-check anyway for release builds).
    let times: Vec<f64> = log.iter().map(|e| e.at().value()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn fault_sessions_always_terminate_across_intensities() {
    for tenths in 1..=10 {
        let spec = FaultSpec::scaled(f64::from(tenths) / 10.0, 31);
        let s = session(60.0, 13);
        let r = faulty_sim(spec).run(&s, &mut FixedLevel::highest());
        assert!(
            (r.played.value() - 60.0).abs() < 1e-6,
            "intensity {tenths}/10 lost content"
        );
        assert!(r.total_energy().value().is_finite());
        assert!(r.wasted_energy.value() <= r.energy.radio.value() + 1e-9);
    }
}

#[test]
fn wasted_energy_is_a_subset_of_radio_energy() {
    let s = session(90.0, 5);
    let r = faulty_sim(FaultSpec::severe(7)).run(&s, &mut FixedLevel::highest());
    assert!(r.aborts > 0);
    assert!(r.wasted_energy.value() > 0.0);
    assert!(
        r.wasted_energy.value() < r.energy.radio.value(),
        "wasted {} must stay below total radio {}",
        r.wasted_energy,
        r.energy.radio
    );
}
