//! "Everything composes" integration test: scenario configs, reports,
//! robustness, abandonment analysis, battery framing and the MPD layer all
//! working together through the facade.

// Integration tests assert exact fixture values.
#![allow(clippy::float_cmp)]
use ecas::power::battery::Battery;
use ecas::record::RecordedSession;
use ecas::trace::mpd::Manifest;
use ecas::trace::synth::context::Context;
use ecas::types::units::Seconds;
use ecas::viewer::quit_analysis;
use ecas::{render_markdown, Approach, ExecPolicy, ExperimentRunner, Scenario};

#[test]
fn scenario_json_roundtrip_runs_and_renders() {
    let scenario = Scenario {
        name: "tooling-smoke".to_string(),
        traces: (40..42)
            .map(|seed| RecordedSession::Synthetic {
                context: Context::MovingVehicle,
                seconds: 60.0,
                seed,
            })
            .collect(),
        approaches: vec![Approach::Youtube, Approach::Ours, Approach::AdaptiveEta],
        ..Scenario::paper_evaluation()
    };
    // A user could write this JSON by hand; it must survive the trip.
    let json = serde_json::to_string_pretty(&scenario).unwrap();
    let parsed: Scenario = serde_json::from_str(&json).unwrap();
    assert_eq!(scenario, parsed);

    let (summary, _) = parsed.run(&ExecPolicy::parallel()).unwrap();
    assert_eq!(summary.traces.len(), 2);
    let md = render_markdown(&parsed.name, &summary);
    assert!(md.contains("# tooling-smoke"));
    assert!(md.contains("Adaptive"));
    // The markdown tables parse as rows with consistent pipe counts.
    let pipe_counts: Vec<usize> = md
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(|l| l.matches('|').count())
        .collect();
    assert!(!pipe_counts.is_empty());
}

#[test]
fn battery_and_abandonment_compose_with_the_runner() {
    let session = RecordedSession::TableV { id: 1 }.generate().unwrap();
    let runner = ExperimentRunner::paper();
    let result = runner.run(&session, &Approach::Ours);

    // Battery framing.
    let mut battery = Battery::nexus_5x();
    let drained = battery.drain(result.total_energy());
    assert_eq!(drained, result.total_energy());
    assert!(
        battery.state_of_charge() > 0.9,
        "one session is a few percent"
    );

    // Abandonment analysis at mid-session.
    let quit = Seconds::new(result.wall_time.value() / 2.0);
    let q = quit_analysis(&result, Seconds::new(2.0), quit);
    assert!(q.watched.value() > 0.0);
    assert!(q.wasted_data.value() < result.downloaded.value());
}

#[test]
fn manifest_drives_an_end_to_end_run() {
    let session = RecordedSession::Synthetic {
        context: Context::Walking,
        seconds: 60.0,
        seed: 77,
    }
    .generate()
    .unwrap();
    // Serialize the evaluation setup to an MPD and back, then stream with
    // the parsed manifest's ladder.
    let manifest = Manifest::paper(Seconds::new(60.0));
    let parsed = Manifest::parse(&manifest.to_xml()).unwrap();
    let sim = ecas::sim::Simulator::from_manifest(&parsed);
    let mut controller = ecas::abr::Online::paper();
    let result = sim.run(&session, &mut controller);
    assert_eq!(result.tasks.len(), parsed.segment_count());
}

#[test]
fn robustness_rows_cover_requested_approaches() {
    let runner = ExperimentRunner::paper();
    let (rows, _) = ecas::table_v_robustness(
        &runner,
        &[Approach::Youtube, Approach::Festive],
        &[0],
        &ExecPolicy::parallel(),
    );
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].approach, Approach::Youtube);
    assert_eq!(rows[1].approach, Approach::Festive);
    // Single-seed stats have zero variance.
    assert_eq!(rows[1].energy_saving.std, 0.0);
    assert_eq!(rows[1].energy_saving.n, 1);
}
