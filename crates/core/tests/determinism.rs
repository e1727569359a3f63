//! Reproducibility guarantees: two observed runs of the same scenario
//! must produce byte-identical JSONL event streams and equal run-manifest
//! hashes. Wall-clock metrics are exempt — they live in a separate stream
//! precisely so these assertions can hold.

use std::fs;
use std::path::{Path, PathBuf};

use ecas_core::obs::{fnv1a_64, RunManifest, NULL_PROBE};
use ecas_core::record::RecordedSession;
use ecas_core::sim::{FaultSpec, Simulator};
use ecas_core::trace::synth::context::Context;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::types::ladder::BitrateLadder;
use ecas_core::{observe, Approach, ExecPolicy, ExperimentRunner, Scenario};

fn vehicle(seed: u64) -> RecordedSession {
    RecordedSession::Synthetic {
        context: Context::MovingVehicle,
        seconds: 60.0,
        seed,
    }
}

fn scenario() -> Scenario {
    Scenario {
        name: "determinism".to_string(),
        traces: vec![vehicle(23), vehicle(24)],
        approaches: vec![Approach::Youtube, Approach::Ours, Approach::Festive],
        ..Scenario::paper_evaluation()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecas-determinism-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn event_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir.join("events"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn same_seed_observed_runs_are_byte_identical() {
    let scenario = scenario();
    let dir_a = temp_dir("a");
    let dir_b = temp_dir("b");
    let policy = ExecPolicy::parallel();
    let summary_a = observe::run_observed(&scenario, &dir_a, &policy).unwrap();
    let summary_b = observe::run_observed(&scenario, &dir_b, &policy).unwrap();
    assert_eq!(summary_a, summary_b);

    // Equal manifest hashes: same seeds, ladder, config, version.
    let manifest_a =
        RunManifest::from_json(&fs::read_to_string(dir_a.join("manifest.json")).unwrap()).unwrap();
    let manifest_b =
        RunManifest::from_json(&fs::read_to_string(dir_b.join("manifest.json")).unwrap()).unwrap();
    assert_eq!(manifest_a.stable_hash(), manifest_b.stable_hash());

    // Byte-identical event streams, file by file.
    let files = event_files(&dir_a);
    assert_eq!(files, event_files(&dir_b));
    assert_eq!(files.len(), 2 * 3, "one stream per (trace, approach)");
    for name in &files {
        let bytes_a = fs::read(dir_a.join("events").join(name)).unwrap();
        let bytes_b = fs::read(dir_b.join("events").join(name)).unwrap();
        assert!(!bytes_a.is_empty(), "{name} is empty");
        assert_eq!(bytes_a, bytes_b, "{name} differs between reruns");
    }

    fs::remove_dir_all(&dir_a).ok();
    fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn different_scenario_changes_manifest_hash() {
    let runner = ExperimentRunner::paper();
    let base = observe::manifest(&scenario(), &runner);
    let mut changed = scenario();
    changed.traces = vec![vehicle(24), vehicle(25)]; // one seed off
    let other = observe::manifest(&changed, &runner);
    assert_ne!(base.stable_hash(), other.stable_hash());
}

/// `(fnv1a_64, lines, bytes)` of a JSONL stream.
fn pin(jsonl: &str) -> (u64, usize, usize) {
    (
        fnv1a_64(jsonl.as_bytes()),
        jsonl.lines().count(),
        jsonl.len(),
    )
}

#[test]
fn in_memory_event_streams_are_byte_identical_across_runs() {
    // The filesystem-free variant: observed runs publish exactly these
    // rendered event logs as their events files. Both sides of a rerun
    // render the same way, so each stream is also pinned by its hash,
    // line count and length: a change in how a log renders fails here.
    let runner = ExperimentRunner::paper();
    let session = scenario().sessions().unwrap().remove(0);
    assert_eq!(session.meta().name, "vehicle-60s-seed23");
    let (result_a, log_a) = runner.run_with_probe(&session, &Approach::Ours, &NULL_PROBE);
    let (result_b, log_b) = runner.run_with_probe(&session, &Approach::Ours, &NULL_PROBE);
    assert_eq!(result_a, result_b);
    assert_eq!(log_a.to_jsonl(), log_b.to_jsonl());
    assert_eq!(pin(&log_a.to_jsonl()), (0x80f3_ce84_390f_1adb, 101, 8354));

    // A fault-injected pair: Table V row 1 under the severe spec, whose
    // stream carries aborts, retries and outages.
    let faulty = ExperimentRunner::new(
        Simulator::paper(BitrateLadder::evaluation()).with_faults(FaultSpec::severe(7)),
        0.5,
    );
    let session = EvalTraceSpec::table_v()[0].generate();
    let (_, log) = faulty.run_with_probe(&session, &Approach::Ours, &NULL_PROBE);
    let jsonl = log.to_jsonl();
    for kind in ["DownloadAborted", "Retry", "OutageStart"] {
        assert!(jsonl.contains(&format!("{{\"{kind}\":")), "no {kind} line");
    }
    assert_eq!(pin(&jsonl), (0x652f_ab1e_ddb5_b151, 451, 36966));
}
