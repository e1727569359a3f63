//! Reproducibility guarantees: two observed runs of the same scenario
//! must produce byte-identical JSONL event streams and equal run-manifest
//! hashes. Wall-clock metrics are exempt — they live in a separate stream
//! precisely so these assertions can hold.

use std::fs;
use std::path::{Path, PathBuf};

use ecas_core::obs::{MemoryRecorder, RunManifest};
use ecas_core::trace::synth::context::Context;
use ecas_core::{observe, Approach, ExperimentRunner, Scenario, TraceSelection};

fn scenario() -> Scenario {
    Scenario::builder("determinism")
        .traces(TraceSelection::Synthetic {
            context: Context::MovingVehicle,
            seconds: 60.0,
            count: 2,
            base_seed: 23,
        })
        .approaches(vec![Approach::Youtube, Approach::Ours, Approach::Festive])
        .build()
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
    let summary_a = observe::run_observed(&scenario, &dir_a).unwrap();
    let summary_b = observe::run_observed(&scenario, &dir_b).unwrap();
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
    changed.traces = TraceSelection::Synthetic {
        context: Context::MovingVehicle,
        seconds: 60.0,
        count: 2,
        base_seed: 24, // one seed off
    };
    let other = observe::manifest(&changed, &runner);
    assert_ne!(base.stable_hash(), other.stable_hash());
}

#[test]
fn in_memory_event_streams_are_byte_identical_across_runs() {
    // The filesystem-free variant: observed runs publish exactly these
    // MemoryRecorder streams as their events files.
    let runner = ExperimentRunner::paper();
    let session = scenario().traces.sessions().remove(0);
    let recorder_a = MemoryRecorder::new();
    let recorder_b = MemoryRecorder::new();
    let (result_a, _) = runner.run_with_probe(&session, &Approach::Ours, &recorder_a);
    let (result_b, _) = runner.run_with_probe(&session, &Approach::Ours, &recorder_b);
    assert_eq!(result_a, result_b);
    assert_eq!(recorder_a.to_jsonl(), recorder_b.to_jsonl());
    assert!(!recorder_a.to_jsonl().is_empty());
}
