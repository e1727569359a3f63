//! Self-tests of the benchmark: inputs follow the seed, faults are
//! counted instead of passing silently, and every output line parses.
//!
//! Runs use tiny sizes so they finish quickly in a debug build; the
//! Table V rows of `grid` and `grid-warm` have a fixed size.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use ecas_perfbench::report::{self, END_TO_END, PER_LAYER};
use ecas_perfbench::{run, Config, Fault, Outcome, Sizes, Workload};

const TINY: Sizes = Sizes {
    fleet_users: 40,
    fleet_batch: 16,
    corpus_records: 4,
};

fn config(workload: Workload, seed: u64, trace: bool, tag: &str) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.01,
        trace,
        sizes: TINY,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{tag}-{}-{seed}-{trace}", workload.name())),
        fault: None,
    }
}

fn run_ok(config: &Config) -> Outcome {
    let outcome = run(config).unwrap_or_else(|e| panic!("{}: {e}", config.workload.name()));
    assert!(
        !config.work_dir.exists(),
        "the run removes its scratch directory"
    );
    outcome
}

fn names(outcome: &Outcome) -> BTreeSet<&'static str> {
    outcome.lines.iter().map(|m| m.name).collect()
}

fn error_rate(outcome: &Outcome) -> f64 {
    outcome
        .lines
        .iter()
        .find(|m| m.name == "error_rate")
        .map(|m| m.value)
        .expect("error_rate is printed")
}

#[test]
fn a_second_seed_changes_inputs_but_not_the_metric_set() {
    let users = TINY.fleet_users;
    assert_ne!(
        ecas_perfbench::fleet_input_digest(1, users),
        ecas_perfbench::fleet_input_digest(2, users)
    );
    assert_eq!(
        ecas_perfbench::fleet_input_digest(1, users),
        ecas_perfbench::fleet_input_digest(1, users),
        "the same seed gives the same fleet"
    );
    let (one, two) = (
        ecas_perfbench::grid_trace_hashes(1),
        ecas_perfbench::grid_trace_hashes(2),
    );
    assert_eq!(one.len(), 5);
    assert!(
        one.iter().zip(&two).all(|(a, b)| a != b),
        "every Table V row changes"
    );

    for trace in [false, true] {
        let first = run_ok(&config(Workload::Fleet, 1, trace, "seed"));
        let second = run_ok(&config(Workload::Fleet, 2, trace, "seed"));
        assert!(first.correct && second.correct);
        assert_eq!(names(&first), names(&second));
    }
}

#[test]
fn a_tampered_cache_entry_counts_as_a_failure() {
    let mut config = config(Workload::GridWarm, 0, false, "tamper");
    config.fault = Some(Fault::TamperCacheEntry);
    let outcome = run_ok(&config);
    assert!(!outcome.correct, "no silent pass");
    assert!(outcome.failed >= 1 && outcome.failed < outcome.attempted);
    assert!(error_rate(&outcome) > 0.0);
    assert!(outcome.units >= 1, "the run still completes");
}

#[test]
fn a_truncated_record_counts_as_a_failure() {
    let mut config = config(Workload::Corpus, 0, false, "truncate");
    config.fault = Some(Fault::TruncateRecord);
    let outcome = run_ok(&config);
    assert!(!outcome.correct, "no silent pass");
    assert!(outcome.failed >= 1 && outcome.failed < outcome.attempted);
    assert!(error_rate(&outcome) > 0.0);
    assert!(outcome.units >= 1, "the run still completes");
}

#[test]
fn a_fault_for_another_workload_is_refused() {
    let mut config = config(Workload::Grid, 0, false, "refuse");
    config.fault = Some(Fault::TruncateRecord);
    assert!(run(&config).is_err());
}

#[test]
fn every_workload_passes_and_every_line_parses() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run_ok(&config(workload, 3, trace, "lines"));
            let label = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct, "{label}: {outcome:?}");
            assert_eq!(outcome.failed, 0, "{label}");
            assert_eq!(error_rate(&outcome), 0.0, "{label}");
            for metric in &outcome.lines {
                let (name, value, unit) = report::parse_line(&metric.line())
                    .unwrap_or_else(|| panic!("{label}: unparsable {:?}", metric.line()));
                assert_eq!(
                    (name.as_str(), value, unit.as_str()),
                    (metric.name, metric.value, metric.unit)
                );
            }
            let catalogue: Vec<&str> = if trace {
                PER_LAYER.iter().map(|&(n, _)| n).collect()
            } else {
                END_TO_END.iter().map(|&(n, _)| n).collect()
            };
            let reported: Vec<&str> = outcome.result.iter().map(|m| m.name).collect();
            assert_eq!(reported, catalogue, "{label}");
            let json = report::result_json(
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                &outcome.result,
            );
            assert!(
                serde_json::from_str::<serde_json::Value>(&json).is_ok(),
                "{label}: {json}"
            );
        }
    }
}

#[test]
fn the_traced_fleet_loop_attributes_the_unit() {
    let outcome = run_ok(&config(Workload::Fleet, 5, true, "attrib"));
    let value = |name: &str| {
        outcome
            .result
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    assert_eq!(value("population.users"), Some(TINY.fleet_users as f64));
    assert_eq!(value("sweep.cells"), Some(TINY.fleet_users as f64));
    let share = value("population.serial_share").unwrap();
    assert!(share > 0.0 && share < 1.0, "{share}");
    assert!(value("fleet.unattributed_s").unwrap() >= 0.0);
    assert_eq!(
        value("grid.unattributed_s"),
        Some(0.0),
        "other workloads' layers read 0"
    );
}

/// The catalogue in `BENCHMARK.json` is the one the benchmark prints.
#[test]
fn benchmark_json_lists_the_printed_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(serde_json::Value::Array(items)) = spec.get(key) else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(serde_json::Value::as_str)
                        .unwrap()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let Some(serde_json::Value::Array(workloads)) = spec.get("workloads") else {
        panic!("workloads is a list")
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(serde_json::Value::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn the_command_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_ecas-perfbench");
    for args in [
        &[][..],
        &["--workload", "nope"][..],
        &["--workload", "grid", "--trace", "2"][..],
        &["--workload", "grid", "--seconds", "0"][..],
        &["--workload", "grid", "--bogus"][..],
    ] {
        let out = Command::new(bin).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no result on a usage error"
        );
    }
    let help = Command::new(bin).arg("--help").output().expect("runs");
    assert!(help.status.success());
}
