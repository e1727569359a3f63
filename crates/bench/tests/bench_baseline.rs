//! Regression tests for the committed performance baseline and the
//! determinism guarantees the `perf` binary's work counters rest on.

// Tests assert exact fixture values; clippy::float_cmp guards library code.
#![allow(clippy::float_cmp)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use ecas_bench::baseline::{Baseline, BENCH_SCHEMA, REQUIRED_PATHS};
use ecas_core::abr::optimal::OptimalPlanner;
use ecas_core::sim::controller::FixedLevel;
use ecas_core::sim::{radio, Simulator};
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::types::ladder::BitrateLadder;
use ecas_obs::perf::PerfStats;
use ecas_obs::MemoryRecorder;

fn committed_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_core.json")
}

/// The committed `BENCH_core.json` must parse, validate and — because the
/// serializer is field-order-stable — re-serialize byte-for-byte. A
/// failure here means either the file was hand-edited into a
/// non-canonical form or the schema changed without a version bump.
#[test]
fn committed_baseline_round_trips_byte_identically() {
    let text = std::fs::read_to_string(committed_path())
        .expect("BENCH_core.json is committed at the repo root");
    let baseline = Baseline::from_json(&text).expect("committed baseline is valid");
    assert_eq!(baseline.schema, BENCH_SCHEMA);
    assert_eq!(baseline.profile, "smoke");
    for required in REQUIRED_PATHS {
        assert!(baseline.path(required).is_some(), "missing {required}");
    }
    assert_eq!(
        baseline.to_json(),
        text,
        "BENCH_core.json is not in canonical form; regenerate with `perf --smoke --out`"
    );
}

/// A hot path's `sim_seconds` is a `Seconds`, so a negative value fails
/// to parse instead of entering the baseline.
#[test]
fn negative_sim_seconds_is_a_parse_error() {
    let text = std::fs::read_to_string(committed_path())
        .expect("BENCH_core.json is committed at the repo root");
    let bad = text.replacen("\"sim_seconds\": 198.0", "\"sim_seconds\": -1.0", 1);
    assert_ne!(bad, text, "BENCH_core.json has no sim_seconds of 198");
    let err = Baseline::from_json(&bad).expect_err("negative sim_seconds parsed");
    assert!(err.starts_with("parse: "), "{err}");
    assert!(err.contains("negative"), "{err}");
}

/// Collects counters with `prefix` from one instrumented pass over the
/// smoke session — the same collection the `perf` binary performs.
fn counters(prefix: &str) -> BTreeMap<String, u64> {
    let session = EvalTraceSpec::table_v()[0].generate();
    let recorder = MemoryRecorder::new();
    match prefix {
        "sim/" => {
            let sim = Simulator::paper(BitrateLadder::evaluation());
            let mut controller = FixedLevel::highest();
            let _ = sim.run_with_probe(&session, &mut controller, &recorder);
        }
        "abr/" => {
            let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
            let _ = planner.plan_with_probe(&session, &recorder);
        }
        other => panic!("unknown prefix {other}"),
    }
    recorder
        .metrics()
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .collect()
}

/// Two same-seed runs must report identical work counters — the property
/// that lets CI compare the committed counters exactly.
#[test]
fn work_counters_are_deterministic_across_same_seed_runs() {
    for prefix in ["sim/", "abr/"] {
        let first = counters(prefix);
        let second = counters(prefix);
        assert!(!first.is_empty(), "no {prefix} counters recorded");
        assert_eq!(first, second, "{prefix} counters drift across runs");
    }

    let session = EvalTraceSpec::table_v()[0].generate();
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let end = session.meta().video_length.value();
    let a = radio::integrate(
        session.network(),
        session.signal(),
        sim.power(),
        None,
        0.0,
        end,
    )
    .expect("integrates");
    let b = radio::integrate(
        session.network(),
        session.signal(),
        sim.power(),
        None,
        0.0,
        end,
    )
    .expect("integrates");
    assert_eq!(a.chunks, b.chunks);
    assert_eq!(a.energy.to_bits(), b.energy.to_bits());
}

/// The committed work counters must match a fresh measurement — the same
/// invariant `scripts/bench.sh` gates in CI, checked in-process so
/// `cargo test` alone catches drift.
#[test]
fn committed_work_counters_match_fresh_measurement() {
    let text = std::fs::read_to_string(committed_path())
        .expect("BENCH_core.json is committed at the repo root");
    let baseline = Baseline::from_json(&text).expect("committed baseline is valid");

    let fresh_sim = counters("sim/");
    let fresh_abr = counters("abr/");
    assert_eq!(
        baseline.path("sim_loop").unwrap().work,
        fresh_sim,
        "sim_loop counters drifted; regenerate BENCH_core.json"
    );
    assert_eq!(
        baseline.path("optimal_solver").unwrap().work,
        fresh_abr,
        "optimal_solver counters drifted; regenerate BENCH_core.json"
    );

    let session = EvalTraceSpec::table_v()[0].generate();
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let end = session.meta().video_length.value();
    let out = radio::integrate(
        session.network(),
        session.signal(),
        sim.power(),
        None,
        0.0,
        end,
    )
    .expect("integrates");
    assert_eq!(
        baseline.path("radio_integration").unwrap().work,
        BTreeMap::from([("radio/integration_chunks".to_string(), out.chunks)]),
        "radio integration chunk count drifted; regenerate BENCH_core.json"
    );
}

/// `PerfStats` and `ecas_qoe::aggregate::percentile` must agree on every
/// quantile — one nearest-rank-from-below convention across the
/// workspace.
#[test]
fn perf_stats_agree_with_qoe_percentile() {
    let samples: Vec<f64> = (0..37).map(|i| ((i * 7919) % 101) as f64).collect();
    let stats = PerfStats::from_samples(&samples).unwrap();
    let expect = |p: f64| ecas_core::qoe::aggregate::percentile(&samples, p).unwrap();
    assert_eq!(stats.p10, expect(0.10));
    assert_eq!(stats.median, expect(0.50));
    assert_eq!(stats.p90, expect(0.90));
}
