//! Public-API guarantees of the sweep engine's result cache: a warm
//! cache only serves cells whose full key context matches — changing
//! the simulator configuration, the trace seed, the η weight or the
//! fault spec must miss and recompute, never serve stale results.

use std::fs;
use std::path::PathBuf;

use ecas_core::sim::{FaultSpec, PlayerConfig, Simulator};
use ecas_core::sweep::{ExecPolicy, SweepEngine};
use ecas_core::trace::synth::context::{Context, ContextSchedule};
use ecas_core::trace::synth::SessionGenerator;
use ecas_core::types::ladder::BitrateLadder;
use ecas_core::types::units::Seconds;
use ecas_core::{Approach, ExperimentRunner};

fn session(seed: u64) -> ecas_core::trace::session::SessionTrace {
    SessionGenerator::new(
        format!("sweep-{seed}"),
        ContextSchedule::constant(Context::Walking),
        Seconds::new(30.0),
        seed,
    )
    .generate()
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecas-sweep-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cached(dir: &PathBuf) -> ExecPolicy {
    ExecPolicy::cached(dir, ExecPolicy::Sequential)
}

/// Runs the two-cell grid under `runner` against `cache`, returning
/// `(hits, misses)`.
fn grid_stats(runner: &ExperimentRunner, seed: u64, cache: &PathBuf) -> (u64, u64) {
    let engine = SweepEngine::new(runner.clone());
    let sessions = vec![session(seed)];
    let _ = engine.run_grid(
        &sessions,
        &[Approach::Youtube, Approach::Ours],
        &cached(cache),
    );
    let stats = engine.stats();
    (stats.hits, stats.misses)
}

#[test]
fn identical_inputs_hit_but_any_key_change_misses() {
    let cache = temp_cache("invalidation");
    let paper = ExperimentRunner::paper();

    assert_eq!(grid_stats(&paper, 5, &cache), (0, 2), "cold run");
    assert_eq!(grid_stats(&paper, 5, &cache), (2, 0), "warm identical run");

    // A different trace seed changes the session content hash.
    assert_eq!(grid_stats(&paper, 6, &cache), (0, 2), "seed change");

    // A different η changes the controller objective.
    let eta = ExperimentRunner::paper_with_eta(0.9);
    assert_eq!(grid_stats(&eta, 5, &cache), (0, 2), "eta change");

    // A different simulator configuration changes the config hash.
    let config = PlayerConfig::paper().with_buffer_threshold(Seconds::new(12.0));
    let sim = Simulator::new(
        config,
        BitrateLadder::evaluation(),
        ecas_core::power::model::PowerModel::paper(),
        ecas_core::qoe::model::QoeModel::paper(),
    );
    let reconfigured = ExperimentRunner::new(sim, 0.5);
    assert_eq!(
        grid_stats(&reconfigured, 5, &cache),
        (0, 2),
        "config change"
    );

    // A fault spec keys separately from the fault-free grid.
    let faulty_sim =
        Simulator::paper(BitrateLadder::evaluation()).with_faults(FaultSpec::scaled(0.5, 7));
    let faulty = ExperimentRunner::new(faulty_sim, 0.5);
    assert_eq!(grid_stats(&faulty, 5, &cache), (0, 2), "fault-spec change");

    // And every variant, rerun unchanged, now hits.
    assert_eq!(grid_stats(&faulty, 5, &cache), (2, 0), "warm faulty run");

    fs::remove_dir_all(&cache).ok();
}

#[test]
fn parallel_and_sequential_summaries_are_identical() {
    let runner = ExperimentRunner::paper();
    let sessions = vec![session(1), session(2), session(3)];
    let approaches = [Approach::Youtube, Approach::Festive, Approach::Ours];
    let summary = |policy: &ExecPolicy| {
        let engine = SweepEngine::new(runner.clone());
        (
            engine.comparison(&sessions, &approaches, policy),
            engine.stats(),
        )
    };
    assert_eq!(
        summary(&ExecPolicy::Sequential),
        summary(&ExecPolicy::Parallel { jobs: 4 })
    );
}
