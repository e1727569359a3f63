//! Observed scenario runs: run manifests, JSONL event streams, metrics
//! summaries and per-segment timelines written next to the results.
//!
//! [`run_observed`] replays a [`Scenario`] like [`Scenario::run`] but
//! leaves a reproducibility trail in the output directory:
//!
//! ```text
//! out/
//!   manifest.json            # RunManifest: seeds, ladder, config hash
//!   metrics.txt              # counters, gauges, spans, histograms
//!   events/<trace>__<approach>.jsonl   # deterministic event streams
//!   timelines/<trace>__<approach>.txt  # per-segment timeline tables
//! ```
//!
//! Event files depend only on seeds and configuration, so a rerun of the
//! same scenario produces byte-identical JSONL and an equal manifest hash
//! — asserted by this crate's determinism tests. Each `(trace, approach)`
//! pair is an observed cell of one [`SweepEngine`] comparison grid, so
//! pairs run in the policy's pool and a cached pair serves its stream
//! from the cache; every file is published through `write_atomic`.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use ecas_obs::render::{metrics_summary, segment_timeline};
use ecas_obs::{stable_hash, MetricsRegistry, RunManifest, TraceRef};
use ecas_trace::io::write_atomic;
use ecas_trace::session::SessionTrace;
use ecas_types::ladder::LevelIndex;

use crate::metrics::ComparisonSummary;
use crate::report::{Scenario, ScenarioError};
use crate::runner::ExperimentRunner;
use crate::sweep::{CacheStats, ExecPolicy, SweepEngine};

/// Builds the [`RunManifest`] describing a scenario run under `runner`,
/// naming the scenario's generated traces and their seeds.
///
/// # Panics
///
/// Panics if [`Scenario::sessions`] rejects the scenario.
#[must_use]
pub fn manifest(scenario: &Scenario, runner: &ExperimentRunner) -> RunManifest {
    match scenario.sessions() {
        Ok(sessions) => manifest_of(scenario, runner, &sessions),
        // ecas-lint: allow(panic-safety, reason = "documented # Panics contract: a manifest describes a runnable scenario")
        Err(e) => panic!("scenario {:?} has no manifest: {e}", scenario.name),
    }
}

/// The manifest of `scenario` over its already generated `sessions`.
fn manifest_of(
    scenario: &Scenario,
    runner: &ExperimentRunner,
    sessions: &[SessionTrace],
) -> RunManifest {
    let ladder = runner.simulator().ladder();
    RunManifest {
        scenario: scenario.name.clone(),
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        eta: runner.eta(),
        ladder_mbps: (0..ladder.len())
            .map(|i| ladder.bitrate(LevelIndex::new(i)).value())
            .collect(),
        config_hash: format!("{:016x}", stable_hash(runner.simulator().config())),
        traces: sessions
            .iter()
            .map(|session| TraceRef {
                name: session.meta().name.clone(),
                // Every recipe generates a seeded trace.
                seed: session.meta().seed.unwrap_or_default(),
            })
            .collect(),
        approaches: scenario
            .approaches
            .iter()
            .map(|a| a.label().to_string())
            .collect(),
    }
}

/// Runs a scenario with full instrumentation under `policy`, writing the
/// manifest, one JSONL event file and one timeline table per
/// `(trace, approach)` pair, and an aggregate metrics summary into `dir`.
///
/// Returns the same summary and [`CacheStats`] as [`Scenario::run`],
/// built from the instrumented runs themselves, so nothing executes
/// twice. The pairs and the base-energy runs are one comparison grid at
/// the policy's pool width; when the policy caches, every pair, its event
/// JSONL included, and every base-energy run is served from the cache on
/// a warm rerun, producing byte-identical event files without executing
/// the simulator. On a warm run the `sim/*` metrics stay at zero and the
/// `sweep/cache_*` counters in `metrics.txt` tell the story instead (see
/// [`ecas_obs::names`]). Counters aggregate over the pairs; the
/// per-session `sim/*` gauges hold whichever pair finished last.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] for a scenario
/// [`Scenario::sessions`] rejects, before anything is written, and
/// [`ScenarioError::Io`] if an artifact cannot be written.
pub fn run_observed(
    scenario: &Scenario,
    dir: &Path,
    policy: &ExecPolicy,
) -> Result<(ComparisonSummary, CacheStats), ScenarioError> {
    let sessions = scenario.sessions()?;
    let runner = scenario.runner();
    let events_dir = dir.join("events");
    let timelines_dir = dir.join("timelines");
    fs::create_dir_all(&events_dir)?;
    fs::create_dir_all(&timelines_dir)?;

    let manifest = manifest_of(scenario, &runner, &sessions);
    write_atomic(&dir.join("manifest.json"), |out| {
        writeln!(out, "{}", manifest.to_json_pretty())
    })?;

    let registry = Arc::new(MetricsRegistry::new());
    let engine = SweepEngine::new(runner).with_registry(Arc::clone(&registry));
    let (summary, streams) = engine.observed_comparison(&sessions, &scenario.approaches, policy);
    // One `<trace>__<approach>` file stem per pair, sessions-major.
    let stems = sessions.iter().flat_map(|session| {
        let name = &session.meta().name;
        scenario
            .approaches
            .iter()
            .map(move |approach| format!("{name}__{}", approach.label().to_lowercase()))
    });
    for (stem, events) in stems.zip(&streams) {
        write_atomic(&events_dir.join(format!("{stem}.jsonl")), |out| {
            out.write_all(events.as_bytes())
        })?;
        write_atomic(&timelines_dir.join(format!("{stem}.txt")), |out| {
            out.write_all(segment_timeline(events).as_bytes())
        })?;
    }

    write_atomic(&dir.join("metrics.txt"), |out| {
        out.write_all(metrics_summary(&registry.snapshot()).as_bytes())
    })?;
    Ok((summary, engine.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::Approach;
    use crate::record::RecordedSession;
    use ecas_trace::synth::context::Context;

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "observe-test".to_string(),
            traces: vec![RecordedSession::Synthetic {
                context: Context::Walking,
                seconds: 30.0,
                seed: 11,
            }],
            approaches: vec![Approach::Youtube, Approach::Ours],
            ..Scenario::paper_evaluation()
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ecas-observe-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_covers_selection_and_config() {
        let scenario = Scenario::paper_evaluation();
        let runner = ExperimentRunner::paper();
        let m = manifest(&scenario, &runner);
        assert_eq!(m.traces.len(), 5);
        assert_eq!(m.traces[0].name, "trace1");
        assert_eq!(m.traces[0].seed, 0xECA5_0901);
        assert_eq!(m.approaches.len(), scenario.approaches.len());
        assert_eq!(m.ladder_mbps.len(), runner.simulator().ladder().len());
        assert_eq!(m.config_hash.len(), 16);
    }

    #[test]
    fn observed_run_writes_all_artifacts_and_matches_plain_run() {
        let scenario = tiny_scenario();
        let dir = temp_dir("artifacts");
        let policy = ExecPolicy::parallel();
        let (summary, _) = run_observed(&scenario, &dir, &policy).unwrap();
        assert_eq!(summary.traces.len(), 1);
        // Matches the uninstrumented path.
        assert_eq!(summary, scenario.run(&policy).unwrap().0);

        let manifest = fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(
            manifest.contains(r#""scenario": "observe-test","#),
            "{manifest}"
        );
        let expected = super::manifest(&scenario, &scenario.runner()).to_json_pretty();
        assert_eq!(manifest, format!("{expected}\n"));

        let metrics = fs::read_to_string(dir.join("metrics.txt")).unwrap();
        assert!(metrics.contains("sim/segments"), "{metrics}");
        assert!(metrics.contains("sim/download"), "{metrics}");

        for approach in ["youtube", "ours"] {
            let stem = format!("walking-30s-seed11__{approach}");
            let events =
                fs::read_to_string(dir.join("events").join(format!("{stem}.jsonl"))).unwrap();
            assert!(events.lines().count() > 15, "{stem} too short");
            assert!(events.lines().all(|l| l.starts_with('{')));
            let timeline =
                fs::read_to_string(dir.join("timelines").join(format!("{stem}.txt"))).unwrap();
            // 15 segments of a 30 s video + header + rule.
            assert_eq!(timeline.lines().count(), 17, "{timeline}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Pool width and the cache never leak into artifacts: uncached runs
    /// and cached runs, cold then warm, at one worker and at three, write
    /// the `events/` and `timelines/` files of an uncached default run.
    #[test]
    fn observed_warm_cache_run_is_byte_identical() {
        let scenario = tiny_scenario();
        let reference_dir = temp_dir("obs-reference");
        let (reference, _) =
            run_observed(&scenario, &reference_dir, &ExecPolicy::parallel()).unwrap();
        let same_artifacts = |dir: &Path| {
            for approach in ["youtube", "ours"] {
                let stem = format!("walking-30s-seed11__{approach}");
                for (sub, ext) in [("events", "jsonl"), ("timelines", "txt")] {
                    let name = format!("{stem}.{ext}");
                    let a = fs::read(reference_dir.join(sub).join(&name)).unwrap();
                    let b = fs::read(dir.join(sub).join(&name)).unwrap();
                    assert_eq!(a, b, "{sub}/{name} differs in {}", dir.display());
                }
            }
        };
        let inner_policies = [
            ("seq", ExecPolicy::Sequential),
            ("par", ExecPolicy::Parallel { jobs: 3 }),
        ];
        for (tag, inner) in inner_policies {
            let cache = temp_dir(&format!("obs-cache-{tag}"));
            let uncached_dir = temp_dir(&format!("obs-uncached-{tag}"));
            let cold_dir = temp_dir(&format!("obs-cold-{tag}"));
            let warm_dir = temp_dir(&format!("obs-warm-{tag}"));

            let (uncached, uncached_stats) =
                run_observed(&scenario, &uncached_dir, &inner).unwrap();
            assert_eq!(uncached, reference, "{inner:?}");
            assert_eq!(uncached_stats, CacheStats::default(), "{inner:?}");

            let policy = ExecPolicy::cached(&cache, inner);
            let (cold, cold_stats) = run_observed(&scenario, &cold_dir, &policy).unwrap();
            // Two observed pairs + one base-energy cell, all misses.
            assert_eq!(cold_stats.misses, 3);
            assert_eq!(cold_stats.hits, 0);

            let (warm, warm_stats) = run_observed(&scenario, &warm_dir, &policy).unwrap();
            assert_eq!(warm, cold);
            assert!(warm_stats.all_hits(), "{warm_stats:?}");
            assert_eq!(warm_stats.hits, 3);

            for dir in [&uncached_dir, &cold_dir, &warm_dir] {
                same_artifacts(dir);
            }
            // The warm run never executed the simulator; the cache counters
            // carry the story instead.
            let metrics = fs::read_to_string(warm_dir.join("metrics.txt")).unwrap();
            assert!(metrics.contains("sweep/cache_hit"), "{metrics}");

            for d in [&cache, &uncached_dir, &cold_dir, &warm_dir] {
                fs::remove_dir_all(d).ok();
            }
        }
        fs::remove_dir_all(&reference_dir).ok();
    }
}
