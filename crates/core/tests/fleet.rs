//! Fleet-engine guarantees through the public API: same-seed runs are
//! byte-identical, the aggregate is independent of execution policy,
//! batch size and the result cache, and metrics flow into an attached
//! registry.

#![allow(clippy::float_cmp)] // exact equality is the property under test

use std::fs;
use std::sync::Arc;

use ecas_core::fleet::FleetEngine;
use ecas_core::obs::{names, MetricsRegistry};
use ecas_core::trace::population::PopulationSpec;
use ecas_core::types::units::Seconds;
use ecas_core::ExecPolicy;

fn spec(users: u64) -> PopulationSpec {
    PopulationSpec::new(users, 0xF1EE7).mean_duration(Seconds::new(20.0))
}

#[test]
fn same_seed_fleet_runs_are_byte_identical() {
    let spec = spec(16);
    let a = FleetEngine::paper()
        .batch_size(5)
        .run(&spec, &ExecPolicy::parallel());
    let b = FleetEngine::paper()
        .batch_size(5)
        .run(&spec, &ExecPolicy::parallel());
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn aggregate_is_independent_of_policy_and_batch_size() {
    let spec = spec(14);
    let seq = FleetEngine::paper()
        .batch_size(4)
        .run(&spec, &ExecPolicy::Sequential);
    for (jobs, batch) in [(2, 4), (3, 4), (2, 14), (4, 1)] {
        let par = FleetEngine::paper()
            .batch_size(batch)
            .run(&spec, &ExecPolicy::Parallel { jobs });
        assert_eq!(
            seq, par,
            "jobs={jobs} batch={batch} must match sequential field for field"
        );
    }
}

#[test]
fn different_seeds_give_different_fleets() {
    let a = FleetEngine::paper().run(
        &PopulationSpec::new(12, 1).mean_duration(Seconds::new(20.0)),
        &ExecPolicy::Sequential,
    );
    let b = FleetEngine::paper().run(
        &PopulationSpec::new(12, 2).mean_duration(Seconds::new(20.0)),
        &ExecPolicy::Sequential,
    );
    assert_ne!(a, b, "seed must drive the population");
}

#[test]
fn registry_sees_fleet_progress() {
    for policy in [ExecPolicy::Sequential, ExecPolicy::Parallel { jobs: 2 }] {
        let registry = Arc::new(MetricsRegistry::new());
        let report = FleetEngine::paper()
            .batch_size(4)
            .with_registry(Arc::clone(&registry))
            .run(&spec(9), &policy);
        assert_eq!(report.users, 9);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter(names::FLEET_USERS), Some(9));
        assert_eq!(
            snapshot.counter(names::FLEET_BATCHES),
            Some(3),
            "9 users in batches of 4"
        );
        // One sweep execution per batch, however many users it holds.
        let execute = snapshot.span(names::SWEEP_EXECUTE_SPAN).map(|s| s.count);
        assert_eq!(execute, Some(3), "{policy:?}");
        let fleet = snapshot.span(names::FLEET_EXECUTE_SPAN).map(|s| s.count);
        assert_eq!(fleet, Some(1));
    }
}

#[test]
fn cached_parallel_fleet_matches_uncached_sequential() {
    let spec = spec(11);
    let dir = std::env::temp_dir().join(format!("ecas-fleet-cache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let reference = FleetEngine::paper()
        .batch_size(4)
        .run(&spec, &ExecPolicy::Sequential);
    let policy = ExecPolicy::cached(&dir, ExecPolicy::Parallel { jobs: 3 });

    let cold_engine = FleetEngine::paper().batch_size(4);
    let cold = cold_engine.run(&spec, &policy);
    let stats = cold_engine.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.corrupt, stats.write_errors),
        (0, 11, 0, 0)
    );

    let warm_engine = FleetEngine::paper().batch_size(4);
    let warm = warm_engine.run(&spec, &policy);
    let stats = warm_engine.stats();
    assert!(stats.all_hits(), "{stats:?}");
    assert_eq!(stats.hits, 11);

    let json = serde_json::to_string(&reference).unwrap();
    for (run, report) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(*report, reference, "{run} report");
        assert_eq!(serde_json::to_string(report).unwrap(), json, "{run} json");
    }
    let litter: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
        .collect();
    assert!(litter.is_empty(), "temp files left behind: {litter:?}");
    fs::remove_dir_all(&dir).ok();
}
