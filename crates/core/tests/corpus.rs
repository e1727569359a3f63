//! Corpus round-trip through the public API: batch-record a small
//! fleet, verify it cold (order-stable across worker counts, filterable
//! by label), then warm a cached fleet run straight from the recorded
//! references — zero simulator executions.

use std::path::{Path, PathBuf};

use ecas_core::corpus::{self, CorpusIndex, CorpusOptions, VerifyOptions};
use ecas_core::fleet::FleetEngine;
use ecas_core::trace::population::PopulationSpec;
use ecas_core::types::units::Seconds;
use ecas_core::{Approach, ExecPolicy};

const USERS: u64 = 4;
const SEED: u64 = 99;
const DURATION_S: f64 = 20.0;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecas-corpus-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record_fleet(dir: &Path) -> CorpusIndex {
    let scenarios = corpus::fleet_scenarios(USERS, SEED, DURATION_S, Approach::Ours, 0.5, None);
    corpus::batch_record(dir, &scenarios, &CorpusOptions { jobs: 2 }).unwrap()
}

#[test]
fn corpus_round_trip_records_verifies_and_warms_a_fleet_run() {
    let dir = temp_dir("roundtrip");
    let index = record_fleet(&dir);
    assert_eq!(index.entries.len(), USERS as usize);

    // Cold verify: the parallel summary is byte-identical to the
    // sequential one, regardless of completion order.
    let paths = corpus::list(&dir).unwrap();
    assert_eq!(paths.len(), USERS as usize);
    let sequential = corpus::verify(
        &paths,
        &VerifyOptions {
            jobs: 1,
            filter: None,
        },
    );
    let parallel = corpus::verify(
        &paths,
        &VerifyOptions {
            jobs: 3,
            filter: None,
        },
    );
    assert_eq!(sequential.failures, 0, "{}", sequential.render());
    assert_eq!(sequential.records, USERS as usize);
    assert_eq!(sequential.render(), parallel.render());

    // Label filtering skips (not fails) the records that don't match.
    let one_user = corpus::verify(
        &paths,
        &VerifyOptions {
            jobs: 2,
            filter: Some("u1-".to_string()),
        },
    );
    assert_eq!(one_user.records, 1);
    assert_eq!(one_user.skipped, USERS as usize - 1);
    assert_eq!(one_user.failures, 0);

    // Warm fleet run served entirely from the recorded references: the
    // cache directory holds only `.ecasr` files (no JSONL entries), yet
    // every cell hits and the simulator never runs.
    let spec = PopulationSpec::new(USERS, SEED).mean_duration(Seconds::new(DURATION_S));
    let uncached = FleetEngine::paper().run(&spec, &ExecPolicy::Sequential);
    let warm_engine = FleetEngine::paper();
    let warm = warm_engine.run(&spec, &ExecPolicy::cached(&dir, ExecPolicy::Sequential));
    let stats = warm_engine.stats();
    assert!(stats.all_hits(), "{stats:?}");
    assert_eq!(stats.from_record, USERS, "{stats:?}");
    assert_eq!(warm, uncached, "recorded references must reproduce the run");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_against_a_rerecorded_corpus_is_clean() {
    let dir_a = temp_dir("diff-a");
    let dir_b = temp_dir("diff-b");
    record_fleet(&dir_a);
    record_fleet(&dir_b);
    let diff = corpus::diff(&dir_a, &dir_b).unwrap();
    assert!(diff.is_clean(), "{}", diff.render());
    assert_eq!(diff.matched, USERS as usize);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
