//! `corpus`: `corpus::batch_record` writes a fleet slice (60 s sessions,
//! approach Ours) into a fresh directory, then `corpus::verify` checks
//! it. Unit `i` records a slice whose fleet seed derives from the
//! workload seed and `i`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use ecas_core::corpus::{
    self, CorpusError, CorpusIndex, CorpusOptions, VerifyOptions, VerifySummary,
};
use ecas_core::obs::stable_hash;
use ecas_core::record::{RecordScenario, RecordedSession, SessionRecord};
use ecas_core::trace::population::PopulationSpec;
use ecas_core::trace::record::RECORD_EXTENSION;
use ecas_core::types::units::Seconds;
use ecas_core::{Approach, Oracle, ReplayVerdict};

use crate::spans::SpanTable;
use crate::sys::UnitClock;
use crate::{derive_seed, Config, Fault, Ops, Traced, Unit};

/// Nominal session duration of the slice (seconds).
const MEAN_DURATION_S: f64 = 60.0;
/// Salt separating corpus seeds from other workloads' seeds.
const SALT: u64 = 0xC0_2905;

fn scenarios(seed: u64, records: u64, unit: u64) -> Vec<RecordScenario> {
    corpus::fleet_scenarios(
        records,
        derive_seed(seed, SALT, unit),
        MEAN_DURATION_S,
        Approach::Ours,
        0.5,
        None,
    )
}

/// Session-seconds of a slice: the sum of its sessions' video lengths.
fn session_seconds(scenarios: &[RecordScenario]) -> f64 {
    scenarios
        .iter()
        .map(|s| match s.session {
            RecordedSession::Fleet {
                users,
                seed,
                index,
                mean_duration_s,
            } => PopulationSpec::new(users, seed)
                .mean_duration(Seconds::new(mean_duration_s))
                .user(index)
                .duration
                .value(),
            _ => 0.0,
        })
        .sum()
}

fn remove(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Truncates a record to half its length.
fn truncate(path: &Path) -> Result<(), String> {
    let bytes = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    fs::write(path, bytes.get(..bytes.len() / 2).unwrap_or_default())
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub(crate) struct Corpus {
    seed: u64,
    records: u64,
    jobs: usize,
    work: PathBuf,
    /// Record bytes of the first unit's slice, recorded one by one in
    /// set-up, by scenario label.
    reference: BTreeMap<String, Vec<u8>>,
    /// Self-test hook: truncate one record of the next unit between
    /// recording and verification.
    truncate_next: bool,
}

impl Corpus {
    /// The check reference: the first unit's records, one by one. A
    /// unit's scenarios are generated inside the unit from the seed.
    pub(crate) fn setup(config: &Config, jobs: usize) -> Result<Self, String> {
        let records = config.sizes.corpus_records;
        let mut reference = BTreeMap::new();
        for scenario in scenarios(config.seed, records, 0) {
            let label = scenario.label();
            let bytes = SessionRecord::record(scenario)
                .and_then(|r| r.to_bytes())
                .map_err(|e| format!("corpus reference {label}: {e}"))?;
            reference.insert(label, bytes);
        }
        Ok(Self {
            seed: config.seed,
            records,
            jobs,
            work: config.work_dir.clone(),
            reference,
            truncate_next: false,
        })
    }

    fn options(&self) -> (CorpusOptions, VerifyOptions) {
        (
            CorpusOptions {
                jobs: self.jobs,
                ..CorpusOptions::default()
            },
            VerifyOptions {
                jobs: self.jobs,
                filter: None,
            },
        )
    }

    fn truncate_hook(&mut self, paths: &[PathBuf]) -> Result<(), String> {
        if std::mem::take(&mut self.truncate_next) {
            truncate(
                paths
                    .first()
                    .ok_or("corpus: nothing recorded to truncate")?,
            )?;
        }
        Ok(())
    }

    /// Checks one unit: the index has one entry per scenario, every
    /// failure `verify` reports and every record it did not reach is a
    /// failed record, and on unit 0 every file must equal its reference
    /// bytes.
    fn check(
        &self,
        unit: u64,
        dir: &Path,
        scenarios: &[RecordScenario],
        index: Result<CorpusIndex, CorpusError>,
        summary: &VerifySummary,
    ) -> Ops {
        let attempted = scenarios.len() as u64;
        let session_s = session_seconds(scenarios);
        let failed = match index {
            Err(e) => {
                eprintln!("perfbench: corpus unit {unit}: {e}");
                attempted
            }
            Ok(index) => {
                let index_gap = scenarios.len().abs_diff(index.entries.len());
                let unverified = scenarios.len().saturating_sub(summary.records);
                let mismatched = if unit == 0 {
                    index
                        .entries
                        .iter()
                        .filter(|e| {
                            let path = dir.join(format!("{}.{RECORD_EXTENSION}", e.key));
                            fs::read(path).ok().as_ref() != self.reference.get(&e.label)
                        })
                        .count()
                } else {
                    0
                };
                let failed = (index_gap + summary.failures + unverified).max(mismatched);
                (failed as u64).min(attempted)
            }
        };
        Ops {
            attempted,
            failed,
            session_s,
        }
    }
}

impl Unit for Corpus {
    fn noun(&self) -> &'static str {
        "records"
    }

    fn inject(&mut self, fault: Fault) -> Result<(), String> {
        match fault {
            Fault::TruncateRecord => {
                self.truncate_next = true;
                Ok(())
            }
            Fault::TamperCacheEntry => Err(format!("{fault:?} does not apply to corpus")),
        }
    }

    fn run(&mut self, unit: u64, clock: &mut UnitClock) -> Result<Ops, String> {
        let scenarios = scenarios(self.seed, self.records, unit);
        let dir = self.work.join(format!("corpus-{unit}"));
        remove(&dir)?;
        let (record_options, verify_options) = self.options();
        clock.start()?;
        let index = corpus::batch_record(&dir, &scenarios, &record_options);
        let paths = corpus::list(&dir).unwrap_or_default();
        self.truncate_hook(&paths)?;
        let summary = corpus::verify(&paths, &verify_options);
        clock.stop()?;
        let ops = self.check(unit, &dir, &scenarios, index, &summary);
        remove(&dir)?;
        Ok(ops)
    }

    fn traced(&mut self, unit: u64, table: &mut SpanTable) -> Result<Traced, String> {
        let scenarios = scenarios(self.seed, self.records, unit);
        let dir = self.work.join(format!("corpus-{unit}-traced"));
        remove(&dir)?;
        let (record_options, verify_options) = self.options();

        let root = table.open("corpus.unit", unit, None);
        let (index, record_s) = table.time("corpus.batch_record", unit, Some(root), || {
            corpus::batch_record(&dir, &scenarios, &record_options)
        });
        let (paths, _) = table.time("corpus.list", unit, Some(root), || corpus::list(&dir));
        // A directory that cannot be listed leaves nothing to verify; the
        // check counts every record as failed.
        let paths = paths.unwrap_or_default();
        let (summary, verify_s) = table.time("corpus.verify", unit, Some(root), || {
            corpus::verify(&paths, &verify_options)
        });
        table.close(root);

        let ops = self.check(unit, &dir, &scenarios, index, &summary);
        let mut layers = vec![("corpus.record_s", record_s), ("corpus.verify_s", verify_s)];
        layers.extend(probe_records(&paths, unit, table));
        remove(&dir)?;
        Ok(Traced { root, ops, layers })
    }
}

/// Sequential probes beside the unit, on the files it wrote: decode,
/// encode, trace regeneration, trace hashing and oracle replay — the
/// steps `verify` takes inside one call. A record that does not load is
/// skipped here; the unit's check has already counted it as failed.
fn probe_records(paths: &[PathBuf], unit: u64, table: &mut SpanTable) -> Vec<(&'static str, f64)> {
    let (mut decode_s, mut encode_s, mut regen_s, mut hash_s, mut replay_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut record_bytes, mut hash_bytes, mut checks) = (0usize, 0usize, 0usize);
    for path in paths {
        let Ok(bytes) = fs::read(path) else { continue };
        record_bytes += bytes.len();
        let (record, s) = table.time("probe.decode", unit, None, || {
            SessionRecord::from_bytes(&bytes)
        });
        decode_s += s;
        let Ok(record) = record else { continue };
        encode_s += table
            .time("probe.encode", unit, None, || {
                std::hint::black_box(record.to_bytes())
            })
            .1;
        let (trace, s) = table.time("probe.regen", unit, None, || {
            record.scenario.session.generate()
        });
        regen_s += s;
        let Ok(trace) = trace else { continue };
        hash_s += table
            .time("probe.hash", unit, None, || {
                std::hint::black_box(stable_hash(&trace))
            })
            .1;
        hash_bytes += serde_json::to_string(&trace).map_or(0, |json| json.len());
        let runner = record.scenario.runner();
        let oracle = Oracle::new(runner.simulator(), record.scenario.eta);
        let (verdict, s) = table.time("probe.replay", unit, None, || {
            oracle.check_replay(&trace, &record.reference, Some(&record.log))
        });
        replay_s += s;
        if let ReplayVerdict::Pass { checks: n } = verdict {
            checks += n;
        }
    }
    vec![
        ("record.decode_s", decode_s),
        ("record.encode_s", encode_s),
        ("record.bytes", record_bytes as f64),
        ("synth.regen_s", regen_s),
        ("hash.busy_s", hash_s),
        ("hash.bytes", hash_bytes as f64),
        ("oracle.replay_s", replay_s),
        ("oracle.checks", checks as f64),
    ]
}
