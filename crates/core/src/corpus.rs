//! Record corpora: fleets of `.ecasr` session records as first-class
//! artifacts (DESIGN.md § 14).
//!
//! PR 9 made one session replayable as a versioned record; PR 8 scaled
//! simulation to fleets. This module joins the two layers:
//!
//! * [`batch_record`] runs a batch of [`RecordScenario`]s through the
//!   shared worker pool (in bounded batches) and writes each record
//!   into a **content-addressable corpus directory**: the file name is
//!   the record's sweep cache key (`<key>.ecasr`, the same FNV-1a
//!   stable-hash convention as the result cache), plus a sorted
//!   `corpus.json` index manifest.
//! * [`verify`] streams `session verify` over a whole corpus in
//!   parallel with an order-stable summary — byte-identical across
//!   `--jobs` widths — and an optional substring filter on scenario
//!   labels. [`index_findings`] checks a directory against its
//!   `corpus.json`: an indexed record that is missing, or a record the
//!   index does not list, is a failure too.
//! * Because corpus files are named by their sweep cache key, a corpus
//!   directory doubles as a warm result cache: `SweepEngine`'s cached
//!   policy serves unobserved cells straight from the recorded
//!   references (never trusted — hash and key are revalidated on every
//!   load, and a corrupt record degrades to a miss plus recompute).
//! * [`diff`] compares two corpora record-by-record, field-by-field at
//!   the replay oracle's 1e-9 tolerance and renders the divergence
//!   table.
//!
//! # Examples
//!
//! ```
//! use ecas_core::corpus::{self, CorpusOptions, VerifyOptions};
//! use ecas_core::Approach;
//!
//! let dir = std::env::temp_dir().join(format!("ecas-corpus-doc-{}", std::process::id()));
//! let scenarios = corpus::fleet_scenarios(2, 7, 20.0, Approach::Ours, 0.5, None);
//! let index = corpus::batch_record(&dir, &scenarios, &CorpusOptions::default()).unwrap();
//! assert_eq!(index.entries.len(), 2);
//! let paths = corpus::list(&dir).unwrap();
//! let summary = corpus::verify(&paths, &VerifyOptions::default());
//! assert_eq!(summary.failures, 0);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ecas_sim::{FaultSpec, SessionResult};
use ecas_trace::record::RECORD_EXTENSION;
use serde::{Deserialize, Serialize};

use crate::approach::Approach;
use crate::oracle::{self, ReplayVerdict};
use crate::pool;
use crate::record::{RecordScenario, RecordedSession, SessionRecord, SessionRecordError};
use crate::sweep::{record_cell_key, record_path, write_atomic};

/// File name of the index manifest written next to the records.
// ecas-lint: allow(pub-surface, reason = "corpus on-disk contract documented in DESIGN.md section 14")
pub const INDEX_FILE: &str = "corpus.json";

/// Schema version of the index manifest.
pub const INDEX_FORMAT: u32 = 1;

/// Error produced while building, scanning or diffing a corpus.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure on the corpus directory or a record file.
    Io(io::Error),
    /// A scenario could not be recorded, or a record file could not be
    /// parsed.
    Record(SessionRecordError),
    /// The index manifest was malformed.
    Index(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus i/o: {e}"),
            CorpusError::Record(e) => write!(f, "{e}"),
            CorpusError::Index(msg) => write!(f, "corpus index: {msg}"),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io(e) => Some(e),
            CorpusError::Record(e) => Some(e),
            CorpusError::Index(_) => None,
        }
    }
}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl From<SessionRecordError> for CorpusError {
    fn from(e: SessionRecordError) -> Self {
        CorpusError::Record(e)
    }
}

/// Knobs for [`batch_record`].
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Worker count for the recording pool (`0` = one per core).
    pub jobs: usize,
    /// Scenarios recorded (and held in memory) per pool dispatch — the
    /// memory bound of a large batch-record run.
    pub batch: usize,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        Self {
            jobs: 0,
            batch: 256,
        }
    }
}

/// One line of the index manifest: where a record lives and what it
/// holds, without re-reading the record itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
// ecas-lint: allow(pub-surface, reason = "exposed through CorpusIndex::entries, part of the corpus.json schema")
pub struct CorpusEntry {
    /// The sweep cache key — also the record's file stem.
    pub key: String,
    /// The scenario label ([`RecordScenario::label`]).
    pub label: String,
    /// Content hash of the regenerated trace.
    pub trace_hash: u64,
    /// Number of events in the recorded log.
    pub events: usize,
}

/// The `corpus.json` manifest: every record in the directory, sorted by
/// key so re-recording the same scenarios reproduces identical bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusIndex {
    /// Manifest schema version ([`INDEX_FORMAT`]).
    pub format: u32,
    /// Entries sorted by `key`, one per record file.
    pub entries: Vec<CorpusEntry>,
}

impl CorpusIndex {
    /// Reads and validates the manifest of a corpus directory.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] when `corpus.json` cannot be read and
    /// [`CorpusError::Index`] when it is malformed or a different
    /// format version.
    pub fn load(dir: &Path) -> Result<Self, CorpusError> {
        let text = fs::read_to_string(dir.join(INDEX_FILE))?;
        let index: CorpusIndex =
            serde_json::from_str(&text).map_err(|e| CorpusError::Index(e.to_string()))?;
        if index.format != INDEX_FORMAT {
            return Err(CorpusError::Index(format!(
                "format {} is not the supported {INDEX_FORMAT}",
                index.format
            )));
        }
        Ok(index)
    }
}

/// Records every scenario into `dir` as `<key>.ecasr` — the key being
/// the sweep cache key the record answers for — and writes the sorted
/// [`CorpusIndex`] manifest. Scenarios are dispatched through the
/// shared worker pool in batches of [`CorpusOptions::batch`], so memory
/// stays bounded for corpus-scale inputs.
///
/// Two scenarios that hash to the same key (true duplicates — the
/// records are deterministic, so their bytes are identical) collapse to
/// one file and one index entry.
///
/// # Errors
///
/// Returns the first recording or I/O failure. Partial output may
/// remain in `dir`; re-running overwrites it deterministically.
pub fn batch_record(
    dir: &Path,
    scenarios: &[RecordScenario],
    options: &CorpusOptions,
) -> Result<CorpusIndex, CorpusError> {
    fs::create_dir_all(dir)?;
    let mut entries: Vec<CorpusEntry> = Vec::with_capacity(scenarios.len());
    for chunk in scenarios.chunks(options.batch.max(1)) {
        let recorded = pool::run_ordered(chunk, options.jobs, |scenario| {
            let record = SessionRecord::record(scenario.clone())?;
            let bytes = record.to_bytes()?;
            Ok::<(SessionRecord, Vec<u8>), SessionRecordError>((record, bytes))
        });
        for item in recorded {
            let (record, bytes) = item?;
            let key = record_cell_key(&record);
            write_atomic(&record_path(dir, &key), &bytes)?;
            entries.push(CorpusEntry {
                key,
                label: record.scenario.label(),
                trace_hash: record.trace_hash,
                events: record.log.len(),
            });
        }
    }
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    entries.dedup();
    let index = CorpusIndex {
        format: INDEX_FORMAT,
        entries,
    };
    let json = serde_json::to_string_pretty(&index)
        .map_err(|e| CorpusError::Index(e.to_string()))?;
    write_atomic(&dir.join(INDEX_FILE), (json + "\n").as_bytes())?;
    Ok(index)
}

/// Lists the record files of a corpus directory, sorted by file name
/// (equivalently: by key) for order-stable iteration.
///
/// # Errors
///
/// Returns [`CorpusError::Io`] when the directory cannot be read.
pub fn list(dir: &Path) -> Result<Vec<PathBuf>, CorpusError> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.extension()
                .is_some_and(|ext| ext == RECORD_EXTENSION)
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// Knobs for [`verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Worker count for the verification pool (`0` = one per core).
    pub jobs: usize,
    /// Verify only records whose scenario label contains this
    /// substring; everything else is skipped (counted, not listed).
    pub filter: Option<String>,
}

/// Per-record outcome of a corpus verification, in input order.
enum VerifyOutcome {
    Pass(String),
    Fail(String),
    Skip,
}

/// The order-stable result of verifying a corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifySummary {
    /// Records verified (excludes skipped).
    pub records: usize,
    /// Records that failed to load, replay, or match their reference.
    pub failures: usize,
    /// Records excluded by [`VerifyOptions::filter`].
    pub skipped: usize,
    lines: Vec<String>,
}

impl VerifySummary {
    /// Appends directory-level findings (see [`index_findings`]) after
    /// the per-record lines; each one counts as a failure.
    pub fn add_findings(&mut self, findings: Vec<String>) {
        self.failures += findings.len();
        self.lines.extend(findings);
    }

    /// Renders the summary: one `PASS`/`FAIL` line per verified record
    /// in input order, then any added findings, then the
    /// `records=… failures=…` footer (with a `skipped=…` field only when
    /// the filter excluded anything).
    /// Deterministic for a given input order — the pool preserves it —
    /// so two runs at different `--jobs` print identical bytes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "records={} failures={}",
            self.records, self.failures
        ));
        if self.skipped > 0 {
            out.push_str(&format!(" skipped={}", self.skipped));
        }
        out.push('\n');
        out
    }
}

/// Replays every record against its stored reference through the
/// worker pool, preserving input order in the summary. Load and parse
/// failures are `FAIL` lines, not errors — a corpus with one rotten
/// record still reports the other ones.
#[must_use]
pub fn verify(paths: &[PathBuf], options: &VerifyOptions) -> VerifySummary {
    let outcomes = pool::run_ordered(paths, options.jobs, |path| {
        let shown = path.display();
        let record = match SessionRecord::load(path) {
            Ok(record) => record,
            Err(e) => return VerifyOutcome::Fail(format!("FAIL {shown}: {e}")),
        };
        if let Some(filter) = &options.filter {
            if !record.scenario.label().contains(filter.as_str()) {
                return VerifyOutcome::Skip;
            }
        }
        match record.verify() {
            Ok(ReplayVerdict::Pass { checks }) => {
                VerifyOutcome::Pass(format!("PASS {shown} ({checks} checks)"))
            }
            Ok(verdict) => VerifyOutcome::Fail(format!("FAIL {shown}: {}", verdict.render())),
            Err(e) => VerifyOutcome::Fail(format!("FAIL {shown}: {e}")),
        }
    });
    let mut summary = VerifySummary {
        records: 0,
        failures: 0,
        skipped: 0,
        lines: Vec::new(),
    };
    for outcome in outcomes {
        match outcome {
            VerifyOutcome::Pass(line) => {
                summary.records += 1;
                summary.lines.push(line);
            }
            VerifyOutcome::Fail(line) => {
                summary.records += 1;
                summary.failures += 1;
                summary.lines.push(line);
            }
            VerifyOutcome::Skip => summary.skipped += 1,
        }
    }
    summary
}

/// Compares a corpus directory's `corpus.json` with the record files it
/// holds. Each indexed key with no `<key>.ecasr` and each record file the
/// index does not list is one `FAIL` line, in sorted order, for
/// [`VerifySummary::add_findings`]. A directory with no index has nothing
/// to compare; an index that cannot be read or parsed is one finding.
///
/// # Errors
///
/// Returns [`CorpusError::Io`] when the directory cannot be listed.
pub fn index_findings(dir: &Path) -> Result<Vec<String>, CorpusError> {
    let index = match CorpusIndex::load(dir) {
        Ok(index) => index,
        Err(CorpusError::Io(e)) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Ok(vec![format!(
                "FAIL {}: {e}",
                dir.join(INDEX_FILE).display()
            )])
        }
    };
    let mut unlisted: BTreeSet<PathBuf> = list(dir)?.into_iter().collect();
    let mut findings = Vec::new();
    for entry in &index.entries {
        let path = record_path(dir, &entry.key);
        if !unlisted.remove(&path) {
            findings.push(format!(
                "FAIL {}: listed in {INDEX_FILE} but missing",
                path.display()
            ));
        }
    }
    findings.extend(
        unlisted
            .iter()
            .map(|path| format!("FAIL {}: not listed in {INDEX_FILE}", path.display())),
    );
    findings.sort();
    Ok(findings)
}

/// The outcome of comparing two corpora record-by-record.
#[derive(Debug, Clone, PartialEq, Eq)]
// ecas-lint: allow(pub-surface, reason = "returned by corpus::diff; the session bin consumes it structurally")
pub struct CorpusDiff {
    /// Labels present in both corpora whose references agree at the
    /// oracle tolerance.
    pub matched: usize,
    /// Labels present in both corpora whose references diverge.
    pub diverged: usize,
    /// Labels only in the first corpus.
    pub only_a: usize,
    /// Labels only in the second corpus.
    pub only_b: usize,
    lines: Vec<String>,
}

impl CorpusDiff {
    /// Whether every shared label matched and neither side had extras.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diverged == 0 && self.only_a == 0 && self.only_b == 0
    }

    /// Renders the divergence table: one row per label in sorted label
    /// order (`match` / `diverge` / `only-a` / `only-b`), divergence
    /// details indented under their row, then the
    /// `matched=… diverged=… only_a=… only_b=…` footer.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "matched={} diverged={} only_a={} only_b={}\n",
            self.matched, self.diverged, self.only_a, self.only_b
        ));
        out
    }
}

/// Loads every record of a corpus into a label-keyed map of reference
/// results.
fn load_references(dir: &Path) -> Result<BTreeMap<String, SessionResult>, CorpusError> {
    let mut map = BTreeMap::new();
    for path in list(dir)? {
        let record = SessionRecord::load(&path)?;
        map.insert(record.scenario.label(), record.reference);
    }
    Ok(map)
}

/// Compares two corpora by scenario label: records present in both are
/// diffed field-by-field at the replay oracle's 1e-9 tolerance (the
/// exact comparison `session verify` uses), unmatched labels are
/// reported per side. Rows come out in sorted label order, so the
/// rendered table is deterministic.
///
/// # Errors
///
/// Returns [`CorpusError`] when either directory cannot be scanned or a
/// record cannot be parsed — a diff over unreadable inputs would be
/// meaningless, so unlike [`verify`] this does not degrade.
pub fn diff(a: &Path, b: &Path) -> Result<CorpusDiff, CorpusError> {
    let refs_a = load_references(a)?;
    let mut refs_b = load_references(b)?;
    let mut diff = CorpusDiff {
        matched: 0,
        diverged: 0,
        only_a: 0,
        only_b: 0,
        lines: Vec::new(),
    };
    for (label, reference) in &refs_a {
        match refs_b.remove(label) {
            Some(other) => match oracle::diff_results(reference, &other) {
                ReplayVerdict::Fail { divergences } => {
                    diff.diverged += 1;
                    diff.lines.push(format!("diverge  {label}"));
                    for d in divergences {
                        diff.lines.push(format!("         {d}"));
                    }
                }
                _ => {
                    diff.matched += 1;
                    diff.lines.push(format!("match    {label}"));
                }
            },
            None => {
                diff.only_a += 1;
                diff.lines.push(format!("only-a   {label}"));
            }
        }
    }
    for label in refs_b.keys() {
        diff.only_b += 1;
        diff.lines.push(format!("only-b   {label}"));
    }
    Ok(diff)
}

/// The scenarios of one fleet slice: every user of a
/// [`PopulationSpec`](ecas_trace::population::PopulationSpec)-style
/// population (default mix and diurnal profile) under one approach, η
/// and fault spec — the input [`batch_record`] turns into a corpus that
/// can warm a [`FleetEngine`](crate::fleet::FleetEngine) run.
#[must_use]
pub fn fleet_scenarios(
    users: u64,
    seed: u64,
    mean_duration_s: f64,
    approach: Approach,
    eta: f64,
    fault: Option<FaultSpec>,
) -> Vec<RecordScenario> {
    (0..users)
        .map(|index| RecordScenario {
            session: RecordedSession::Fleet {
                users,
                seed,
                index,
                mean_duration_s,
            },
            approach,
            eta,
            fault,
        })
        .collect()
}

/// The scenarios of the five Table V evaluation traces under one
/// approach, η and fault spec.
#[must_use]
pub fn tablev_scenarios(
    approach: Approach,
    eta: f64,
    fault: Option<FaultSpec>,
) -> Vec<RecordScenario> {
    (1..=5u8)
        .map(|id| RecordScenario {
            session: RecordedSession::TableV { id },
            approach,
            eta,
            fault,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ecas-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_fleet() -> Vec<RecordScenario> {
        fleet_scenarios(3, 11, 20.0, Approach::Ours, 0.5, None)
    }

    #[test]
    fn batch_record_builds_a_keyed_indexed_corpus() {
        let dir = temp_dir("batch");
        let index = batch_record(&dir, &small_fleet(), &CorpusOptions::default()).unwrap();
        assert_eq!(index.entries.len(), 3);
        let keys: Vec<&String> = index.entries.iter().map(|e| &e.key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "index entries are key-sorted");
        for entry in &index.entries {
            let path = record_path(&dir, &entry.key);
            let record = SessionRecord::load(&path).unwrap();
            assert_eq!(record_cell_key(&record), entry.key);
            assert_eq!(record.scenario.label(), entry.label);
        }
        assert_eq!(CorpusIndex::load(&dir).unwrap(), index);
        assert_eq!(list(&dir).unwrap().len(), 3);
        // Re-recording is deterministic: same files, same manifest.
        let again = batch_record(&dir, &small_fleet(), &CorpusOptions { jobs: 2, batch: 2 })
            .unwrap();
        assert_eq!(again, index);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_scenarios_collapse_to_one_entry() {
        let dir = temp_dir("dup");
        let mut scenarios = small_fleet();
        scenarios.extend(small_fleet());
        let index = batch_record(&dir, &scenarios, &CorpusOptions::default()).unwrap();
        assert_eq!(index.entries.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_is_order_stable_and_filterable() {
        let dir = temp_dir("verify");
        batch_record(&dir, &small_fleet(), &CorpusOptions::default()).unwrap();
        let paths = list(&dir).unwrap();
        let sequential = verify(&paths, &VerifyOptions { jobs: 1, filter: None });
        assert_eq!(sequential.records, 3);
        assert_eq!(sequential.failures, 0);
        let parallel = verify(&paths, &VerifyOptions { jobs: 3, filter: None });
        assert_eq!(
            sequential.render(),
            parallel.render(),
            "summary must be byte-identical across pool widths"
        );
        let filtered = verify(
            &paths,
            &VerifyOptions {
                jobs: 0,
                filter: Some("u1-".to_string()),
            },
        );
        assert_eq!(filtered.records, 1);
        assert_eq!(filtered.skipped, 2);
        assert!(filtered.render().contains("skipped=2"));
        let none = verify(
            &paths,
            &VerifyOptions {
                jobs: 0,
                filter: Some("no-such-label".to_string()),
            },
        );
        assert_eq!(none.records, 0);
        assert_eq!(none.skipped, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_rotten_records_without_failing_the_rest() {
        let dir = temp_dir("rotten");
        batch_record(&dir, &small_fleet(), &CorpusOptions::default()).unwrap();
        let paths = list(&dir).unwrap();
        let first = paths.first().unwrap();
        fs::write(first, b"not a record").unwrap();
        let summary = verify(&paths, &VerifyOptions::default());
        assert_eq!(summary.records, 3);
        assert_eq!(summary.failures, 1);
        assert!(summary.render().starts_with("FAIL "));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_findings_flag_records_the_index_disagrees_with() {
        let dir = temp_dir("findings");
        let index = batch_record(&dir, &small_fleet(), &CorpusOptions::default()).unwrap();
        assert!(index_findings(&dir).unwrap().is_empty());
        let moved = record_path(&dir, &index.entries.first().unwrap().key);
        let renamed = record_path(&dir, "0000000000000000");
        fs::rename(&moved, &renamed).unwrap();
        let findings = index_findings(&dir).unwrap();
        assert_eq!(
            findings,
            vec![
                format!("FAIL {}: not listed in corpus.json", renamed.display()),
                format!(
                    "FAIL {}: listed in corpus.json but missing",
                    moved.display()
                ),
            ]
        );
        // Every record still replays on its own; only the index check
        // sees the rename.
        let mut summary = verify(&list(&dir).unwrap(), &VerifyOptions::default());
        assert_eq!((summary.records, summary.failures), (3, 0));
        summary.add_findings(findings.clone());
        assert_eq!(summary.failures, 2);
        let rendered = summary.render();
        assert!(rendered.ends_with(&format!(
            "{}\n{}\nrecords=3 failures=2\n",
            findings[0], findings[1]
        )));

        fs::write(dir.join(INDEX_FILE), "{").unwrap();
        assert_eq!(
            index_findings(&dir).unwrap().len(),
            1,
            "a malformed index is a finding"
        );
        fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        assert!(
            index_findings(&dir).unwrap().is_empty(),
            "no index, nothing to compare"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_against_self_is_clean_and_tampering_diverges() {
        let dir_a = temp_dir("diff-a");
        let dir_b = temp_dir("diff-b");
        batch_record(&dir_a, &small_fleet(), &CorpusOptions::default()).unwrap();
        batch_record(&dir_b, &small_fleet(), &CorpusOptions::default()).unwrap();
        let clean = diff(&dir_a, &dir_b).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.matched, 3);
        assert!(clean
            .render()
            .contains("matched=3 diverged=0 only_a=0 only_b=0"));

        // Tamper with one reference on side B and drop another record.
        let paths = list(&dir_b).unwrap();
        let (tampered, dropped) = (paths.first().unwrap(), paths.get(1).unwrap());
        let mut record = SessionRecord::load(tampered).unwrap();
        record.reference.switches += 1;
        record.save(tampered).unwrap();
        fs::remove_file(dropped).unwrap();
        let dirty = diff(&dir_a, &dir_b).unwrap();
        assert_eq!(dirty.diverged, 1);
        assert_eq!(dirty.only_a, 1);
        assert_eq!(dirty.matched, 1);
        assert!(dirty.render().contains("diverge"));
        assert!(dirty.render().contains("switches"));
        fs::remove_dir_all(&dir_a).ok();
        fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn scenario_helpers_cover_their_domains() {
        let fleet = fleet_scenarios(4, 2, 30.0, Approach::Youtube, 0.4, None);
        assert_eq!(fleet.len(), 4);
        assert!(matches!(
            fleet.last().unwrap().session,
            RecordedSession::Fleet { index: 3, users: 4, .. }
        ));
        assert!((fleet.first().unwrap().eta - 0.4).abs() < 1e-12);
        let tablev = tablev_scenarios(Approach::Ours, 0.5, None);
        assert_eq!(tablev.len(), 5);
        assert!(matches!(
            tablev.first().unwrap().session,
            RecordedSession::TableV { id: 1 }
        ));
    }
}
