//! One execution engine for every experiment grid.
//!
//! [`SweepEngine`] runs `(session, approach)` cells — plus the per-session
//! base-energy cell the comparison metrics need — under an [`ExecPolicy`]:
//!
//! * [`ExecPolicy::Sequential`] — one cell after another, on the caller's
//!   thread;
//! * [`ExecPolicy::Parallel`] — a work-stealing worker pool (`jobs = 0`
//!   means one worker per available core) with deterministic,
//!   sessions-major output ordering regardless of completion order;
//! * [`ExecPolicy::Cached`] — the same pool over one on-disk JSONL cache
//!   directory, keyed by a stable FNV-1a content hash of everything that
//!   determines the result (simulator config, ladder, η, fault spec, the
//!   session trace's [`content_hash`](SessionTrace::content_hash) over its
//!   `.bin` bytes, the controller); misses are computed and stored. Cache
//!   entries are versioned and *never trusted*: the header carries an
//!   FNV-1a hash of the entry's body, and any parse, hash or validation
//!   failure counts as [`CacheStats::corrupt`] and the cell is recomputed
//!   and rewritten.
//!
//! Every policy runs on one path. The policy names at most one cache
//! directory and a pool width; each cell is one pool job that looks its
//! key up, and on a miss computes and stores the cell, or, with no
//! cache, just computes. A `Sequential` policy is the same pool one
//! worker wide.
//!
//! [`SweepEngine::run_grid`] and [`SweepEngine::comparison`] run cells
//! over sessions the caller already holds, hashing each distinct session
//! once in the pool before the cells start;
//! [`SweepEngine::run_generated`] builds each session inside its pool job
//! from an index → trace factory and drops it after the cell, which is
//! how fleets stream through the pool without holding their traces.
//!
//! An observed cell is an approach cell that keeps its run's
//! [`EventLog`](ecas_sim::EventLog): it yields the log's JSONL with its
//! result, and its cache entry stores the stream's lines after the
//! result line. Observed runs ([`crate::observe`]) are comparison grids
//! of observed cells, so they take the same path as every other grid.
//!
//! The cache key covers the complete cell input, so invalidation is
//! automatic: change the seed, the player config, η or the fault spec and
//! the key changes with it. Stale entries are simply never looked up
//! again; a `--cache-dir` can therefore be shared across scenarios.
//!
//! Cache activity is reported through [`CacheStats`] and, when a registry
//! is attached via [`SweepEngine::with_registry`], the
//! [`ecas_obs::names`] `sweep/cache_*` counters.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use ecas_obs::{fnv1a_64, names, perf, stable_hash, MemoryRecorder, MetricsRegistry};
use ecas_sim::controller::FixedLevel;
use ecas_sim::result::SessionResult;
use ecas_sim::FaultSpec;
use ecas_trace::io::write_atomic;
use ecas_trace::session::SessionTrace;
use ecas_types::ladder::LevelIndex;
use ecas_types::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::approach::Approach;
use crate::metrics::{ComparisonSummary, TraceComparison};
use crate::pool;
use crate::record::SessionRecord;
use crate::runner::ExperimentRunner;

/// Version stamp of the on-disk cache entry layout. Bumping it (or the
/// crate version) invalidates every existing entry. Format 2 names a
/// session by the hash of its `.bin` bytes and adds the header's body
/// hash; format 3 stores an observed cell's event stream as its own
/// lines after the result line.
pub(crate) const CACHE_FORMAT: u32 = 3;

/// The pseudo-controller label under which per-session base-energy runs
/// (everything at the lowest ladder level) are cached.
const BASE_LABEL: &str = "__base";

/// How a grid is executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Every cell on the caller's thread, in order.
    Sequential,
    /// A work-stealing worker pool; output order stays deterministic.
    Parallel {
        /// Worker count; `0` means one worker per available core.
        jobs: usize,
    },
    /// Serve cells from `dir` and store the misses there; lookups and
    /// misses alike run in a pool `jobs` wide.
    Cached {
        /// The cache directory (created on first use).
        dir: PathBuf,
        /// Worker count; `0` means one worker per available core, `1`
        /// the caller's thread.
        jobs: usize,
    },
}

impl ExecPolicy {
    /// Auto-sized parallel execution (one worker per core).
    #[must_use]
    pub fn parallel() -> Self {
        ExecPolicy::Parallel { jobs: 0 }
    }

    /// Cached execution over `dir` at `inner`'s pool width (an inner
    /// `Cached` policy lends its width, not its directory).
    #[must_use]
    pub fn cached(dir: impl Into<PathBuf>, inner: ExecPolicy) -> Self {
        ExecPolicy::Cached {
            dir: dir.into(),
            jobs: inner.jobs(),
        }
    }

    /// Builds the policy the CLI flags describe: `--jobs 1` is
    /// [`Sequential`](ExecPolicy::Sequential), any other `--jobs n` a
    /// fixed-width pool, no `--jobs` an auto-sized pool; a `--cache-dir`
    /// wraps the result in [`Cached`](ExecPolicy::Cached).
    #[must_use]
    pub fn from_options(jobs: Option<usize>, cache_dir: Option<&Path>) -> Self {
        let inner = match jobs {
            Some(1) => ExecPolicy::Sequential,
            Some(n) => ExecPolicy::Parallel { jobs: n },
            None => ExecPolicy::parallel(),
        };
        match cache_dir {
            Some(dir) => ExecPolicy::cached(dir, inner),
            None => inner,
        }
    }

    /// The cache directory, if this policy caches.
    #[must_use]
    pub fn cache_dir(&self) -> Option<&Path> {
        match self {
            ExecPolicy::Cached { dir, .. } => Some(dir),
            _ => None,
        }
    }

    /// The pool width: one worker for `Sequential`, otherwise `jobs`.
    fn jobs(&self) -> usize {
        match self {
            ExecPolicy::Sequential => 1,
            ExecPolicy::Parallel { jobs } | ExecPolicy::Cached { jobs, .. } => *jobs,
        }
    }
}

/// Cache activity accumulated by a [`SweepEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Cells served from the on-disk cache.
    pub hits: u64,
    /// Cells computed because no valid entry existed.
    pub misses: u64,
    /// Entries found but rejected (bad header, version, parse failure).
    /// Every corrupt entry also counts as a miss.
    pub corrupt: u64,
    /// Failed attempts to persist a computed result.
    pub write_errors: u64,
    /// Hits served from a recorded `.ecasr` reference instead of a
    /// JSONL entry (every such hit is also counted in `hits`).
    pub from_record: u64,
}

impl CacheStats {
    /// Total lookups (`hits + misses`).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// `true` when at least one lookup happened and all of them hit.
    #[must_use]
    pub fn all_hits(&self) -> bool {
        self.hits > 0 && self.misses == 0 && self.corrupt == 0
    }

    /// Folds another engine's activity into this one — used when a sweep
    /// spans several engines (e.g. one per fault intensity) but should
    /// report a single cache summary.
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.corrupt += other.corrupt;
        self.write_errors += other.write_errors;
        self.from_record += other.from_record;
    }

    /// One-line render, used by the bench binaries' stderr reporting.
    /// `from_record` stays last so the CI grep over the
    /// `hits=/misses=/corrupt=` prefix keeps matching.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "cache: hits={} misses={} corrupt={} write_errors={} from_record={}",
            self.hits, self.misses, self.corrupt, self.write_errors, self.from_record
        )
    }
}

/// What a grid cell runs: a real approach, an observed one or the
/// base-energy probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Approach(Approach),
    /// The approach run with its event log kept: the cell yields the
    /// pair's JSONL event stream with its result.
    Observed(Approach),
    BaseEnergy,
}

impl Cell {
    fn label(self) -> &'static str {
        match self {
            Cell::Approach(a) | Cell::Observed(a) => a.label(),
            Cell::BaseEnergy => BASE_LABEL,
        }
    }

    fn observed(self) -> bool {
        matches!(self, Cell::Observed(_))
    }
}

/// What a cell yields: its result and, for an observed cell, the pair's
/// JSONL event stream.
type Outcome = (SessionResult, Option<String>);

/// One schedulable unit: a session replayed under one cell kind.
#[derive(Debug, Clone, Copy)]
struct Job<'a> {
    session: &'a SessionTrace,
    cell: Cell,
}

/// The parts of a cache key shared by every cell of one engine.
struct KeyContext {
    crate_version: String,
    eta: f64,
    config_hash: String,
    ladder: Vec<f64>,
    fault: Option<FaultSpec>,
}

impl KeyContext {
    /// The cache key of `cell` over the session whose content hash is
    /// `session`.
    fn key(&self, session: &str, cell: Cell) -> String {
        let key = CellKey {
            format: CACHE_FORMAT,
            crate_version: self.crate_version.clone(),
            eta: self.eta,
            config_hash: self.config_hash.clone(),
            ladder_mbps: self.ladder.clone(),
            fault: self.fault,
            controller: cell.label().to_string(),
            session: session.to_string(),
            observed: cell.observed(),
        };
        format!("{:016x}", stable_hash(&key))
    }
}

/// The content hash a cell key carries for `session`: its
/// [`SessionTrace::content_hash`], the hash of its `.bin` bytes.
fn session_hash(session: &SessionTrace) -> String {
    format!("{:016x}", session.content_hash())
}

/// The full, serializable identity of one grid cell. Its stable FNV-1a
/// hash is the cache key; any field changing means a different entry.
#[derive(Serialize)]
struct CellKey {
    format: u32,
    crate_version: String,
    eta: f64,
    config_hash: String,
    ladder_mbps: Vec<f64>,
    fault: Option<FaultSpec>,
    controller: String,
    session: String,
    observed: bool,
}

/// First line of every cache entry; validated on load, never trusted.
#[derive(Serialize, Deserialize)]
struct CacheHeader {
    format: u32,
    key: String,
    crate_version: String,
    controller: String,
    trace: String,
    observed: bool,
    /// FNV-1a 64 of every byte after the header line, so a changed digit
    /// in a stored result is corrupt, not a hit.
    body: u64,
}

enum Lookup {
    Hit(Box<Outcome>),
    /// Served from a recorded `.ecasr` reference (no JSONL entry).
    Record(Box<SessionResult>),
    Absent,
    Corrupt,
}

/// Executes experiment grids under an [`ExecPolicy`], with optional
/// content-addressed result caching and metrics reporting.
///
/// # Examples
///
/// ```
/// use ecas_core::sweep::{ExecPolicy, SweepEngine};
/// use ecas_core::trace::videos::EvalTraceSpec;
/// use ecas_core::{Approach, ExperimentRunner};
///
/// let sessions = vec![EvalTraceSpec::table_v()[0].generate()];
/// let engine = SweepEngine::new(ExperimentRunner::paper());
/// let approaches = [Approach::Youtube, Approach::Ours];
/// let seq = engine.run_grid(&sessions, &approaches, &ExecPolicy::Sequential);
/// let par = engine.run_grid(&sessions, &approaches, &ExecPolicy::parallel());
/// assert_eq!(seq, par);
/// ```
pub struct SweepEngine {
    runner: ExperimentRunner,
    registry: Option<Arc<MetricsRegistry>>,
    stats: Mutex<CacheStats>,
}

impl SweepEngine {
    /// Creates an engine around a configured runner.
    #[must_use]
    pub fn new(runner: ExperimentRunner) -> Self {
        Self {
            runner,
            registry: None,
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Mirrors cache hit/miss/corrupt/write-error counts into `registry`
    /// under the [`ecas_obs::names`] `sweep/cache_*` names.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The underlying runner.
    #[must_use]
    pub fn runner(&self) -> &ExperimentRunner {
        &self.runner
    }

    /// Cache activity accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs every `(session, approach)` pair under `policy`, returning
    /// results in sessions-major order — identical across policies.
    #[must_use]
    pub fn run_grid(
        &self,
        sessions: &[SessionTrace],
        approaches: &[Approach],
        policy: &ExecPolicy,
    ) -> Vec<SessionResult> {
        let cells: Vec<Cell> = approaches.iter().map(|&a| Cell::Approach(a)).collect();
        self.execute(sessions, &cells, policy)
            .into_iter()
            .map(|(result, _)| result)
            .collect()
    }

    /// Runs `approach` over `count` sessions that `make` builds on
    /// demand (`make(i)` returns a caller tag and session `i`), returning
    /// the tags with their results in index order — identical across
    /// policies.
    ///
    /// Each index is one pool job: the worker builds the session, runs
    /// the cell inline (cache lookup and store included when `policy`
    /// caches) and drops the trace, so at most one trace per worker is
    /// alive. Pool width, cache-key context and cache directory are
    /// settled once per call, and the call records one `sweep/execute`
    /// span.
    #[must_use]
    pub fn run_generated<T, F>(
        &self,
        count: usize,
        approach: &Approach,
        policy: &ExecPolicy,
        make: F,
    ) -> Vec<(T, SessionResult)>
    where
        T: Send,
        F: Fn(usize) -> (T, SessionTrace) + Sync,
    {
        let watch = self.registry.as_ref().map(|_| perf::Stopwatch::start());
        let (cache, width) = self.plan(policy);
        let ctx = cache.is_some().then(|| self.key_context());
        let cell = Cell::Approach(*approach);
        let indices: Vec<usize> = (0..count).collect();
        let done = pool::run_ordered(&indices, width, |&i| {
            let (tag, session) = make(i);
            let key = ctx
                .as_ref()
                .map(|ctx| ctx.key(&session_hash(&session), cell));
            let job = Job {
                session: &session,
                cell,
            };
            let (result, _) = self.run_cell(cache, key.as_deref(), &job);
            (tag, result, session.meta().video_length)
        });
        if let Some(watch) = watch {
            let sim = done.iter().map(|(_, _, length)| *length).sum();
            self.record_execute(&watch, sim);
        }
        done.into_iter()
            .map(|(tag, result, _)| (tag, result))
            .collect()
    }

    /// Runs the full comparison grid — one base-energy cell plus one cell
    /// per approach, per session — and aggregates each session's row
    /// through [`TraceComparison::from_results`]. Base-energy runs go
    /// through the same pool and cache as the approach cells.
    ///
    /// # Panics
    ///
    /// Panics if `approaches` omits the Youtube baseline (required by the
    /// comparison metrics).
    #[must_use]
    pub fn comparison(
        &self,
        sessions: &[SessionTrace],
        approaches: &[Approach],
        policy: &ExecPolicy,
    ) -> ComparisonSummary {
        self.compare(sessions, approaches, Cell::Approach, policy).0
    }

    /// [`Self::comparison`] with every approach cell observed: returns the
    /// summary with each `(session, approach)` pair's JSONL event stream,
    /// sessions-major. A miss runs the pair under a [`MemoryRecorder`]
    /// that shares the engine's registry and renders the stream from the
    /// run's event log; a hit serves it byte for byte from the cache
    /// without running the simulator.
    pub(crate) fn observed_comparison(
        &self,
        sessions: &[SessionTrace],
        approaches: &[Approach],
        policy: &ExecPolicy,
    ) -> (ComparisonSummary, Vec<String>) {
        self.compare(sessions, approaches, Cell::Observed, policy)
    }

    // ---------------------------------------------------------------- //
    // Execution
    // ---------------------------------------------------------------- //

    /// The comparison grid with approach cells built by `cell`: one
    /// base-energy cell plus `cell(approach)` per approach, per session,
    /// aggregated like [`Self::comparison`], with the event streams of
    /// the observed cells, sessions-major.
    fn compare(
        &self,
        sessions: &[SessionTrace],
        approaches: &[Approach],
        cell: fn(Approach) -> Cell,
        policy: &ExecPolicy,
    ) -> (ComparisonSummary, Vec<String>) {
        let cells: Vec<Cell> = std::iter::once(Cell::BaseEnergy)
            .chain(approaches.iter().map(|&a| cell(a)))
            .collect();
        let (results, streams): (Vec<SessionResult>, Vec<Option<String>>) =
            self.execute(sessions, &cells, policy).into_iter().unzip();
        let stride = approaches.len() + 1;
        let traces = sessions
            .iter()
            .zip(results.chunks(stride))
            .filter_map(|(session, chunk)| {
                let (base, rows) = chunk.split_first()?;
                Some(TraceComparison::from_results(
                    session.meta().name.clone(),
                    base.total_energy(),
                    approaches,
                    rows,
                ))
            })
            .collect();
        let streams = streams.into_iter().flatten().collect();
        (ComparisonSummary { traces }, streams)
    }

    fn compute(&self, job: &Job<'_>) -> Outcome {
        match job.cell {
            Cell::Approach(a) => (self.runner.run(job.session, &a), None),
            Cell::Observed(a) => {
                let recorder = self
                    .registry
                    .as_ref()
                    .map_or_else(MemoryRecorder::new, |r| {
                        MemoryRecorder::with_registry(Arc::clone(r))
                    });
                let (result, log) = self.runner.run_with_probe(job.session, &a, &recorder);
                (result, Some(log.to_jsonl()))
            }
            Cell::BaseEnergy => {
                let mut lowest = FixedLevel::new(LevelIndex::new(0));
                (self.runner.simulator().run(job.session, &mut lowest), None)
            }
        }
    }

    /// Runs every `(session, cell)` pair, sessions-major, as one pool job
    /// each. The pool width and cache directory come from [`Self::plan`];
    /// when the policy caches, each distinct session is content-hashed
    /// once, as one pool job at that width before the cells start. Every
    /// cell job goes through [`Self::run_cell`] — the per-cell path fleet
    /// users take too. An empty grid returns before `plan`, so it creates
    /// no directory and counts nothing.
    fn execute(
        &self,
        sessions: &[SessionTrace],
        cells: &[Cell],
        policy: &ExecPolicy,
    ) -> Vec<Outcome> {
        if sessions.is_empty() || cells.is_empty() {
            return Vec::new();
        }
        // The engine is a sanctioned wall-clock seam (see ecas-obs's perf
        // module): when a registry is attached, each grid execution
        // records its span and the derived simulated-seconds-per-
        // core-second throughput gauge. Metrics only — the deterministic
        // event stream never sees the clock.
        let watch = self.registry.as_ref().map(|_| perf::Stopwatch::start());
        let (cache, width) = self.plan(policy);
        let ctx = cache.is_some().then(|| self.key_context());
        let hashes = match ctx {
            Some(_) => pool::run_ordered(sessions, width, session_hash),
            None => Vec::new(),
        };
        let mut jobs = Vec::with_capacity(sessions.len() * cells.len());
        for (i, session) in sessions.iter().enumerate() {
            for &cell in cells {
                let key = ctx
                    .as_ref()
                    .zip(hashes.get(i))
                    .map(|(ctx, hash)| ctx.key(hash, cell));
                jobs.push((Job { session, cell }, key));
            }
        }
        let results = pool::run_ordered(&jobs, width, |(job, key)| {
            self.run_cell(cache, key.as_deref(), job)
        });
        if let Some(watch) = watch {
            let sim = jobs
                .iter()
                .map(|(job, _)| job.session.meta().video_length)
                .sum();
            self.record_execute(&watch, sim);
        }
        results
    }

    /// Records one grid execution's span and its simulated-seconds-per-
    /// core-second gauge (`sim` is the executed cells' video length).
    fn record_execute(&self, watch: &perf::Stopwatch, sim: Seconds) {
        if let Some(registry) = &self.registry {
            registry.record_span(names::SWEEP_EXECUTE_SPAN, watch.elapsed_nanos());
            registry.gauge(
                names::PERF_SWEEP_SESS_S_PER_CORE_S,
                perf::session_seconds_per_core_second(sim, Seconds::new(watch.elapsed_seconds())),
            );
        }
    }

    /// The policy's cache directory, with whether it is usable, and the
    /// pool width every cell runs at. The directory is created here; one
    /// that cannot be costs a single write error, and every cell misses
    /// it.
    fn plan<'p>(&self, policy: &'p ExecPolicy) -> (Option<(&'p Path, bool)>, usize) {
        let cache = policy.cache_dir().map(|dir| {
            let usable = fs::create_dir_all(dir).is_ok();
            if !usable {
                self.note_write_error();
            }
            (dir, usable)
        });
        (cache, policy.jobs())
    }

    /// One cell of a planned execution. With a cache and its `key`, a hit
    /// in the directory serves the cell; otherwise it is computed and, if
    /// the directory is usable, stored. With no cache it is computed.
    fn run_cell(&self, cache: Option<(&Path, bool)>, key: Option<&str>, job: &Job<'_>) -> Outcome {
        let (Some((dir, usable)), Some(key)) = (cache, key) else {
            return self.compute(job);
        };
        if usable {
            if let Some(outcome) = self.lookup(dir, key, job) {
                return outcome;
            }
        }
        self.note_miss();
        let outcome = self.compute(job);
        if usable && self.store(dir, key, job, &outcome).is_err() {
            self.note_write_error();
        }
        outcome
    }

    // ---------------------------------------------------------------- //
    // Cache keys
    // ---------------------------------------------------------------- //

    fn key_context(&self) -> KeyContext {
        let sim = self.runner.simulator();
        let ladder = sim.ladder();
        KeyContext {
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            eta: self.runner.eta(),
            config_hash: format!("{:016x}", stable_hash(sim.config())),
            ladder: (0..ladder.len())
                .map(|i| ladder.bitrate(LevelIndex::new(i)).value())
                .collect(),
            fault: sim.faults().copied(),
        }
    }

    // ---------------------------------------------------------------- //
    // Cache I/O
    // ---------------------------------------------------------------- //

    fn load(&self, dir: &Path, key: &str, job: &Job<'_>) -> Lookup {
        let text = match fs::read_to_string(entry_path(dir, key)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // No JSONL entry. A recorded `.ecasr` reference can stand
                // in for an unobserved cell; observed cells need the event
                // stream that records do not carry.
                if job.cell.observed() {
                    return Lookup::Absent;
                }
                return self.load_record(dir, key);
            }
            Err(_) => return Lookup::Corrupt,
        };
        parse_entry(&text, key, job)
            .map_or(Lookup::Corrupt, |outcome| Lookup::Hit(Box::new(outcome)))
    }

    /// Attempts to serve a cell from a recorded `.ecasr` reference in the
    /// cache directory. Records are never trusted: the container's own
    /// content hash is checked by [`SessionRecord::from_bytes`], and the
    /// cache key recomputed from the decoded record (via
    /// [`record_cell_key`], which hashes the record's *own* crate version
    /// and scenario) must equal the requested key — a stale or renamed
    /// record hashes to a different key and is reported corrupt, which
    /// the caller turns into a miss + recompute.
    fn load_record(&self, dir: &Path, key: &str) -> Lookup {
        let bytes = match fs::read(record_path(dir, key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Absent,
            Err(_) => return Lookup::Corrupt,
        };
        let Ok(record) = SessionRecord::from_bytes(&bytes) else {
            return Lookup::Corrupt;
        };
        if record_cell_key(&record) != key {
            return Lookup::Corrupt;
        }
        Lookup::Record(Box::new(record.reference))
    }

    /// Serves a cell from `dir`, noting the hit (or the corrupt entry) in
    /// the stats; `None` means the caller computes.
    fn lookup(&self, dir: &Path, key: &str, job: &Job<'_>) -> Option<Outcome> {
        match self.load(dir, key, job) {
            Lookup::Hit(outcome) => {
                self.note_hit();
                Some(*outcome)
            }
            Lookup::Record(result) => {
                self.note_record_hit();
                Some((*result, None))
            }
            Lookup::Absent => None,
            Lookup::Corrupt => {
                self.note_corrupt();
                None
            }
        }
    }

    /// Writes an entry through [`write_atomic`], so a concurrent reader
    /// never sees a half-written entry (it sees the old one or none). The
    /// body is the result line, then an observed cell's event stream as
    /// it stands.
    fn store(
        &self,
        dir: &Path,
        key: &str,
        job: &Job<'_>,
        (result, stream): &Outcome,
    ) -> io::Result<()> {
        let mut body = to_json(result)?;
        body.push('\n');
        if let Some(stream) = stream {
            body.push_str(stream);
        }
        let header = to_json(&CacheHeader {
            format: CACHE_FORMAT,
            key: key.to_string(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            controller: job.cell.label().to_string(),
            trace: job.session.meta().name.clone(),
            observed: job.cell.observed(),
            body: fnv1a_64(body.as_bytes()),
        })?;
        write_atomic(&entry_path(dir, key), |out| {
            out.write_all(header.as_bytes())?;
            out.write_all(b"\n")?;
            out.write_all(body.as_bytes())
        })
    }

    // ---------------------------------------------------------------- //
    // Stats
    // ---------------------------------------------------------------- //

    fn note_hit(&self) {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .hits += 1;
        self.bump(names::SWEEP_CACHE_HIT);
    }

    /// A hit served from a recorded reference counts as a regular hit
    /// too, so `all_hits()` keeps meaning "zero simulator runs".
    fn note_record_hit(&self) {
        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        stats.hits += 1;
        stats.from_record += 1;
        drop(stats);
        self.bump(names::SWEEP_CACHE_HIT);
        self.bump(names::SWEEP_CACHE_FROM_RECORD);
    }

    fn note_miss(&self) {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .misses += 1;
        self.bump(names::SWEEP_CACHE_MISS);
    }

    fn note_corrupt(&self) {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .corrupt += 1;
        self.bump(names::SWEEP_CACHE_CORRUPT);
    }

    fn note_write_error(&self) {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .write_errors += 1;
        self.bump(names::SWEEP_CACHE_WRITE_ERROR);
    }

    fn bump(&self, name: &'static str) {
        if let Some(registry) = &self.registry {
            registry.add(name, 1);
        }
    }
}

fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.jsonl"))
}

/// Where a recorded reference for `key` lives inside a cache or corpus
/// directory: `<key>.ecasr`.
pub(crate) fn record_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.{}", ecas_trace::record::RECORD_EXTENSION))
}

/// The sweep cache key a record answers for: the same [`CellKey`] an
/// engine built from the record's scenario would compute for the
/// unobserved cell, derived entirely from the record itself.
///
/// Deliberately hashes the record's *own* `crate_version` — not this
/// build's — so a record produced by an older crate hashes to a key
/// nobody asks for instead of masquerading as current.
pub(crate) fn record_cell_key(record: &SessionRecord) -> String {
    let runner = record.scenario.runner();
    let ctx = KeyContext {
        crate_version: record.crate_version.clone(),
        eta: record.scenario.eta,
        config_hash: format!("{:016x}", stable_hash(runner.simulator().config())),
        ladder: record.ladder_mbps.clone(),
        fault: record.scenario.fault,
    };
    ctx.key(
        &format!("{:016x}", record.trace_hash),
        Cell::Approach(record.scenario.approach),
    )
}

fn to_json<T: Serialize + ?Sized>(value: &T) -> io::Result<String> {
    serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("cache serialize: {e}")))
}

/// Parses and validates one entry. Any mismatch — wrong format, wrong
/// key, wrong crate version, wrong cell identity, a body that does not
/// hash to the header's `body`, a malformed result line, bytes after an
/// unobserved cell's result line — rejects the whole entry. An observed
/// cell's event stream is the rest of the body, served verbatim: the
/// body hash already covers every byte of it.
fn parse_entry(text: &str, key: &str, job: &Job<'_>) -> Option<Outcome> {
    let (header, body) = text.split_once('\n')?;
    let header: CacheHeader = serde_json::from_str(header).ok()?;
    let observed = job.cell.observed();
    let valid = header.format == CACHE_FORMAT
        && header.key == key
        && header.crate_version == env!("CARGO_PKG_VERSION")
        && header.controller == job.cell.label()
        && header.trace == job.session.meta().name
        && header.observed == observed
        && header.body == fnv1a_64(body.as_bytes());
    if !valid {
        return None;
    }
    let (result, stream) = body.split_once('\n')?;
    let result: SessionResult = serde_json::from_str(result).ok()?;
    if observed {
        Some((result, Some(stream.to_string())))
    } else {
        stream.is_empty().then_some((result, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_obs::NULL_PROBE;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;
    use ecas_types::units::Seconds;

    fn sessions() -> Vec<SessionTrace> {
        vec![SessionGenerator::new(
            "sweep-test",
            ContextSchedule::constant(Context::Walking),
            Seconds::new(40.0),
            5,
        )
        .generate()]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ecas-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn from_options_composes_policies() {
        assert_eq!(
            ExecPolicy::from_options(Some(1), None),
            ExecPolicy::Sequential
        );
        assert_eq!(
            ExecPolicy::from_options(Some(3), None),
            ExecPolicy::Parallel { jobs: 3 }
        );
        assert_eq!(ExecPolicy::from_options(None, None), ExecPolicy::parallel());
        let cached = ExecPolicy::from_options(Some(1), Some(Path::new("/tmp/c")));
        assert_eq!(cached.cache_dir(), Some(Path::new("/tmp/c")));
        assert_eq!(cached, ExecPolicy::cached("/tmp/c", ExecPolicy::Sequential));
        assert_eq!(
            ExecPolicy::from_options(Some(3), Some(Path::new("/tmp/c"))),
            ExecPolicy::Cached {
                dir: PathBuf::from("/tmp/c"),
                jobs: 3
            }
        );
    }

    #[test]
    fn cold_then_warm_cache_round_trip() {
        let dir = temp_dir("roundtrip");
        let sessions = sessions();
        let approaches = [Approach::Youtube, Approach::Ours];
        let policy = ExecPolicy::cached(&dir, ExecPolicy::Sequential);

        let engine = SweepEngine::new(ExperimentRunner::paper());
        let cold = engine.run_grid(&sessions, &approaches, &policy);
        let stats = engine.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);

        let warm_engine = SweepEngine::new(ExperimentRunner::paper());
        let warm = warm_engine.run_grid(&sessions, &approaches, &policy);
        let warm_stats = warm_engine.stats();
        assert_eq!(warm, cold);
        assert!(warm_stats.all_hits(), "{warm_stats:?}");
        assert_eq!(warm_stats.hits, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_are_recomputed_and_repaired() {
        let dir = temp_dir("corrupt");
        let sessions = sessions();
        let approaches = [Approach::Youtube];
        let policy = ExecPolicy::cached(&dir, ExecPolicy::Sequential);

        let engine = SweepEngine::new(ExperimentRunner::paper());
        let cold = engine.run_grid(&sessions, &approaches, &policy);

        // Truncate every entry to garbage.
        for entry in fs::read_dir(&dir).unwrap() {
            fs::write(entry.unwrap().path(), "{ not json").unwrap();
        }

        let repaired_engine = SweepEngine::new(ExperimentRunner::paper());
        let repaired = repaired_engine.run_grid(&sessions, &approaches, &policy);
        let stats = repaired_engine.stats();
        assert_eq!(repaired, cold);
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);

        // The repaired entry serves the next run.
        let warm_engine = SweepEngine::new(ExperimentRunner::paper());
        assert_eq!(warm_engine.run_grid(&sessions, &approaches, &policy), cold);
        assert!(warm_engine.stats().all_hits());
        fs::remove_dir_all(&dir).ok();
    }

    /// A stored result with one digit changed — same length, still valid
    /// JSON, a different answer — must not be served: the header's body
    /// hash makes the entry corrupt, the cell is recomputed to the
    /// uncached result, and the repaired entry serves the next run.
    #[test]
    fn a_changed_digit_in_a_stored_result_is_corrupt() {
        let dir = temp_dir("digit");
        let sessions = sessions();
        let approaches = [Approach::Ours];
        let policy = ExecPolicy::cached(&dir, ExecPolicy::Sequential);
        let uncached = SweepEngine::new(ExperimentRunner::paper()).run_grid(
            &sessions,
            &approaches,
            &ExecPolicy::Sequential,
        );
        let cold = SweepEngine::new(ExperimentRunner::paper());
        assert_eq!(cold.run_grid(&sessions, &approaches, &policy), uncached);

        let entry = entry_path(
            &dir,
            &cold
                .key_context()
                .key(&session_hash(&sessions[0]), Cell::Approach(Approach::Ours)),
        );
        let text = fs::read_to_string(&entry).unwrap();
        let field = "\"mean_qoe\":";
        let at = text.find(field).unwrap() + field.len();
        let digit = at + text[at..].find('.').unwrap() + 1;
        let mut bytes = text.clone().into_bytes();
        bytes[digit] = if bytes[digit] == b'9' {
            b'0'
        } else {
            bytes[digit] + 1
        };
        let tampered = String::from_utf8(bytes).unwrap();
        assert_eq!(tampered.len(), text.len());
        let result_line = tampered.lines().nth(1).unwrap();
        let served: SessionResult = serde_json::from_str(result_line).unwrap();
        assert_ne!(
            served, uncached[0],
            "the edit must change the stored answer"
        );
        fs::write(&entry, tampered).unwrap();

        let engine = SweepEngine::new(ExperimentRunner::paper());
        assert_eq!(engine.run_grid(&sessions, &approaches, &policy), uncached);
        let stats = engine.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.corrupt),
            (0, 1, 1),
            "{stats:?}"
        );

        let warm = SweepEngine::new(ExperimentRunner::paper());
        assert_eq!(warm.run_grid(&sessions, &approaches, &policy), uncached);
        assert!(warm.stats().all_hits(), "{:?}", warm.stats());
        fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites the result body of a cached Ours entry with `edit`,
    /// under a header whose body hash matches the new body, and checks
    /// that the next run finds it corrupt, recomputes it and repairs it.
    fn rewritten_result_is_corrupt(tag: &str, edit: impl Fn(&str) -> String) {
        let dir = temp_dir(tag);
        let sessions = sessions();
        let approaches = [Approach::Ours];
        let policy = ExecPolicy::cached(&dir, ExecPolicy::Sequential);
        let cold = SweepEngine::new(ExperimentRunner::paper());
        let uncached = cold.run_grid(&sessions, &approaches, &policy);

        let entry = entry_path(
            &dir,
            &cold
                .key_context()
                .key(&session_hash(&sessions[0]), Cell::Approach(Approach::Ours)),
        );
        let text = fs::read_to_string(&entry).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        let body = edit(body);
        let mut header: CacheHeader = serde_json::from_str(header).unwrap();
        header.body = fnv1a_64(body.as_bytes());
        let header = to_json(&header).unwrap();
        fs::write(&entry, format!("{header}\n{body}")).unwrap();

        let engine = SweepEngine::new(ExperimentRunner::paper());
        assert_eq!(engine.run_grid(&sessions, &approaches, &policy), uncached);
        let stats = engine.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.corrupt),
            (0, 1, 1),
            "{stats:?}"
        );

        let warm = SweepEngine::new(ExperimentRunner::paper());
        assert_eq!(warm.run_grid(&sessions, &approaches, &policy), uncached);
        assert!(warm.stats().all_hits(), "{:?}", warm.stats());
        fs::remove_dir_all(&dir).ok();
    }

    /// A result line with a field missing is corrupt even when the
    /// header's body hash matches it: every field is required, so an
    /// entry without `retries` is recomputed, not served with a default.
    #[test]
    fn a_result_line_missing_a_field_is_corrupt() {
        rewritten_result_is_corrupt("missing-field", |body| {
            let field = body.find("\"retries\":").unwrap();
            let end = field + body[field..].find(',').unwrap() + 1;
            format!("{}{}", &body[..field], &body[end..])
        });
    }

    /// A unit outside its domain is corrupt like a missing field: a
    /// negative `wall_time` is recomputed, not served.
    #[test]
    fn a_result_line_with_an_out_of_domain_unit_is_corrupt() {
        rewritten_result_is_corrupt("negative-unit", |body| {
            let field = body.find("\"wall_time\":").unwrap() + "\"wall_time\":".len();
            let end = field + body[field..].find(',').unwrap();
            format!("{}-1{}", &body[..field], &body[end..])
        });
    }

    /// Regression: `store()` used to write every writer's entry to the
    /// same `{key}.tmp` path, so two writers racing on one key could
    /// interleave `fs::write`/`fs::rename` and publish a mixed or
    /// truncated entry — breaking the documented "reader never sees a
    /// half-written entry" guarantee. With per-writer temp names, readers
    /// racing the writers must only ever observe a complete entry or
    /// none.
    #[test]
    fn concurrent_stores_never_publish_torn_entries() {
        let dir = temp_dir("race");
        fs::create_dir_all(&dir).unwrap();
        let engine = SweepEngine::new(ExperimentRunner::paper());
        let sessions = sessions();
        let job = Job {
            session: &sessions[0],
            cell: Cell::Approach(Approach::Ours),
        };
        let key = engine
            .key_context()
            .key(&session_hash(&sessions[0]), job.cell);
        let outcome = (
            engine
                .run_grid(&sessions, &[Approach::Ours], &ExecPolicy::Sequential)
                .remove(0),
            None,
        );

        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        engine.store(&dir, &key, &job, &outcome).unwrap();
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..400 {
                    match engine.load(&dir, &key, &job) {
                        Lookup::Hit(_) | Lookup::Record(_) | Lookup::Absent => {}
                        Lookup::Corrupt => panic!("reader observed a torn cache entry"),
                    }
                }
            });
        });

        // The settled entry is a complete, valid hit …
        assert!(matches!(engine.load(&dir, &key, &job), Lookup::Hit(_)));
        // … and every temp file was consumed by its own rename.
        assert_no_temp_litter(&dir);
        fs::remove_dir_all(&dir).ok();
    }

    fn assert_no_temp_litter(dir: &Path) {
        let litter: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(litter.is_empty(), "temp litter left behind: {litter:?}");
    }

    /// `SessionRecord::save` publishes through [`write_atomic`] too: a
    /// reader racing repeated saves of one record decodes the complete
    /// record or finds no file, never a torn one.
    #[test]
    fn concurrent_record_saves_never_publish_torn_records() {
        use crate::record::{RecordScenario, RecordedSession, SessionRecord, SessionRecordError};
        use ecas_trace::record::RecordError;
        use std::sync::Barrier;

        let dir = temp_dir("record-race");
        fs::create_dir_all(&dir).unwrap();
        let record = SessionRecord::record(RecordScenario {
            session: RecordedSession::Synthetic {
                context: Context::Walking,
                seconds: 20.0,
                seed: 5,
            },
            approach: Approach::Ours,
            eta: 0.5,
            fault: None,
        })
        .unwrap();
        let path = dir.join("race.ecasr");
        let start = Barrier::new(5);

        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        record.save(&path).unwrap();
                    }
                });
            }
            scope.spawn(|| {
                start.wait();
                for _ in 0..400 {
                    match SessionRecord::load(&path) {
                        Ok(read) => assert_eq!(read, record),
                        Err(SessionRecordError::Codec(RecordError::Io(e)))
                            if e.kind() == io::ErrorKind::NotFound => {}
                        Err(e) => panic!("reader decoded a torn record: {e}"),
                    }
                }
            });
        });

        assert_eq!(SessionRecord::load(&path).unwrap(), record);
        assert_no_temp_litter(&dir);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorded_references_serve_unobserved_cells() {
        use crate::record::{RecordScenario, RecordedSession, SessionRecord};

        let dir = temp_dir("from-record");
        fs::create_dir_all(&dir).unwrap();
        let scenario = RecordScenario {
            session: RecordedSession::Synthetic {
                context: Context::Walking,
                seconds: 40.0,
                seed: 5,
            },
            approach: Approach::Ours,
            eta: 0.5,
            fault: None,
        };
        let record = SessionRecord::record(scenario).unwrap();
        let key = record_cell_key(&record);
        record.save(record_path(&dir, &key)).unwrap();

        // The record regenerates the same trace the sweep test fixture
        // uses, so its key matches the engine's own — the corpus file
        // alone warms the cell.
        let sessions = vec![record.regenerate_trace().unwrap()];
        let policy = ExecPolicy::cached(&dir, ExecPolicy::Sequential);
        let engine = SweepEngine::new(ExperimentRunner::paper());
        let served = engine.run_grid(&sessions, &[Approach::Ours], &policy);
        let stats = engine.stats();
        assert!(stats.all_hits(), "{stats:?}");
        assert_eq!(stats.from_record, 1);
        assert_eq!(served, vec![record.reference.clone()]);
        assert!(
            !entry_path(&dir, &key).exists(),
            "a record hit must not rewrite a JSONL entry"
        );

        // Observed lookups must never be served from a record.
        assert!(matches!(
            engine.load(
                &dir,
                &key,
                &Job {
                    session: &sessions[0],
                    cell: Cell::Observed(Approach::Ours),
                }
            ),
            Lookup::Absent
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_stale_records_degrade_to_recompute() {
        use crate::record::{RecordScenario, RecordedSession, SessionRecord};

        let dir = temp_dir("record-corrupt");
        fs::create_dir_all(&dir).unwrap();
        let scenario = RecordScenario {
            session: RecordedSession::Synthetic {
                context: Context::Walking,
                seconds: 40.0,
                seed: 5,
            },
            approach: Approach::Ours,
            eta: 0.5,
            fault: None,
        };
        let record = SessionRecord::record(scenario).unwrap();
        let key = record_cell_key(&record);
        // Truncated container bytes under the right name.
        fs::write(record_path(&dir, &key), b"ECASR garbage").unwrap();

        let sessions = vec![record.regenerate_trace().unwrap()];
        let policy = ExecPolicy::cached(&dir, ExecPolicy::Sequential);
        let engine = SweepEngine::new(ExperimentRunner::paper());
        let computed = engine.run_grid(&sessions, &[Approach::Ours], &policy);
        let stats = engine.stats();
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.from_record, 0);
        assert_eq!(computed, vec![record.reference.clone()]);
        // The recompute repaired a JSONL entry that serves the next run.
        let warm = SweepEngine::new(ExperimentRunner::paper());
        assert_eq!(
            warm.run_grid(&sessions, &[Approach::Ours], &policy),
            computed
        );
        assert!(warm.stats().all_hits());
        assert_eq!(warm.stats().from_record, 0);

        // A valid record renamed under a foreign key is rejected too, and
        // so is one whose header holds an η no runner accepts: it fails to
        // decode, where replaying it used to panic.
        let mut stale = record.clone();
        stale.crate_version = "0.0.0-stale".to_string();
        assert_ne!(record_cell_key(&stale), key, "version must key");
        let mut hostile = record.clone();
        hostile.scenario.eta = 1.5;
        for (tag, bad) in [("stale", stale), ("hostile", hostile)] {
            let bad_dir = temp_dir(&format!("record-{tag}"));
            fs::create_dir_all(&bad_dir).unwrap();
            bad.save(record_path(&bad_dir, &key)).unwrap();
            let engine = SweepEngine::new(ExperimentRunner::paper());
            let policy = ExecPolicy::cached(&bad_dir, ExecPolicy::Sequential);
            let results = engine.run_grid(&sessions, &[Approach::Ours], &policy);
            assert_eq!(results, computed, "{tag}");
            let stats = engine.stats();
            let counts = (stats.misses, stats.corrupt, stats.from_record);
            assert_eq!(counts, (1, 1, 0), "{tag}: {stats:?}");
            fs::remove_dir_all(&bad_dir).ok();
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_key_separates_eta_fault_and_observed() {
        let hash = session_hash(&sessions()[0]);
        let key = |engine: &SweepEngine, cell| engine.key_context().key(&hash, cell);
        let ours = Cell::Approach(Approach::Ours);
        let engine = SweepEngine::new(ExperimentRunner::paper());
        let base = key(&engine, ours);
        let changed = |engine: &SweepEngine, cell, what: &str| {
            assert_ne!(key(engine, cell), base, "{what} must key");
        };
        assert_eq!(key(&engine, ours), base, "keys are stable");
        changed(&engine, Cell::Observed(Approach::Ours), "observed flag");
        changed(&engine, Cell::Approach(Approach::Youtube), "controller");

        let other_eta = SweepEngine::new(ExperimentRunner::paper_with_eta(0.9));
        changed(&other_eta, ours, "eta");

        let faulty = SweepEngine::new(ExperimentRunner::new(
            ExperimentRunner::paper()
                .simulator()
                .clone()
                .with_faults(FaultSpec::scaled(0.5, 7)),
            0.5,
        ));
        changed(&faulty, ours, "fault spec");
    }

    /// Pins the content hashes every existing cache is named by: a drift
    /// in the trace encoder or the key's JSON would otherwise silently
    /// turn every stored entry into a miss. The first is Table V row 1's
    /// trace hash, FNV-1a over the bytes `tracetool tablev 1 t1.bin`
    /// writes, and equal to the golden `tablev1-ours` record's
    /// `trace_hash`; the second is the paper runner's key for that row's
    /// Ours cell at η = 0.5, the file stem an `evaluate --cache-dir` run
    /// writes for it. The key also covers the crate version and the cache
    /// format, so bumping either re-pins it.
    #[test]
    fn content_hashes_are_pinned() {
        let session = ecas_trace::videos::EvalTraceSpec::table_v()[0].generate();
        let hash = session_hash(&session);
        assert_eq!(hash, "690b438c339039b3");
        let golden = include_str!("../../../golden/tablev1-ours/manifest.json");
        let trace_hash = u64::from_str_radix(&hash, 16).unwrap();
        assert_eq!(trace_hash, 7_569_217_868_165_822_899);
        assert!(
            golden.contains(&format!("\"trace_hash\":{trace_hash},")),
            "golden tablev1-ours was recorded against another trace hash: {golden}"
        );
        let key = SweepEngine::new(ExperimentRunner::paper())
            .key_context()
            .key(&hash, Cell::Approach(Approach::Ours));
        assert_eq!(key, "1029aa7052736a6f");
    }

    /// `run_generated` runs each cell inline in its pool job; under every
    /// policy — an unusable cache directory included — it must return
    /// what `run_grid` returns over the same sessions and leave the same
    /// cache stats behind. Base-energy cells take the same path through
    /// `comparison`.
    #[test]
    fn generated_cells_match_grid_cells_under_every_policy() {
        let make = |i: usize| {
            SessionGenerator::new(
                format!("gen-{i}"),
                ContextSchedule::constant(Context::Walking),
                Seconds::new(20.0),
                i as u64,
            )
            .generate()
        };
        let sessions: Vec<SessionTrace> = (0..5).map(make).collect();
        let dir = temp_dir("gen-cache");
        let blocker = temp_dir("gen-blocker");
        fs::write(&blocker, "a file, so no directory can be created below it").unwrap();
        let policies = [
            ExecPolicy::Sequential,
            ExecPolicy::Parallel { jobs: 2 },
            ExecPolicy::cached(&dir, ExecPolicy::Parallel { jobs: 3 }),
            ExecPolicy::Cached {
                dir: dir.clone(),
                jobs: 1,
            },
            ExecPolicy::cached(blocker.join("cache"), ExecPolicy::Parallel { jobs: 2 }),
        ];
        let clear = || {
            let _ = fs::remove_dir_all(&dir);
        };
        let approaches = [Approach::Youtube, Approach::Ours];
        let reference = SweepEngine::new(ExperimentRunner::paper()).comparison(
            &sessions,
            &approaches,
            &ExecPolicy::Sequential,
        );
        let comparison_cells = (sessions.len() * (approaches.len() + 1)) as u64;
        for policy in &policies {
            // Each side starts from the same empty caches.
            clear();
            let grid_engine = SweepEngine::new(ExperimentRunner::paper());
            let grid = grid_engine.run_grid(&sessions, &[Approach::Ours], policy);
            clear();
            let generated_engine = SweepEngine::new(ExperimentRunner::paper());
            let generated =
                generated_engine
                    .run_generated(sessions.len(), &Approach::Ours, policy, |i| (i, make(i)));
            let tags: Vec<usize> = generated.iter().map(|(tag, _)| *tag).collect();
            assert_eq!(tags, vec![0, 1, 2, 3, 4], "{policy:?}");
            let results: Vec<SessionResult> = generated.into_iter().map(|(_, r)| r).collect();
            assert_eq!(results, grid, "{policy:?}");
            assert_eq!(generated_engine.stats(), grid_engine.stats(), "{policy:?}");

            // A cold and then a warm comparison grid equal the uncached
            // sequential one, and every usable cache serves the warm pass.
            clear();
            let comparison = || {
                let engine = SweepEngine::new(ExperimentRunner::paper());
                let summary = engine.comparison(&sessions, &approaches, policy);
                assert_eq!(summary, reference, "{policy:?}");
                engine.stats()
            };
            comparison();
            let warm = match policy.cache_dir() {
                None => CacheStats::default(),
                Some(dir) if dir.starts_with(&blocker) => CacheStats {
                    misses: comparison_cells,
                    write_errors: 1,
                    ..CacheStats::default()
                },
                Some(_) => CacheStats {
                    hits: comparison_cells,
                    ..CacheStats::default()
                },
            };
            assert_eq!(comparison(), warm, "{policy:?}");
        }
        clear();
        fs::remove_file(&blocker).ok();
    }

    /// Observed cells take the one cell path. Each stream
    /// `observed_comparison` returns is its pair's event log as JSONL,
    /// pinned by `(fnv1a_64, lines, bytes)`, under any policy, and the
    /// summary is the unobserved one. A cached observed entry is the
    /// header, the result line, then that stream's own lines. One changed
    /// byte inside the stream (same length) makes the entry corrupt: the
    /// pair is recomputed to the same stream and the entry repaired.
    #[test]
    fn observed_cells_yield_the_recorded_event_streams() {
        let mut sessions = sessions();
        sessions.push(
            SessionGenerator::new(
                "sweep-test-2",
                ContextSchedule::constant(Context::MovingVehicle),
                Seconds::new(20.0),
                21,
            )
            .generate(),
        );
        let approaches = [Approach::Youtube, Approach::Ours];
        let runner = ExperimentRunner::paper();
        let mut results = Vec::new();
        let mut reference = Vec::new();
        for session in &sessions {
            for approach in &approaches {
                let (result, log) = runner.run_with_probe(session, approach, &NULL_PROBE);
                results.push(result);
                reference.push(log.to_jsonl());
            }
        }
        let pins: Vec<(u64, usize, usize)> = reference
            .iter()
            .map(|s| (fnv1a_64(s.as_bytes()), s.lines().count(), s.len()))
            .collect();
        assert_eq!(
            pins,
            [
                (0x1fb0_3dfa_0419_201d, 65, 5402),
                (0xddd6_3612_3970_e437, 67, 5591),
                (0xec0e_f146_d7e9_2c58, 32, 2597),
                (0xd232_0fc7_baa9_db76, 32, 2617),
            ],
            "the streams' bytes changed"
        );
        let plain = SweepEngine::new(ExperimentRunner::paper()).comparison(
            &sessions,
            &approaches,
            &ExecPolicy::Sequential,
        );
        let run = |policy: &ExecPolicy| {
            let engine = SweepEngine::new(ExperimentRunner::paper());
            let (summary, streams) = engine.observed_comparison(&sessions, &approaches, policy);
            assert_eq!(summary, plain, "{policy:?}");
            assert_eq!(streams, reference, "{policy:?}");
            engine.stats()
        };
        for policy in [ExecPolicy::Sequential, ExecPolicy::Parallel { jobs: 3 }] {
            assert_eq!(run(&policy), CacheStats::default());
        }

        let dir = temp_dir("observed");
        let policy = ExecPolicy::cached(&dir, ExecPolicy::Parallel { jobs: 2 });
        let cells = (sessions.len() * (approaches.len() + 1)) as u64;
        let cold = run(&policy);
        assert_eq!((cold.hits, cold.misses), (0, cells), "{cold:?}");

        let key = SweepEngine::new(ExperimentRunner::paper())
            .key_context()
            .key(&session_hash(&sessions[1]), Cell::Observed(Approach::Ours));
        let entry = entry_path(&dir, &key);
        let text = fs::read_to_string(&entry).unwrap();
        let mut parts = text.splitn(3, '\n');
        let (_, result, stream) = (
            parts.next().unwrap(),
            parts.next().unwrap(),
            parts.next().unwrap(),
        );
        assert_eq!(
            serde_json::from_str::<SessionResult>(result).unwrap(),
            results[3]
        );
        assert_eq!(stream, reference[3]);

        let at = text.len() - stream.len() + stream.find(|c: char| c.is_ascii_digit()).unwrap();
        let mut bytes = text.into_bytes();
        bytes[at] = if bytes[at] == b'9' {
            b'0'
        } else {
            bytes[at] + 1
        };
        fs::write(&entry, bytes).unwrap();
        let tampered = run(&policy);
        assert_eq!(
            (tampered.hits, tampered.misses, tampered.corrupt),
            (cells - 1, 1, 1),
            "{tampered:?}"
        );
        let warm = run(&policy);
        assert!(warm.all_hits() && warm.hits == cells, "{warm:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_order_is_sessions_major() {
        let mut sessions = sessions();
        sessions.push(
            SessionGenerator::new(
                "sweep-test-2",
                ContextSchedule::constant(Context::MovingVehicle),
                Seconds::new(20.0),
                21,
            )
            .generate(),
        );
        let engine = SweepEngine::new(ExperimentRunner::paper());
        let grid = engine.run_grid(
            &sessions,
            &[Approach::Youtube, Approach::Bba],
            &ExecPolicy::parallel(),
        );
        let order: Vec<(&str, &str)> = grid
            .iter()
            .map(|r| (r.trace.as_str(), r.controller.as_str()))
            .collect();
        assert_eq!(
            order,
            [
                ("sweep-test", "youtube"),
                ("sweep-test", "bba"),
                ("sweep-test-2", "youtube"),
                ("sweep-test-2", "bba"),
            ]
        );
    }

    /// One grid call is one execution: it records exactly one
    /// `sweep/execute` span, cached or not.
    #[test]
    fn one_grid_call_records_one_execute_span() {
        let sessions = sessions();
        let dir = temp_dir("span-cache");
        let policies = [
            ExecPolicy::Sequential,
            ExecPolicy::cached(&dir, ExecPolicy::Parallel { jobs: 2 }),
        ];
        for policy in &policies {
            let _ = fs::remove_dir_all(&dir);
            let registry = Arc::new(MetricsRegistry::new());
            let engine =
                SweepEngine::new(ExperimentRunner::paper()).with_registry(Arc::clone(&registry));
            let _ = engine.run_grid(&sessions, &[Approach::Youtube, Approach::Ours], policy);
            let spans = registry
                .snapshot()
                .span(names::SWEEP_EXECUTE_SPAN)
                .map(|span| span.count);
            assert_eq!(spans, Some(1), "{policy:?}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// An empty grid does no work: it returns nothing, creates no cache
    /// directory and counts nothing — not even the write error an
    /// uncreatable directory would cost a non-empty grid.
    #[test]
    fn empty_grid_touches_no_cache_directory() {
        let sessions = sessions();
        let fresh = temp_dir("empty-fresh");
        let blocker = temp_dir("empty-blocker");
        fs::write(&blocker, "a file, so no directory can be created below it").unwrap();
        let policies = [
            ExecPolicy::cached(&fresh, ExecPolicy::Sequential),
            ExecPolicy::cached(blocker.join("cache"), ExecPolicy::Parallel { jobs: 2 }),
        ];
        for policy in &policies {
            let engine = SweepEngine::new(ExperimentRunner::paper());
            assert!(engine.run_grid(&[], &[Approach::Ours], policy).is_empty());
            assert!(engine.run_grid(&sessions, &[], policy).is_empty());
            assert_eq!(engine.stats(), CacheStats::default(), "{policy:?}");
        }
        assert!(!fresh.exists(), "an empty grid created {}", fresh.display());
        fs::remove_file(&blocker).ok();
    }

    #[test]
    fn parallel_matches_sequential_through_engine() {
        let engine = SweepEngine::new(ExperimentRunner::paper());
        let sessions = sessions();
        let approaches = [Approach::Youtube, Approach::Ours, Approach::Bba];
        let seq = engine.run_grid(&sessions, &approaches, &ExecPolicy::Sequential);
        let par = engine.run_grid(&sessions, &approaches, &ExecPolicy::parallel());
        let two = engine.run_grid(&sessions, &approaches, &ExecPolicy::Parallel { jobs: 2 });
        assert_eq!(seq, par);
        assert_eq!(seq, two);
    }

    /// The engine's comparison equals one built without it: direct
    /// `ExperimentRunner::run` and `base_energy` calls, folded through
    /// `TraceComparison::from_results`.
    #[test]
    fn comparison_matches_legacy_evaluate() {
        let engine = SweepEngine::new(ExperimentRunner::paper());
        let (runner, sessions) = (engine.runner(), sessions());
        let approaches = Approach::paper_set();
        let results: Vec<_> = approaches
            .iter()
            .map(|a| runner.run(&sessions[0], a))
            .collect();
        let base = runner.base_energy(&sessions[0]);
        let trace = TraceComparison::from_results("sweep-test", base, &approaches, &results);
        let via_engine = engine.comparison(&sessions, &approaches, &ExecPolicy::Sequential);
        assert_eq!(via_engine.traces, [trace]);
    }
}
