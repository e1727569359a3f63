//! Whole-run benchmark of the ecas workspace with per-layer attribution.
//!
//! One process runs one workload against the public API of `ecas-core`
//! with every worker pool `nproc` wide:
//!
//! * `fleet` — repeated `FleetEngine::run` over `fleet --smoke`-shaped
//!   fleets;
//! * `grid` — the paper evaluation through `SweepEngine::comparison`,
//!   no cache;
//! * `grid-warm` — the same grid served from a cache that set-up filled;
//! * `corpus` — `corpus::batch_record` of a fleet slice, then
//!   `corpus::verify`.
//!
//! An untraced run times whole units and reports the end-to-end metrics
//! of [`report::END_TO_END`]. A traced run rebuilds every unit from the
//! same public calls with a span around each call into a layer
//! ([`spans::SpanTable`]), times sequential probes of the layers that
//! are only reached inside a single call, and reports
//! [`report::PER_LAYER`]. Every unit's output is checked; a failed check
//! counts failed operations, it never stops the run.

pub mod report;
pub mod spans;
pub mod sys;

mod corpus;
mod fleet;
mod grid;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use ecas_core::fleet::FleetEngine;
use ecas_core::obs::perf::Stopwatch;

use report::{Metric, END_TO_END, ERROR_RATE, PER_LAYER};
use spans::{SpanId, SpanTable};
use sys::UnitClock;

pub use fleet::input_digest as fleet_input_digest;
pub use grid::trace_hashes as grid_trace_hashes;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated fleet runs.
    Fleet,
    /// The paper grid with no cache.
    Grid,
    /// The paper grid from a warm cache.
    GridWarm,
    /// Batch-record plus verify of a record corpus.
    Corpus,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::Fleet,
        Workload::Grid,
        Workload::GridWarm,
        Workload::Corpus,
    ];

    /// The name used on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Grid => "grid",
            Workload::GridWarm => "grid-warm",
            Workload::Corpus => "corpus",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn unattributed_metric(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet.unattributed_s",
            Workload::Grid => "grid.unattributed_s",
            Workload::GridWarm => "grid-warm.unattributed_s",
            Workload::Corpus => "corpus.unattributed_s",
        }
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Users per fleet unit.
    pub fleet_users: u64,
    /// `FleetEngine` batch size.
    pub fleet_batch: usize,
    /// Records per corpus unit.
    pub corpus_records: u64,
}

impl Sizes {
    /// What the benchmark command runs: fleet units of two and a
    /// quarter `FleetEngine::DEFAULT_BATCH` batches (so every unit spans
    /// three batches) and corpus units of 64 records.
    pub const BENCHMARK: Sizes = Sizes {
        fleet_users: 2 * FleetEngine::DEFAULT_BATCH as u64 + FleetEngine::DEFAULT_BATCH as u64 / 4,
        fleet_batch: FleetEngine::DEFAULT_BATCH,
        corpus_records: 64,
    };
}

/// A fault the self-tests inject to check that failures are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `grid-warm`: truncate one cache entry after set-up.
    TamperCacheEntry,
    /// `corpus`: truncate one record of the first unit before `verify`.
    TruncateRecord,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Seconds of units to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for caches and corpora; created and emptied by
    /// the run.
    pub work_dir: PathBuf,
    /// Self-test fault injection.
    pub fault: Option<Fault>,
}

/// Operations a unit attempted and failed, and the session-seconds its
/// results cover.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Ops {
    attempted: u64,
    failed: u64,
    session_s: f64,
}

/// What one traced unit recorded: its root span, its operations and its
/// per-layer values.
pub(crate) struct Traced {
    root: SpanId,
    ops: Ops,
    layers: Vec<(&'static str, f64)>,
}

/// A workload after set-up.
pub(crate) trait Unit {
    /// What one operation is ("users", "cells", "records").
    fn noun(&self) -> &'static str;

    /// Per-layer values measured during set-up.
    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Arms a self-test fault.
    fn inject(&mut self, fault: Fault) -> Result<(), String> {
        Err(format!("{fault:?} does not apply to this workload"))
    }

    /// Runs unit `unit`, timing only its calls into the program.
    fn run(&mut self, unit: u64, clock: &mut UnitClock) -> Result<Ops, String>;

    /// Rebuilds unit `unit` with a span per layer call, plus probes.
    fn traced(&mut self, unit: u64, table: &mut SpanTable) -> Result<Traced, String>;
}

/// Set-up number `rep` of the configured workload with pools `jobs`
/// wide. Each `grid-warm` set-up fills a cache directory of its own.
fn setup(config: &Config, jobs: usize, rep: usize) -> Result<Box<dyn Unit>, String> {
    Ok(match config.workload {
        Workload::Fleet => Box::new(fleet::Fleet::setup(config, jobs)),
        Workload::Grid => Box::new(grid::Grid::setup(config, jobs, None)?),
        Workload::GridWarm => Box::new(grid::Grid::setup(
            config,
            jobs,
            Some(config.work_dir.join(format!("cache-{rep}"))),
        )?),
        Workload::Corpus => Box::new(corpus::Corpus::setup(config, jobs)?),
    })
}

/// Derives a seed from the workload seed, a per-workload salt and an
/// index (SplitMix64 finalizer on each step).
pub(crate) fn derive_seed(seed: u64, salt: u64, index: u64) -> u64 {
    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    splitmix64(splitmix64(seed ^ salt) ^ index)
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted over all measured units.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Worker-pool width: the host's available parallelism.
    pub jobs: usize,
    /// Units measured.
    pub units: usize,
    /// Every metric, in print order.
    pub lines: Vec<Metric>,
    /// The metrics of the JSON result line, in catalogue order.
    pub result: Vec<Metric>,
    /// The span table of a traced run.
    pub spans: Option<SpanTable>,
}

/// Set-up repeats until this share of `--seconds` has passed since the
/// run started, and at least `MIN_SETUPS` times; `setup_s` is the median.
/// Set-up is mostly sequential reference work on one thread, which feels
/// changes in the host's speed more than the pooled units do; a window
/// of seconds averages over the changes within one run.
const SETUP_SHARE: f64 = 0.25;

/// Set-ups per run even when the set-up window has passed.
const MIN_SETUPS: usize = 3;

/// A run stops measuring at this multiple of `--seconds` even with
/// fewer than `MIN_UNITS` units: a slow host measures fewer units rather
/// than overrunning the run's time budget.
const MAX_BODY_FACTOR: f64 = 1.3;

/// Units an untraced run measures even when `--seconds` has passed:
/// enough that the tail percentile, with `TAIL_BEYOND` units beyond it,
/// sits at or above the median.
const MIN_UNITS: usize = 2 * sys::TAIL_BEYOND + 1;

/// Units a traced run measures even when `--seconds` has passed.
const MIN_TRACED_UNITS: usize = 3;

/// Per-layer samples by metric name, one per set-up or traced unit.
type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Everything the measuring loop collected.
struct Measured {
    /// Wall seconds of each untraced unit.
    walls: Vec<f64>,
    /// Process CPU seconds over all untraced units.
    cpu_s: f64,
    /// Session-seconds covered by the untraced units.
    session_s: f64,
    attempted: u64,
    failed: u64,
    /// Root span of each traced unit.
    roots: Vec<SpanId>,
    table: SpanTable,
}

/// Runs the configured workload: set-up for `SETUP_SHARE * seconds` (at
/// least `MIN_SETUPS` times), then units until `seconds` have passed and
/// at least `MIN_UNITS` were measured (but no longer than
/// `MAX_BODY_FACTOR * seconds`). Every pool is as wide as the host's
/// available parallelism.
///
/// # Errors
///
/// Returns a message when set-up or the measurement itself cannot run
/// (unusable scratch directory, unreadable `/proc`, a traced `fleet`
/// loop that disagrees with `FleetEngine::run`). Failed output checks
/// are not errors: they are counted in [`Outcome::failed`].
pub fn run(config: &Config) -> Result<Outcome, String> {
    let process = Stopwatch::start();
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let work = &config.work_dir;
    let io_error = |e: std::io::Error| format!("{}: {e}", work.display());
    if work.exists() {
        fs::remove_dir_all(work).map_err(io_error)?;
    }
    fs::create_dir_all(work).map_err(io_error)?;

    let mut setup_s = Vec::new();
    let mut samples = Samples::new();
    let mut state = None;
    for rep in 0.. {
        drop(state.take());
        // The first set-up counts from process start.
        let watch = if rep == 0 {
            process
        } else {
            Stopwatch::start()
        };
        let unit = setup(config, jobs, rep)?;
        setup_s.push(watch.elapsed_seconds());
        for (name, value) in unit.setup_layers() {
            samples.entry(name).or_default().push(value);
        }
        state = Some(unit);
        if rep + 1 >= MIN_SETUPS && process.elapsed_seconds() >= SETUP_SHARE * config.seconds {
            break;
        }
    }
    let mut state = state.ok_or("no set-up ran")?;
    if let Some(fault) = config.fault {
        state.inject(fault)?;
    }
    let measured = measure(state.as_mut(), config, &mut samples)?;
    let noun = state.noun();
    drop(state);
    fs::remove_dir_all(work).map_err(io_error)?;

    let (failed, attempted) = (measured.failed, measured.attempted);
    let error_rate = Metric::new(
        ERROR_RATE.0,
        ratio(failed as f64, attempted as f64),
        ERROR_RATE.1,
    )
    .note(format!("{failed} of {attempted} {noun} failed"));
    let result = if config.trace {
        per_layer(&measured, &samples, config.workload)
    } else {
        end_to_end(&measured, &setup_s)?
    };
    let mut lines = result.clone();
    lines.push(error_rate);
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        jobs,
        units: measured.walls.len(),
        lines,
        result,
        spans: config.trace.then_some(measured.table),
    })
}

/// The measuring loop. Every iteration times one untraced unit; a
/// traced run follows it with the traced rebuild of the same unit.
fn measure(
    state: &mut dyn Unit,
    config: &Config,
    samples: &mut Samples,
) -> Result<Measured, String> {
    let mut m = Measured {
        walls: Vec::new(),
        cpu_s: 0.0,
        session_s: 0.0,
        attempted: 0,
        failed: 0,
        roots: Vec::new(),
        table: SpanTable::new(),
    };
    let min_units = if config.trace {
        MIN_TRACED_UNITS
    } else {
        MIN_UNITS
    };
    let body = Stopwatch::start();
    for unit in 0u64.. {
        let mut clock = UnitClock::default();
        let ops = state.run(unit, &mut clock)?;
        m.walls.push(clock.wall_s);
        m.cpu_s += clock.cpu_s;
        m.session_s += ops.session_s;
        m.attempted += ops.attempted;
        m.failed += ops.failed;
        if config.trace {
            let traced = state.traced(unit, &mut m.table)?;
            m.roots.push(traced.root);
            m.attempted += traced.ops.attempted;
            m.failed += traced.ops.failed;
            for (name, value) in traced.layers {
                samples.entry(name).or_default().push(value);
            }
        }
        let elapsed = body.elapsed_seconds();
        if (elapsed >= config.seconds && m.walls.len() >= min_units)
            || elapsed >= MAX_BODY_FACTOR * config.seconds
        {
            break;
        }
    }
    Ok(m)
}

/// The end-to-end catalogue of an untraced run.
fn end_to_end(m: &Measured, setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    let n = m.walls.len();
    let (p, tail) = sys::tail(&m.walls);
    let values = [
        sys::median(setup_s),
        ratio(m.session_s, m.walls.iter().sum()),
        ratio(m.session_s, m.cpu_s),
        1e3 * sys::median(&m.walls),
        1e3 * tail,
        sys::peak_rss_mb()?,
    ];
    let notes = [
        Some(format!("median of {} set-ups", setup_s.len())),
        None,
        None,
        Some(format!("{n} units")),
        Some(format!("p{p} of {n} units")),
        None,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .zip(notes)
        .map(|((&(name, unit), value), note)| Metric {
            name,
            value,
            unit,
            note,
        })
        .collect())
}

/// The per-layer catalogue of a traced run. Times are medians over
/// units; counts and sizes are the first unit's, which repeat exactly
/// for a given seed. Layers the workload does not reach read 0.
fn per_layer(m: &Measured, samples: &Samples, workload: Workload) -> Vec<Metric> {
    let traced: Vec<f64> = m.roots.iter().map(|&r| m.table.seconds(r)).collect();
    let unattributed: Vec<f64> = m.roots.iter().map(|&r| m.table.self_seconds(r)).collect();
    let value = |name: &str, unit: &str| -> f64 {
        let sampled = samples.get(name);
        match name {
            "trace.overhead" => sys::median(&traced) / sys::median(&m.walls) - 1.0,
            _ if name == workload.unattributed_metric() => sys::median(&unattributed),
            _ if unit == "count" || unit == "bytes" => {
                sampled.and_then(|v| v.first()).copied().unwrap_or(0.0)
            }
            _ => sampled.map_or(0.0, |v| sys::median(v)),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let metric = Metric::new(name, value(name, unit), unit);
            match name {
                "cache.read_s" => metric.note("derived: sweep.busy_s - hash.busy_s"),
                "trace.overhead" => metric.note(format!(
                    "median traced unit {:.6} s of {} / median untraced unit {:.6} s of {} - 1",
                    sys::median(&traced),
                    traced.len(),
                    sys::median(&m.walls),
                    m.walls.len()
                )),
                _ => metric,
            }
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
