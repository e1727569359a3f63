//! `grid` and `grid-warm`: the paper evaluation through
//! `SweepEngine::comparison` — the five Table V rows × the paper's five
//! approaches plus each row's base-energy cell, at η = 0.5.
//!
//! `grid` computes every pass on the pool with no cache. `grid-warm`
//! serves every pass from a cache directory that set-up filled with one
//! cold pass, so each timed pass must be all hits.

use std::fs;
use std::path::{Path, PathBuf};

use ecas_core::abr::OptimalPlanner;
use ecas_core::metrics::{ComparisonSummary, TraceComparison};
use ecas_core::obs::perf::Stopwatch;
use ecas_core::obs::{stable_hash, MemoryRecorder};
use ecas_core::sweep::{CacheStats, ExecPolicy, SweepEngine};
use ecas_core::trace::session::SessionTrace;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::{Approach, ExperimentRunner};

use crate::spans::SpanTable;
use crate::sys::UnitClock;
use crate::{Config, Fault, Ops, Traced, Unit};

/// Cells of one pass per Table V row: the base-energy cell plus one per
/// paper approach.
fn cells_per_row() -> u64 {
    1 + Approach::paper_set().len() as u64
}

/// The canonical Table V row seeds are `CANONICAL_SEED + id`; workload
/// seed `s` shifts them by `s * SEED_STRIDE`, so seed 0 is canonical.
const CANONICAL_SEED: u64 = 0xECA5_0900;
const SEED_STRIDE: u64 = 0x1000;

/// The Table V rows with their lengths and vibration levels, seeded from
/// the workload seed.
#[must_use]
pub fn table_v(seed: u64) -> Vec<SessionTrace> {
    let base = CANONICAL_SEED.wrapping_add(seed.wrapping_mul(SEED_STRIDE));
    EvalTraceSpec::table_v()
        .into_iter()
        .map(|spec| EvalTraceSpec {
            seed: base.wrapping_add(u64::from(spec.id)),
            ..spec
        })
        .map(|spec| spec.generate())
        .collect()
}

/// Content hashes of the generated Table V rows.
#[must_use]
pub fn trace_hashes(seed: u64) -> Vec<u64> {
    table_v(seed).iter().map(stable_hash).collect()
}

/// The reference summary: direct `ExperimentRunner::run` and
/// `base_energy` calls through `TraceComparison::from_results`,
/// bypassing the pool and the cache.
fn reference(runner: &ExperimentRunner, sessions: &[SessionTrace]) -> ComparisonSummary {
    let approaches = Approach::paper_set();
    let traces = sessions
        .iter()
        .map(|session| {
            let results: Vec<_> = approaches.iter().map(|a| runner.run(session, a)).collect();
            TraceComparison::from_results(
                session.meta().name.clone(),
                runner.base_energy(session),
                &approaches,
                &results,
            )
        })
        .collect();
    ComparisonSummary { traces }
}

/// Cells of `got` that differ from `want`: a row's base-energy cell and
/// each approach cell count once. A missing or reordered row counts all
/// its cells.
fn wrong_cells(got: &ComparisonSummary, want: &ComparisonSummary) -> u64 {
    let rows = want.traces.len().max(got.traces.len());
    (0..rows)
        .map(|i| match (got.traces.get(i), want.traces.get(i)) {
            (Some(g), Some(w))
                if g.trace == w.trace && g.approaches.len() == w.approaches.len() =>
            {
                let base = u64::from(g.base_energy != w.base_energy);
                let cells = g
                    .approaches
                    .iter()
                    .zip(&w.approaches)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                base + cells
            }
            _ => cells_per_row(),
        })
        .sum()
}

fn delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        corrupt: after.corrupt - before.corrupt,
        write_errors: after.write_errors - before.write_errors,
        from_record: after.from_record - before.from_record,
    }
}

/// Bytes of every file in `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// The warm cache of `grid-warm`.
struct Warm {
    dir: PathBuf,
    /// Wall time of the cold pass that filled it.
    fill_s: f64,
}

pub(crate) struct Grid {
    sessions: Vec<SessionTrace>,
    engine: SweepEngine,
    policy: ExecPolicy,
    reference: ComparisonSummary,
    cells: u64,
    session_s: f64,
    jobs: usize,
    warm: Option<Warm>,
}

impl Grid {
    /// Generates the rows and the reference; with `cache_dir`, fills a
    /// fresh cache there with one cold pass and checks it.
    pub(crate) fn setup(
        config: &Config,
        jobs: usize,
        cache_dir: Option<PathBuf>,
    ) -> Result<Self, String> {
        let sessions = table_v(config.seed);
        let runner = ExperimentRunner::paper();
        let reference = reference(&runner, &sessions);
        let engine = SweepEngine::new(runner);
        let parallel = ExecPolicy::Parallel { jobs };
        let cells = sessions.len() as u64 * cells_per_row();
        let session_s = sessions
            .iter()
            .map(|s| s.meta().video_length.value())
            .sum::<f64>()
            * cells_per_row() as f64;

        let (policy, warm) = match cache_dir {
            None => (parallel, None),
            Some(dir) => {
                let policy = ExecPolicy::cached(&dir, parallel);
                let watch = Stopwatch::start();
                let cold = engine.comparison(&sessions, &Approach::paper_set(), &policy);
                let fill_s = watch.elapsed_seconds();
                let stats = engine.stats();
                if stats.misses != cells || stats.write_errors != 0 || cold != reference {
                    return Err(format!(
                        "grid-warm: the cold fill did not compute and store every cell \
                         correctly ({})",
                        stats.render()
                    ));
                }
                (policy, Some(Warm { dir, fill_s }))
            }
        };
        Ok(Self {
            sessions,
            engine,
            policy,
            reference,
            cells,
            session_s,
            jobs,
            warm,
        })
    }

    /// One pass: the call a unit times.
    fn compare(&self) -> ComparisonSummary {
        self.engine
            .comparison(&self.sessions, &Approach::paper_set(), &self.policy)
    }

    /// Checks a pass against the reference; `before` is the engine's
    /// cache activity before the pass.
    fn check(&self, summary: &ComparisonSummary, before: CacheStats) -> Ops {
        let mut failed = wrong_cells(summary, &self.reference);
        if self.warm.is_some() {
            // Every miss (corrupt entries are misses too) is a cell the
            // warm cache failed to serve.
            failed += delta(self.engine.stats(), before).misses;
        }
        Ops {
            attempted: self.cells,
            failed: failed.min(self.cells),
            session_s: self.session_s,
        }
    }

    /// Sequential probes of the cold path: base energy and the online
    /// approaches as `sim`, Optimal as `optimal`, and the planner's work
    /// counters. `busy_s` is the pass they are compared with.
    fn probe_compute(
        &self,
        unit: u64,
        table: &mut SpanTable,
        busy_s: f64,
    ) -> Vec<(&'static str, f64)> {
        let runner = self.engine.runner();
        let (mut sim_s, mut optimal_s, mut segments) = (0.0, 0.0, 0usize);
        for session in &self.sessions {
            let (tasks, s) = table.time("probe.sim", unit, None, || {
                std::hint::black_box(runner.base_energy(session));
                Approach::paper_set()
                    .iter()
                    .filter(|a| !a.is_offline())
                    .map(|a| runner.run(session, a).tasks.len())
                    .sum::<usize>()
            });
            sim_s += s;
            segments += tasks;
            let (tasks, s) = table.time("probe.optimal", unit, None, || {
                runner.run(session, &Approach::Optimal).tasks.len()
            });
            optimal_s += s;
            segments += tasks;
        }
        let planner = OptimalPlanner::with_eta(runner.simulator().ladder().clone(), runner.eta());
        let recorder = MemoryRecorder::new();
        table.time("probe.plan", unit, None, || {
            for session in &self.sessions {
                std::hint::black_box(planner.plan_with_probe(session, &recorder));
            }
        });
        let work: u64 = recorder
            .metrics()
            .snapshot()
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("abr/"))
            .map(|&(_, v)| v)
            .sum();
        vec![
            ("sim.busy_s", sim_s),
            ("sim.segments", segments as f64),
            ("optimal.busy_s", optimal_s),
            ("optimal.share", optimal_s / (sim_s + optimal_s)),
            ("optimal.work", work as f64),
            (
                "sweep.pool_efficiency",
                (sim_s + optimal_s) / (busy_s * self.jobs as f64),
            ),
        ]
    }

    /// The key-hashing probe and the cache counters of `grid-warm`.
    fn probe_cache(
        &self,
        unit: u64,
        table: &mut SpanTable,
        busy_s: f64,
        stats: CacheStats,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let (_, hash_s) = table.time("probe.hash", unit, None, || {
            for session in &self.sessions {
                std::hint::black_box(stable_hash(session));
            }
        });
        let mut hash_bytes = 0usize;
        for session in &self.sessions {
            hash_bytes += serde_json::to_string(session)
                .map_err(|e| e.to_string())?
                .len();
        }
        let dir = &self
            .warm
            .as_ref()
            .ok_or("grid: no warm cache to probe")?
            .dir;
        let lookups = stats.lookups() as f64;
        Ok(vec![
            ("hash.busy_s", hash_s),
            ("hash.bytes", hash_bytes as f64),
            ("cache.read_s", busy_s - hash_s),
            ("cache.hits", stats.hits as f64),
            ("cache.misses", stats.misses as f64),
            ("cache.corrupt", stats.corrupt as f64),
            ("cache.from_record", stats.from_record as f64),
            (
                "cache.hit_ratio",
                if lookups > 0.0 {
                    stats.hits as f64 / lookups
                } else {
                    0.0
                },
            ),
            (
                "cache.bytes_per_cell",
                dir_bytes(dir)? as f64 / self.cells as f64,
            ),
        ])
    }
}

impl Unit for Grid {
    fn noun(&self) -> &'static str {
        "cells"
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        self.warm
            .as_ref()
            .map(|w| vec![("cache.fill_s", w.fill_s)])
            .unwrap_or_default()
    }

    fn inject(&mut self, fault: Fault) -> Result<(), String> {
        let (Fault::TamperCacheEntry, Some(warm)) = (fault, &self.warm) else {
            return Err(format!("{fault:?} does not apply to this workload"));
        };
        // Truncate the first entry (in name order) to half its length.
        let mut entries: Vec<PathBuf> = fs::read_dir(&warm.dir)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        entries.sort();
        let first = entries
            .first()
            .ok_or("grid-warm: the cache holds no entry")?;
        let bytes = fs::read(first).map_err(|e| e.to_string())?;
        fs::write(first, bytes.get(..bytes.len() / 2).unwrap_or_default())
            .map_err(|e| e.to_string())
    }

    fn run(&mut self, _unit: u64, clock: &mut UnitClock) -> Result<Ops, String> {
        let before = self.engine.stats();
        clock.start()?;
        let summary = self.compare();
        clock.stop()?;
        Ok(self.check(&summary, before))
    }

    fn traced(&mut self, unit: u64, table: &mut SpanTable) -> Result<Traced, String> {
        let before = self.engine.stats();
        let name = if self.warm.is_some() {
            "grid-warm.unit"
        } else {
            "grid.unit"
        };
        let root = table.open(name, unit, None);
        let (summary, busy_s) = table.time("sweep.comparison", unit, Some(root), || self.compare());
        table.close(root);
        let ops = self.check(&summary, before);
        let stats = delta(self.engine.stats(), before);

        let mut layers = vec![("sweep.busy_s", busy_s), ("sweep.cells", self.cells as f64)];
        if self.warm.is_some() {
            layers.extend(self.probe_cache(unit, table, busy_s, stats)?);
        } else {
            layers.extend(self.probe_compute(unit, table, busy_s));
        }
        Ok(Traced { root, ops, layers })
    }
}
