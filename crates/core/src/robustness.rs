//! Seed-robustness and fault-robustness analysis.
//!
//! The paper evaluates on five collected traces; a synthetic reproduction
//! can do better and ask how stable the headline numbers are across
//! re-drawn traces. This module re-generates the Table V set under many
//! seeds and reports the mean and standard deviation of each headline
//! metric per approach.
//!
//! It also hosts the fault sweep: the same approaches evaluated under
//! increasing [`ecas_sim::FaultSpec`] intensities, yielding one
//! degradation curve per approach (see [`fault_sweep`]).

use ecas_sim::FaultSpec;
use ecas_trace::session::SessionTrace;
use ecas_trace::videos::EvalTraceSpec;
use ecas_types::units::{Joules, Seconds};
use serde::{Deserialize, Serialize};

use crate::approach::Approach;
use crate::metrics::ComparisonSummary;
use crate::runner::ExperimentRunner;
use crate::sweep::{CacheStats, ExecPolicy, SweepEngine};

/// Mean and standard deviation of one metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
// ecas-lint: allow(pub-surface, reason = "re-exported robustness-report row type; part of the crate's published surface")
pub struct SeedStat {
    /// Mean across seeds.
    pub mean: f64,
    /// Population standard deviation across seeds.
    pub std: f64,
    /// Number of seeds.
    pub n: usize,
}

impl SeedStat {
    fn of(values: &[f64]) -> Self {
        // An empty slice would silently yield NaN mean/std and poison
        // every downstream table; fail loudly at the source instead.
        assert!(
            !values.is_empty(),
            "SeedStat::of requires at least one value"
        );
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        Self {
            mean,
            std: var.sqrt(),
            n,
        }
    }
}

/// Headline metrics of one approach, aggregated across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
// ecas-lint: allow(pub-surface, reason = "re-exported robustness-report row type; part of the crate's published surface")
pub struct RobustnessRow {
    /// The approach.
    pub approach: Approach,
    /// Whole-phone energy saving vs Youtube.
    pub energy_saving: SeedStat,
    /// Extra-energy saving vs Youtube.
    pub extra_energy_saving: SeedStat,
    /// QoE degradation vs Youtube.
    pub qoe_degradation: SeedStat,
}

/// Runs the Table V evaluation across `seeds` trace re-draws under
/// `policy`, returning the rows with the run's [`CacheStats`]. With a
/// cached policy every seed re-draw is memoized across invocations; one
/// engine serves the whole run, so the stats cover all seeds.
///
/// # Examples
///
/// ```
/// use ecas_core::robustness::table_v_robustness;
/// use ecas_core::{Approach, ExecPolicy, ExperimentRunner};
///
/// let runner = ExperimentRunner::paper();
/// let (rows, _) =
///     table_v_robustness(&runner, &[Approach::Youtube], &[0], &ExecPolicy::parallel());
/// assert_eq!(rows[0].energy_saving.mean, 0.0); // Youtube is the baseline
/// ```
///
/// Seed 0 reproduces the canonical traces; other values offset every
/// spec's seed, re-drawing the stochastic link/accelerometer processes
/// while keeping lengths, contexts and vibration targets.
///
/// # Panics
///
/// Panics if `seeds` is empty or `approaches` omits the Youtube baseline.
#[must_use]
pub fn table_v_robustness(
    runner: &ExperimentRunner,
    approaches: &[Approach],
    seeds: &[u64],
    policy: &ExecPolicy,
) -> (Vec<RobustnessRow>, CacheStats) {
    assert!(!seeds.is_empty(), "at least one seed required");
    let engine = SweepEngine::new(runner.clone());
    let mut per_seed: Vec<ComparisonSummary> = Vec::with_capacity(seeds.len());
    for &offset in seeds {
        let sessions: Vec<_> = EvalTraceSpec::table_v()
            .iter()
            .map(|spec| {
                let mut spec = spec.clone();
                spec.seed = spec.seed.wrapping_add(offset.wrapping_mul(0x9E37_79B9));
                spec.generate()
            })
            .collect();
        per_seed.push(engine.comparison(&sessions, approaches, policy));
    }

    let rows = approaches
        .iter()
        .map(|&approach| {
            let collect = |f: &dyn Fn(&ComparisonSummary) -> f64| -> Vec<f64> {
                per_seed.iter().map(f).collect()
            };
            RobustnessRow {
                approach,
                energy_saving: SeedStat::of(&collect(&|s| s.mean_energy_saving(approach))),
                extra_energy_saving: SeedStat::of(&collect(&|s| {
                    s.mean_extra_energy_saving(approach)
                })),
                qoe_degradation: SeedStat::of(&collect(&|s| s.mean_qoe_degradation(approach))),
            }
        })
        .collect();
    (rows, engine.stats())
}

/// One cell of a fault sweep: an approach evaluated under one fault
/// intensity, averaged over the evaluation sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepCell {
    /// The approach.
    pub approach: Approach,
    /// The [`ecas_sim::FaultSpec::scaled`] intensity in `[0, 1]`.
    pub intensity: f64,
    /// Mean per-session QoE.
    pub mean_qoe: f64,
    /// QoE lost relative to the same approach at intensity zero
    /// (positive = the faults hurt).
    pub qoe_degradation: f64,
    /// Mean whole-session energy.
    pub mean_energy: Joules,
    /// Mean rebuffer time per session.
    pub mean_rebuffer: Seconds,
    /// Total download retries across the sessions.
    pub retries: usize,
    /// Total aborted attempts across the sessions.
    pub aborts: usize,
    /// Total segments delivered at the fallback level.
    pub degraded_segments: usize,
    /// Total radio energy wasted on aborted attempts.
    pub wasted_energy: Joules,
    /// Total injected outage time overlapping the sessions.
    pub outage_time: Seconds,
}

/// Sweeps approaches across fault intensities under `policy`, producing
/// one degradation curve per approach (cells are intensity-major,
/// `approaches`-minor — the same order as nested
/// `for intensity { for approach }` loops), with the merged
/// [`CacheStats`] of the run.
///
/// Intensity `0.0` is always evaluated (and prepended if absent) because
/// every cell's [`FaultSweepCell::qoe_degradation`] is measured against
/// the same approach on the fault-free link.
///
/// Each intensity runs its grid through its own [`SweepEngine`], because
/// the fault spec is part of the runner; the spec participates in the
/// cache key, so cached sweeps stay correct across intensities, and the
/// engines' stats are folded together with [`CacheStats::merge`].
///
/// # Examples
///
/// ```
/// use ecas_core::robustness::fault_sweep;
/// use ecas_core::trace::videos::EvalTraceSpec;
/// use ecas_core::{Approach, ExecPolicy, ExperimentRunner};
///
/// let sessions = vec![EvalTraceSpec::table_v()[0].generate()];
/// let (cells, _) = fault_sweep(
///     &ExperimentRunner::paper(),
///     &sessions,
///     &[Approach::Youtube],
///     &[0.5],
///     7,
///     &ExecPolicy::parallel(),
/// );
/// assert_eq!(cells.len(), 2); // intensity 0.0 prepended
/// assert!(cells[0].qoe_degradation.abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `sessions`, `approaches` or `intensities` is empty, or if an
/// intensity lies outside `[0, 1]`.
#[must_use]
pub fn fault_sweep(
    runner: &ExperimentRunner,
    sessions: &[SessionTrace],
    approaches: &[Approach],
    intensities: &[f64],
    seed: u64,
    policy: &ExecPolicy,
) -> (Vec<FaultSweepCell>, CacheStats) {
    assert!(!sessions.is_empty(), "at least one session required");
    assert!(!approaches.is_empty(), "at least one approach required");
    assert!(!intensities.is_empty(), "at least one intensity required");
    assert!(
        intensities.iter().all(|i| (0.0..=1.0).contains(i)),
        "intensities must lie in [0, 1]"
    );

    let mut levels: Vec<f64> = Vec::with_capacity(intensities.len() + 1);
    if intensities.first().copied().unwrap_or(1.0) > 0.0 {
        levels.push(0.0);
    }
    levels.extend_from_slice(intensities);

    let mut cells: Vec<FaultSweepCell> = Vec::with_capacity(levels.len() * approaches.len());
    let mut baseline_qoe: Vec<f64> = Vec::new();
    let mut stats = CacheStats::default();
    for &intensity in &levels {
        let spec = FaultSpec::scaled(intensity, seed);
        let faulty =
            ExperimentRunner::new(runner.simulator().clone().with_faults(spec), runner.eta());
        let engine = SweepEngine::new(faulty);
        let grid = engine.run_grid(sessions, approaches, policy);
        stats.merge(engine.stats());
        for (ai, &approach) in approaches.iter().enumerate() {
            // The grid is sessions-major: approach `ai` occupies every
            // `approaches.len()`-th result starting at offset `ai`.
            let results: Vec<_> = grid
                .iter()
                .skip(ai)
                .step_by(approaches.len())
                .cloned()
                .collect();
            let n = results.len() as f64;
            let mean_qoe = results.iter().map(|r| r.mean_qoe.value()).sum::<f64>() / n;
            if baseline_qoe.len() <= ai {
                // First intensity evaluated is always 0.0 (fault-free).
                baseline_qoe.push(mean_qoe);
            }
            cells.push(FaultSweepCell {
                approach,
                intensity,
                mean_qoe,
                qoe_degradation: baseline_qoe.get(ai).copied().unwrap_or(mean_qoe) - mean_qoe,
                mean_energy: Joules::new(
                    results
                        .iter()
                        .map(|r| r.total_energy().value())
                        .sum::<f64>()
                        / n,
                ),
                mean_rebuffer: Seconds::new(
                    results
                        .iter()
                        .map(|r| r.total_rebuffer.value())
                        .sum::<f64>()
                        / n,
                ),
                retries: results.iter().map(|r| r.retries).sum(),
                aborts: results.iter().map(|r| r.aborts).sum(),
                degraded_segments: results.iter().map(|r| r.degraded_segments).sum(),
                wasted_energy: Joules::new(results.iter().map(|r| r.wasted_energy.value()).sum()),
                outage_time: Seconds::new(results.iter().map(|r| r.outage_time.value()).sum()),
            });
        }
    }
    (cells, stats)
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn seed_stat_of_known_values() {
        let s = SeedStat::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn robustness_over_two_seeds_is_stable() {
        let runner = ExperimentRunner::paper();
        let approaches = [Approach::Youtube, Approach::Ours];
        let (rows, _) = table_v_robustness(&runner, &approaches, &[0, 1], &ExecPolicy::parallel());
        assert_eq!(rows.len(), 2);
        let ours = &rows[1];
        assert_eq!(ours.approach, Approach::Ours);
        // The saving is large in both draws and does not swing wildly.
        assert!(ours.energy_saving.mean > 0.12, "{:?}", ours.energy_saving);
        assert!(
            ours.energy_saving.std < 0.5 * ours.energy_saving.mean,
            "saving unstable: {:?}",
            ours.energy_saving
        );
        // Youtube is its own baseline: exactly zero with zero variance.
        assert_eq!(rows[0].energy_saving.mean, 0.0);
        assert_eq!(rows[0].energy_saving.std, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_seed_list() {
        let runner = ExperimentRunner::paper();
        let _ = table_v_robustness(&runner, &[Approach::Youtube], &[], &ExecPolicy::parallel());
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn seed_stat_rejects_empty_slice() {
        let _ = SeedStat::of(&[]);
    }

    fn sweep_sessions() -> Vec<SessionTrace> {
        use ecas_trace::synth::context::{Context, ContextSchedule};
        use ecas_trace::synth::SessionGenerator;
        vec![SessionGenerator::new(
            "fault-sweep-test",
            ContextSchedule::constant(Context::Walking),
            Seconds::new(60.0),
            11,
        )
        .generate()]
    }

    #[test]
    fn fault_sweep_prepends_baseline_and_is_deterministic() {
        let runner = ExperimentRunner::paper();
        let sessions = sweep_sessions();
        let approaches = [Approach::Youtube, Approach::Ours];
        let policy = ExecPolicy::parallel();
        let a = fault_sweep(&runner, &sessions, &approaches, &[0.6], 3, &policy).0;
        let b = fault_sweep(&runner, &sessions, &approaches, &[0.6], 3, &policy).0;
        assert_eq!(a, b, "same seed and spec must reproduce exactly");
        // Two intensities (0.0 prepended) x two approaches.
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].intensity, 0.0);
        assert_eq!(a[2].intensity, 0.6);
        // The baseline row measures zero degradation by construction.
        assert_eq!(a[0].qoe_degradation, 0.0);
        assert_eq!(a[0].retries, 0);
        assert_eq!(a[0].outage_time, Seconds::zero());
    }

    #[test]
    fn fault_sweep_hostile_link_causes_retries() {
        let runner = ExperimentRunner::paper();
        let sessions = sweep_sessions();
        let policy = ExecPolicy::parallel();
        let (cells, _) = fault_sweep(&runner, &sessions, &[Approach::Youtube], &[1.0], 5, &policy);
        let severe = cells.last().unwrap();
        assert_eq!(severe.intensity, 1.0);
        assert!(
            severe.retries > 0 || severe.outage_time.value() > 0.0,
            "a severe link must visibly perturb the session: {severe:?}"
        );
        assert!(severe.mean_qoe.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one intensity")]
    fn fault_sweep_rejects_empty_intensities() {
        let runner = ExperimentRunner::paper();
        let sessions = sweep_sessions();
        let policy = ExecPolicy::parallel();
        let _ = fault_sweep(&runner, &sessions, &[Approach::Youtube], &[], 1, &policy);
    }
}
