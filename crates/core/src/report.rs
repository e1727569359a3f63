//! Experiment configuration and report rendering.
//!
//! [`Scenario`] is a serializable description of an experiment (which
//! traces, which approaches, which η) that can be stored as JSON and
//! replayed; [`render_markdown`] turns a [`ComparisonSummary`] into a
//! paste-ready Markdown report.

use std::path::Path;

use ecas_sim::{FaultSpec, Simulator};
use ecas_trace::session::SessionTrace;
use ecas_trace::synth::context::{Context, ContextSchedule};
use ecas_trace::synth::SessionGenerator;
use ecas_trace::videos::EvalTraceSpec;
use ecas_types::ladder::BitrateLadder;
use ecas_types::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::approach::Approach;
use crate::metrics::ComparisonSummary;
use crate::runner::ExperimentRunner;
use crate::sweep::{CacheStats, ExecPolicy, SweepEngine};

/// Where a scenario's session traces come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceSelection {
    /// The five Table V traces.
    TableV,
    /// A subset of Table V by 1-based id.
    TableVSubset(Vec<u8>),
    /// Synthetic single-context sessions.
    Synthetic {
        /// The watching context.
        context: Context,
        /// Session length in seconds.
        seconds: f64,
        /// Number of sessions (seeds `base_seed..base_seed + count`).
        count: u32,
        /// First RNG seed.
        base_seed: u64,
    },
}

impl TraceSelection {
    /// Materializes the session traces.
    ///
    /// # Panics
    ///
    /// Panics if a requested Table V id does not exist.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionTrace> {
        match self {
            TraceSelection::TableV => EvalTraceSpec::table_v()
                .iter()
                .map(EvalTraceSpec::generate)
                .collect(),
            TraceSelection::TableVSubset(ids) => {
                let specs = EvalTraceSpec::table_v();
                ids.iter()
                    .map(|id| {
                        specs
                            .iter()
                            .find(|s| s.id == *id)
                            // ecas-lint: allow(panic-safety, reason = "an unknown trace id is a caller bug in a fixed experiment spec; abort loudly")
                            .unwrap_or_else(|| panic!("no Table V trace with id {id}"))
                            .generate()
                    })
                    .collect()
            }
            TraceSelection::Synthetic {
                context,
                seconds,
                count,
                base_seed,
            } => (0..*count)
                .map(|i| {
                    SessionGenerator::new(
                        format!("{context}-{i}"),
                        ContextSchedule::constant(*context),
                        Seconds::new(*seconds),
                        base_seed + u64::from(i),
                    )
                    .generate()
                })
                .collect(),
        }
    }
}

/// A complete, replayable experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable scenario name.
    pub name: String,
    /// The traces to replay.
    pub traces: TraceSelection,
    /// The approaches to compare.
    pub approaches: Vec<Approach>,
    /// The Eq. (11) weighting factor.
    pub eta: f64,
    /// Deterministic link faults to inject, if any.
    #[serde(default)]
    pub fault: Option<FaultSpec>,
    /// Result-cache directory (UTF-8 path) for [`Self::policy`], if any.
    #[serde(default)]
    pub cache_dir: Option<String>,
}

impl Scenario {
    /// The paper's evaluation: Table V × the five approaches at η = 0.5.
    #[must_use]
    pub fn paper_evaluation() -> Self {
        Self::builder("paper-evaluation").build()
    }

    /// Starts a builder with the paper defaults (Table V traces, the five
    /// paper approaches, η = 0.5, no faults, no cache).
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }

    /// The runner this scenario describes: the paper's simulator at the
    /// scenario's η, with the fault spec applied when present.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is outside `[0, 1]`.
    #[must_use]
    pub fn runner(&self) -> ExperimentRunner {
        let mut simulator = Simulator::paper(BitrateLadder::evaluation());
        if let Some(fault) = self.fault {
            simulator = simulator.with_faults(fault);
        }
        ExperimentRunner::new(simulator, self.eta)
    }

    /// The default execution policy: an auto-sized pool, wrapped in a
    /// cache when [`Self::cache_dir`] is set.
    #[must_use]
    pub fn policy(&self) -> ExecPolicy {
        ExecPolicy::from_options(None, self.cache_dir.as_deref().map(Path::new))
    }

    /// Runs the scenario under its default [`Self::policy`].
    ///
    /// # Panics
    ///
    /// Panics if `eta` is outside `[0, 1]` or the approach list omits the
    /// Youtube baseline (required by the comparison metrics).
    #[must_use]
    pub fn run(&self) -> ComparisonSummary {
        self.run_with(&self.policy()).0
    }

    /// Runs the scenario under an explicit policy, returning the summary
    /// together with the cache statistics of the run (all-zero when the
    /// policy does not cache).
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as [`Self::run`].
    #[must_use]
    pub fn run_with(&self, policy: &ExecPolicy) -> (ComparisonSummary, CacheStats) {
        let engine = SweepEngine::new(self.runner());
        let sessions = self.traces.sessions();
        let summary = engine.comparison(&sessions, &self.approaches, policy);
        (summary, engine.stats())
    }
}

/// Builds a [`Scenario`] without struct literals or JSON round-trips.
///
/// # Examples
///
/// ```
/// use ecas_core::{Approach, Scenario, TraceSelection};
///
/// let scenario = Scenario::builder("eta-sweep")
///     .traces(TraceSelection::TableVSubset(vec![1]))
///     .approaches(vec![Approach::Youtube, Approach::Ours])
///     .eta(0.7)
///     .build();
/// assert_eq!(scenario.eta, 0.7);
/// assert!(scenario.fault.is_none());
/// ```
#[derive(Debug, Clone)]
// ecas-lint: allow(pub-surface, reason = "re-exported scenario surface; used by integration tests and future experiment scripts")
pub struct ScenarioBuilder {
    name: String,
    traces: TraceSelection,
    approaches: Vec<Approach>,
    eta: f64,
    fault: Option<FaultSpec>,
    cache_dir: Option<String>,
}

impl ScenarioBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            traces: TraceSelection::TableV,
            approaches: Approach::paper_set().to_vec(),
            eta: 0.5,
            fault: None,
            cache_dir: None,
        }
    }

    /// Sets the trace selection (default: the five Table V traces).
    #[must_use]
    pub fn traces(mut self, traces: TraceSelection) -> Self {
        self.traces = traces;
        self
    }

    /// Sets the approach list (default: the paper's five).
    #[must_use]
    pub fn approaches(mut self, approaches: Vec<Approach>) -> Self {
        self.approaches = approaches;
        self
    }

    /// Sets the Eq. (11) weighting factor (default: 0.5).
    #[must_use]
    pub fn eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }

    /// Injects deterministic link faults (default: none).
    #[must_use]
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables result caching under `dir` for [`Scenario::policy`]
    /// (default: no cache).
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<String>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is outside `[0, 1]` or the approach list is empty.
    #[must_use]
    pub fn build(self) -> Scenario {
        assert!(
            (0.0..=1.0).contains(&self.eta),
            "eta must be in [0, 1], got {}",
            self.eta
        );
        assert!(
            !self.approaches.is_empty(),
            "a scenario needs at least one approach"
        );
        Scenario {
            name: self.name,
            traces: self.traces,
            approaches: self.approaches,
            eta: self.eta,
            fault: self.fault,
            cache_dir: self.cache_dir,
        }
    }
}

/// Renders a comparison summary as a Markdown report.
#[must_use]
pub fn render_markdown(title: &str, summary: &ComparisonSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n\n"));

    out.push_str("## Energy per trace (J)\n\n| trace |");
    let approaches: Vec<Approach> = summary
        .traces
        .first()
        .map(|t| t.approaches.iter().map(|m| m.approach).collect())
        .unwrap_or_default();
    for a in &approaches {
        out.push_str(&format!(" {} |", a.label()));
    }
    out.push_str("\n|---|");
    for _ in &approaches {
        out.push_str("---|");
    }
    out.push('\n');
    for t in &summary.traces {
        out.push_str(&format!("| {} |", t.trace));
        for m in &t.approaches {
            out.push_str(&format!(" {:.0} |", m.energy.value()));
        }
        out.push('\n');
    }

    out.push_str("\n## Mean metrics\n\n");
    out.push_str("| approach | QoE | energy saving | extra saving | QoE degradation |\n");
    out.push_str("|---|---|---|---|---|\n");
    for a in &approaches {
        out.push_str(&format!(
            "| {} | {:.2} | {:.1}% | {:.1}% | {:.2}% |\n",
            a.label(),
            summary.mean_qoe(*a),
            100.0 * summary.mean_energy_saving(*a),
            100.0 * summary.mean_extra_energy_saving(*a),
            100.0 * summary.mean_qoe_degradation(*a),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_selection_generates_count_sessions() {
        let sel = TraceSelection::Synthetic {
            context: Context::Walking,
            seconds: 30.0,
            count: 3,
            base_seed: 7,
        };
        let sessions = sel.sessions();
        assert_eq!(sessions.len(), 3);
        assert_eq!(sessions[0].meta().name, "walking-0");
        assert_ne!(sessions[0], sessions[1]);
    }

    #[test]
    fn table_v_subset_selects_by_id() {
        let sel = TraceSelection::TableVSubset(vec![2, 5]);
        let sessions = sel.sessions();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].meta().name, "trace2");
        assert_eq!(sessions[1].meta().name, "trace5");
    }

    #[test]
    #[should_panic(expected = "no Table V trace")]
    fn unknown_id_panics() {
        let _ = TraceSelection::TableVSubset(vec![9]).sessions();
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let s = Scenario::paper_evaluation();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(s, serde_json::from_str::<Scenario>(&json).unwrap());
    }

    #[test]
    fn scenario_runs_and_renders() {
        let scenario = Scenario::builder("smoke")
            .traces(TraceSelection::Synthetic {
                context: Context::MovingVehicle,
                seconds: 40.0,
                count: 1,
                base_seed: 3,
            })
            .approaches(vec![Approach::Youtube, Approach::Ours])
            .build();
        let summary = scenario.run();
        let md = render_markdown("smoke", &summary);
        assert!(md.contains("# smoke"));
        assert!(md.contains("| Youtube |") || md.contains(" Youtube |"));
        assert!(md.contains("Ours"));
        assert!(md.lines().count() > 8);
    }

    #[test]
    fn builder_defaults_match_paper_evaluation() {
        let built = Scenario::builder("paper-evaluation").build();
        assert_eq!(built, Scenario::paper_evaluation());
        assert_eq!(built.traces, TraceSelection::TableV);
        assert_eq!(built.approaches, Approach::paper_set().to_vec());
        assert!(built.policy().cache_dir().is_none());
    }

    #[test]
    #[should_panic(expected = "eta must be in [0, 1]")]
    fn builder_rejects_out_of_range_eta() {
        let _ = Scenario::builder("bad").eta(1.5).build();
    }

    #[test]
    fn scenario_with_cache_dir_runs_warm_on_second_pass() {
        let dir = std::env::temp_dir().join(format!("ecas-report-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = Scenario::builder("cached-smoke")
            .traces(TraceSelection::Synthetic {
                context: Context::Walking,
                seconds: 30.0,
                count: 1,
                base_seed: 9,
            })
            .approaches(vec![Approach::Youtube, Approach::Ours])
            .cache_dir(dir.to_string_lossy().into_owned())
            .build();
        assert_eq!(scenario.policy().cache_dir(), Some(dir.as_path()));

        let (cold, cold_stats) = scenario.run_with(&scenario.policy());
        // One base-energy cell + two approach cells.
        assert_eq!(cold_stats.misses, 3);
        let (warm, warm_stats) = scenario.run_with(&scenario.policy());
        assert_eq!(warm, cold);
        assert!(warm_stats.all_hits(), "{warm_stats:?}");
        assert_eq!(warm_stats.hits, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
