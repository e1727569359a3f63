//! Experiment configuration and report rendering.
//!
//! [`Scenario`] is a serializable description of an experiment (which
//! trace recipes, which approaches, which η) that can be stored as JSON
//! and replayed; [`render_markdown`] turns a [`ComparisonSummary`] into a
//! paste-ready Markdown report.

use std::collections::BTreeSet;
use std::fmt;
use std::io;

use ecas_sim::FaultSpec;
use ecas_trace::session::SessionTrace;
use serde::{Deserialize, Serialize};

use crate::approach::Approach;
use crate::metrics::ComparisonSummary;
use crate::record::RecordedSession;
use crate::runner::{check_paper_inputs, paper_runner, ExperimentRunner};
use crate::sweep::{CacheStats, ExecPolicy, SweepEngine};

/// A complete, replayable experiment: every trace recipe × every approach
/// on the paper simulator at η, under the fault spec when one is set.
///
/// The fields are public, and `..Scenario::paper_evaluation()` fills in
/// the paper's defaults. Nothing is checked until [`Self::sessions`],
/// which every run calls first.
///
/// # Examples
///
/// ```
/// use ecas_core::record::RecordedSession;
/// use ecas_core::{Approach, ExecPolicy, Scenario};
///
/// let scenario = Scenario {
///     traces: vec![RecordedSession::TableV { id: 1 }],
///     approaches: vec![Approach::Youtube, Approach::Ours],
///     eta: 0.7,
///     ..Scenario::paper_evaluation()
/// };
/// let (summary, _) = scenario.run(&ExecPolicy::Sequential).unwrap();
/// assert_eq!(summary.traces[0].trace, "trace1");
/// assert!(Scenario { eta: 1.5, ..scenario }.sessions().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable scenario name.
    pub name: String,
    /// The trace recipes, in report order. Their traces need distinct
    /// names.
    pub traces: Vec<RecordedSession>,
    /// The approaches to compare; Youtube, the baseline, among them.
    pub approaches: Vec<Approach>,
    /// The Eq. (11) weighting factor, in `[0, 1]`.
    pub eta: f64,
    /// Deterministic link faults to inject, if any.
    #[serde(default)]
    pub fault: Option<FaultSpec>,
}

/// Why a [`Scenario`] did not run.
#[derive(Debug)]
pub enum ScenarioError {
    /// The scenario describes no runnable grid: η outside `[0, 1]`, an
    /// invalid fault spec, no Youtube among the approaches, no traces, a
    /// recipe that cannot generate its trace, or two traces with one
    /// name. Found before any cell runs.
    Invalid(String),
    /// An observed run could not write an artifact.
    Io(io::Error),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Invalid(msg) => f.write_str(msg),
            ScenarioError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<io::Error> for ScenarioError {
    fn from(e: io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl Scenario {
    /// The paper's evaluation: the five Table V traces × the five paper
    /// approaches at η = 0.5, fault-free.
    #[must_use]
    pub fn paper_evaluation() -> Self {
        Self {
            name: "paper-evaluation".to_string(),
            traces: (1..=5).map(|id| RecordedSession::TableV { id }).collect(),
            approaches: Approach::paper_set().to_vec(),
            eta: 0.5,
            fault: None,
        }
    }

    /// The runner this scenario describes: the paper's simulator at the
    /// scenario's η, with the fault spec applied when present.
    ///
    /// # Panics
    ///
    /// Panics on an η or a fault spec that [`Self::sessions`] rejects.
    #[must_use]
    pub fn runner(&self) -> ExperimentRunner {
        paper_runner(self.eta, self.fault)
    }

    /// Checks the scenario and generates its traces, each once, in
    /// recipe order.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when η lies outside `[0, 1]`,
    /// the fault spec is invalid, the approaches omit Youtube, there are
    /// no traces, a recipe cannot generate its trace, or two traces share
    /// a name (their events files would collide).
    pub fn sessions(&self) -> Result<Vec<SessionTrace>, ScenarioError> {
        use ScenarioError::Invalid;
        check_paper_inputs(self.eta, self.fault.as_ref()).map_err(Invalid)?;
        if !self.approaches.contains(&Approach::Youtube) {
            let msg = "the approaches must include Youtube, the comparison baseline";
            return Err(Invalid(msg.to_string()));
        }
        if self.traces.is_empty() {
            return Err(Invalid("a scenario needs at least one trace".to_string()));
        }
        let mut names = BTreeSet::new();
        let mut sessions = Vec::with_capacity(self.traces.len());
        for recipe in &self.traces {
            let session = recipe
                .generate()
                .map_err(|e| Invalid(format!("trace {}: {e}", recipe.label())))?;
            let name = &session.meta().name;
            if !names.insert(name.clone()) {
                return Err(Invalid(format!("two traces are named {name}")));
            }
            sessions.push(session);
        }
        Ok(sessions)
    }

    /// Runs the comparison grid under `policy` and returns the summary
    /// with the run's [`CacheStats`] (all zero when the policy does not
    /// cache).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`], before any cell runs, for a
    /// scenario [`Self::sessions`] rejects.
    pub fn run(
        &self,
        policy: &ExecPolicy,
    ) -> Result<(ComparisonSummary, CacheStats), ScenarioError> {
        let sessions = self.sessions()?;
        let engine = SweepEngine::new(self.runner());
        let summary = engine.comparison(&sessions, &self.approaches, policy);
        Ok((summary, engine.stats()))
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
    use ecas_trace::synth::context::Context;

    /// The paper evaluation over `traces`.
    fn with_traces(traces: Vec<RecordedSession>) -> Scenario {
        Scenario {
            traces,
            ..Scenario::paper_evaluation()
        }
    }

    #[test]
    fn synthetic_selection_generates_count_sessions() {
        let context = Context::Walking;
        let traces = (7..10)
            .map(|seed| RecordedSession::Synthetic {
                context,
                seconds: 30.0,
                seed,
            })
            .collect();
        let sessions = with_traces(traces).sessions().unwrap();
        assert_eq!(sessions.len(), 3);
        // Synthetic traces take their recipes' record labels as names.
        assert_eq!(sessions[0].meta().name, "walking-30s-seed7");
        assert_ne!(sessions[0], sessions[1]);
    }

    #[test]
    fn table_v_subset_selects_by_id() {
        let traces = [2, 5].map(|id| RecordedSession::TableV { id }).to_vec();
        let sessions = with_traces(traces).sessions().unwrap();
        let names: Vec<&str> = sessions.iter().map(|s| s.meta().name.as_str()).collect();
        assert_eq!(names, ["trace2", "trace5"]);
    }

    /// The message of the [`ScenarioError::Invalid`] that `scenario` is.
    fn invalid(scenario: &Scenario) -> String {
        match scenario.run(&ExecPolicy::Sequential) {
            Err(ScenarioError::Invalid(msg)) => {
                assert!(scenario.sessions().is_err());
                msg
            }
            other => panic!("expected an invalid scenario, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_eta_is_a_typed_error() {
        for eta in [1.5, -0.1, f64::NAN] {
            let scenario = Scenario {
                eta,
                ..Scenario::paper_evaluation()
            };
            assert_eq!(invalid(&scenario), format!("eta {eta} is outside [0, 1]"));
        }
    }

    #[test]
    fn unknown_table_v_id_is_a_typed_error() {
        let traces = [1, 9].map(|id| RecordedSession::TableV { id }).to_vec();
        let msg = invalid(&with_traces(traces));
        assert!(msg.starts_with("trace tablev9: "), "{msg}");
        assert!(msg.contains("trace id 9 is out of range"), "{msg}");
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let s = Scenario::paper_evaluation();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains(r#""traces":[{"TableV":{"id":1}},"#), "{json}");
        assert_eq!(s, serde_json::from_str::<Scenario>(&json).unwrap());
    }

    #[test]
    fn scenario_runs_and_renders() {
        let scenario = Scenario {
            name: "smoke".to_string(),
            approaches: vec![Approach::Youtube, Approach::Ours],
            ..with_traces(vec![RecordedSession::Synthetic {
                context: Context::MovingVehicle,
                seconds: 40.0,
                seed: 3,
            }])
        };
        let (summary, stats) = scenario.run(&ExecPolicy::parallel()).unwrap();
        assert_eq!(stats, CacheStats::default());
        let md = render_markdown("smoke", &summary);
        assert!(md.contains("# smoke"));
        assert!(md.contains("| Youtube |") || md.contains(" Youtube |"));
        assert!(md.contains("Ours"));
        assert!(md.lines().count() > 8);
    }
}
