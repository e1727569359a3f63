//! The registry of evaluated approaches (Section V-A).

use ecas_abr::{
    AdaptiveEta, Bba, Bola, Festive, Mpc, Online, OptimalPlanner, Pid, PlannedController, RateBased,
};
use ecas_sim::controller::{BitrateController, FixedLevel};
use ecas_sim::Simulator;
use ecas_trace::session::SessionTrace;
use serde::{Deserialize, Serialize};

/// One of the evaluated bitrate-adaptation approaches.
///
/// The paper compares the first five; [`Approach::Bola`] and
/// [`Approach::Mpc`] are related-work extensions used in ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Approach {
    /// The original YouTube app: every segment at the ladder maximum.
    Youtube,
    /// FESTIVE (ref \[2\]): throughput-based, harmonic-mean estimate.
    Festive,
    /// BBA (ref \[24\]): buffer-based with a linear buffer→rate map.
    Bba,
    /// The paper's online bitrate selection algorithm (Algorithm 1).
    Ours,
    /// The optimal shortest-path plan (requires the full trace).
    Optimal,
    /// BOLA (ref \[5\]), extension.
    Bola,
    /// Simplified MPC (ref \[17\]), extension.
    Mpc,
    /// PID buffer controller (ref \[4\]), extension.
    Pid,
    /// Last-sample rate matching (strawman), extension.
    RateBased,
    /// Algorithm 1 with vibration-modulated η (our extension).
    AdaptiveEta,
}

impl Approach {
    /// The five approaches of the paper's evaluation, in figure order.
    #[must_use]
    pub fn paper_set() -> [Approach; 5] {
        [
            Approach::Youtube,
            Approach::Festive,
            Approach::Bba,
            Approach::Ours,
            Approach::Optimal,
        ]
    }

    /// All implemented approaches (paper set + extensions).
    #[must_use]
    pub fn all() -> [Approach; 10] {
        [
            Approach::Youtube,
            Approach::Festive,
            Approach::Bba,
            Approach::Ours,
            Approach::Optimal,
            Approach::Bola,
            Approach::Mpc,
            Approach::Pid,
            Approach::RateBased,
            Approach::AdaptiveEta,
        ]
    }

    /// The display name used in figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Approach::Youtube => "Youtube",
            Approach::Festive => "FESTIVE",
            Approach::Bba => "BBA",
            Approach::Ours => "Ours",
            Approach::Optimal => "Optimal",
            Approach::Bola => "BOLA",
            Approach::Mpc => "MPC",
            Approach::Pid => "PID",
            Approach::RateBased => "Rate",
            Approach::AdaptiveEta => "Adaptive",
        }
    }

    /// The approach whose [`Self::label`] is `label`, ignoring ASCII case
    /// (`"rate"`, `"RATE"` and `"Rate"` all name [`Approach::RateBased`]).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Approach> {
        Self::all()
            .into_iter()
            .find(|a| a.label().eq_ignore_ascii_case(label))
    }

    /// Whether the approach needs full future knowledge (only `Optimal`).
    #[must_use]
    pub fn is_offline(&self) -> bool {
        matches!(self, Approach::Optimal)
    }

    /// Instantiates the controller for one session. `Optimal` plans
    /// against the session trace first; every other approach is online and
    /// ignores `session`.
    #[must_use]
    pub fn controller(
        &self,
        simulator: &Simulator,
        session: &SessionTrace,
    ) -> Box<dyn BitrateController> {
        self.controller_with_eta(simulator, session, 0.5)
    }

    /// Like [`Self::controller`] but with an explicit Eq. (11) `η` for the
    /// context-aware approaches (ignored by the baselines).
    #[must_use]
    pub fn controller_with_eta(
        &self,
        simulator: &Simulator,
        session: &SessionTrace,
        eta: f64,
    ) -> Box<dyn BitrateController> {
        match self {
            Approach::Youtube => Box::new(FixedLevel::highest()),
            Approach::Festive => Box::new(Festive::new()),
            Approach::Bba => Box::new(Bba::new()),
            Approach::Ours => Box::new(Online::with_eta(eta)),
            Approach::Optimal => {
                let planner = OptimalPlanner::with_eta(simulator.ladder().clone(), eta);
                let plan = planner.plan(session);
                Box::new(PlannedController::new(&plan))
            }
            Approach::Bola => Box::new(Bola::new()),
            Approach::Mpc => Box::new(Mpc::new()),
            Approach::Pid => Box::new(Pid::new()),
            Approach::RateBased => Box::new(RateBased::new()),
            Approach::AdaptiveEta => Box::new(AdaptiveEta::new()),
        }
    }
}

impl std::fmt::Display for Approach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_trace::videos::EvalTraceSpec;
    use ecas_types::ladder::BitrateLadder;

    #[test]
    fn paper_set_order_matches_figures() {
        let labels: Vec<_> = Approach::paper_set().iter().map(Approach::label).collect();
        assert_eq!(labels, ["Youtube", "FESTIVE", "BBA", "Ours", "Optimal"]);
    }

    #[test]
    fn only_optimal_is_offline() {
        for a in Approach::all() {
            assert_eq!(a.is_offline(), a == Approach::Optimal);
        }
    }

    #[test]
    fn controllers_instantiate_and_name_themselves() {
        let session = EvalTraceSpec::table_v()[0].generate();
        let sim = Simulator::paper(BitrateLadder::evaluation());
        for a in Approach::all() {
            let c = a.controller(&sim, &session);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn serde_roundtrip() {
        let a = Approach::Ours;
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(a, serde_json::from_str::<Approach>(&json).unwrap());
    }
}
