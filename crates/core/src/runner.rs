//! The experiment runner: one approach over one session.

use ecas_abr::InstrumentedBox;
use ecas_obs::{names, Probe, SpanGuard};
use ecas_sim::controller::FixedLevel;
use ecas_sim::events::EventLog;
use ecas_sim::result::SessionResult;
use ecas_sim::Simulator;
use ecas_trace::session::SessionTrace;
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::Joules;

use crate::approach::Approach;

/// Runs approaches over sessions with a shared simulator configuration.
/// Grids of cells go through [`crate::SweepEngine`], which wraps a
/// runner.
///
/// # Examples
///
/// ```
/// use ecas_core::{Approach, ExecPolicy, ExperimentRunner, SweepEngine};
/// use ecas_core::trace::videos::EvalTraceSpec;
///
/// let sessions: Vec<_> = EvalTraceSpec::table_v()[..2]
///     .iter()
///     .map(|s| s.generate())
///     .collect();
/// let runner = ExperimentRunner::paper();
/// let ours = runner.run(&sessions[0], &Approach::Ours);
/// let grid = SweepEngine::new(runner)
///     .run_grid(&sessions, &Approach::paper_set(), &ExecPolicy::parallel());
/// assert_eq!(grid.len(), 2 * 5);
/// assert!(grid.contains(&ours));
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    simulator: Simulator,
    eta: f64,
}

impl ExperimentRunner {
    /// Creates a runner around an explicit simulator.
    #[must_use]
    pub fn new(simulator: Simulator, eta: f64) -> Self {
        assert!((0.0..=1.0).contains(&eta), "eta must be in [0, 1]");
        Self { simulator, eta }
    }

    /// The paper's evaluation setup: 14-level ladder, τ = 2 s, B = 30 s,
    /// η = 0.5.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(Simulator::paper(BitrateLadder::evaluation()), 0.5)
    }

    /// The paper setup with a custom `η` (Pareto sweeps).
    #[must_use]
    pub fn paper_with_eta(eta: f64) -> Self {
        Self::new(Simulator::paper(BitrateLadder::evaluation()), eta)
    }

    /// The underlying simulator.
    #[must_use]
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }

    /// The Eq. (11) weighting factor in use.
    #[must_use]
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Runs one approach on one session.
    #[must_use]
    pub fn run(&self, session: &SessionTrace, approach: &Approach) -> SessionResult {
        let mut controller = approach.controller_with_eta(&self.simulator, session, self.eta);
        self.simulator.run(session, controller.as_mut())
    }

    /// Like [`Self::run`] but instrumented: the whole run is timed under a
    /// `core/run` span, the controller is wrapped so every decision is
    /// timed under `abr/decide/<name>`, the simulator streams its events
    /// and metrics into `probe`, and the session's [`EventLog`] is
    /// returned alongside the result.
    #[must_use]
    pub fn run_with_probe(
        &self,
        session: &SessionTrace,
        approach: &Approach,
        probe: &dyn Probe,
    ) -> (SessionResult, EventLog) {
        let _run_span = SpanGuard::new(probe, names::CORE_RUN_SPAN);
        let controller = approach.controller_with_eta(&self.simulator, session, self.eta);
        let mut instrumented = InstrumentedBox::new(controller, probe);
        self.simulator
            .run_logged_with_probe(session, &mut instrumented, probe)
    }

    /// The session's *base energy* (Fig. 5c): the energy of streaming
    /// every segment at the lowest bitrate — the minimum possible
    /// consumption, covering the screen plus minimal transmission and
    /// processing.
    #[must_use]
    pub fn base_energy(&self, session: &SessionTrace) -> Joules {
        let mut lowest = FixedLevel::new(LevelIndex::new(0));
        self.simulator.run(session, &mut lowest).total_energy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{ExecPolicy, SweepEngine};
    use ecas_trace::videos::EvalTraceSpec;

    fn short_session() -> SessionTrace {
        use ecas_trace::synth::context::{Context, ContextSchedule};
        use ecas_trace::synth::SessionGenerator;
        use ecas_types::units::Seconds;
        SessionGenerator::new(
            "core-test",
            ContextSchedule::constant(Context::MovingVehicle),
            Seconds::new(60.0),
            21,
        )
        .generate()
    }

    #[test]
    fn run_produces_labeled_results() {
        let runner = ExperimentRunner::paper();
        let s = short_session();
        let r = runner.run(&s, &Approach::Festive);
        assert_eq!(r.controller, "festive");
        assert_eq!(r.trace, "core-test");
    }

    #[test]
    fn parallel_grid_matches_sequential() {
        let engine = SweepEngine::new(ExperimentRunner::paper());
        let sessions = vec![short_session(), EvalTraceSpec::table_v()[0].generate()];
        let approaches = [Approach::Youtube, Approach::Ours, Approach::Optimal];
        let seq = engine.run_grid(&sessions, &approaches, &ExecPolicy::Sequential);
        let par = engine.run_grid(&sessions, &approaches, &ExecPolicy::parallel());
        assert_eq!(seq, par);
    }

    #[test]
    fn probed_run_matches_plain_run() {
        let runner = ExperimentRunner::paper();
        let s = short_session();
        let recorder = ecas_obs::MemoryRecorder::new();
        let (probed, log) = runner.run_with_probe(&s, &Approach::Ours, &recorder);
        let plain = runner.run(&s, &Approach::Ours);
        assert_eq!(probed, plain);
        assert_eq!(recorder.len(), log.len());
        let snap = recorder.metrics().snapshot();
        assert_eq!(snap.span("core/run").unwrap().count, 1);
        assert!(snap.span("abr/decide/ours").unwrap().count >= log.decisions().len() as u64);
    }

    #[test]
    fn base_energy_below_all_approaches() {
        let runner = ExperimentRunner::paper();
        let s = short_session();
        let base = runner.base_energy(&s);
        for a in Approach::paper_set() {
            let r = runner.run(&s, &a);
            assert!(
                r.total_energy() >= base,
                "{} used less than base energy",
                a.label()
            );
        }
    }
}
