//! The optimal algorithm (Section IV-A, Fig. 4).
//!
//! With full knowledge of the trace, bitrate selection maps to a shortest
//! path on a layered graph: one layer per task, one node per bitrate
//! level, edge weights given by the Eq. (11) cost of entering a level from
//! the previous one. The path from the source to the sink with minimum
//! total weight is the optimal bitrate plan.
//!
//! Per the paper, the plan's per-task conditions (throughput, signal,
//! vibration) are indexed from the trace by the task's playback slot,
//! making the edge weights separable (see `DESIGN.md`). The plan is then
//! *replayed* through the event simulator so that all approaches are
//! measured under identical mechanics.
//!
//! The paper solves the graph with Dijkstra's algorithm, which needs a
//! constant shift because Eq. (11) weights can be negative. Every `s → e`
//! path has the same number of edges, so a forward dynamic program over
//! the `n × m` (tasks × levels) table finds the same argmin with no graph,
//! heap or shift. The unit tests keep the paper's Dijkstra as the
//! reference the program is checked against.

use ecas_obs::{names, Probe, NULL_PROBE};
use ecas_power::task::{TaskConditions, TaskEnergyModel};
use ecas_qoe::model::QoeModel;
use ecas_sensors::vibration::vibration_level_in_window;
use ecas_sim::config::PlayerConfig;
use ecas_sim::controller::{BitrateController, DecisionContext};
use ecas_trace::session::SessionTrace;
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::{Mbps, MetersPerSec2, Seconds};

use crate::objective::ObjectiveWeights;

/// An optimal bitrate plan for one session.
#[derive(Debug, Clone, PartialEq)]
// ecas-lint: allow(pub-surface, reason = "part of the crate's re-exported public API surface")
pub struct OptimalPlan {
    /// The chosen level for each task, in task order.
    pub levels: Vec<LevelIndex>,
    /// The Eq. (11) objective value of the plan.
    pub objective: f64,
}

/// Plans optimal bitrate sequences from full trace knowledge.
#[derive(Debug, Clone)]
pub struct OptimalPlanner {
    weights: ObjectiveWeights,
    energy_model: TaskEnergyModel,
    qoe_model: QoeModel,
    ladder: BitrateLadder,
    config: PlayerConfig,
}

/// Per-task conditions extracted from the trace.
struct TaskContext {
    conditions: TaskConditions,
    vibration: MetersPerSec2,
    e_max: f64,
    q_max: f64,
}

impl OptimalPlanner {
    /// Creates a planner with explicit models.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn new(
        weights: ObjectiveWeights,
        energy_model: TaskEnergyModel,
        qoe_model: QoeModel,
        ladder: BitrateLadder,
        config: PlayerConfig,
    ) -> Self {
        assert!(config.is_valid(), "invalid player config");
        Self {
            weights,
            energy_model,
            qoe_model,
            ladder,
            config,
        }
    }

    /// The paper's configuration (η = 0.5, calibrated models, τ = 2 s,
    /// B = 30 s).
    #[must_use]
    pub fn paper(ladder: BitrateLadder) -> Self {
        let config = PlayerConfig::paper();
        Self::new(
            ObjectiveWeights::paper(),
            TaskEnergyModel::new(
                ecas_power::model::PowerModel::paper(),
                config.segment_duration,
            ),
            QoeModel::paper(),
            ladder,
            config,
        )
    }

    /// The paper's configuration with a custom `η`.
    #[must_use]
    pub fn with_eta(ladder: BitrateLadder, eta: f64) -> Self {
        let config = PlayerConfig::paper();
        Self::new(
            ObjectiveWeights::new(eta),
            TaskEnergyModel::new(
                ecas_power::model::PowerModel::paper(),
                config.segment_duration,
            ),
            QoeModel::paper(),
            ladder,
            config,
        )
    }

    /// Number of tasks for a session.
    fn task_count(&self, session: &SessionTrace) -> usize {
        let tau = self.config.segment_duration.value();
        (session.meta().video_length.value() / tau).ceil() as usize
    }

    /// Extracts the per-task conditions from the trace.
    fn task_contexts(&self, session: &SessionTrace) -> Vec<TaskContext> {
        let tau = self.config.segment_duration;
        let n = self.task_count(session);
        let max_bitrate = self.ladder.highest().bitrate();
        (0..n)
            .map(|i| {
                let start = tau * i as f64;
                let end = start + tau;
                // Mean throughput over the slot (step function average at
                // slot start/end — cheap and adequate at 1 Hz traces).
                let thr = {
                    let samples = session.network().window(start, end);
                    if samples.is_empty() {
                        session.network().throughput_at(start)
                    } else {
                        let sum: f64 = samples.iter().map(|s| s.throughput.value()).sum();
                        Mbps::new(sum / samples.len() as f64)
                    }
                };
                let signal = session.signal().signal_at(start + tau * 0.5);
                // Vibration at playback time, per Eq. 5's trailing window.
                let vib_from = start.saturating_sub(Seconds::new(6.0));
                let vibration = vibration_level_in_window(session.accel(), vib_from, end)
                    .unwrap_or(MetersPerSec2::zero());
                let conditions = TaskConditions {
                    throughput: thr,
                    signal,
                    buffer_ahead: self.config.buffer_threshold,
                };
                let e_max = self
                    .energy_model
                    .max_energy(max_bitrate, conditions)
                    .value();
                let q_max = self
                    .qoe_model
                    .max_segment_qoe(max_bitrate, vibration)
                    .value()
                    .max(1e-6);
                TaskContext {
                    conditions,
                    vibration,
                    e_max,
                    q_max,
                }
            })
            .collect()
    }

    /// Eq. (11) cost of choosing `level` for task `ctx` coming from
    /// `prev`.
    fn cost(&self, ctx: &TaskContext, level: LevelIndex, prev: Option<LevelIndex>) -> f64 {
        let bitrate = self.ladder.bitrate(level);
        let energy = self.energy_model.energy(bitrate, ctx.conditions);
        let prev_bitrate = prev.map(|l| self.ladder.bitrate(l));
        let qoe = self
            .qoe_model
            .segment_qoe(bitrate, ctx.vibration, prev_bitrate, energy.rebuffer);
        self.weights.eta() * (energy.total.value() / ctx.e_max)
            - (1.0 - self.weights.eta()) * (qoe.value() / ctx.q_max)
    }

    /// Computes the optimal plan via the Fig. 4 shortest-path mapping.
    ///
    /// # Panics
    ///
    /// Panics if the session is shorter than one segment, or if an
    /// Eq. (11) cost is NaN.
    #[must_use]
    pub fn plan(&self, session: &SessionTrace) -> OptimalPlan {
        self.plan_with_probe(session, &NULL_PROBE)
    }

    /// [`OptimalPlanner::plan`] reporting the solver's deterministic work
    /// counter (`abr/dp_cells`, `n·m` for `n` tasks and `m` levels) into
    /// `probe`.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`OptimalPlanner::plan`].
    #[must_use]
    pub fn plan_with_probe(&self, session: &SessionTrace, probe: &dyn Probe) -> OptimalPlan {
        let contexts = self.task_contexts(session);
        assert!(!contexts.is_empty(), "session shorter than one segment");
        let plan = self.forward_dp(&contexts);
        probe.add(
            names::ABR_DP_CELLS,
            (contexts.len() * self.ladder.len()) as u64,
        );
        plan
    }

    /// The shortest path through the Fig. 4 lattice as a forward dynamic
    /// program. `best[j]` holds the cheapest Eq. (11) cost of the tasks so
    /// far ending at level `j`, and `back[i·m + j]` the level of task
    /// `i − 1` on that path. Previous levels and the final argmin are
    /// scanned in ascending order with a strict `<`, so an exact tie keeps
    /// the lowest level. The objective is accumulated in task order, as
    /// [`OptimalPlanner::objective_of`] does, so the two agree exactly.
    fn forward_dp(&self, contexts: &[TaskContext]) -> OptimalPlan {
        let m = self.ladder.len();
        let n = contexts.len();
        let mut best = vec![f64::INFINITY; m];
        let mut next = vec![f64::INFINITY; m];
        let mut back = vec![0_usize; n * m];
        if let Some(first) = contexts.first() {
            for (j, cell) in best.iter_mut().enumerate() {
                *cell = self.cost(first, LevelIndex::new(j), None);
            }
        }
        for (ctx, row) in contexts.iter().zip(back.chunks_exact_mut(m)).skip(1) {
            for (j, (cell, from)) in next.iter_mut().zip(row.iter_mut()).enumerate() {
                let level = LevelIndex::new(j);
                (*cell, *from) = (f64::INFINITY, 0);
                for (jp, &prev_cost) in best.iter().enumerate() {
                    let c = prev_cost + self.cost(ctx, level, Some(LevelIndex::new(jp)));
                    assert!(!c.is_nan(), "Eq. (11) cost must not be NaN");
                    if c < *cell {
                        (*cell, *from) = (c, jp);
                    }
                }
            }
            std::mem::swap(&mut best, &mut next);
        }
        let (mut j, mut objective) = (0, f64::INFINITY);
        for (jl, &c) in best.iter().enumerate() {
            assert!(!c.is_nan(), "Eq. (11) cost must not be NaN");
            if c < objective {
                (j, objective) = (jl, c);
            }
        }
        let mut levels = vec![LevelIndex::new(0); n];
        for (level, row) in levels.iter_mut().zip(back.chunks_exact(m)).rev() {
            *level = LevelIndex::new(j);
            j = row.get(j).copied().unwrap_or_default();
        }
        OptimalPlan { levels, objective }
    }

    /// Evaluates the Eq. (11) objective of an arbitrary plan on this
    /// session (for comparisons; the optimal plan minimizes this).
    ///
    /// # Panics
    ///
    /// Panics if `levels` does not have one entry per task.
    #[must_use]
    pub fn objective_of(&self, session: &SessionTrace, levels: &[LevelIndex]) -> f64 {
        let contexts = self.task_contexts(session);
        assert_eq!(
            levels.len(),
            contexts.len(),
            "plan length {} != task count {}",
            levels.len(),
            contexts.len()
        );
        let mut total = 0.0;
        let mut prev: Option<LevelIndex> = None;
        for (ctx, &level) in contexts.iter().zip(levels) {
            total += self.cost(ctx, level, prev);
            prev = Some(level);
        }
        total
    }
}

/// Replays a precomputed plan through the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedController {
    levels: Vec<LevelIndex>,
    label: String,
}

impl PlannedController {
    /// Wraps a plan for replay.
    #[must_use]
    pub fn new(plan: &OptimalPlan) -> Self {
        Self {
            levels: plan.levels.clone(),
            label: "optimal".to_string(),
        }
    }

    /// Wraps an arbitrary level sequence with a custom label.
    #[must_use]
    pub fn from_levels(levels: Vec<LevelIndex>, label: impl Into<String>) -> Self {
        Self {
            levels,
            label: label.into(),
        }
    }
}

impl BitrateController for PlannedController {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        self.levels
            .get(ctx.segment.value())
            .copied()
            // Defensive: a plan shorter than the session falls back to the
            // lowest level rather than panicking mid-replay.
            .unwrap_or_else(|| ctx.ladder.lowest_level())
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;
    use ecas_trace::videos::EvalTraceSpec;

    fn session(ctx: Context, secs: f64, seed: u64) -> SessionTrace {
        SessionGenerator::new(
            "opt",
            ContextSchedule::constant(ctx),
            Seconds::new(secs),
            seed,
        )
        .generate()
    }

    #[test]
    fn plan_covers_every_task() {
        let s = session(Context::Walking, 60.0, 1);
        let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
        let plan = planner.plan(&s);
        assert_eq!(plan.levels.len(), 30);
    }

    #[test]
    fn optimal_beats_every_fixed_plan() {
        let s = session(Context::MovingVehicle, 60.0, 2);
        let ladder = BitrateLadder::evaluation();
        let planner = OptimalPlanner::paper(ladder.clone());
        let plan = planner.plan(&s);
        let n = plan.levels.len();
        for j in 0..ladder.len() {
            let fixed = vec![LevelIndex::new(j); n];
            let fixed_obj = planner.objective_of(&s, &fixed);
            assert!(
                plan.objective <= fixed_obj + 1e-9,
                "optimal {} worse than fixed level {j} ({fixed_obj})",
                plan.objective
            );
        }
    }

    #[test]
    fn objective_of_plan_matches_reported() {
        let s = session(Context::Walking, 40.0, 3);
        let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
        let plan = planner.plan(&s);
        let recomputed = planner.objective_of(&s, &plan.levels);
        assert_eq!(plan.objective.to_bits(), recomputed.to_bits());
    }

    /// The paper's algorithm, kept as the reference the forward DP is
    /// checked against: Dijkstra over the Fig. 4 lattice (node 0 = source,
    /// `1 + i·m + j` = task `i` at level `j`, `1 + n·m` = sink), with every
    /// task edge shifted by one constant so no weight is negative. All
    /// source → sink paths have `n` task edges, so the shift moves every
    /// path cost by `n·shift` and keeps the argmin.
    fn dijkstra_reference(planner: &OptimalPlanner, session: &SessionTrace) -> OptimalPlan {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let contexts = planner.task_contexts(session);
        let (n, m) = (contexts.len(), planner.ladder.len());
        let node = |i: usize, j: usize| 1 + i * m + j;
        let sink = 1 + n * m;
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); sink + 1];
        for j in 0..m {
            let w = planner.cost(&contexts[0], LevelIndex::new(j), None);
            adj[0].push((node(0, j), w));
        }
        for (i, ctx) in contexts.iter().enumerate().skip(1) {
            for jp in 0..m {
                for j in 0..m {
                    let w = planner.cost(ctx, LevelIndex::new(j), Some(LevelIndex::new(jp)));
                    adj[node(i - 1, jp)].push((node(i, j), w));
                }
            }
        }
        let min_w = adj.iter().flatten().map(|&(_, w)| w).fold(0.0, f64::min);
        let shift = -min_w;
        for (_, w) in adj.iter_mut().flatten() {
            *w += shift;
        }
        for j in 0..m {
            adj[node(n - 1, j)].push((sink, 0.0));
        }

        // Distances are non-negative, where the IEEE bit pattern orders
        // like the value, so the heap can key on `to_bits`.
        let mut dist = vec![f64::INFINITY; sink + 1];
        let mut prev = vec![usize::MAX; sink + 1];
        let mut heap = BinaryHeap::new();
        dist[0] = 0.0;
        heap.push(Reverse((0.0_f64.to_bits(), 0)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &adj[u] {
                assert!(w >= 0.0, "Dijkstra needs non-negative weights, got {w}");
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(Reverse((nd.to_bits(), v)));
                }
            }
        }
        let mut levels = Vec::with_capacity(n);
        let mut cur = prev[sink];
        while cur != 0 {
            levels.push(LevelIndex::new((cur - 1) % m));
            cur = prev[cur];
        }
        levels.reverse();
        OptimalPlan {
            levels,
            objective: dist[sink] - shift * n as f64,
        }
    }

    #[test]
    fn forward_dp_matches_paper_dijkstra_on_table_v() {
        for eta in [0.0, 0.5, 1.0] {
            let planner = OptimalPlanner::with_eta(BitrateLadder::evaluation(), eta);
            for spec in EvalTraceSpec::table_v() {
                let s = spec.generate();
                let plan = planner.plan(&s);
                let reference = dijkstra_reference(&planner, &s);
                assert_eq!(plan.levels, reference.levels, "trace {} eta {eta}", spec.id);
                assert!(
                    (plan.objective - reference.objective).abs() < 1e-9,
                    "trace {} eta {eta}: {} vs {}",
                    spec.id,
                    plan.objective,
                    reference.objective
                );
                let recomputed = planner.objective_of(&s, &plan.levels);
                assert_eq!(plan.objective.to_bits(), recomputed.to_bits());
            }
        }
    }

    #[test]
    fn heavy_vibration_pushes_plan_down() {
        let quiet = session(Context::QuietRoom, 120.0, 4);
        let bus = session(Context::MovingVehicle, 120.0, 4);
        let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
        let mean = |plan: &OptimalPlan| {
            plan.levels.iter().map(|l| l.value()).sum::<usize>() as f64 / plan.levels.len() as f64
        };
        let quiet_mean = mean(&planner.plan(&quiet));
        let bus_mean = mean(&planner.plan(&bus));
        assert!(
            bus_mean < quiet_mean,
            "bus plan ({bus_mean}) should sit below quiet plan ({quiet_mean})"
        );
    }

    #[test]
    fn eta_one_plans_all_lowest() {
        let s = session(Context::Walking, 40.0, 5);
        let ladder = BitrateLadder::evaluation();
        let planner = OptimalPlanner::with_eta(ladder.clone(), 1.0);
        let plan = planner.plan(&s);
        assert!(
            plan.levels.iter().all(|&l| l == ladder.lowest_level()),
            "pure-energy plan must pick the bottom everywhere"
        );
    }

    #[test]
    fn eta_zero_plans_high_in_quiet_room() {
        let s = session(Context::QuietRoom, 40.0, 6);
        let ladder = BitrateLadder::evaluation();
        let planner = OptimalPlanner::with_eta(ladder.clone(), 0.0);
        let plan = planner.plan(&s);
        let mean_level =
            plan.levels.iter().map(|l| l.value()).sum::<usize>() as f64 / plan.levels.len() as f64;
        assert!(
            mean_level > 10.0,
            "pure-QoE quiet plan sits high, got {mean_level}"
        );
    }

    #[test]
    fn plan_with_probe_reports_solver_work() {
        let s = session(Context::Walking, 40.0, 8);
        let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
        let recorder = ecas_obs::MemoryRecorder::new();
        let plan = planner.plan_with_probe(&s, &recorder);
        let snapshot = recorder.metrics().snapshot();
        let cells = plan.levels.len() * planner.ladder.len();
        assert_eq!(snapshot.counter(names::ABR_DP_CELLS), Some(cells as u64));
        // The probe is observation-only: the plan itself is unchanged.
        assert_eq!(plan, planner.plan(&s));
    }

    #[test]
    fn planned_controller_replays_plan_through_simulator() {
        let spec = &EvalTraceSpec::table_v()[0];
        let s = spec.generate();
        let ladder = BitrateLadder::evaluation();
        let planner = OptimalPlanner::paper(ladder.clone());
        let plan = planner.plan(&s);
        let sim = ecas_sim::Simulator::paper(ladder);
        let result = sim.run(&s, &mut PlannedController::new(&plan));
        assert_eq!(result.controller, "optimal");
        for (task, &level) in result.tasks.iter().zip(&plan.levels) {
            assert_eq!(task.level, level);
        }
    }

    #[test]
    fn short_plan_falls_back_to_lowest() {
        let s = session(Context::Walking, 20.0, 7);
        let ladder = BitrateLadder::evaluation();
        let mut ctrl =
            PlannedController::from_levels(vec![ladder.highest_level(); 2], "short-plan");
        let sim = ecas_sim::Simulator::paper(ladder.clone());
        let result = sim.run(&s, &mut ctrl);
        assert_eq!(result.tasks.len(), 10);
        assert_eq!(result.tasks[5].level, ladder.lowest_level());
    }
}
