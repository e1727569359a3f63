//! The session replay oracle: independent reconstruction of a
//! [`SessionResult`] from its [`EventLog`], plus a differential check of
//! the online algorithm against the shortest-path optimal.
//!
//! The simulator's download loop is a few hundred lines of interleaved
//! accounting — buffer, stalls, per-attempt radio integration, RRC tails,
//! retry bookkeeping. A bug in any of it silently skews every figure the
//! reproduction reports. This module is the cross-check: [`Oracle::replay`]
//! rebuilds the whole result *from the event log alone* — using only event
//! timestamps, the trace, and the power/QoE models, never the simulator's
//! internal state — and [`Oracle::check_replay`] diffs the reconstruction
//! against the simulator's own answer field by field. The two
//! implementations share the models but not the control flow, so an
//! accounting bug has to be made twice, in two different shapes, to slip
//! through.
//!
//! On top of the replay identity the oracle enforces the accounting
//! invariants documented in `DESIGN.md` § 9 (wall-clock decomposition,
//! energy breakdown totals, wasted ⊆ radio, counter/event agreement) and a
//! *differential* optimality bound: [`Oracle::check_objective`] asserts
//! that the Eq. (11) objective of any realized level sequence is never
//! better than the shortest-path optimum on the same session — the
//! defining property of [`ecas_abr::OptimalPlanner`].
//!
//! The `oracle_fuzz` bench binary drives both checks over randomized
//! scenarios (configs × synthetic traces × fault specs) and shrinks any
//! failure to a minimal reproducer.
//!
//! # Examples
//!
//! ```
//! use ecas_core::oracle::{Oracle, ReplayVerdict};
//! use ecas_core::{Approach, ExperimentRunner};
//! use ecas_core::trace::videos::EvalTraceSpec;
//! use ecas_obs::NULL_PROBE;
//!
//! let session = EvalTraceSpec::table_v()[0].generate();
//! let runner = ExperimentRunner::paper();
//! let (result, log) = runner.run_with_probe(&session, &Approach::Ours, &NULL_PROBE);
//! let oracle = Oracle::new(runner.simulator(), runner.eta());
//! let verdict = oracle.check_replay(&session, &result, Some(&log));
//! assert!(verdict.is_pass(), "{}", verdict.render());
//! let objective = oracle.check_objective(&session, &result).unwrap();
//! assert!(objective.holds(), "{}", objective.render());
//! ```

use ecas_abr::{ObjectiveWeights, OptimalPlanner};
use ecas_obs::{names, Probe, NULL_PROBE};
use ecas_power::task::TaskEnergyModel;
use ecas_sim::radio;
use ecas_sim::{EnergyBreakdown, EventLog, FaultPlan, SessionEvent, SessionResult, Simulator, TaskRecord};
use ecas_trace::session::SessionTrace;
use ecas_types::ids::TaskId;
use ecas_types::ladder::LevelIndex;
use ecas_types::units::{Dbm, Joules, Mbps, MegaBytes, MetersPerSec2, QoeScore, Seconds};

/// Relative tolerance for replay/reference float comparisons.
///
/// The reconstruction reuses the simulator's exact chunking for radio
/// integration, so most energy fields agree bit-for-bit; the tolerance
/// absorbs the few fields (decode slivers at segment boundaries, stall
/// sums vs. interval arithmetic) where the two computations order their
/// floating-point additions differently.
pub(crate) const REPLAY_TOLERANCE: f64 = 1e-9;

/// Relative tolerance for the wall-clock decomposition identity
/// (`wall = startup + played + rebuffer`), whose three right-hand terms
/// each accumulate their own rounding across every advance of the clock.
pub(crate) const WALL_IDENTITY_TOLERANCE: f64 = 1e-6;

/// Slack granted to the online objective in the differential check:
/// `online + OBJECTIVE_TOLERANCE ≥ optimal` must hold (Eq. (11) is
/// minimized, so the optimal plan is a lower bound).
pub(crate) const OBJECTIVE_TOLERANCE: f64 = 1e-9;

/// A structurally broken event log (or a log that does not belong to the
/// session it was replayed against).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    message: String,
}

impl ReplayError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay error: {}", self.message)
    }
}

impl std::error::Error for ReplayError {}

/// One field where the replayed result disagrees with the simulator's.
#[derive(Debug, Clone, PartialEq, Eq)]
// ecas-lint: allow(pub-surface, reason = "re-exported oracle result type; part of the crate's published surface")
pub struct Divergence {
    /// Dotted path of the diverging field (e.g. `energy.radio`,
    /// `tasks[3].rebuffer`, `identity.wall_decomposition`).
    pub field: String,
    /// The simulator's value, rendered for display.
    pub reference: String,
    /// The value reconstructed from the event log.
    pub replayed: String,
    /// What the comparison measured (tolerance, counts, identity).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: simulator {} vs replay {} ({})",
            self.field, self.reference, self.replayed, self.detail
        )
    }
}

/// The outcome of a replay check.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayVerdict {
    /// No event log was recorded for the session, so there is nothing to
    /// replay (the plain [`Simulator::run`] path). An explicit verdict —
    /// not a silent pass — so batch drivers can report coverage honestly.
    Skipped {
        /// Why the check could not run.
        reason: String,
    },
    /// Every comparison agreed within tolerance.
    Pass {
        /// Number of field comparisons and identities that were checked.
        checks: usize,
    },
    /// At least one field diverged (or the log was unreplayable).
    Fail {
        /// The diverging fields, in field order.
        divergences: Vec<Divergence>,
    },
}

impl ReplayVerdict {
    /// Whether the check ran and every comparison agreed.
    #[must_use]
    pub fn is_pass(&self) -> bool {
        matches!(self, ReplayVerdict::Pass { .. })
    }

    /// Whether the check ran and found a divergence.
    #[must_use]
    pub fn is_fail(&self) -> bool {
        matches!(self, ReplayVerdict::Fail { .. })
    }

    /// A human-readable summary (multi-line on failure).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            ReplayVerdict::Skipped { reason } => format!("replay skipped: {reason}"),
            ReplayVerdict::Pass { checks } => format!("replay pass ({checks} checks)"),
            ReplayVerdict::Fail { divergences } => {
                let mut out = format!("replay FAIL ({} divergences)", divergences.len());
                for d in divergences {
                    out.push_str("\n  ");
                    out.push_str(&d.to_string());
                }
                out
            }
        }
    }
}

/// The outcome of the differential objective check.
#[derive(Debug, Clone, Copy, PartialEq)]
// ecas-lint: allow(pub-surface, reason = "re-exported oracle result type; part of the crate's published surface")
pub struct ObjectiveVerdict {
    /// Eq. (11) objective of the realized (online) level sequence.
    pub online: f64,
    /// Objective of the shortest-path optimal plan for the same session.
    pub optimal: f64,
    /// Slack granted to the comparison ([`OBJECTIVE_TOLERANCE`]).
    pub tolerance: f64,
}

impl ObjectiveVerdict {
    /// Whether the optimality bound holds: the online objective is no
    /// better (no smaller) than the optimal one, within tolerance.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.online + self.tolerance >= self.optimal
    }

    /// A human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "objective {}: online {:.9} vs optimal {:.9}",
            if self.holds() { "pass" } else { "FAIL" },
            self.online,
            self.optimal
        )
    }
}

/// The replay checker: reconstructs sessions from event logs against a
/// simulator's configuration and models, and bounds realized objectives
/// by the shortest-path optimum.
#[derive(Debug, Clone, Copy)]
pub struct Oracle<'a> {
    simulator: &'a Simulator,
    eta: f64,
}

impl<'a> Oracle<'a> {
    /// Creates an oracle for `simulator` with the Eq. (11) weight `eta`
    /// used by the differential check.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is outside `[0, 1]`.
    #[must_use]
    pub fn new(simulator: &'a Simulator, eta: f64) -> Self {
        assert!((0.0..=1.0).contains(&eta), "eta must be in [0, 1]");
        Self { simulator, eta }
    }

    /// Reconstructs a complete [`SessionResult`] from the event log alone.
    ///
    /// The reconstruction never consults the simulator's run loop: every
    /// quantity is derived from event timestamps, the session trace, and
    /// the shared power/QoE models. See `DESIGN.md` § 9 for the invariant
    /// each field rests on.
    ///
    /// The returned result carries `controller = "replay"`; the trace name
    /// comes from the session.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] when the log is structurally invalid
    /// (unpaired events, out-of-order downloads, missing playback
    /// markers) or does not match the session's segment count.
    pub fn replay(
        &self,
        session: &SessionTrace,
        log: &EventLog,
    ) -> Result<SessionResult, ReplayError> {
        let config = self.simulator.config();
        let tau = config.segment_duration.value();
        let raw_len = session.meta().video_length.value();
        let n = (raw_len / tau).ceil() as usize;
        if n == 0 {
            return Err(ReplayError::new("session video is shorter than one segment"));
        }
        // The simulator rounds the video up to whole segments; mirror it.
        let video_len = n as f64 * tau;

        let parsed = parse_log(log)?;
        if parsed.tasks.len() != n {
            return Err(ReplayError::new(format!(
                "log contains {} downloads but the session has {} segments",
                parsed.tasks.len(),
                n
            )));
        }
        let playback_start = parsed
            .playback_start
            .ok_or_else(|| ReplayError::new("log has no PlaybackStart event"))?;
        let playback_end = parsed
            .playback_end
            .ok_or_else(|| ReplayError::new("log has no PlaybackEnd event"))?;

        // Same fault plan, same horizon as the simulator's run loop.
        let fault_plan: Option<FaultPlan> = self
            .simulator
            .faults()
            .filter(|spec| spec.is_active())
            .map(|spec| spec.plan(Seconds::new(video_len * 4.0 + 600.0)));
        let plan = fault_plan.as_ref();

        let policy = config.retry;
        let power = self.simulator.power();
        let ladder = self.simulator.ladder();
        let signal = session.signal();
        let tail_power = power.tail_power().value();
        let tail_window = power.tail_seconds().value();

        let mut tasks: Vec<TaskRecord> = Vec::with_capacity(n);
        let mut radio_total = 0.0_f64;
        let mut tail_total = 0.0_f64;
        let mut wasted_total = 0.0_f64;
        let mut decode_total = 0.0_f64;
        let mut downloaded_total = 0.0_f64;
        let mut switches = 0usize;
        let mut aborts_total = 0usize;
        let mut retries_total = 0usize;
        let mut degraded_total = 0usize;
        let mut prev_level: Option<LevelIndex> = None;
        let mut last_burst_end: Option<f64> = None;

        for task in &parsed.tasks {
            let ds = task.download_start;
            let de = task.download_end.ok_or_else(|| {
                ReplayError::new(format!("segment {} download never completed", task.segment))
            })?;
            if de < ds {
                return Err(ReplayError::new(format!(
                    "segment {} download ends before it starts",
                    task.segment
                )));
            }

            // RRC tail across the gap since the previous burst — gap
            // boundaries are exact event times, so this is bit-identical
            // to the simulator's accumulation.
            if config.radio_tail {
                if let Some(end) = last_burst_end {
                    let gap = (ds - end).max(0.0);
                    tail_total += tail_power * gap.min(tail_window);
                }
            }

            // Degradation: the simulator drops to the ladder floor at the
            // abort that exhausts the retry budget.
            let degraded = task
                .aborts
                .iter()
                .any(|&(_, attempt)| attempt >= policy.max_attempts);
            let level = if degraded {
                LevelIndex::new(0)
            } else {
                task.decided_level
            };
            if level.value() >= ladder.len() {
                return Err(ReplayError::new(format!(
                    "segment {} decided level {} outside the {}-level ladder",
                    task.segment,
                    level.value(),
                    ladder.len()
                )));
            }
            let bitrate = ladder.bitrate(level);
            let size = self
                .simulator
                .segment_sizes()
                .and_then(|table| table.get(task.segment, level))
                .unwrap_or_else(|| bitrate.data_over(config.segment_duration));

            // Radio energy: integrate each attempt window with the
            // simulator's exact chunking (network sample boundaries and
            // fault transitions), so per-attempt energies match
            // bit-for-bit.
            let mut task_radio = 0.0_f64;
            for window in attempt_windows(task, de)? {
                let attempt_energy =
                    self.radio_energy_between(session, plan, window.start, window.end)?;
                task_radio += attempt_energy;
                if window.wasted {
                    wasted_total += attempt_energy;
                }
            }
            aborts_total += task.aborts.len();
            retries_total += task.retries.len();
            if degraded {
                degraded_total += 1;
            }
            if config.radio_tail {
                for &(_, _, backoff) in &task.retries {
                    tail_total += tail_power * backoff.min(tail_window);
                }
            }

            // Rebuffer attributed to this task: stalls only ever run
            // inside download windows and end exactly when a download
            // refills the buffer, so interval overlap recovers the
            // simulator's per-task accounting.
            let rebuffer: f64 = parsed
                .stalls
                .iter()
                .map(|&(s, e)| (e.min(de) - s.max(ds)).max(0.0))
                .sum();

            let duration = (de - ds).max(1e-9);
            let observed = Mbps::new(size.value() * 8.0 / duration);
            let avg_signal = Dbm::new(
                0.5 * (signal.signal_at(Seconds::new(ds)).value()
                    + signal.signal_at(Seconds::new(de)).value()),
            );
            let prev_bitrate = prev_level.map(|l| ladder.bitrate(l));
            let qoe = self.simulator.qoe().segment_qoe(
                bitrate,
                task.vibration,
                prev_bitrate,
                Seconds::new(rebuffer),
            );
            if let Some(p) = prev_level {
                if p != level {
                    switches += 1;
                }
            }
            // Decode: each segment plays for exactly one segment duration.
            decode_total += power.decode_power(bitrate).value() * tau;
            downloaded_total += size.value();
            radio_total += task_radio;

            tasks.push(TaskRecord {
                task: TaskId::new(task.segment),
                level,
                bitrate,
                size,
                download_start: Seconds::new(ds),
                download_end: Seconds::new(de),
                throughput: observed,
                signal: avg_signal,
                vibration: task.vibration,
                rebuffer: Seconds::new(rebuffer),
                radio_energy: Joules::new(task_radio),
                qoe,
            });
            prev_level = Some(level);
            last_burst_end = Some(de);
        }

        // Final full-window tail after the last burst.
        if config.radio_tail && last_burst_end.is_some() {
            tail_total += tail_power * tail_window;
        }

        let wall = playback_end;
        let total_rebuffer: f64 = parsed.stalls.iter().map(|&(s, e)| e - s).sum();
        let outage_time = plan.map_or(0.0, |p| {
            p.outage_seconds_between(Seconds::zero(), Seconds::new(wall))
                .value()
        });
        let mean_qoe =
            QoeScore::new(tasks.iter().map(|t| t.qoe.value()).sum::<f64>() / n as f64);
        let energy = EnergyBreakdown {
            screen: Joules::new(power.screen_power().value() * wall),
            decode: Joules::new(decode_total),
            radio: Joules::new(radio_total),
            tail: Joules::new(tail_total),
        };

        Ok(SessionResult {
            controller: "replay".to_string(),
            trace: session.meta().name.clone(),
            tasks,
            energy,
            mean_qoe,
            total_rebuffer: Seconds::new(total_rebuffer),
            startup_delay: Seconds::new(playback_start),
            switches,
            played: Seconds::new(video_len),
            wall_time: Seconds::new(wall),
            downloaded: MegaBytes::new(downloaded_total),
            retries: retries_total,
            aborts: aborts_total,
            degraded_segments: degraded_total,
            outage_time: Seconds::new(outage_time),
            wasted_energy: Joules::new(wasted_total),
        })
    }

    /// Replays the log and diffs the reconstruction against the
    /// simulator's `reference` result, field by field, plus the § 9
    /// accounting identities on the reference itself.
    ///
    /// `log = None` yields [`ReplayVerdict::Skipped`] — an unlogged run
    /// (plain [`Simulator::run`]) has nothing to replay, and that absence
    /// is reported rather than silently passed.
    #[must_use]
    pub fn check_replay(
        &self,
        session: &SessionTrace,
        reference: &SessionResult,
        log: Option<&EventLog>,
    ) -> ReplayVerdict {
        self.check_replay_with_probe(session, reference, log, &NULL_PROBE)
    }

    /// [`Oracle::check_replay`], emitting one `oracle/replay_pass`,
    /// `oracle/replay_fail` or `oracle/replay_skip` counter into `probe`.
    #[must_use]
    pub fn check_replay_with_probe(
        &self,
        session: &SessionTrace,
        reference: &SessionResult,
        log: Option<&EventLog>,
        probe: &dyn Probe,
    ) -> ReplayVerdict {
        let verdict = match log {
            None => ReplayVerdict::Skipped {
                reason: "no event log was recorded for this session".to_string(),
            },
            Some(log) => match self.replay(session, log) {
                Ok(replayed) => diff_results(reference, &replayed),
                Err(e) => ReplayVerdict::Fail {
                    divergences: vec![Divergence {
                        field: "event-log".to_string(),
                        reference: "a replayable session log".to_string(),
                        replayed: e.to_string(),
                        detail: "the log could not be reconstructed at all".to_string(),
                    }],
                },
            },
        };
        let counter = match &verdict {
            ReplayVerdict::Skipped { .. } => names::ORACLE_REPLAY_SKIP,
            ReplayVerdict::Pass { .. } => names::ORACLE_REPLAY_PASS,
            ReplayVerdict::Fail { .. } => names::ORACLE_REPLAY_FAIL,
        };
        probe.add(counter, 1);
        verdict
    }

    /// The Eq. (11) objective of the shortest-path optimal plan for
    /// `session` under this oracle's models and η. Expensive (one full
    /// plan); cache it when checking many approaches on one session
    /// via [`Oracle::check_objective_against`].
    #[must_use]
    pub fn optimal_objective(&self, session: &SessionTrace) -> f64 {
        self.planner().plan(session).objective
    }

    /// The Eq. (11) objective of the level sequence `result` realized.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] when the result's task count does not
    /// match the session's segment count.
    pub fn realized_objective(
        &self,
        session: &SessionTrace,
        result: &SessionResult,
    ) -> Result<f64, ReplayError> {
        let tau = self.simulator.config().segment_duration.value();
        let n = (session.meta().video_length.value() / tau).ceil() as usize;
        if result.tasks.len() != n {
            return Err(ReplayError::new(format!(
                "result has {} tasks but the session has {} segments",
                result.tasks.len(),
                n
            )));
        }
        let levels: Vec<LevelIndex> = result.tasks.iter().map(|t| t.level).collect();
        Ok(self.planner().objective_of(session, &levels))
    }

    /// The differential check: the realized objective must be no better
    /// than the optimal one (Eq. (11) is minimized). Holds for *any*
    /// realized sequence — online decisions, baselines, even degraded
    /// fault-path levels — because the optimal plan minimizes over all
    /// level sequences of the same length.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] when the result's task count does not
    /// match the session's segment count.
    pub fn check_objective(
        &self,
        session: &SessionTrace,
        result: &SessionResult,
    ) -> Result<ObjectiveVerdict, ReplayError> {
        let optimal = self.optimal_objective(session);
        self.check_objective_against(session, result, optimal)
    }

    /// [`Oracle::check_objective`] with a precomputed
    /// [`Oracle::optimal_objective`] (amortizes the plan across many
    /// approaches on the same session).
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] when the result's task count does not
    /// match the session's segment count.
    pub fn check_objective_against(
        &self,
        session: &SessionTrace,
        result: &SessionResult,
        optimal: f64,
    ) -> Result<ObjectiveVerdict, ReplayError> {
        let online = self.realized_objective(session, result)?;
        Ok(ObjectiveVerdict {
            online,
            optimal,
            tolerance: OBJECTIVE_TOLERANCE,
        })
    }

    /// [`Oracle::check_objective`], emitting one `oracle/objective_pass`
    /// or `oracle/objective_fail` counter into `probe`.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] when the result's task count does not
    /// match the session's segment count (no counter is emitted).
    pub fn check_objective_with_probe(
        &self,
        session: &SessionTrace,
        result: &SessionResult,
        probe: &dyn Probe,
    ) -> Result<ObjectiveVerdict, ReplayError> {
        let verdict = self.check_objective(session, result)?;
        probe.add(
            if verdict.holds() {
                names::ORACLE_OBJECTIVE_PASS
            } else {
                names::ORACLE_OBJECTIVE_FAIL
            },
            1,
        );
        Ok(verdict)
    }

    /// The planner used by the differential check: the simulator's own
    /// models and config at this oracle's η.
    fn planner(&self) -> OptimalPlanner {
        let config = self.simulator.config();
        OptimalPlanner::new(
            ObjectiveWeights::new(self.eta),
            TaskEnergyModel::new(*self.simulator.power(), config.segment_duration),
            *self.simulator.qoe(),
            self.simulator.ladder().clone(),
            *config,
        )
    }

    /// Integrates radio power over `[start, end)` through the shared
    /// chunking kernel (`ecas_sim::radio`): a chunk ends at the next
    /// network sample time or fault transition, whichever comes first.
    /// Interior chunk boundaries in the simulator's download loop are
    /// exactly these times (attempt endpoints — completion, abort,
    /// timeout — are the window bounds themselves), so the sum reproduces
    /// the run's accumulation order bit-for-bit.
    fn radio_energy_between(
        &self,
        session: &SessionTrace,
        plan: Option<&FaultPlan>,
        start: f64,
        end: f64,
    ) -> Result<f64, ReplayError> {
        radio::integrate(
            session.network(),
            session.signal(),
            self.simulator.power(),
            plan,
            start,
            end,
        )
        .map(|out| out.energy)
        .map_err(|e| ReplayError::new(e.to_string()))
    }
}

/// One download attempt's wall-clock window within a task.
struct AttemptWindow {
    start: f64,
    end: f64,
    /// Aborted attempts: their radio energy is counted as wasted.
    wasted: bool,
}

/// Derives the per-attempt windows of a task from its abort/retry events:
/// attempt 1 starts at the download start; attempt `i + 1` starts when
/// attempt `i`'s backoff expires; the last attempt ends at the download
/// end, every earlier one at its abort.
fn attempt_windows(task: &ParsedTask, end: f64) -> Result<Vec<AttemptWindow>, ReplayError> {
    if task.retries.len() != task.aborts.len() {
        return Err(ReplayError::new(format!(
            "segment {}: {} aborts but {} retries (each abort must schedule a retry)",
            task.segment,
            task.aborts.len(),
            task.retries.len()
        )));
    }
    let mut windows = Vec::with_capacity(task.aborts.len() + 1);
    let mut start = task.download_start;
    for (&(abort_at, _), &(retry_at, _, backoff)) in task.aborts.iter().zip(&task.retries) {
        if abort_at < start - 1e-9 {
            return Err(ReplayError::new(format!(
                "segment {}: abort at {abort_at} precedes its attempt start {start}",
                task.segment
            )));
        }
        windows.push(AttemptWindow {
            start,
            end: abort_at,
            wasted: true,
        });
        start = retry_at + backoff;
    }
    windows.push(AttemptWindow {
        start,
        end,
        wasted: false,
    });
    Ok(windows)
}

/// One task's events, extracted in log order.
struct ParsedTask {
    segment: usize,
    decided_level: LevelIndex,
    vibration: MetersPerSec2,
    download_start: f64,
    download_end: Option<f64>,
    /// `(at, failed 1-based attempt)` per abort, in order.
    aborts: Vec<(f64, usize)>,
    /// `(at, next 1-based attempt, backoff seconds)` per retry, in order.
    retries: Vec<(f64, usize, f64)>,
}

/// The whole log, structurally validated.
struct ParsedLog {
    tasks: Vec<ParsedTask>,
    playback_start: Option<f64>,
    playback_end: Option<f64>,
    /// Closed stall intervals `(start, end)` in time order.
    stalls: Vec<(f64, f64)>,
}

/// Validates event structure (pairing, ordering, attempt numbering) and
/// groups events per task. Tolerates a single unterminated trailing
/// outage (an injected outage may outlive the session).
fn parse_log(log: &EventLog) -> Result<ParsedLog, ReplayError> {
    let mut tasks: Vec<ParsedTask> = Vec::new();
    let mut pending_decision: Option<(usize, LevelIndex, MetersPerSec2)> = None;
    let mut playback_start: Option<f64> = None;
    let mut playback_end: Option<f64> = None;
    let mut stalls: Vec<(f64, f64)> = Vec::new();
    let mut open_stall: Option<f64> = None;
    let mut outage_open = false;

    for event in log {
        match *event {
            SessionEvent::Decision {
                segment,
                level,
                vibration,
                ..
            } => {
                if pending_decision.is_some() {
                    return Err(ReplayError::new(format!(
                        "segment {}: decision with no download after the previous decision",
                        segment.value()
                    )));
                }
                if tasks.last().is_some_and(|t| t.download_end.is_none()) {
                    return Err(ReplayError::new(format!(
                        "segment {}: decision inside an open download",
                        segment.value()
                    )));
                }
                pending_decision = Some((segment.value(), level, vibration));
            }
            SessionEvent::DownloadStart { at, segment } => {
                let (seg, level, vibration) = pending_decision.take().ok_or_else(|| {
                    ReplayError::new(format!(
                        "segment {}: download started with no decision",
                        segment.value()
                    ))
                })?;
                if seg != segment.value() {
                    return Err(ReplayError::new(format!(
                        "download of segment {} follows a decision for segment {seg}",
                        segment.value()
                    )));
                }
                if segment.value() != tasks.len() {
                    return Err(ReplayError::new(format!(
                        "segment {} downloaded out of order (expected {})",
                        segment.value(),
                        tasks.len()
                    )));
                }
                tasks.push(ParsedTask {
                    segment: seg,
                    decided_level: level,
                    vibration,
                    download_start: at.value(),
                    download_end: None,
                    aborts: Vec::new(),
                    retries: Vec::new(),
                });
            }
            SessionEvent::DownloadAborted {
                at,
                segment,
                attempt,
                ..
            } => {
                let task = open_task(&mut tasks, segment.value(), "abort")?;
                if attempt != task.aborts.len() + 1 {
                    return Err(ReplayError::new(format!(
                        "segment {}: abort of attempt {attempt} after {} earlier aborts",
                        segment.value(),
                        task.aborts.len()
                    )));
                }
                if task.retries.len() != task.aborts.len() {
                    return Err(ReplayError::new(format!(
                        "segment {}: abort before the previous abort's retry",
                        segment.value()
                    )));
                }
                task.aborts.push((at.value(), attempt));
            }
            SessionEvent::Retry {
                at,
                segment,
                attempt,
                backoff,
            } => {
                let task = open_task(&mut tasks, segment.value(), "retry")?;
                if task.retries.len() + 1 != task.aborts.len() {
                    return Err(ReplayError::new(format!(
                        "segment {}: retry with no preceding abort",
                        segment.value()
                    )));
                }
                if attempt != task.aborts.len() + 1 {
                    return Err(ReplayError::new(format!(
                        "segment {}: retry numbered {attempt} after {} aborts",
                        segment.value(),
                        task.aborts.len()
                    )));
                }
                task.retries.push((at.value(), attempt, backoff.value()));
            }
            SessionEvent::DownloadEnd { at, segment, .. } => {
                let task = open_task(&mut tasks, segment.value(), "completion")?;
                if task.retries.len() != task.aborts.len() {
                    return Err(ReplayError::new(format!(
                        "segment {}: download ended between an abort and its retry",
                        segment.value()
                    )));
                }
                task.download_end = Some(at.value());
            }
            SessionEvent::PlaybackStart { at } => {
                if playback_start.is_some() {
                    return Err(ReplayError::new("duplicate PlaybackStart event"));
                }
                playback_start = Some(at.value());
            }
            SessionEvent::PlaybackEnd { at } => {
                if playback_end.is_some() {
                    return Err(ReplayError::new("duplicate PlaybackEnd event"));
                }
                playback_end = Some(at.value());
            }
            SessionEvent::StallStart { at } => {
                if open_stall.is_some() {
                    return Err(ReplayError::new("nested StallStart"));
                }
                open_stall = Some(at.value());
            }
            SessionEvent::StallEnd { at } => {
                let start = open_stall
                    .take()
                    .ok_or_else(|| ReplayError::new("StallEnd with no open stall"))?;
                stalls.push((start, at.value()));
            }
            SessionEvent::OutageStart { .. } => {
                if outage_open {
                    return Err(ReplayError::new("nested OutageStart"));
                }
                outage_open = true;
            }
            SessionEvent::OutageEnd { .. } => {
                if !outage_open {
                    return Err(ReplayError::new("OutageEnd with no open outage"));
                }
                outage_open = false;
            }
            SessionEvent::IdleWait { .. } | SessionEvent::Deferred { .. } => {}
        }
    }

    if pending_decision.is_some() {
        return Err(ReplayError::new("trailing decision with no download"));
    }
    if open_stall.is_some() {
        return Err(ReplayError::new("unterminated stall at end of log"));
    }
    // A trailing open outage is legal: the injected episode can outlive
    // the session, in which case its OutageEnd is never observed.
    Ok(ParsedLog {
        tasks,
        playback_start,
        playback_end,
        stalls,
    })
}

/// The task an abort/retry/completion event must belong to: the latest
/// download, still open, for the same segment.
fn open_task<'t>(
    // ecas-lint: allow(slice-indexing, reason = "slice type annotation, not an index expression")
    tasks: &'t mut [ParsedTask],
    segment: usize,
    what: &str,
) -> Result<&'t mut ParsedTask, ReplayError> {
    tasks
        .last_mut()
        .filter(|t| t.segment == segment && t.download_end.is_none())
        .ok_or_else(|| {
            ReplayError::new(format!("segment {segment}: {what} outside an open download"))
        })
}

/// Accumulates field comparisons into a verdict.
#[derive(Default)]
struct Diff {
    checks: usize,
    divergences: Vec<Divergence>,
}

impl Diff {
    /// Compares floats with a relative tolerance (absolute below 1.0).
    /// NaN on either side always diverges.
    fn float(&mut self, field: &str, reference: f64, replayed: f64, tolerance: f64) {
        self.checks += 1;
        let scale = reference.abs().max(replayed.abs()).max(1.0);
        let within = (replayed - reference).abs() <= tolerance * scale;
        if !within {
            self.divergences.push(Divergence {
                field: field.to_string(),
                reference: format!("{reference:?}"),
                replayed: format!("{replayed:?}"),
                detail: format!("tolerance {tolerance:?} at scale {scale:?}"),
            });
        }
    }

    /// Requires `value ≤ bound` within tolerance (one-sided identity).
    fn float_le(&mut self, field: &str, value: f64, bound: f64, tolerance: f64) {
        self.checks += 1;
        let scale = value.abs().max(bound.abs()).max(1.0);
        let within = value <= bound + tolerance * scale;
        if !within {
            self.divergences.push(Divergence {
                field: field.to_string(),
                reference: format!("≤ {bound:?}"),
                replayed: format!("{value:?}"),
                detail: format!("one-sided bound, tolerance {tolerance:?}"),
            });
        }
    }

    /// Exact count comparison.
    fn count(&mut self, field: &str, reference: usize, replayed: usize) {
        self.checks += 1;
        if reference != replayed {
            self.divergences.push(Divergence {
                field: field.to_string(),
                reference: reference.to_string(),
                replayed: replayed.to_string(),
                detail: "exact count".to_string(),
            });
        }
    }

    /// Exact string comparison.
    fn text(&mut self, field: &str, reference: &str, replayed: &str) {
        self.checks += 1;
        if reference != replayed {
            self.divergences.push(Divergence {
                field: field.to_string(),
                reference: reference.to_string(),
                replayed: replayed.to_string(),
                detail: "exact text".to_string(),
            });
        }
    }

    fn finish(self) -> ReplayVerdict {
        if self.divergences.is_empty() {
            ReplayVerdict::Pass {
                checks: self.checks,
            }
        } else {
            ReplayVerdict::Fail {
                divergences: self.divergences,
            }
        }
    }
}

/// Field-by-field diff of the simulator's result against the replayed
/// one, plus the accounting identities on the reference itself.
/// `pub(crate)` so the corpus `session diff` subsystem compares two
/// recorded references under exactly the oracle's tolerance and fields.
pub(crate) fn diff_results(reference: &SessionResult, replayed: &SessionResult) -> ReplayVerdict {
    let mut d = Diff::default();
    let tol = REPLAY_TOLERANCE;

    d.text("trace", &reference.trace, &replayed.trace);
    d.float("wall_time", reference.wall_time.value(), replayed.wall_time.value(), tol);
    d.float(
        "startup_delay",
        reference.startup_delay.value(),
        replayed.startup_delay.value(),
        tol,
    );
    d.float("played", reference.played.value(), replayed.played.value(), tol);
    d.float(
        "total_rebuffer",
        reference.total_rebuffer.value(),
        replayed.total_rebuffer.value(),
        tol,
    );
    d.float("mean_qoe", reference.mean_qoe.value(), replayed.mean_qoe.value(), tol);
    d.float(
        "downloaded",
        reference.downloaded.value(),
        replayed.downloaded.value(),
        tol,
    );
    d.float(
        "outage_time",
        reference.outage_time.value(),
        replayed.outage_time.value(),
        tol,
    );
    d.float(
        "wasted_energy",
        reference.wasted_energy.value(),
        replayed.wasted_energy.value(),
        tol,
    );
    d.float(
        "energy.screen",
        reference.energy.screen.value(),
        replayed.energy.screen.value(),
        tol,
    );
    d.float(
        "energy.decode",
        reference.energy.decode.value(),
        replayed.energy.decode.value(),
        tol,
    );
    d.float(
        "energy.radio",
        reference.energy.radio.value(),
        replayed.energy.radio.value(),
        tol,
    );
    d.float(
        "energy.tail",
        reference.energy.tail.value(),
        replayed.energy.tail.value(),
        tol,
    );
    d.count("switches", reference.switches, replayed.switches);
    d.count("retries", reference.retries, replayed.retries);
    d.count("aborts", reference.aborts, replayed.aborts);
    d.count(
        "degraded_segments",
        reference.degraded_segments,
        replayed.degraded_segments,
    );
    d.count("tasks.len", reference.tasks.len(), replayed.tasks.len());

    for (i, (r, p)) in reference.tasks.iter().zip(&replayed.tasks).enumerate() {
        d.count(&format!("tasks[{i}].task"), r.task.value(), p.task.value());
        d.count(&format!("tasks[{i}].level"), r.level.value(), p.level.value());
        d.float(&format!("tasks[{i}].bitrate"), r.bitrate.value(), p.bitrate.value(), tol);
        d.float(&format!("tasks[{i}].size"), r.size.value(), p.size.value(), tol);
        d.float(
            &format!("tasks[{i}].download_start"),
            r.download_start.value(),
            p.download_start.value(),
            tol,
        );
        d.float(
            &format!("tasks[{i}].download_end"),
            r.download_end.value(),
            p.download_end.value(),
            tol,
        );
        d.float(
            &format!("tasks[{i}].throughput"),
            r.throughput.value(),
            p.throughput.value(),
            tol,
        );
        d.float(&format!("tasks[{i}].signal"), r.signal.value(), p.signal.value(), tol);
        d.float(
            &format!("tasks[{i}].vibration"),
            r.vibration.value(),
            p.vibration.value(),
            tol,
        );
        d.float(&format!("tasks[{i}].rebuffer"), r.rebuffer.value(), p.rebuffer.value(), tol);
        d.float(
            &format!("tasks[{i}].radio_energy"),
            r.radio_energy.value(),
            p.radio_energy.value(),
            tol,
        );
        d.float(&format!("tasks[{i}].qoe"), r.qoe.value(), p.qoe.value(), tol);
    }

    // Accounting identities on the simulator's own result (§ 9).
    d.float(
        "identity.energy_total",
        reference.total_energy().value(),
        reference.energy.screen.value()
            + reference.energy.decode.value()
            + reference.energy.radio.value()
            + reference.energy.tail.value(),
        tol,
    );
    d.float_le(
        "identity.wasted_within_radio",
        reference.wasted_energy.value(),
        reference.energy.radio.value(),
        tol,
    );
    d.float(
        "identity.wall_decomposition",
        reference.wall_time.value(),
        reference.startup_delay.value()
            + reference.played.value()
            + reference.total_rebuffer.value(),
        WALL_IDENTITY_TOLERANCE,
    );
    d.float(
        "identity.task_radio_sum",
        reference.energy.radio.value(),
        reference.tasks.iter().map(|t| t.radio_energy.value()).sum(),
        tol,
    );
    d.count("identity.retry_per_abort", reference.aborts, reference.retries);

    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::Approach;
    use crate::runner::ExperimentRunner;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;

    fn session(ctx: Context, secs: f64, seed: u64) -> SessionTrace {
        SessionGenerator::new(
            "oracle-test",
            ContextSchedule::constant(ctx),
            Seconds::new(secs),
            seed,
        )
        .generate()
    }

    #[test]
    fn replay_matches_a_logged_run() {
        let runner = ExperimentRunner::paper();
        let s = session(Context::Walking, 60.0, 5);
        let (result, log) =
            runner.run_with_probe(&s, &Approach::Ours, &ecas_obs::NULL_PROBE);
        let oracle = Oracle::new(runner.simulator(), runner.eta());
        let verdict = oracle.check_replay(&s, &result, Some(&log));
        assert!(verdict.is_pass(), "{}", verdict.render());
    }

    #[test]
    fn missing_log_is_skipped_not_passed() {
        let runner = ExperimentRunner::paper();
        let s = session(Context::QuietRoom, 30.0, 1);
        let result = runner.run(&s, &Approach::Youtube);
        let oracle = Oracle::new(runner.simulator(), runner.eta());
        let verdict = oracle.check_replay(&s, &result, None);
        assert!(matches!(verdict, ReplayVerdict::Skipped { .. }));
        assert!(!verdict.is_pass());
        assert!(!verdict.is_fail());
    }

    #[test]
    fn tampered_result_is_caught_and_named() {
        let runner = ExperimentRunner::paper();
        let s = session(Context::Walking, 40.0, 8);
        let (mut result, log) =
            runner.run_with_probe(&s, &Approach::Festive, &ecas_obs::NULL_PROBE);
        result.energy.radio = Joules::new(result.energy.radio.value() + 1.0);
        let oracle = Oracle::new(runner.simulator(), runner.eta());
        let verdict = oracle.check_replay(&s, &result, Some(&log));
        match verdict {
            ReplayVerdict::Fail { ref divergences } => {
                assert!(
                    divergences.iter().any(|d| d.field == "energy.radio"),
                    "{}",
                    verdict.render()
                );
            }
            ref other => panic!("expected Fail, got {}", other.render()),
        }
    }

    #[test]
    fn truncated_log_is_a_structural_failure() {
        let runner = ExperimentRunner::paper();
        let s = session(Context::QuietRoom, 40.0, 3);
        let (result, log) =
            runner.run_with_probe(&s, &Approach::Bba, &ecas_obs::NULL_PROBE);
        // Drop the trailing PlaybackEnd: replay must refuse, not guess.
        let mut truncated = EventLog::new();
        for e in log.iter().take(log.len() - 1) {
            truncated.push(*e);
        }
        let oracle = Oracle::new(runner.simulator(), runner.eta());
        let verdict = oracle.check_replay(&s, &result, Some(&truncated));
        assert!(verdict.is_fail(), "{}", verdict.render());
    }

    #[test]
    fn objective_bound_holds_for_online_and_optimal() {
        let runner = ExperimentRunner::paper();
        let s = session(Context::MovingVehicle, 60.0, 4);
        let oracle = Oracle::new(runner.simulator(), runner.eta());
        let optimal = oracle.optimal_objective(&s);
        for approach in [Approach::Ours, Approach::Optimal, Approach::Youtube] {
            let result = runner.run(&s, &approach);
            let verdict = oracle
                .check_objective_against(&s, &result, optimal)
                .unwrap();
            assert!(verdict.holds(), "{}: {}", approach.label(), verdict.render());
        }
    }

    #[test]
    fn optimal_realizes_its_own_bound() {
        // The Optimal approach replays the planned levels through the
        // simulator, so its realized objective equals the planned one.
        let runner = ExperimentRunner::paper();
        let s = session(Context::Walking, 40.0, 6);
        let oracle = Oracle::new(runner.simulator(), runner.eta());
        let result = runner.run(&s, &Approach::Optimal);
        let verdict = oracle.check_objective(&s, &result).unwrap();
        assert!(
            (verdict.online - verdict.optimal).abs() < 1e-6,
            "{}",
            verdict.render()
        );
    }

    #[test]
    fn probe_counts_verdicts() {
        let runner = ExperimentRunner::paper();
        let s = session(Context::Walking, 30.0, 2);
        let (result, log) =
            runner.run_with_probe(&s, &Approach::Ours, &ecas_obs::NULL_PROBE);
        let oracle = Oracle::new(runner.simulator(), runner.eta());
        let recorder = ecas_obs::MemoryRecorder::new();
        let _ = oracle.check_replay_with_probe(&s, &result, Some(&log), &recorder);
        let _ = oracle.check_replay_with_probe(&s, &result, None, &recorder);
        let _ = oracle.check_objective_with_probe(&s, &result, &recorder);
        let snap = recorder.metrics().snapshot();
        assert_eq!(snap.counter(names::ORACLE_REPLAY_PASS), Some(1));
        assert_eq!(snap.counter(names::ORACLE_REPLAY_SKIP), Some(1));
        assert_eq!(snap.counter(names::ORACLE_OBJECTIVE_PASS), Some(1));
    }

    #[test]
    fn diff_tolerances_are_relative() {
        let mut d = Diff::default();
        d.float("big", 1.0e6, 1.0e6 + 1.0e-4, REPLAY_TOLERANCE);
        assert!(d.divergences.is_empty(), "relative slack at large scale");
        d.float("small", 1.0, 1.0 + 1.0e-4, REPLAY_TOLERANCE);
        assert_eq!(d.divergences.len(), 1, "absolute slack near 1.0 is tight");
        d.float("nan", f64::NAN, f64::NAN, REPLAY_TOLERANCE);
        assert_eq!(d.divergences.len(), 2, "NaN always diverges");
    }
}
