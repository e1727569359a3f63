//! The trace-driven player simulator.

use ecas_obs::{names, Probe, SpanGuard, NULL_PROBE};
use ecas_power::model::PowerModel;
use ecas_qoe::model::QoeModel;
use ecas_sensors::vibration::VibrationEstimator;
use ecas_trace::session::SessionTrace;
use ecas_trace::vbr::SegmentSizes;
use ecas_types::ids::{SegmentIndex, TaskId};
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::{Dbm, Joules, Mbps, MegaBytes, MetersPerSec2, QoeScore, Seconds};

use crate::config::PlayerConfig;
use crate::controller::{BitrateController, Decision, DecisionContext, ThroughputObservation};
use crate::events::{AbortReason, EventLog, SessionEvent};
use crate::fault::{FaultPlan, FaultSpec};
use crate::radio;
use crate::result::{EnergyBreakdown, SessionResult, TaskRecord};

/// Floor applied to trace throughput so downloads always terminate.
///
/// Public so the replay oracle (`ecas-core::oracle`) can re-derive the
/// effective link rate the download loop actually used.
pub(crate) const MIN_THROUGHPUT_MBPS: f64 = 0.01;

/// Deferral waits shorter than this are pointless (the re-decide loop
/// would spin); a deferring controller with less buffer slack than the
/// floor is forced to pick immediately instead.
const DEFER_FLOOR: f64 = 0.05;

/// The simulator: player config + ladder + power and QoE models.
///
/// See the crate documentation for the player model; construct with
/// [`Simulator::paper`] for the paper's setup.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: PlayerConfig,
    ladder: BitrateLadder,
    power: PowerModel,
    qoe: QoeModel,
    segment_sizes: Option<SegmentSizes>,
    faults: Option<FaultSpec>,
}

/// Mutable playback state during a run (times in raw seconds).
struct PlayState<'p> {
    /// Instrumentation sink (the null probe when nobody listens).
    probe: &'p dyn Probe,
    playing: bool,
    finished: bool,
    in_stall: bool,
    started_at: Option<f64>,
    playhead: f64,
    buffer: f64,
    stall_total: f64,
    stall_this_task: f64,
    decode_energy: f64,
    video_len: f64,
    tau: f64,
    /// Chosen bitrate (Mbps value) per downloaded segment, for decode power.
    bitrates: Vec<f64>,
    /// Event log borrowed from the caller, when one was asked for. A
    /// borrow (not an owned `Option<EventLog>`) so logging entry points
    /// cannot lose the log and silently hand back an empty one.
    events: Option<&'p mut EventLog>,
    /// Timestamp of the latest logged event, for monotonic late closes.
    last_event_at: f64,
}

impl<'p> PlayState<'p> {
    fn new(
        video_len: f64,
        tau: f64,
        probe: &'p dyn Probe,
        events: Option<&'p mut EventLog>,
    ) -> Self {
        Self {
            probe,
            playing: false,
            finished: false,
            in_stall: false,
            started_at: None,
            playhead: 0.0,
            buffer: 0.0,
            stall_total: 0.0,
            stall_this_task: 0.0,
            decode_energy: 0.0,
            video_len,
            tau,
            bitrates: Vec::new(),
            events,
            last_event_at: 0.0,
        }
    }

    // Out of line on purpose: inlined into its 14 call sites in
    // `run_inner`, it slowed the null-probe simulator loop by ~9% on a
    // 2-core x86-64 host (`perf` `sim_loop`, perfbench `grid`).
    #[inline(never)]
    fn log(&mut self, event: SessionEvent) {
        self.last_event_at = self.last_event_at.max(event.at().value());
        if let Some(log) = self.events.as_deref_mut() {
            log.push(event);
        }
    }

    /// Bitrate of the segment under the playhead.
    ///
    /// # Panics
    ///
    /// Panics if no segment has been downloaded yet. The play loop only
    /// advances the playhead while `buffer > 0`, which requires at least
    /// one downloaded segment; a silent `0.0` fallback here would corrupt
    /// decode energy instead of surfacing the logic error.
    fn playing_bitrate(&self) -> f64 {
        let idx = ((self.playhead / self.tau) as usize).min(self.bitrates.len().saturating_sub(1));
        self.bitrates
            .get(idx)
            .copied()
            // ecas-lint: allow(panic-safety, reason = "playback requires a downloaded segment (buffer > 0); an empty bitrate list here is a simulator logic error, not a recoverable state")
            .expect("playback advanced with no downloaded segment")
    }
}

/// Logs the end of an injected outage once the clock has passed it. The
/// event time is clamped forward to the latest logged event so the log
/// stays time-ordered even when the end is detected late (after a
/// backoff or idle wait advanced playback past it).
fn close_outage(state: &mut PlayState, open: &mut Option<f64>, now: f64) {
    if let Some(end) = *open {
        if now >= end - 1e-12 {
            let at = end.max(state.last_event_at);
            state.log(SessionEvent::OutageEnd {
                at: Seconds::new(at),
            });
            *open = None;
        }
    }
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`PlayerConfig::is_valid`] or if `ladder`
    /// has no levels. ([`BitrateLadder`] constructors and its serde path
    /// already reject empty ladders; this assert keeps the invariant
    /// local so the player never has to invent a 0.0-bps fallback.)
    #[must_use]
    pub fn new(
        config: PlayerConfig,
        ladder: BitrateLadder,
        power: PowerModel,
        qoe: QoeModel,
    ) -> Self {
        assert!(config.is_valid(), "invalid player config");
        assert!(!ladder.is_empty(), "bitrate ladder must not be empty");
        Self {
            config,
            ladder,
            power,
            qoe,
            segment_sizes: None,
            faults: None,
        }
    }

    /// Uses a variable-bitrate segment-size table instead of the default
    /// constant-bitrate sizes (`bitrate · τ`). Segments beyond the table
    /// fall back to constant-bitrate sizes.
    ///
    /// Download sizes, timings and energy follow the table; perceptual
    /// quality stays keyed to the representation's nominal bitrate, the
    /// standard assumption in VBR ABR studies.
    #[must_use]
    pub fn with_segment_sizes(mut self, sizes: SegmentSizes) -> Self {
        self.segment_sizes = Some(sizes);
        self
    }

    /// Injects deterministic link faults (outages, throughput collapses,
    /// mid-flight download failures) into every run. The download loop
    /// survives them with the configured [`crate::config::RetryPolicy`]:
    /// bounded retries with exponential backoff, then graceful
    /// degradation to the lowest ladder level. A spec that
    /// [`FaultSpec::is_active`] returns `false` for leaves the simulator
    /// byte-identical to a fault-free one.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FaultSpec::is_valid`].
    #[must_use]
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        assert!(spec.is_valid(), "invalid fault spec: {spec:?}");
        self.faults = Some(spec);
        self
    }

    /// The fault spec in effect, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultSpec> {
        self.faults.as_ref()
    }

    /// The variable-bitrate segment-size table in effect, if any.
    #[must_use]
    pub fn segment_sizes(&self) -> Option<&SegmentSizes> {
        self.segment_sizes.as_ref()
    }

    /// The paper's setup: τ = 2 s, B = 30 s, calibrated power and QoE
    /// models.
    #[must_use]
    pub fn paper(ladder: BitrateLadder) -> Self {
        Self::new(
            PlayerConfig::paper(),
            ladder,
            PowerModel::paper(),
            QoeModel::paper(),
        )
    }

    /// The player configuration.
    #[must_use]
    pub fn config(&self) -> &PlayerConfig {
        &self.config
    }

    /// The bitrate ladder.
    #[must_use]
    pub fn ladder(&self) -> &BitrateLadder {
        &self.ladder
    }

    /// The power model.
    #[must_use]
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The QoE model.
    #[must_use]
    pub fn qoe(&self) -> &QoeModel {
        &self.qoe
    }

    /// Advances playback from `from` to `to`, draining the buffer,
    /// accruing decode energy and recording stalls.
    fn advance(&self, state: &mut PlayState, from: f64, to: f64) {
        debug_assert!(to >= from - 1e-9, "time went backwards: {from} -> {to}");
        let mut t = from;
        while t < to - 1e-12 {
            if !state.playing || state.finished {
                // Startup wait or video complete: time just passes.
                return;
            }
            if state.buffer <= 1e-12 {
                // Stall until more data arrives (i.e. until `to`).
                if !state.in_stall {
                    state.in_stall = true;
                    state.probe.add(names::SIM_STALLS, 1);
                    state.log(SessionEvent::StallStart {
                        at: Seconds::new(t),
                    });
                }
                let stall = to - t;
                state.stall_total += stall;
                state.stall_this_task += stall;
                state.buffer = 0.0;
                return;
            }
            if state.in_stall {
                state.in_stall = false;
                state.log(SessionEvent::StallEnd {
                    at: Seconds::new(t),
                });
            }
            // Play until `to`, buffer exhaustion, or the next segment
            // boundary (decode power changes per segment).
            let boundary = (state.playhead / state.tau).floor() * state.tau + state.tau;
            let dt = (to - t)
                .min(state.buffer)
                .min((boundary - state.playhead).max(1e-9));
            let bitrate = state.playing_bitrate();
            state.decode_energy += self.power.decode_power(Mbps::new(bitrate)).value() * dt;
            state.playhead += dt;
            state.buffer -= dt;
            t += dt;
            if state.playhead >= state.video_len - 1e-9 {
                state.finished = true;
                state.buffer = 0.0;
                state.log(SessionEvent::PlaybackEnd {
                    at: Seconds::new(t),
                });
                return;
            }
        }
    }

    /// Runs one session under `controller`.
    ///
    /// # Panics
    ///
    /// Panics if the trace video length is shorter than one segment.
    #[must_use]
    pub fn run(
        &self,
        session: &SessionTrace,
        controller: &mut dyn BitrateController,
    ) -> SessionResult {
        self.run_inner(session, controller, None, &NULL_PROBE)
    }

    /// Like [`Self::run`] but also records a timestamped [`EventLog`] of
    /// the whole session (decisions, downloads, stalls, idle waits).
    #[must_use]
    pub fn run_logged(
        &self,
        session: &SessionTrace,
        controller: &mut dyn BitrateController,
    ) -> (SessionResult, EventLog) {
        self.run_with_probe(session, controller, &NULL_PROBE)
    }

    /// Like [`Self::run_logged`] but also streams instrumentation into
    /// `probe`: wall-clock spans for every decision and download, counters
    /// for segments, stalls, deferrals, idle waits and level switches,
    /// throughput/stall histograms, and final per-component energy gauges.
    /// The session's events go only to the returned [`EventLog`].
    ///
    /// The log is owned by this method and handed to the run by mutable
    /// borrow, so a logging run can never come back without its log.
    #[must_use]
    pub fn run_with_probe(
        &self,
        session: &SessionTrace,
        controller: &mut dyn BitrateController,
        probe: &dyn Probe,
    ) -> (SessionResult, EventLog) {
        let mut log = EventLog::new();
        let result = self.run_inner(session, controller, Some(&mut log), probe);
        (result, log)
    }

    fn run_inner(
        &self,
        session: &SessionTrace,
        controller: &mut dyn BitrateController,
        events: Option<&mut EventLog>,
        probe: &dyn Probe,
    ) -> SessionResult {
        let tau = self.config.segment_duration.value();
        let video_len = session.meta().video_length.value();
        let n_segments = (video_len / tau).ceil() as usize;
        assert!(n_segments > 0, "video shorter than one segment");
        // Treat the video as exactly n_segments * tau long so the buffer
        // arithmetic stays exact.
        let video_len = n_segments as f64 * tau;

        let network = session.network();
        let signal = session.signal();

        let mut state = PlayState::new(video_len, tau, probe, events);
        let mut estimator = VibrationEstimator::new(session.accel().as_slice());

        let mut history: Vec<ThroughputObservation> = Vec::with_capacity(n_segments);
        let mut tasks: Vec<TaskRecord> = Vec::with_capacity(n_segments);
        let mut radio_energy_total = 0.0;
        let mut tail_energy_total = 0.0;
        let mut downloaded_total = 0.0;
        let mut last_burst_end: Option<f64> = None;
        let mut prev_level: Option<LevelIndex> = None;
        let mut switches = 0usize;

        // Fault plan: expanded once per run over a horizon generously past
        // the worst-case session length; beyond it the link is fault-free,
        // which bounds every retry loop. An inactive spec keeps the run
        // byte-identical to a fault-free simulator.
        let fault_plan: Option<FaultPlan> = self
            .faults
            .as_ref()
            .filter(|spec| spec.is_active())
            .map(|spec| spec.plan(Seconds::new(video_len * 4.0 + 600.0)));
        let fault = fault_plan.as_ref();
        let policy = self.config.retry;
        let mut retries_total = 0usize;
        let mut aborts_total = 0usize;
        let mut degraded_total = 0usize;
        let mut wasted_energy_total = 0.0f64;
        let mut open_outage: Option<f64> = None;

        let mut t = 0.0f64;
        let b_max = self.config.buffer_threshold.value();

        for seg in 0..n_segments {
            // Close any outage that elapsed while the player was busy
            // elsewhere before this segment's events are logged.
            close_outage(&mut state, &mut open_outage, t);

            // 1. If the buffer is too full for another segment, idle.
            if state.buffer > b_max - tau {
                let wait = state.buffer - (b_max - tau);
                probe.add(names::SIM_IDLE_WAITS, 1);
                state.log(SessionEvent::IdleWait {
                    at: Seconds::new(t),
                    duration: Seconds::new(wait),
                });
                self.advance(&mut state, t, t + wait);
                t += wait;
            }

            // 2+3. Read the vibration level at `t` and ask the
            // controller; honor deferrals (re-deciding after each wait)
            // while the buffer affords them.
            let mut vibration;
            let decision_span = SpanGuard::new(probe, names::SIM_DECISION_SPAN);
            let level = loop {
                close_outage(&mut state, &mut open_outage, t);
                let now = Seconds::new(t);
                vibration = estimator.level_at(now);
                let ctx = DecisionContext {
                    segment: SegmentIndex::new(seg),
                    total_segments: n_segments,
                    now,
                    buffer_level: Seconds::new(state.buffer.max(0.0)),
                    prev_level,
                    ladder: &self.ladder,
                    segment_duration: self.config.segment_duration,
                    buffer_threshold: self.config.buffer_threshold,
                    playback_started: state.playing,
                    history: &history,
                    vibration,
                    signal: signal.signal_at(now),
                };
                match controller.decide(&ctx) {
                    Decision::Download(level) => break level,
                    Decision::Defer(_)
                        if !state.playing || state.buffer - tau <= DEFER_FLOOR + 1e-9 =>
                    {
                        // Cannot afford a meaningful wait (slack below the
                        // deferral floor): force an immediate pick. The
                        // sub-floor case matters — clamping the wait with
                        // `min > max` would panic.
                        break controller.select(&ctx);
                    }
                    Decision::Defer(wait) => {
                        // Waiting is bounded by the buffer slack so a
                        // deferral can never cause a stall by itself. The
                        // min/max pair is ordered for every slack value,
                        // unlike `clamp(floor, slack)`.
                        let slack = state.buffer - tau;
                        let wait = wait.value().min(slack).max(slack.min(DEFER_FLOOR));
                        probe.add(names::SIM_DEFERRALS, 1);
                        state.log(SessionEvent::Deferred {
                            at: Seconds::new(t),
                            duration: Seconds::new(wait),
                        });
                        self.advance(&mut state, t, t + wait);
                        t += wait;
                    }
                }
            };
            drop(decision_span);
            assert!(
                level.value() < self.ladder.len(),
                "controller {} returned out-of-range level {level}",
                controller.name()
            );
            let bitrate = self.ladder.bitrate(level);
            let size = self
                .segment_sizes
                .as_ref()
                .and_then(|t| t.get(seg, level))
                .unwrap_or_else(|| bitrate.data_over(self.config.segment_duration));
            state.log(SessionEvent::Decision {
                at: Seconds::new(t),
                segment: SegmentIndex::new(seg),
                level,
                vibration: vibration.unwrap_or(MetersPerSec2::zero()),
                buffer: Seconds::new(state.buffer.max(0.0)),
            });

            // 4. Tail energy between the previous burst and this one.
            if self.config.radio_tail {
                if let Some(end) = last_burst_end {
                    let gap = (t - end).max(0.0);
                    let tail = gap.min(self.power.tail_seconds().value());
                    tail_energy_total += self.power.tail_power().value() * tail;
                }
            }

            // 5. Download the segment through the trace. Under fault
            // injection this is a bounded retry/timeout/backoff state
            // machine: an attempt that hits an injected failure or
            // outlives the per-attempt budget is aborted and retried with
            // exponential backoff; once the retry budget is spent the
            // player degrades gracefully to the lowest ladder level
            // (whose attempts run without timeouts or injected failures,
            // so every session terminates).
            let download_start = t;
            state.log(SessionEvent::DownloadStart {
                at: Seconds::new(t),
                segment: SegmentIndex::new(seg),
            });
            state.stall_this_task = 0.0;
            let mut level = level;
            let mut bitrate = bitrate;
            let mut size = size;
            let mut remaining_mb = size.value();
            let mut radio_energy_task = 0.0;
            let mut attempt = 1usize;
            let mut attempt_start = t;
            let mut degraded = false;
            let download_span = SpanGuard::new(probe, names::SIM_DOWNLOAD_SPAN);
            'attempts: loop {
                let deadline = (fault.is_some() && !degraded)
                    .then(|| attempt_start + policy.attempt_timeout.value());
                // A doomed attempt resets once `frac` of the segment's
                // bytes are through (fast links fail mid-transfer) or at
                // `frac` of the time budget (stuck links fail while
                // waiting), whichever the clock reaches first.
                let doomed = if degraded {
                    None
                } else {
                    fault.and_then(|p| p.attempt_failure(seg, attempt))
                };
                let doomed_time =
                    doomed.map(|frac| attempt_start + frac * policy.attempt_timeout.value());
                let fail_floor_mb = doomed.map(|frac| (1.0 - frac) * size.value());
                let mut attempt_energy = 0.0f64;
                let mut attempt_chunks = 0u64;
                let mut failed_injected = false;
                while remaining_mb > 1e-12 {
                    close_outage(&mut state, &mut open_outage, t);
                    if fail_floor_mb.is_some_and(|floor| remaining_mb <= floor + 1e-12)
                        || doomed_time.is_some_and(|d| t >= d - 1e-9)
                    {
                        failed_injected = true;
                        break;
                    }
                    if deadline.is_some_and(|d| t >= d - 1e-9) {
                        break;
                    }
                    let step = radio::step_at(network, fault, t);
                    if step.factor <= 0.0 && open_outage.is_none() {
                        if let Some((_, end)) =
                            fault.and_then(|p| p.outage_containing(Seconds::new(t)))
                        {
                            probe.add(names::SIM_OUTAGES, 1);
                            state.log(SessionEvent::OutageStart {
                                at: Seconds::new(t),
                            });
                            open_outage = Some(end.value());
                        }
                    }
                    let hard_stop = deadline
                        .unwrap_or(f64::INFINITY)
                        .min(doomed_time.unwrap_or(f64::INFINITY));
                    let mbps_in_mbytes = step.eff / 8.0;
                    let chunk_end = if step.eff > 0.0 {
                        // A doomed attempt only transfers down to its
                        // failure floor before resetting.
                        let target_mb = fail_floor_mb
                            .map_or(remaining_mb, |floor| remaining_mb - floor)
                            .max(0.0);
                        // Late in a long session the last few bytes can
                        // take less than half an ulp of `t`, so `t + dt`
                        // rounds back to `t` and the chunk would never
                        // advance. They move over the next representable
                        // instant instead; any other chunk already ends
                        // there or later.
                        let finish = (t + target_mb / mbps_in_mbytes).max(t.next_up());
                        finish.min(step.boundary).min(hard_stop)
                    } else {
                        // Outage: zero goodput until the link or the
                        // attempt's abort schedule gives way.
                        step.boundary.min(hard_stop)
                    };
                    debug_assert!(
                        chunk_end.is_finite() && chunk_end > t,
                        "download chunk must advance: t={t}, chunk_end={chunk_end}"
                    );
                    let dt = chunk_end - t;
                    let moved = mbps_in_mbytes * dt;
                    remaining_mb = (remaining_mb - moved).max(0.0);
                    attempt_energy += radio::chunk_energy(&self.power, signal, t, dt, step.eff);
                    attempt_chunks += 1;
                    self.advance(&mut state, t, chunk_end);
                    t = chunk_end;
                }
                probe.add(names::SIM_INTEGRATION_CHUNKS, attempt_chunks);
                radio_energy_task += attempt_energy;
                if remaining_mb <= 1e-12 {
                    break 'attempts;
                }

                // Aborted: account the wasted attempt, back off, retry —
                // degrading to the ladder floor once the budget is spent.
                wasted_energy_total += attempt_energy;
                aborts_total += 1;
                probe.add(names::SIM_ABORTS, 1);
                let reason = if failed_injected {
                    AbortReason::InjectedFailure
                } else {
                    AbortReason::StallTimeout
                };
                state.log(SessionEvent::DownloadAborted {
                    at: Seconds::new(t),
                    segment: SegmentIndex::new(seg),
                    attempt,
                    reason,
                });
                if !degraded && attempt >= policy.max_attempts {
                    degraded = true;
                    degraded_total += 1;
                    probe.add(names::SIM_DEGRADED_SEGMENTS, 1);
                    level = LevelIndex::new(0);
                    bitrate = self.ladder.bitrate(level);
                    size = self
                        .segment_sizes
                        .as_ref()
                        .and_then(|tbl| tbl.get(seg, level))
                        .unwrap_or_else(|| bitrate.data_over(self.config.segment_duration));
                }
                let backoff = policy.backoff_for(attempt).value();
                retries_total += 1;
                probe.add(names::SIM_RETRIES, 1);
                state.log(SessionEvent::Retry {
                    at: Seconds::new(t),
                    segment: SegmentIndex::new(seg),
                    attempt: attempt + 1,
                    backoff: Seconds::new(backoff),
                });
                // The radio idles through the backoff; its RRC tail keeps
                // burning for up to the tail window.
                if self.config.radio_tail {
                    tail_energy_total += self.power.tail_power().value()
                        * backoff.min(self.power.tail_seconds().value());
                }
                self.advance(&mut state, t, t + backoff);
                t += backoff;
                attempt += 1;
                attempt_start = t;
                remaining_mb = size.value();
            }
            let download_end = t;
            drop(download_span);
            last_burst_end = Some(download_end);
            radio_energy_total += radio_energy_task;
            downloaded_total += size.value();

            // 6. Buffer the segment; maybe start playback.
            state.buffer += tau;
            state.bitrates.push(bitrate.value());
            if !state.playing && state.buffer >= self.config.startup_threshold.value() - 1e-9 {
                state.playing = true;
                state.started_at = Some(t);
                state.log(SessionEvent::PlaybackStart {
                    at: Seconds::new(t),
                });
            }

            // 7. Record the task.
            let duration = (download_end - download_start).max(1e-9);
            let observed = Mbps::new(size.value() * 8.0 / duration);
            state.log(SessionEvent::DownloadEnd {
                at: Seconds::new(download_end),
                segment: SegmentIndex::new(seg),
                throughput: observed,
            });
            history.push(ThroughputObservation {
                segment: SegmentIndex::new(seg),
                throughput: observed,
                completed_at: Seconds::new(download_end),
            });
            let avg_signal = Dbm::new(
                0.5 * (signal.signal_at(Seconds::new(download_start)).value()
                    + signal.signal_at(Seconds::new(download_end)).value()),
            );
            let vib_value = vibration.unwrap_or(MetersPerSec2::zero());
            let prev_bitrate = prev_level.map(|l| self.ladder.bitrate(l));
            let qoe = self.qoe.segment_qoe(
                bitrate,
                vib_value,
                prev_bitrate,
                Seconds::new(state.stall_this_task),
            );
            if let Some(p) = prev_level {
                if p != level {
                    switches += 1;
                    probe.add(names::SIM_LEVEL_SWITCHES, 1);
                }
            }
            probe.add(names::SIM_SEGMENTS, 1);
            if probe.metrics_enabled() {
                probe.observe(names::SIM_THROUGHPUT_MBPS, observed.value());
                if state.stall_this_task > 0.0 {
                    probe.observe(names::SIM_STALL_SECONDS, state.stall_this_task);
                }
            }
            tasks.push(TaskRecord {
                task: TaskId::new(seg),
                level,
                bitrate,
                size,
                download_start: Seconds::new(download_start),
                download_end: Seconds::new(download_end),
                throughput: observed,
                signal: avg_signal,
                vibration: vib_value,
                rebuffer: Seconds::new(state.stall_this_task),
                radio_energy: Joules::new(radio_energy_task),
                qoe,
            });
            prev_level = Some(level);
        }

        // Final tail after the last burst.
        if self.config.radio_tail {
            if let Some(_end) = last_burst_end {
                tail_energy_total +=
                    self.power.tail_power().value() * self.power.tail_seconds().value();
            }
        }

        close_outage(&mut state, &mut open_outage, t);

        // Drain the remaining buffer. A video shorter than the startup
        // threshold never starts playback inside the download loop; its
        // first frame shows here, and the log must say so.
        if !state.playing {
            state.playing = true;
            state.started_at = Some(t);
            let at = t.max(state.last_event_at);
            state.log(SessionEvent::PlaybackStart {
                at: Seconds::new(at),
            });
        }
        while !state.finished && state.buffer > 1e-12 {
            let dt = state.buffer;
            self.advance(&mut state, t, t + dt);
            t += dt;
        }
        let wall_time = t;
        let outage_time = fault.map_or(0.0, |p| {
            p.outage_seconds_between(Seconds::zero(), Seconds::new(wall_time))
                .value()
        });

        let screen_energy = self.power.screen_power().value() * wall_time;
        let energy = EnergyBreakdown {
            screen: Joules::new(screen_energy),
            decode: Joules::new(state.decode_energy),
            radio: Joules::new(radio_energy_total),
            tail: Joules::new(tail_energy_total),
        };
        let mean_qoe =
            QoeScore::new(tasks.iter().map(|x| x.qoe.value()).sum::<f64>() / tasks.len() as f64);

        if probe.metrics_enabled() {
            probe.gauge(names::SIM_ENERGY_SCREEN_J, energy.screen.value());
            probe.gauge(names::SIM_ENERGY_DECODE_J, energy.decode.value());
            probe.gauge(names::SIM_ENERGY_RADIO_J, energy.radio.value());
            probe.gauge(names::SIM_ENERGY_TAIL_J, energy.tail.value());
            probe.gauge(names::SIM_REBUFFER_S, state.stall_total);
            probe.gauge(names::SIM_MEAN_QOE, mean_qoe.value());
            if fault.is_some() {
                probe.gauge(names::SIM_OUTAGE_SECONDS, outage_time);
                probe.gauge(names::SIM_WASTED_ENERGY_J, wasted_energy_total);
            }
        }

        SessionResult {
            controller: controller.name(),
            trace: session.meta().name.clone(),
            energy,
            mean_qoe,
            total_rebuffer: Seconds::new(state.stall_total),
            startup_delay: Seconds::new(state.started_at.unwrap_or(wall_time)),
            switches,
            played: Seconds::new(state.playhead),
            wall_time: Seconds::new(wall_time),
            downloaded: MegaBytes::new(downloaded_total),
            retries: retries_total,
            aborts: aborts_total,
            degraded_segments: degraded_total,
            outage_time: Seconds::new(outage_time),
            wasted_energy: Joules::new(wasted_energy_total),
            tasks,
        }
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::controller::FixedLevel;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;

    fn session(ctx: Context, secs: f64, seed: u64) -> SessionTrace {
        SessionGenerator::new(
            "sim-test",
            ContextSchedule::constant(ctx),
            Seconds::new(secs),
            seed,
        )
        .generate()
    }

    fn sim() -> Simulator {
        Simulator::paper(BitrateLadder::evaluation())
    }

    #[test]
    fn plays_whole_video() {
        let s = session(Context::QuietRoom, 60.0, 1);
        let result = sim().run(&s, &mut FixedLevel::highest());
        assert!((result.played.value() - 60.0).abs() < 1e-6);
        assert_eq!(result.tasks.len(), 30);
        assert!(result.wall_time >= result.played);
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let s = session(Context::Walking, 60.0, 2);
        let r = sim().run(&s, &mut FixedLevel::highest());
        let sum = r.energy.screen + r.energy.decode + r.energy.radio + r.energy.tail;
        assert!((sum.value() - r.total_energy().value()).abs() < 1e-9);
        assert!(r.energy.screen.value() > 0.0);
        assert!(r.energy.decode.value() > 0.0);
        assert!(r.energy.radio.value() > 0.0);
    }

    #[test]
    fn lower_bitrate_uses_less_energy() {
        let s = session(Context::MovingVehicle, 120.0, 3);
        let high = sim().run(&s, &mut FixedLevel::highest());
        let low = sim().run(&s, &mut FixedLevel::new(LevelIndex::new(0)));
        assert!(low.total_energy() < high.total_energy());
        assert!(low.downloaded < high.downloaded);
        // And lower QoE in a quiet-ish setting.
        assert!(low.mean_qoe < high.mean_qoe);
    }

    #[test]
    fn no_rebuffer_on_fast_link_low_bitrate() {
        let s = session(Context::QuietRoom, 60.0, 4);
        let r = sim().run(&s, &mut FixedLevel::new(LevelIndex::new(0)));
        assert_eq!(r.total_rebuffer, Seconds::zero());
        assert_eq!(r.total_rebuffer / r.wall_time, 0.0);
    }

    #[test]
    fn buffer_never_exceeds_threshold_plus_segment() {
        // Indirect check: wall time of a fast download is stretched by the
        // buffer cap — the player cannot finish downloading arbitrarily
        // early, so the last download ends near video_end - buffer.
        let s = session(Context::QuietRoom, 120.0, 5);
        let r = sim().run(&s, &mut FixedLevel::new(LevelIndex::new(0)));
        let last = r.tasks.last().unwrap();
        let b = 30.0;
        assert!(
            last.download_end.value() > 120.0 - b - 4.0,
            "last download at {} finished too early for a {b}-second cap",
            last.download_end
        );
    }

    #[test]
    fn startup_delay_recorded() {
        let s = session(Context::Walking, 30.0, 6);
        let r = sim().run(&s, &mut FixedLevel::highest());
        assert!(r.startup_delay.value() > 0.0);
        assert!(
            r.startup_delay.value() < 10.0,
            "startup {}",
            r.startup_delay
        );
    }

    #[test]
    fn fixed_controller_never_switches() {
        let s = session(Context::MovingVehicle, 60.0, 7);
        let r = sim().run(&s, &mut FixedLevel::highest());
        assert_eq!(r.switches, 0);
        assert!(r.tasks.iter().all(|t| t.bitrate == Mbps::new(5.8)));
    }

    #[test]
    fn weak_context_costs_more_energy_for_same_bitrate() {
        let room = session(Context::QuietRoom, 120.0, 8);
        let bus = session(Context::MovingVehicle, 120.0, 8);
        let r_room = sim().run(&room, &mut FixedLevel::highest());
        let r_bus = sim().run(&bus, &mut FixedLevel::highest());
        assert!(
            r_bus.energy.radio.value() > r_room.energy.radio.value(),
            "bus radio {} <= room radio {}",
            r_bus.energy.radio,
            r_room.energy.radio
        );
    }

    #[test]
    fn deterministic_runs() {
        let s = session(Context::Walking, 60.0, 9);
        let a = sim().run(&s, &mut FixedLevel::highest());
        let b = sim().run(&s, &mut FixedLevel::highest());
        assert_eq!(a, b);
    }

    #[test]
    fn task_records_are_consistent() {
        let s = session(Context::Walking, 60.0, 10);
        let r = sim().run(&s, &mut FixedLevel::highest());
        for (i, task) in r.tasks.iter().enumerate() {
            assert_eq!(task.task.value(), i);
            assert!(task.download_end >= task.download_start);
            assert!(task.throughput.value() > 0.0);
            assert!(task.qoe.value() >= 0.0 && task.qoe.value() <= 5.0);
        }
        // Downloads are sequential.
        for w in r.tasks.windows(2) {
            assert!(w[1].download_start >= w[0].download_end - Seconds::new(1e-9));
        }
    }

    #[test]
    fn rebuffering_happens_on_hopeless_configuration() {
        // Force 5.8 Mbps over a vehicle link: stalls are expected in fades.
        let s = session(Context::MovingVehicle, 300.0, 11);
        let r = sim().run(&s, &mut FixedLevel::highest());
        // Wall time must stretch beyond the video length by the stalls.
        assert!(
            (r.wall_time.value()
                - (r.played.value() + r.startup_delay.value() + r.total_rebuffer.value()))
            .abs()
                < 1.0,
            "wall {} vs played {} + startup {} + stalls {}",
            r.wall_time,
            r.played,
            r.startup_delay,
            r.total_rebuffer
        );
    }

    /// Regression: a video shorter than the startup threshold only starts
    /// playing in the post-download drain, which used to flip
    /// `state.playing` without logging `PlaybackStart` — the replay
    /// oracle then saw a session that allegedly never started.
    #[test]
    fn short_video_still_logs_playback_start() {
        // 2 s video = 1 segment < 4 s startup threshold.
        let s = session(Context::QuietRoom, 2.0, 14);
        let (r, log) = sim().run_logged(&s, &mut FixedLevel::highest());
        let starts: Vec<_> = log
            .iter()
            .filter(|e| matches!(e, SessionEvent::PlaybackStart { .. }))
            .collect();
        assert_eq!(starts.len(), 1, "timeline:\n{}", log.render_timeline());
        assert_eq!(starts[0].at(), r.startup_delay);
        assert!(log
            .iter()
            .any(|e| matches!(e, SessionEvent::PlaybackEnd { .. })));
    }

    #[test]
    fn probe_collects_metrics_and_events_without_changing_results() {
        let s = session(Context::Walking, 60.0, 13);
        let recorder = ecas_obs::MemoryRecorder::new();
        let (probed, log) = sim().run_with_probe(&s, &mut FixedLevel::highest(), &recorder);
        let plain = sim().run(&s, &mut FixedLevel::highest());
        assert_eq!(probed, plain, "instrumentation must not perturb the run");

        let snapshot = recorder.metrics().snapshot();
        assert_eq!(snapshot.counter("sim/segments"), Some(30));
        assert_eq!(snapshot.span("sim/decision").unwrap().count, 30);
        assert_eq!(snapshot.span("sim/download").unwrap().count, 30);
        assert_eq!(snapshot.histogram("sim/throughput_mbps").unwrap().count, 30);
        assert!(snapshot.gauge("sim/energy/screen_j").unwrap() > 0.0);

        // The probed run's log is the one an unprobed logging run keeps.
        let (_, logged) = sim().run_logged(&s, &mut FixedLevel::highest());
        assert_eq!(log, logged);
    }

    #[test]
    fn downloaded_matches_task_sizes() {
        let s = session(Context::QuietRoom, 60.0, 12);
        let r = sim().run(&s, &mut FixedLevel::highest());
        let sum: f64 = r.tasks.iter().map(|t| t.size.value()).sum();
        assert!((sum - r.downloaded.value()).abs() < 1e-9);
    }
}
