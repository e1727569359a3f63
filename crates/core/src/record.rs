//! Recorded sessions: the `.ecasr` artifact tying a scenario, its event
//! log and its reference result together.
//!
//! PR 5's replay oracle proved a [`SessionResult`] is fully
//! reconstructible from its [`EventLog`]; this module makes that fact
//! portable. A [`SessionRecord`] captures everything needed to reproduce
//! and check a session *from a file alone*:
//!
//! * the [`RecordScenario`] — which trace to regenerate
//!   ([`RecordedSession`]), the approach, η, and the optional fault spec;
//! * the content hash of the regenerated trace and the bitrate ladder,
//!   so a stale generator or ladder is detected before replay;
//! * the simulator's [`EventLog`] (the replay input) and the reference
//!   [`SessionResult`] (the replay expectation).
//!
//! The on-disk form is the versioned `ECASR` container of
//! [`ecas_trace::record`]: scenario header as canonical JSON in section
//! 1, the event log and result in the compact `ecas-sim`
//! [`codec`](ecas_sim::codec) in sections 2 and 3. Records carry no
//! timestamps or host details, so re-recording a scenario reproduces the
//! committed artifact byte for byte — the property the golden corpus
//! under `golden/` pins in CI (see `scripts/golden.sh` and DESIGN.md
//! § 13).
//!
//! # Examples
//!
//! ```
//! use ecas_core::record::{RecordScenario, RecordedSession, SessionRecord};
//! use ecas_core::{Approach, ReplayVerdict};
//!
//! let scenario = RecordScenario {
//!     session: RecordedSession::Synthetic {
//!         context: ecas_core::trace::Context::Walking,
//!         seconds: 30.0,
//!         seed: 7,
//!     },
//!     approach: Approach::Ours,
//!     eta: 0.5,
//!     fault: None,
//! };
//! let record = SessionRecord::record(scenario).unwrap();
//! let bytes = record.to_bytes().unwrap();
//! let back = SessionRecord::from_bytes(&bytes).unwrap();
//! assert!(matches!(back.verify().unwrap(), ReplayVerdict::Pass { .. }));
//! ```

use std::fmt;
use std::fs;
use std::path::Path;

use ecas_obs::{names, stable_hash, Probe, NULL_PROBE};
use ecas_sim::codec;
use ecas_sim::{EventLog, FaultSpec, SessionResult, Simulator};
use ecas_trace::population::PopulationSpec;
use ecas_trace::record::{RecordContainer, RecordError};
use ecas_trace::synth::context::{Context, ContextSchedule};
use ecas_trace::synth::SessionGenerator;
use ecas_trace::videos::EvalTraceSpec;
use ecas_trace::SessionTrace;
use ecas_types::ladder::BitrateLadder;
use ecas_types::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::approach::Approach;
use crate::oracle::{Oracle, ReplayError, ReplayVerdict};
use crate::runner::ExperimentRunner;
use crate::sweep::write_atomic;

/// Section tag of the scenario header (canonical JSON).
pub const SECTION_SCENARIO: u8 = 1;
/// Section tag of the event log (`ecas_sim::codec::encode_log`).
// ecas-lint: allow(pub-surface, reason = "wire-format contract documented in DESIGN.md section 13")
pub const SECTION_EVENT_LOG: u8 = 2;
/// Section tag of the reference result
/// (`ecas_sim::codec::encode_result`).
// ecas-lint: allow(pub-surface, reason = "wire-format contract documented in DESIGN.md section 13")
pub const SECTION_RESULT: u8 = 3;

/// Error produced while assembling, parsing or replaying a session
/// record.
#[derive(Debug)]
pub enum SessionRecordError {
    /// The container or a section payload was malformed.
    Codec(RecordError),
    /// The scenario header describes a session this build cannot
    /// regenerate (unknown Table V id, non-positive duration, …).
    Scenario(String),
    /// The regenerated trace does not hash to the recorded value — the
    /// trace generators drifted since the record was written.
    TraceHashMismatch {
        /// Hash stored in the record.
        stored: u64,
        /// Hash of the freshly regenerated trace.
        computed: u64,
    },
    /// The stored event log could not be reconstructed into a result.
    Replay(ReplayError),
}

impl fmt::Display for SessionRecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionRecordError::Codec(e) => write!(f, "{e}"),
            SessionRecordError::Scenario(msg) => write!(f, "unreproducible scenario: {msg}"),
            SessionRecordError::TraceHashMismatch { stored, computed } => write!(
                f,
                "regenerated trace hashes to {computed:#018x} but the record was written \
                 against {stored:#018x}; the synthetic generators have drifted"
            ),
            SessionRecordError::Replay(e) => write!(f, "stored log does not replay: {e}"),
        }
    }
}

impl std::error::Error for SessionRecordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionRecordError::Codec(e) => Some(e),
            SessionRecordError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RecordError> for SessionRecordError {
    fn from(e: RecordError) -> Self {
        SessionRecordError::Codec(e)
    }
}

impl From<ReplayError> for SessionRecordError {
    fn from(e: ReplayError) -> Self {
        SessionRecordError::Replay(e)
    }
}

/// The trace side of a recorded scenario — every variant regenerates a
/// [`SessionTrace`] deterministically from parameters alone, so records
/// never embed the (large) trace itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecordedSession {
    /// One of the five Table V evaluation traces (`id` is 1-based, as in
    /// the paper).
    TableV {
        /// The Table V row (1–5).
        id: u8,
    },
    /// A synthetic single-context session.
    Synthetic {
        /// The viewing context.
        context: Context,
        /// Session duration in seconds.
        seconds: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A synthetic commute session (the three-phase schedule of
    /// [`ContextSchedule::commute`]).
    Commute {
        /// Session duration in seconds.
        seconds: f64,
        /// Generator seed.
        seed: u64,
    },
    /// One user's session out of a PR 8 fleet population — the record
    /// corpus bridge between the fleet and record layers. Regenerates
    /// via [`PopulationSpec::user`] under the default mix and diurnal
    /// profile, which is pure in `(seed, mean_duration_s, index)` (the
    /// fleet size only bounds the index), so the trace is reproducible
    /// from these four numbers alone.
    Fleet {
        /// Fleet size the record was cut from (bounds `index`).
        users: u64,
        /// The fleet seed.
        seed: u64,
        /// The user's position in the fleet (0-based).
        index: u64,
        /// Nominal (pre-battery-scaling) session duration in seconds.
        mean_duration_s: f64,
    },
}

impl RecordedSession {
    /// A short, filesystem-friendly label ("tablev3",
    /// "walking-60s-seed7", …).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            RecordedSession::TableV { id } => format!("tablev{id}"),
            RecordedSession::Synthetic {
                context,
                seconds,
                seed,
            } => {
                let ctx = match context {
                    Context::QuietRoom => "quietroom",
                    Context::Walking => "walking",
                    Context::MovingVehicle => "vehicle",
                };
                format!("{ctx}-{seconds:.0}s-seed{seed}")
            }
            RecordedSession::Commute { seconds, seed } => {
                format!("commute-{seconds:.0}s-seed{seed}")
            }
            RecordedSession::Fleet {
                seed,
                index,
                mean_duration_s,
                ..
            } => format!("fleet{seed}-{mean_duration_s:.0}s-u{index}"),
        }
    }

    /// Regenerates the session trace from the stored parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SessionRecordError::Scenario`] when the parameters are
    /// out of range (unknown Table V id, non-positive or non-finite
    /// duration).
    pub fn generate(&self) -> Result<SessionTrace, SessionRecordError> {
        match self {
            RecordedSession::TableV { id } => {
                let specs = EvalTraceSpec::table_v();
                let index = usize::from(*id)
                    .checked_sub(1)
                    .filter(|i| *i < specs.len())
                    .ok_or_else(|| {
                        SessionRecordError::Scenario(format!(
                            "table v trace id {id} is out of range 1..={}",
                            specs.len()
                        ))
                    })?;
                specs
                    .get(index)
                    .map(EvalTraceSpec::generate)
                    .ok_or_else(|| {
                        SessionRecordError::Scenario(format!("table v index {index} vanished"))
                    })
            }
            RecordedSession::Synthetic {
                context,
                seconds,
                seed,
            } => {
                let duration = checked_duration(*seconds)?;
                Ok(SessionGenerator::new(
                    self.label(),
                    ContextSchedule::constant(*context),
                    duration,
                    *seed,
                )
                .generate())
            }
            RecordedSession::Commute { seconds, seed } => {
                let duration = checked_duration(*seconds)?;
                Ok(SessionGenerator::new(
                    self.label(),
                    ContextSchedule::commute(duration),
                    duration,
                    *seed,
                )
                .generate())
            }
            RecordedSession::Fleet {
                users,
                seed,
                index,
                mean_duration_s,
            } => {
                if *index >= *users {
                    return Err(SessionRecordError::Scenario(format!(
                        "fleet user index {index} is out of range for {users} users"
                    )));
                }
                let mean = checked_duration(*mean_duration_s)?;
                let spec = PopulationSpec::new(*users, *seed).mean_duration(mean);
                Ok(spec.user(*index).synthesize())
            }
        }
    }
}

fn checked_duration(seconds: f64) -> Result<Seconds, SessionRecordError> {
    if !seconds.is_finite() || seconds < 4.0 {
        return Err(SessionRecordError::Scenario(format!(
            "session duration {seconds} s is not a finite value >= 4 s (two segments)"
        )));
    }
    Seconds::try_new(seconds).map_err(|e| SessionRecordError::Scenario(e.to_string()))
}

/// Everything needed to re-run a recorded session: the trace recipe, the
/// approach, η, and the optional fault spec. Serialized as canonical
/// JSON into the record's scenario header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordScenario {
    /// The trace recipe.
    pub session: RecordedSession,
    /// The approach under test.
    pub approach: Approach,
    /// The Eq. (11) energy/QoE weighting factor.
    pub eta: f64,
    /// Fault injection, if any.
    pub fault: Option<FaultSpec>,
}

impl RecordScenario {
    /// The runner this scenario executes under — always the paper
    /// simulator (14-level evaluation ladder) plus this scenario's η and
    /// fault spec, mirroring [`crate::report::Scenario::runner`].
    #[must_use]
    pub fn runner(&self) -> ExperimentRunner {
        let mut simulator = Simulator::paper(BitrateLadder::evaluation());
        if let Some(fault) = self.fault {
            simulator = simulator.with_faults(fault);
        }
        ExperimentRunner::new(simulator, self.eta)
    }

    /// A short label: `<session>-<approach>[-fault]`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}-{}",
            self.session.label(),
            self.approach.label().to_ascii_lowercase()
        );
        if self.fault.is_some_and(|f| f.is_active()) {
            label.push_str("-fault");
        }
        label
    }
}

/// The scenario header serialized into [`SECTION_SCENARIO`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Header {
    /// Workspace version that wrote the record (informational only —
    /// not compared on replay; the trace hash is the real gate).
    crate_version: String,
    scenario: RecordScenario,
    trace_hash: u64,
    ladder_mbps: Vec<f64>,
}

/// A fully materialized session record: scenario + event log +
/// reference result.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// The scenario that produced (and reproduces) this session.
    pub scenario: RecordScenario,
    /// Workspace version that wrote the record.
    pub crate_version: String,
    /// [`stable_hash`] of the regenerated [`SessionTrace`].
    pub trace_hash: u64,
    /// The bitrate ladder, in Mbps, the session ran against.
    pub ladder_mbps: Vec<f64>,
    /// The recorded event log — the replay input.
    pub log: EventLog,
    /// The simulator's result — the replay expectation.
    pub reference: SessionResult,
}

impl SessionRecord {
    /// Runs `scenario` and captures the session as a record.
    ///
    /// # Errors
    ///
    /// Returns [`SessionRecordError::Scenario`] when the scenario cannot
    /// be regenerated.
    pub fn record(scenario: RecordScenario) -> Result<Self, SessionRecordError> {
        Self::record_with_probe(scenario, &NULL_PROBE)
    }

    /// [`Self::record`], emitting one `record/recorded` counter into
    /// `probe` (plus the runner's usual instrumentation).
    ///
    /// # Errors
    ///
    /// See [`Self::record`].
    pub fn record_with_probe(
        scenario: RecordScenario,
        probe: &dyn Probe,
    ) -> Result<Self, SessionRecordError> {
        let trace = scenario.session.generate()?;
        let runner = scenario.runner();
        let (reference, log) = runner.run_with_probe(&trace, &scenario.approach, probe);
        let ladder = runner.simulator().ladder();
        let ladder_mbps = ladder
            .levels()
            .map(|level| ladder.bitrate(level).value())
            .collect();
        probe.add(names::RECORD_RECORDED, 1);
        Ok(Self {
            scenario,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            trace_hash: stable_hash(&trace),
            ladder_mbps,
            log,
            reference,
        })
    }

    /// Serializes the record into the versioned `ECASR` container.
    ///
    /// Deterministic: equal records encode to equal bytes, which is what
    /// lets CI re-record a golden fixture and `cmp` it against the
    /// committed artifact.
    ///
    /// # Errors
    ///
    /// Returns [`SessionRecordError::Codec`] when the header cannot be
    /// serialized (not expected for well-formed scenarios).
    pub fn to_bytes(&self) -> Result<Vec<u8>, SessionRecordError> {
        let header = Header {
            crate_version: self.crate_version.clone(),
            scenario: self.scenario.clone(),
            trace_hash: self.trace_hash,
            ladder_mbps: self.ladder_mbps.clone(),
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| RecordError::Corrupt(format!("scenario header: {e}")))?;
        let mut container = RecordContainer::new();
        container.push(SECTION_SCENARIO, header_json.into_bytes());
        container.push(SECTION_EVENT_LOG, codec::encode_log(&self.log));
        container.push(SECTION_RESULT, codec::encode_result(&self.reference));
        Ok(container.encode())
    }

    /// Parses a record from its container bytes, validating magic,
    /// version and content hash before any section is touched.
    ///
    /// # Errors
    ///
    /// Returns [`SessionRecordError::Codec`] for every malformed-bytes
    /// failure mode (typed per [`RecordError`]).
    pub fn from_bytes(data: &[u8]) -> Result<Self, SessionRecordError> {
        let container = RecordContainer::decode(data)?;
        let header_bytes = container.require(SECTION_SCENARIO)?;
        let header_str = std::str::from_utf8(header_bytes)
            .map_err(|e| RecordError::Corrupt(format!("scenario header: {e}")))?;
        let header: Header = serde_json::from_str(header_str)
            .map_err(|e| RecordError::Corrupt(format!("scenario header: {e}")))?;
        let log = codec::decode_log(container.require(SECTION_EVENT_LOG)?)?;
        let reference = codec::decode_result(container.require(SECTION_RESULT)?)?;
        Ok(Self {
            scenario: header.scenario,
            crate_version: header.crate_version,
            trace_hash: header.trace_hash,
            ladder_mbps: header.ladder_mbps,
            log,
            reference,
        })
    }

    /// Writes the record to `path` atomically (temp file + rename), so a
    /// concurrent reader never decodes a half-written record.
    ///
    /// # Errors
    ///
    /// Returns [`SessionRecordError::Codec`] on serialization or I/O
    /// failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SessionRecordError> {
        let bytes = self.to_bytes()?;
        write_atomic(path.as_ref(), &bytes)
            .map_err(|e| SessionRecordError::Codec(RecordError::Io(e)))
    }

    /// Reads a record from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SessionRecordError::Codec`] on I/O failure or malformed
    /// bytes.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SessionRecordError> {
        let bytes =
            fs::read(path).map_err(|e| SessionRecordError::Codec(RecordError::Io(e)))?;
        Self::from_bytes(&bytes)
    }

    /// Regenerates the scenario's trace and checks it against the
    /// recorded content hash.
    ///
    /// # Errors
    ///
    /// Returns [`SessionRecordError::TraceHashMismatch`] when the
    /// generators no longer reproduce the recorded trace.
    pub fn regenerate_trace(&self) -> Result<SessionTrace, SessionRecordError> {
        let trace = self.scenario.session.generate()?;
        let computed = stable_hash(&trace);
        if computed != self.trace_hash {
            return Err(SessionRecordError::TraceHashMismatch {
                stored: self.trace_hash,
                computed,
            });
        }
        Ok(trace)
    }

    /// Reconstructs the session result from the stored event log alone,
    /// through the PR 5 replay oracle. The stored reference is *not*
    /// consulted — compare with [`Self::verify`].
    ///
    /// # Errors
    ///
    /// Returns [`SessionRecordError::Replay`] when the log is not
    /// structurally replayable, or a trace/scenario error as above.
    pub fn replay(&self) -> Result<SessionResult, SessionRecordError> {
        let trace = self.regenerate_trace()?;
        let runner = self.scenario.runner();
        let oracle = Oracle::new(runner.simulator(), self.scenario.eta);
        Ok(oracle.replay(&trace, &self.log)?)
    }

    /// Replays the stored log and diffs the reconstruction against the
    /// stored reference field by field at the oracle's 1e-9 tolerance,
    /// plus the § 9 accounting identities.
    ///
    /// # Errors
    ///
    /// Returns a scenario/trace error when the session cannot be
    /// regenerated; divergences are reported in the verdict, not as
    /// errors.
    pub fn verify(&self) -> Result<ReplayVerdict, SessionRecordError> {
        self.verify_with_probe(&NULL_PROBE)
    }

    /// [`Self::verify`], emitting one `record/verify_pass` or
    /// `record/verify_fail` counter into `probe` (on top of the oracle's
    /// own `oracle/replay_*` counters).
    ///
    /// # Errors
    ///
    /// See [`Self::verify`].
    pub fn verify_with_probe(
        &self,
        probe: &dyn Probe,
    ) -> Result<ReplayVerdict, SessionRecordError> {
        let trace = self.regenerate_trace()?;
        let runner = self.scenario.runner();
        let oracle = Oracle::new(runner.simulator(), self.scenario.eta);
        let verdict = oracle.check_replay_with_probe(&trace, &self.reference, Some(&self.log), probe);
        let counter = match &verdict {
            ReplayVerdict::Pass { .. } => names::RECORD_VERIFY_PASS,
            _ => names::RECORD_VERIFY_FAIL,
        };
        probe.add(counter, 1);
        Ok(verdict)
    }

    /// Re-runs the scenario from scratch and returns the fresh record.
    /// With deterministic generators and simulator, the result encodes
    /// byte-identically to this record.
    ///
    /// # Errors
    ///
    /// See [`Self::record`].
    pub fn rerecord(&self) -> Result<Self, SessionRecordError> {
        Self::record(self.scenario.clone())
    }

    /// The stable manifest of this record (`session inspect --json`).
    #[must_use]
    pub fn manifest(&self, content_hash: u64) -> RecordManifest {
        RecordManifest {
            label: self.scenario.label(),
            crate_version: self.crate_version.clone(),
            scenario: self.scenario.clone(),
            trace_hash: self.trace_hash,
            content_hash,
            ladder_levels: self.ladder_mbps.len(),
            events: self.log.len(),
            tasks: self.reference.tasks.len(),
        }
    }

    /// Renders the human-readable report (`session inspect`): scenario
    /// parameters, headline result metrics, and the full event timeline.
    /// Golden fixtures commit this text next to the record, so it must
    /// stay deterministic.
    #[must_use]
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let r = &self.reference;
        out.push_str(&format!("record   {}\n", self.scenario.label()));
        out.push_str(&format!("writer   v{}\n", self.crate_version));
        out.push_str(&format!("session  {}\n", self.scenario.session.label()));
        out.push_str(&format!("approach {}\n", self.scenario.approach.label()));
        out.push_str(&format!("eta      {:.3}\n", self.scenario.eta));
        match self.scenario.fault {
            Some(f) if f.is_active() => out.push_str(&format!(
                "fault    outages/min {:.3}, failure p {:.3}, collapses/min {:.3} (seed {})\n",
                f.outages_per_minute, f.failure_probability, f.collapses_per_minute, f.seed
            )),
            _ => out.push_str("fault    none\n"),
        }
        out.push_str(&format!("trace    hash {:#018x}\n", self.trace_hash));
        out.push_str(&format!(
            "ladder   {} levels, {:.3}..{:.3} Mbps\n",
            self.ladder_mbps.len(),
            self.ladder_mbps.first().copied().unwrap_or(0.0),
            self.ladder_mbps.last().copied().unwrap_or(0.0),
        ));
        out.push_str(&format!(
            "result   energy {:.3} J, mean qoe {:.4}, rebuffer {:.3} s, startup {:.3} s\n",
            r.total_energy().value(),
            r.mean_qoe.value(),
            r.total_rebuffer.value(),
            r.startup_delay.value()
        ));
        out.push_str(&format!(
            "         tasks {}, switches {}, retries {}, aborts {}, degraded {}\n",
            r.tasks.len(),
            r.switches,
            r.retries,
            r.aborts,
            r.degraded_segments
        ));
        out.push_str(&format!("events   {}\n", self.log.len()));
        out.push_str("timeline\n");
        out.push_str(&self.log.render_timeline());
        out
    }
}

/// The machine-readable summary of a record, rendered by
/// `session inspect --json` and committed as `manifest.json` next to
/// each golden fixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// ecas-lint: allow(pub-surface, reason = "returned by SessionRecord::manifest and serialized by the session bin")
pub struct RecordManifest {
    /// Scenario label (also the fixture directory name).
    pub label: String,
    /// Workspace version that wrote the record.
    pub crate_version: String,
    /// The full scenario.
    pub scenario: RecordScenario,
    /// Content hash of the regenerated trace.
    pub trace_hash: u64,
    /// FNV-1a content hash stored in the record header.
    pub content_hash: u64,
    /// Number of ladder levels.
    pub ladder_levels: usize,
    /// Number of events in the log.
    pub events: usize,
    /// Number of per-task records in the reference result.
    pub tasks: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_obs::MemoryRecorder;

    fn scenario() -> RecordScenario {
        RecordScenario {
            session: RecordedSession::Synthetic {
                context: Context::Walking,
                seconds: 40.0,
                seed: 9,
            },
            approach: Approach::Ours,
            eta: 0.5,
            fault: None,
        }
    }

    #[test]
    fn record_roundtrips_through_bytes() {
        let record = SessionRecord::record(scenario()).unwrap();
        let bytes = record.to_bytes().unwrap();
        let back = SessionRecord::from_bytes(&bytes).unwrap();
        assert_eq!(record, back);
    }

    #[test]
    fn encoding_is_deterministic_and_rerecord_is_byte_identical() {
        let record = SessionRecord::record(scenario()).unwrap();
        let again = record.rerecord().unwrap();
        assert_eq!(
            record.to_bytes().unwrap(),
            again.to_bytes().unwrap(),
            "re-recording the same scenario must reproduce identical bytes"
        );
    }

    #[test]
    fn verify_passes_for_fresh_records() {
        let record = SessionRecord::record(scenario()).unwrap();
        match record.verify().unwrap() {
            ReplayVerdict::Pass { checks } => assert!(checks > 0),
            other => panic!("expected a pass, got {other:?}"),
        }
    }

    #[test]
    fn verify_counters_reach_the_probe() {
        let recorder = MemoryRecorder::new();
        let record =
            SessionRecord::record_with_probe(scenario(), &recorder).unwrap();
        let verdict = record.verify_with_probe(&recorder).unwrap();
        assert!(matches!(verdict, ReplayVerdict::Pass { .. }));
        let snapshot = recorder.metrics().snapshot();
        assert_eq!(snapshot.counter(names::RECORD_RECORDED), Some(1));
        assert_eq!(snapshot.counter(names::RECORD_VERIFY_PASS), Some(1));
        assert_eq!(snapshot.counter(names::RECORD_VERIFY_FAIL), None);
    }

    #[test]
    fn replay_matches_reference_without_consulting_it() {
        let record = SessionRecord::record(scenario()).unwrap();
        let replayed = record.replay().unwrap();
        assert_eq!(replayed.tasks.len(), record.reference.tasks.len());
        assert!(
            (replayed.total_energy().value() - record.reference.total_energy().value()).abs()
                < 1e-6
        );
    }

    #[test]
    fn tampered_reference_fails_verification() {
        let mut record = SessionRecord::record(scenario()).unwrap();
        record.reference.switches += 1;
        match record.verify().unwrap() {
            ReplayVerdict::Fail { divergences } => {
                assert!(divergences.iter().any(|d| d.field == "switches"));
            }
            other => panic!("expected a failure, got {other:?}"),
        }
    }

    #[test]
    fn stale_trace_hash_is_detected() {
        let mut record = SessionRecord::record(scenario()).unwrap();
        record.trace_hash ^= 1;
        assert!(matches!(
            record.regenerate_trace(),
            Err(SessionRecordError::TraceHashMismatch { .. })
        ));
        assert!(matches!(
            record.verify(),
            Err(SessionRecordError::TraceHashMismatch { .. })
        ));
    }

    #[test]
    fn table_v_ids_are_validated() {
        for bad in [0u8, 6, 200] {
            let session = RecordedSession::TableV { id: bad };
            assert!(matches!(
                session.generate(),
                Err(SessionRecordError::Scenario(_))
            ));
        }
        assert!(RecordedSession::TableV { id: 1 }.generate().is_ok());
    }

    #[test]
    fn hostile_durations_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -5.0, 0.0, 3.9] {
            let session = RecordedSession::Commute {
                seconds: bad,
                seed: 1,
            };
            assert!(session.generate().is_err(), "duration {bad} accepted");
        }
    }

    #[test]
    fn faulted_records_roundtrip_and_verify() {
        let scenario = RecordScenario {
            session: RecordedSession::Synthetic {
                context: Context::MovingVehicle,
                seconds: 60.0,
                seed: 4,
            },
            approach: Approach::Ours,
            eta: 0.5,
            fault: Some(FaultSpec::moderate(4)),
        };
        let record = SessionRecord::record(scenario).unwrap();
        assert!(record.reference.retries + record.reference.aborts > 0
            || record.reference.outage_time.value() > 0.0);
        let bytes = record.to_bytes().unwrap();
        let back = SessionRecord::from_bytes(&bytes).unwrap();
        assert_eq!(record, back);
        assert!(matches!(back.verify().unwrap(), ReplayVerdict::Pass { .. }));
    }

    #[test]
    fn report_and_manifest_are_deterministic() {
        let record = SessionRecord::record(scenario()).unwrap();
        let report = record.render_report();
        assert!(report.contains("approach Ours"));
        assert!(report.contains("timeline"));
        assert_eq!(report, record.rerecord().unwrap().render_report());
        let manifest = record.manifest(42);
        assert_eq!(manifest.content_hash, 42);
        assert_eq!(manifest.events, record.log.len());
        assert_eq!(manifest.label, "walking-40s-seed9-ours");
    }

    #[test]
    fn fleet_sessions_regenerate_the_population_trace() {
        let session = RecordedSession::Fleet {
            users: 8,
            seed: 11,
            index: 5,
            mean_duration_s: 30.0,
        };
        let trace = session.generate().unwrap();
        let expected = PopulationSpec::new(8, 11)
            .mean_duration(Seconds::new(30.0))
            .user(5)
            .synthesize();
        assert_eq!(stable_hash(&trace), stable_hash(&expected));
        // And the full record pipeline holds for fleet sessions too.
        let record = SessionRecord::record(RecordScenario {
            session,
            approach: Approach::Ours,
            eta: 0.5,
            fault: None,
        })
        .unwrap();
        let back = SessionRecord::from_bytes(&record.to_bytes().unwrap()).unwrap();
        assert!(matches!(back.verify().unwrap(), ReplayVerdict::Pass { .. }));
    }

    #[test]
    fn fleet_indices_and_durations_are_validated() {
        let out_of_range = RecordedSession::Fleet {
            users: 4,
            seed: 1,
            index: 4,
            mean_duration_s: 30.0,
        };
        assert!(matches!(
            out_of_range.generate(),
            Err(SessionRecordError::Scenario(_))
        ));
        let bad_duration = RecordedSession::Fleet {
            users: 4,
            seed: 1,
            index: 0,
            mean_duration_s: f64::NAN,
        };
        assert!(bad_duration.generate().is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RecordedSession::TableV { id: 3 }.label(), "tablev3");
        assert_eq!(
            RecordedSession::Commute {
                seconds: 180.0,
                seed: 2
            }
            .label(),
            "commute-180s-seed2"
        );
        assert_eq!(
            RecordedSession::Fleet {
                users: 100,
                seed: 7,
                index: 42,
                mean_duration_s: 120.0
            }
            .label(),
            "fleet7-120s-u42"
        );
        let s = RecordScenario {
            session: RecordedSession::TableV { id: 1 },
            approach: Approach::Festive,
            eta: 0.5,
            fault: Some(FaultSpec::moderate(1)),
        };
        assert_eq!(s.label(), "tablev1-festive-fault");
    }
}
