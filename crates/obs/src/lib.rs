//! Observability for the streaming experiment stack.
//!
//! The paper's evaluation stands on fine-grained per-session accounting —
//! energy per component, stall timing, per-decision context — and the
//! experiments must be replayable bit-for-bit. This crate provides the
//! instrumentation substrate for both:
//!
//! * [`Probe`] — the instrumentation interface the simulator, controllers
//!   and runner report into. Implementations: [`NullProbe`] (free, the
//!   default), [`MemoryRecorder`] (tests, in-process inspection) and
//!   [`JsonlRecorder`] (one JSON object per line to any writer).
//! * [`MetricsRegistry`] — thread-safe counters, gauges, fixed-bucket
//!   histograms and monotonic span timers, snapshotted into a
//!   serializable [`MetricsSnapshot`].
//! * [`RunManifest`] — a serializable record of everything needed to
//!   replay an experiment (seeds, trace ids, ladder, config hash, crate
//!   version) with a stable FNV-64 content hash.
//! * [`render`] — per-segment timeline tables and metrics summaries from
//!   recorded sessions.
//!
//! # Two streams, two guarantees
//!
//! Instrumentation splits into a *deterministic* stream and a *wall-clock*
//! stream, and the split is load-bearing:
//!
//! * **Events** ([`Probe::emit`]) carry simulation-time records (decisions,
//!   downloads, stalls). They depend only on the seed and configuration, so
//!   two runs with the same inputs produce byte-identical JSONL output.
//! * **Metrics** (spans, counters, gauges, histograms) may carry wall-clock
//!   timings ([`span!`]). They power profiling summaries and are *not*
//!   byte-reproducible; they never enter the event stream.
//!
//! # Counter conventions
//!
//! Counter names are `<area>/<noun>` in snake case, counting discrete
//! simulation occurrences. The simulator's set: `sim/segments`,
//! `sim/level_switches`, `sim/idle_waits`, `sim/deferrals`, and — under
//! fault injection — `sim/retries`, `sim/aborts`, `sim/outages` and
//! `sim/degraded_segments`. Continuous fault-injection quantities are
//! gauges, not counters: `sim/outage_seconds`, `sim/wasted_energy_j`.
//!
//! Counters double as deterministic *work measures* for the hot paths —
//! `sim/integration_chunks` for the radio integration kernel,
//! `abr/dp_cells` for the Eq. (11) optimal planner's dynamic program — so
//! performance cost is observable and comparable across hosts without
//! timing anything (see [`perf`] for the wall-clock side).
//!
//! # Example
//!
//! ```
//! use ecas_obs::{span, MemoryRecorder, Probe};
//!
//! let recorder = MemoryRecorder::new();
//! {
//!     span!(&recorder, "download");
//!     recorder.add("segments", 1);
//!     recorder.observe("throughput_mbps", 4.2);
//! }
//! let snapshot = recorder.metrics().snapshot();
//! assert_eq!(snapshot.counter("segments"), Some(1));
//! assert_eq!(snapshot.span("download").unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod metrics;
pub mod names;
pub mod perf;
pub mod probe;
pub mod recorder;
pub mod render;

pub use manifest::{fnv1a_64, stable_hash, FnvHasher, RunManifest, TraceRef};
pub use metrics::{
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, SpanSnapshot, DEFAULT_BUCKETS,
};
pub use probe::{NullProbe, Probe, SpanGuard, NULL_PROBE};
pub use recorder::{JsonlRecorder, MemoryRecorder};

/// Opens a wall-clock span that records its duration into `$probe`'s
/// metrics when the enclosing scope ends.
///
/// Expands to a `let` binding of a [`SpanGuard`]; the span closes when the
/// guard drops. Against a probe with metrics disabled ([`NullProbe`]) the
/// guard never reads the clock, so the cost is one virtual call.
///
/// ```
/// use ecas_obs::{span, MemoryRecorder};
///
/// let recorder = MemoryRecorder::new();
/// {
///     span!(&recorder, "decision");
///     // ... timed work ...
/// }
/// assert_eq!(recorder.metrics().snapshot().span("decision").unwrap().count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($probe:expr, $name:expr) => {
        let _obs_span_guard = $crate::SpanGuard::new($probe, $name);
    };
}
