//! Trace data model and synthetic trace generation.
//!
//! The paper's evaluation is trace-driven: a session is replayed against a
//! **network trace** (downloading throughput over time, collected with
//! Tcpdump), a **signal-strength trace** (dBm over time, collected with an
//! ADB shell), and an **accelerometer trace** (collected from the phone's
//! embedded sensor). None of the original traces are public, so this crate
//! provides both the data model ([`sample`], [`series`], [`session`]) and
//! faithful synthetic generators ([`synth`]) whose statistical behaviour is
//! documented in `DESIGN.md`.
//!
//! The canonical artifacts of the paper live in [`videos`]: the ten test
//! videos of Table I (with the spatial/temporal information of Fig. 2(a))
//! and the five evaluation traces of Table V.
//!
//! # Examples
//!
//! ```
//! use ecas_trace::videos::EvalTraceSpec;
//!
//! // Regenerate "trace 3" of Table V (449 s, vehicle context).
//! let spec = &EvalTraceSpec::table_v()[2];
//! let session = spec.generate();
//! assert_eq!(session.meta().name, "trace3");
//! assert!(session.network().duration().value() >= 449.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod io;
pub mod mpd;
pub mod population;
pub mod record;
pub mod sample;
pub mod series;
pub mod session;
pub mod synth;
pub mod vbr;
pub mod videos;

pub use analysis::{ChannelStats, SessionStats};
pub use io::TraceIoError;
pub use mpd::Manifest;
pub use population::{
    BatteryState, FleetContext, PopulationSpec, SessionBatch, SignalTier, UserSpec,
};
pub use record::{RecordContainer, RecordError};
pub use sample::{AccelSample, NetworkSample, PowerSample, SignalSample};
pub use series::{SeriesError, TimeSeries, Timestamped};
pub use session::{SessionTrace, TraceMeta};
pub use synth::context::Context;
pub use vbr::SegmentSizes;
