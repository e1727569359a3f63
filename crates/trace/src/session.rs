//! A complete streaming-session trace.
//!
//! A [`SessionTrace`] bundles the three measurement channels the paper
//! replays together — network throughput, signal strength and accelerometer
//! readings — plus metadata about the session (Table V row).

use ecas_types::units::{MegaBytes, MetersPerSec2, Seconds};
use serde::Serialize;

use crate::sample::{AccelSample, NetworkSample, SignalSample};
use crate::series::{SeriesError, TimeSeries};

/// Metadata describing a collected (or generated) session trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceMeta {
    /// Short identifier ("trace1" … "trace5" for the Table V set).
    pub name: String,
    /// Length of the watched video.
    pub video_length: Seconds,
    /// Total data size of the original session download (Table V column).
    pub data_size: MegaBytes,
    /// Average vibration level over the session (Table V column).
    pub avg_vibration: MetersPerSec2,
    /// Free-form description of the context (e.g. "commute by bus").
    pub description: String,
    /// RNG seed used when the trace is synthetic; `None` for external data.
    pub seed: Option<u64>,
}

/// A complete session trace: metadata plus the three measurement channels.
///
/// # Examples
///
/// ```
/// use ecas_trace::videos::EvalTraceSpec;
///
/// let session = EvalTraceSpec::table_v()[0].generate();
/// // Channels cover the whole video.
/// assert!(session.signal().duration() >= session.meta().video_length);
/// assert!(session.accel().len() > 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionTrace {
    meta: TraceMeta,
    network: TimeSeries<NetworkSample>,
    signal: TimeSeries<SignalSample>,
    accel: TimeSeries<AccelSample>,
}

impl SessionTrace {
    /// Bundles the channels into a session trace.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::Empty`] if any channel is empty (channels are
    /// already validated for ordering by [`TimeSeries::new`], so this
    /// constructor only re-checks non-emptiness as a defensive measure).
    pub fn new(
        meta: TraceMeta,
        network: TimeSeries<NetworkSample>,
        signal: TimeSeries<SignalSample>,
        accel: TimeSeries<AccelSample>,
    ) -> Result<Self, SeriesError> {
        if network.is_empty() || signal.is_empty() || accel.is_empty() {
            return Err(SeriesError::Empty);
        }
        Ok(Self {
            meta,
            network,
            signal,
            accel,
        })
    }

    /// The session metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The network (throughput) channel.
    #[must_use]
    pub fn network(&self) -> &TimeSeries<NetworkSample> {
        &self.network
    }

    /// The signal-strength channel.
    #[must_use]
    pub fn signal(&self) -> &TimeSeries<SignalSample> {
        &self.signal
    }

    /// The accelerometer channel.
    #[must_use]
    pub fn accel(&self) -> &TimeSeries<AccelSample> {
        &self.accel
    }

    /// Decomposes the session into its channels.
    #[must_use]
    pub fn into_parts(
        self,
    ) -> (
        TraceMeta,
        TimeSeries<NetworkSample>,
        TimeSeries<SignalSample>,
        TimeSeries<AccelSample>,
    ) {
        (self.meta, self.network, self.signal, self.accel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_types::units::{Dbm, Mbps};

    fn tiny_session() -> SessionTrace {
        let meta = TraceMeta {
            name: "t".into(),
            video_length: Seconds::new(2.0),
            data_size: MegaBytes::new(1.0),
            avg_vibration: MetersPerSec2::new(1.0),
            description: "test".into(),
            seed: Some(1),
        };
        let network =
            TimeSeries::new(vec![NetworkSample::new(Seconds::zero(), Mbps::new(10.0))]).unwrap();
        let signal =
            TimeSeries::new(vec![SignalSample::new(Seconds::zero(), Dbm::new(-90.0))]).unwrap();
        let accel =
            TimeSeries::new(vec![AccelSample::new(Seconds::zero(), 0.0, 0.0, 9.81)]).unwrap();
        SessionTrace::new(meta, network, signal, accel).unwrap()
    }

    #[test]
    fn accessors_expose_channels() {
        let s = tiny_session();
        assert_eq!(s.meta().name, "t");
        assert_eq!(s.network().len(), 1);
        assert_eq!(s.signal().len(), 1);
        assert_eq!(s.accel().len(), 1);
    }

    #[test]
    fn into_parts_roundtrip() {
        let s = tiny_session();
        let (meta, network, signal, accel) = s.clone().into_parts();
        let rebuilt = SessionTrace::new(meta, network, signal, accel).unwrap();
        assert_eq!(s, rebuilt);
    }
}
