//! Trace analytics: summary statistics and empirical CDFs over the
//! measurement channels — the numbers a trace-collection paper reports
//! about its dataset.

use serde::Serialize;

use crate::session::SessionTrace;

/// Five-number summary plus mean/std of a scalar channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
// ecas-lint: allow(pub-surface, reason = "part of the crate's re-exported public API surface")
pub struct ChannelStats {
    /// Minimum value.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Number of samples.
    pub n: usize,
}

impl ChannelStats {
    /// Computes the statistics of a value sequence.
    ///
    /// Returns `None` for an empty input.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        ecas_types::float::total_sort(&mut sorted);
        let n = sorted.len();
        let pct = |p: f64| sorted[((p * (n - 1) as f64).round() as usize).min(n - 1)];
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        Some(Self {
            min: sorted[0],
            p25: pct(0.25),
            p50: pct(0.50),
            p75: pct(0.75),
            max: sorted[n - 1],
            mean,
            std: var.sqrt(),
            n,
        })
    }
}

/// Dataset-level summary of one session trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionStats {
    /// Trace name.
    pub name: String,
    /// Throughput statistics (Mbps).
    pub throughput: ChannelStats,
    /// Signal-strength statistics (dBm).
    pub signal: ChannelStats,
    /// Accelerometer-magnitude statistics (m/s²).
    pub accel_magnitude: ChannelStats,
    /// Fraction of time the link sits below the top ladder bitrate
    /// (5.8 Mbps) — how often a fixed 1080p stream runs a deficit.
    pub below_top_bitrate: f64,
}

impl SessionStats {
    /// Computes the summary of a session.
    #[must_use]
    pub fn of(session: &SessionTrace) -> Self {
        let thr: Vec<f64> = session
            .network()
            .iter()
            .map(|s| s.throughput.value())
            .collect();
        let sig: Vec<f64> = session.signal().iter().map(|s| s.dbm.value()).collect();
        let mag: Vec<f64> = session.accel().iter().map(|s| s.magnitude()).collect();
        let below = thr.iter().filter(|&&t| t < 5.8).count() as f64 / thr.len() as f64;
        Self {
            name: session.meta().name.clone(),
            // ecas-lint: allow(panic-safety, reason = "SessionTrace::new rejects empty channels, so every channel has samples")
            throughput: ChannelStats::of(&thr).expect("network channel is non-empty"),
            // ecas-lint: allow(panic-safety, reason = "SessionTrace::new rejects empty channels, so every channel has samples")
            signal: ChannelStats::of(&sig).expect("signal channel is non-empty"),
            // ecas-lint: allow(panic-safety, reason = "SessionTrace::new rejects empty channels, so every channel has samples")
            accel_magnitude: ChannelStats::of(&mag).expect("accel channel is non-empty"),
            below_top_bitrate: below,
        }
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::videos::EvalTraceSpec;

    #[test]
    fn channel_stats_of_known_values() {
        let stats = ChannelStats::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 5.0);
        assert_eq!(stats.p50, 3.0);
        assert_eq!(stats.mean, 3.0);
        assert!((stats.std - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(stats.n, 5);
    }

    #[test]
    fn stats_of_empty_is_none() {
        assert!(ChannelStats::of(&[]).is_none());
    }

    #[test]
    fn session_stats_for_table_v_traces() {
        let quiet = SessionStats::of(&EvalTraceSpec::table_v()[1].generate());
        let vehicle = SessionStats::of(&EvalTraceSpec::table_v()[2].generate());
        // The quiet trace has a faster, stronger, stiller channel.
        assert!(quiet.throughput.mean > vehicle.throughput.mean);
        assert!(quiet.signal.mean > vehicle.signal.mean);
        assert!(quiet.accel_magnitude.std < vehicle.accel_magnitude.std);
        assert!(quiet.below_top_bitrate < vehicle.below_top_bitrate);
    }
}
