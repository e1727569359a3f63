//! Session-level QoE aggregation.
//!
//! The paper scores a session by the mean of its per-task Eq. (1) values.
//! [`percentile`] gives the robust "bad minutes" view (e.g. p10) under the
//! workspace's one percentile convention; `ecas_obs::perf::PerfStats` is checked
//! against it.

/// The `p`-quantile (0 ≤ p ≤ 1) of per-task QoE, using the workspace's
/// nearest-rank-from-below convention
/// ([`ecas_types::float::nearest_rank`], shared with
/// `ecas_net::SlidingPercentile`).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
#[must_use]
pub fn percentile(per_task: &[f64], p: f64) -> Option<f64> {
    let mut sorted = per_task.to_vec();
    ecas_types::float::total_sort(&mut sorted);
    ecas_types::float::nearest_rank(sorted.len(), p).and_then(|idx| sorted.get(idx).copied())
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    const TASKS: [f64; 5] = [4.0, 4.0, 1.0, 4.0, 4.0];

    #[test]
    fn percentile_extremes() {
        assert_eq!(percentile(&TASKS, 0.0), Some(1.0));
        assert_eq!(percentile(&TASKS, 1.0), Some(4.0));
    }

    /// Regression: this module used to round the rank, reporting 2.0 for
    /// p25 of [1, 2, 3, 4] while `ecas_net::SlidingPercentile` (nearest
    /// rank from below) reported 1.0 for the same request. Both now share
    /// `ecas_types::float::nearest_rank`.
    #[test]
    fn percentile_uses_nearest_rank_from_below() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.25), Some(1.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.25), Some(1.0));
    }

    #[test]
    fn empty_returns_none_everywhere() {
        assert!(percentile(&[], 0.5).is_none());
    }
}
