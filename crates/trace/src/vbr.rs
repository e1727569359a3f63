//! Variable-bitrate (VBR) segment sizes.
//!
//! Real DASH encodings are not constant-bitrate: a 2-second segment of a
//! battle scene at the "1.5 Mbps" representation can be half again larger
//! than nominal while a static dialogue shot undershoots. This module
//! generates per-segment, per-level size tables with:
//!
//! * a slow *complexity wave* shared by all levels (scene structure),
//! * per-segment lognormal jitter,
//! * mean correction so each representation's average rate stays on its
//!   nominal ladder bitrate,
//! * intensity scaled by the video's temporal information (Fig. 2a): high
//!   TI content fluctuates more.

use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::{MegaBytes, Seconds};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::synth::standard_normal;
use crate::videos::TestVideo;

/// A per-segment, per-level segment-size table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SegmentSizes {
    /// `sizes[segment][level]` in megabytes.
    sizes: Vec<Vec<MegaBytes>>,
}

impl SegmentSizes {
    /// Constant-bitrate sizes: every segment is exactly
    /// `bitrate · duration`.
    #[must_use]
    pub fn cbr(ladder: &BitrateLadder, segments: usize, duration: Seconds) -> Self {
        let row: Vec<MegaBytes> = ladder
            .levels()
            .map(|l| ladder.segment_size(l, duration))
            .collect();
        Self {
            sizes: vec![row; segments],
        }
    }

    /// VBR sizes for `video`'s content complexity. Deterministic per seed.
    ///
    /// The fluctuation standard deviation grows from ~8 % for static
    /// content (TI ≈ 3) to ~28 % for high-motion content (TI ≈ 25).
    #[must_use]
    pub fn vbr(
        ladder: &BitrateLadder,
        segments: usize,
        duration: Seconds,
        video: &TestVideo,
        seed: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sigma = 0.05 + 0.009 * video.temporal_info;
        // Slow complexity wave: period ~24 s with random phase.
        let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let wave_amp = 0.6 * sigma;

        // Per-segment multiplicative factors shared across levels, then
        // mean-corrected to keep each representation's average on target.
        let mut factors: Vec<f64> = (0..segments)
            .map(|i| {
                let wave = wave_amp * (std::f64::consts::TAU * i as f64 / 12.0 + phase).sin();
                (sigma * standard_normal(&mut rng) + wave).exp()
            })
            .collect();
        let mean: f64 = factors.iter().sum::<f64>() / segments.max(1) as f64;
        if mean > 0.0 {
            for f in &mut factors {
                *f /= mean;
            }
        }

        let sizes = factors
            .iter()
            .map(|&f| {
                ladder
                    .levels()
                    .map(|l| ladder.segment_size(l, duration) * f)
                    .collect()
            })
            .collect();
        Self { sizes }
    }

    /// Number of segments covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The size of `segment` at `level`, or `None` out of range.
    #[must_use]
    pub fn get(&self, segment: usize, level: LevelIndex) -> Option<MegaBytes> {
        self.sizes.get(segment)?.get(level.value()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_types::units::Mbps;

    fn ladder() -> BitrateLadder {
        BitrateLadder::evaluation()
    }

    fn video(ti: f64) -> TestVideo {
        TestVideo {
            genre: "Test",
            explanation: "test",
            spatial_info: 45.0,
            temporal_info: ti,
        }
    }

    #[test]
    fn cbr_sizes_are_exactly_nominal() {
        let l = ladder();
        let s = SegmentSizes::cbr(&l, 10, Seconds::new(2.0));
        assert_eq!(s.len(), 10);
        let top = l.highest_level();
        assert_eq!(s.get(0, top).unwrap(), MegaBytes::new(1.45));
        assert_eq!(s.get(9, top).unwrap(), MegaBytes::new(1.45));
    }

    #[test]
    fn vbr_mean_stays_on_nominal() {
        let l = ladder();
        let s = SegmentSizes::vbr(&l, 300, Seconds::new(2.0), &video(20.0), 7);
        for level in l.levels() {
            let nominal = l.segment_size(level, Seconds::new(2.0)).value();
            let mean = (0..s.len())
                .map(|i| s.get(i, level).unwrap().value())
                .sum::<f64>()
                / s.len() as f64;
            assert!(
                (mean - nominal).abs() / nominal < 1e-9,
                "level {level}: mean {mean} vs nominal {nominal}"
            );
        }
    }

    #[test]
    fn vbr_actually_varies() {
        let l = ladder();
        let s = SegmentSizes::vbr(&l, 100, Seconds::new(2.0), &video(20.0), 8);
        let top = l.highest_level();
        let sizes: Vec<f64> = (0..100).map(|i| s.get(i, top).unwrap().value()).collect();
        let min = sizes.iter().cloned().fold(f64::MAX, f64::min);
        let max = sizes.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max / min > 1.3, "spread {}..{} too tight", min, max);
    }

    #[test]
    fn high_motion_content_fluctuates_more() {
        let l = ladder();
        let spread = |ti: f64| {
            let s = SegmentSizes::vbr(&l, 400, Seconds::new(2.0), &video(ti), 9);
            let top = l.highest_level();
            let vals: Vec<f64> = (0..400).map(|i| s.get(i, top).unwrap().value()).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt() / mean
        };
        assert!(spread(25.0) > 1.5 * spread(3.0));
    }

    #[test]
    fn factors_shared_across_levels() {
        // The ratio of a segment's size to nominal is the same for every
        // level (scene complexity hits all representations together).
        let l = ladder();
        let s = SegmentSizes::vbr(&l, 50, Seconds::new(2.0), &video(15.0), 10);
        let lo = l.index_of(Mbps::new(0.375)).unwrap();
        let hi = l.highest_level();
        for i in 0..50 {
            let f_lo =
                s.get(i, lo).unwrap().value() / l.segment_size(lo, Seconds::new(2.0)).value();
            let f_hi =
                s.get(i, hi).unwrap().value() / l.segment_size(hi, Seconds::new(2.0)).value();
            assert!((f_lo - f_hi).abs() < 1e-9);
        }
    }

    #[test]
    fn out_of_range_returns_none() {
        let l = ladder();
        let s = SegmentSizes::cbr(&l, 5, Seconds::new(2.0));
        assert!(s.get(5, l.lowest_level()).is_none());
        assert!(s.get(0, LevelIndex::new(99)).is_none());
    }

    #[test]
    fn deterministic_per_seed() {
        let l = ladder();
        let a = SegmentSizes::vbr(&l, 20, Seconds::new(2.0), &video(10.0), 3);
        let b = SegmentSizes::vbr(&l, 20, Seconds::new(2.0), &video(10.0), 3);
        assert_eq!(a, b);
        let c = SegmentSizes::vbr(&l, 20, Seconds::new(2.0), &video(10.0), 4);
        assert_ne!(a, c);
    }
}
