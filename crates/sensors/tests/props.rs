//! Property-based tests for sensor-processing invariants.

use ecas_sensors::vibration::{vibration_level, VibrationEstimator};
use ecas_trace::sample::AccelSample;
use ecas_types::units::Seconds;
use proptest::prelude::*;

fn axis() -> impl Strategy<Value = f64> {
    -20.0f64..20.0
}

proptest! {
    #[test]
    fn vibration_is_nonnegative(xs in proptest::collection::vec((axis(), axis(), axis()), 1..200)) {
        let samples: Vec<AccelSample> = xs
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z))| AccelSample::new(Seconds::new(i as f64 * 0.02), x, y, z))
            .collect();
        let v = vibration_level(&samples).unwrap();
        prop_assert!(v.value() >= 0.0);
    }

    #[test]
    fn vibration_is_rotation_invariant_for_constant_input(x in axis(), y in axis(), z in axis(), n in 2usize..100) {
        // Any constant vector (any orientation) has zero vibration.
        let samples: Vec<AccelSample> = (0..n)
            .map(|i| AccelSample::new(Seconds::new(i as f64 * 0.02), x, y, z))
            .collect();
        let v = vibration_level(&samples).unwrap();
        prop_assert!(v.value() < 1e-9);
    }

    #[test]
    // amp stays below g/2 so that 9.81 + 2*amp*sin never crosses zero and
    // the magnitude remains exactly linear in amp.
    fn vibration_scales_linearly_with_magnitude_fluctuation(amp in 0.1f64..4.5, n in 50usize..300) {
        // Magnitude 9.81 + amp*sin: std is amp/sqrt(2) asymptotically, and
        // doubling amp doubles the statistic.
        let mk = |a: f64| -> f64 {
            let samples: Vec<AccelSample> = (0..n)
                .map(|i| {
                    let t = i as f64 * 0.02;
                    AccelSample::new(Seconds::new(t), 0.0, 0.0, 9.81 + a * (t * 31.0).sin())
                })
                .collect();
            vibration_level(&samples).unwrap().value()
        };
        let v1 = mk(amp);
        let v2 = mk(2.0 * amp);
        prop_assert!(v1 > 0.0);
        prop_assert!((v2 / v1 - 2.0).abs() < 1e-6, "ratio {}", v2 / v1);
    }

    #[test]
    fn estimator_level_matches_batch_over_trailing_span(
        first in 0u32..128,
        steps in proptest::collection::vec((0u32..4, -3.0f64..3.0), 1..800),
        picks in proptest::collection::vec((0u8..4, 0usize..800), 1..40),
    ) {
        // Streams of 1-799 samples on a 1/64 s grid, shorter and longer
        // than the 0.2 * W = 6 s span, with repeated timestamps (gap 0)
        // and holes (gaps of 2-3 ticks). Grid times are exact, so
        // t_newest - 6 s often lands on a sample and the window's
        // inclusive lower edge is exercised. Queried at an increasing
        // sequence of times, the online estimate has the bits of the
        // batch statistic over {t_i <= q, t_i >= t_newest - 6 s}, where
        // t_newest is the last sample at or before q, and is None before
        // the first sample.
        let mut tick = first;
        let samples: Vec<AccelSample> = steps
            .iter()
            .enumerate()
            .map(|(i, &(gap, d))| {
                if i > 0 {
                    tick += gap;
                }
                let t = f64::from(tick) / 64.0;
                AccelSample::new(Seconds::new(t), 0.0, 0.0, 9.81 + d)
            })
            .collect();
        let time = |i: usize| samples[i % samples.len()].time.value();
        let mut queries: Vec<f64> = picks
            .iter()
            .map(|&(kind, i)| match kind {
                0 => time(i),
                1 => time(i) + 1.0 / 128.0,
                2 => f64::from(first) / 128.0,
                _ => time(i) + 6.0,
            })
            .collect();
        queries.sort_by(f64::total_cmp);
        let mut est = VibrationEstimator::new(&samples);
        for q in queries {
            let read: Vec<AccelSample> =
                samples.iter().copied().filter(|s| s.time.value() <= q).collect();
            let batch = read.last().and_then(|newest| {
                let from = newest.time.value() - 6.0;
                let window: Vec<AccelSample> =
                    read.iter().copied().filter(|s| s.time.value() >= from).collect();
                vibration_level(&window)
            });
            let online = est.level_at(Seconds::new(q));
            prop_assert_eq!(
                online.map(|v| v.value().to_bits()),
                batch.map(|v| v.value().to_bits())
            );
        }
    }
}
