//! Property-based tests for sensor-processing invariants.

use ecas_sensors::vibration::{vibration_level, VibrationEstimator};
use ecas_sensors::window::SlidingWindow;
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
    fn estimator_level_matches_batch_over_trailing_span(vals in proptest::collection::vec(-3.0f64..3.0, 10..1000)) {
        // Streams of up to 20 s at 50 Hz, shorter and longer than the
        // 0.2 * W = 6 s span: the online estimate has the bits of the batch
        // statistic over the samples with t >= last - 6 s.
        let samples: Vec<AccelSample> = vals
            .iter()
            .enumerate()
            .map(|(i, &d)| AccelSample::new(Seconds::new(i as f64 * 0.02), 0.0, 0.0, 9.81 + d))
            .collect();
        let mut est = VibrationEstimator::new();
        for s in &samples {
            est.push(*s);
        }
        let last = samples.last().unwrap().time.value();
        let trailing: Vec<AccelSample> = samples
            .iter()
            .copied()
            .filter(|s| s.time.value() >= last - 6.0)
            .collect();
        let batch = vibration_level(&trailing).unwrap();
        let online = est.level().unwrap();
        prop_assert_eq!(online.value().to_bits(), batch.value().to_bits());
    }

    #[test]
    fn window_never_retains_stale_samples(times in proptest::collection::vec(0.0f64..100.0, 1..100), span in 0.5f64..20.0) {
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        let mut w = SlidingWindow::new(Seconds::new(span));
        for &t in &sorted {
            w.push(Seconds::new(t), 1.0);
        }
        let newest = *sorted.last().unwrap();
        for &(t, _) in w.iter() {
            prop_assert!(newest - t.value() <= span + 1e-9);
        }
        prop_assert!(!w.is_empty());
    }
}
