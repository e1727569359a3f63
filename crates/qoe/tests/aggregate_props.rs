//! Property tests for session-QoE aggregation invariants.

use ecas_qoe::aggregate::percentile;
use proptest::prelude::*;

fn qoe_values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..5.0, 1..200)
}

proptest! {
    #[test]
    fn percentile_is_monotone_in_p(values in qoe_values(), p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(
            percentile(&values, lo).unwrap() <= percentile(&values, hi).unwrap() + 1e-12
        );
    }
}
