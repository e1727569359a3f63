//! Property-based tests for unit arithmetic and ladder invariants.

use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::{Mbps, MegaBytes, QoeScore, Seconds, Watts};
use proptest::prelude::*;

fn pos_f64() -> impl Strategy<Value = f64> {
    // Positive, finite, comfortably away from denormals and overflow.
    (1e-6f64..1e9f64).prop_map(|x| x)
}

proptest! {
    #[test]
    fn energy_identities(p in pos_f64(), t in pos_f64()) {
        let e = Watts::new(p) * Seconds::new(t);
        let p_back = e / Seconds::new(t);
        prop_assert!((p_back.value() - p).abs() / p < 1e-9);
        let t_back = e / Watts::new(p);
        prop_assert!((t_back.value() - t).abs() / t < 1e-9);
    }

    #[test]
    fn data_rate_time_identities(r in pos_f64(), t in pos_f64()) {
        let data = Mbps::new(r) * Seconds::new(t);
        let r_back = data / Seconds::new(t);
        prop_assert!((r_back.value() - r).abs() / r < 1e-9);
        let t_back = data / Mbps::new(r);
        prop_assert!((t_back.value() - t).abs() / t < 1e-9);
    }

    #[test]
    fn transfer_time_monotone_in_rate(d in pos_f64(), r1 in pos_f64(), r2 in pos_f64()) {
        prop_assume!(r1 < r2);
        let data = MegaBytes::new(d);
        prop_assert!(data.transfer_time(Mbps::new(r2)) <= data.transfer_time(Mbps::new(r1)));
    }

    #[test]
    fn saturating_sub_never_negative(a in pos_f64(), b in pos_f64()) {
        let s = Seconds::new(a).saturating_sub(Seconds::new(b));
        prop_assert!(s.value() >= 0.0);
    }

    #[test]
    fn nine_grade_transform_is_affine_monotone(x in 1.0f64..9.0, y in 1.0f64..9.0) {
        prop_assume!(x < y);
        prop_assert!(QoeScore::from_nine_grade(x) < QoeScore::from_nine_grade(y));
        // Endpoints of the transform stay in the 5-level scale.
        let q = QoeScore::from_nine_grade(x).value();
        prop_assert!((1.0..=5.0).contains(&q));
    }

    #[test]
    fn ladder_from_sorted_bitrates_roundtrips(raw in proptest::collection::btree_set(10u64..100_000u64, 1..20)) {
        let bitrates: Vec<Mbps> = raw.iter().map(|&b| Mbps::new(b as f64 / 1000.0)).collect();
        let ladder = BitrateLadder::from_bitrates(bitrates.clone()).unwrap();
        prop_assert_eq!(ladder.len(), bitrates.len());
        for (i, b) in bitrates.iter().enumerate() {
            prop_assert_eq!(ladder.bitrate(LevelIndex::new(i)), *b);
            prop_assert_eq!(ladder.index_of(*b), Some(LevelIndex::new(i)));
        }
    }

    #[test]
    fn highest_at_most_is_correct_choice(raw in proptest::collection::btree_set(10u64..100_000u64, 1..20), budget in 0.005f64..120.0) {
        let bitrates: Vec<Mbps> = raw.iter().map(|&b| Mbps::new(b as f64 / 1000.0)).collect();
        let ladder = BitrateLadder::from_bitrates(bitrates).unwrap();
        match ladder.highest_at_most(Mbps::new(budget)) {
            Some(level) => {
                // Chosen level fits the budget…
                prop_assert!(ladder.bitrate(level) <= Mbps::new(budget));
                // …and the next level up (if any) does not.
                if level != ladder.highest_level() {
                    prop_assert!(ladder.bitrate(ladder.up(level)) > Mbps::new(budget));
                }
            }
            None => {
                prop_assert!(ladder.lowest().bitrate() > Mbps::new(budget));
            }
        }
    }

    #[test]
    fn up_down_stay_in_bounds(raw in proptest::collection::btree_set(10u64..100_000u64, 1..20), idx in 0usize..40) {
        let bitrates: Vec<Mbps> = raw.iter().map(|&b| Mbps::new(b as f64 / 1000.0)).collect();
        let ladder = BitrateLadder::from_bitrates(bitrates).unwrap();
        let idx = LevelIndex::new(idx.min(ladder.len() - 1));
        prop_assert!(ladder.up(idx).value() < ladder.len());
        prop_assert!(ladder.down(idx).value() < ladder.len());
        prop_assert!(ladder.up(idx).value() >= idx.value());
        prop_assert!(ladder.down(idx).value() <= idx.value());
    }
}
