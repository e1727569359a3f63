//! Integration tests for the `.ecasr` session-record pipeline: the
//! record → serialize → parse → replay → verify loop across scenarios,
//! plus hostile-bytes behaviour at the whole-record level.

use ecas_core::record::{RecordScenario, RecordedSession, SessionRecord, SessionRecordError};
use ecas_core::sim::FaultSpec;
use ecas_core::trace::Context;
use ecas_core::{Approach, ReplayVerdict};
use proptest::prelude::*;

fn verify_roundtrip(scenario: RecordScenario) {
    let label = scenario.label();
    let record = SessionRecord::record(scenario).unwrap();
    let bytes = record.to_bytes().unwrap();
    let back = SessionRecord::from_bytes(&bytes).unwrap();
    assert_eq!(record, back, "{label}: parse changed the record");
    match back.verify().unwrap() {
        ReplayVerdict::Pass { .. } => {}
        other => panic!("{label}: {}", other.render()),
    }
}

#[test]
fn table_v_matrix_records_and_verifies() {
    // One representative approach per Table V context class keeps the
    // matrix fast while crossing trace x controller.
    let cases = [
        (1u8, Approach::Ours),
        (2, Approach::Youtube),
        (3, Approach::Festive),
        (4, Approach::Bba),
        (5, Approach::Optimal),
    ];
    for (id, approach) in cases {
        verify_roundtrip(RecordScenario {
            session: RecordedSession::TableV { id },
            approach,
            eta: 0.5,
            fault: None,
        });
    }
}

#[test]
fn faulted_and_commute_sessions_verify() {
    verify_roundtrip(RecordScenario {
        session: RecordedSession::TableV { id: 1 },
        approach: Approach::Ours,
        eta: 0.5,
        fault: Some(FaultSpec::moderate(1)),
    });
    verify_roundtrip(RecordScenario {
        session: RecordedSession::Commute {
            seconds: 120.0,
            seed: 3,
        },
        approach: Approach::Ours,
        eta: 0.5,
        fault: None,
    });
}

#[test]
fn every_byte_flip_is_detected_or_benign() {
    let record = SessionRecord::record(RecordScenario {
        session: RecordedSession::Synthetic {
            context: Context::Walking,
            seconds: 20.0,
            seed: 11,
        },
        approach: Approach::Ours,
        eta: 0.5,
        fault: None,
    })
    .unwrap();
    let bytes = record.to_bytes().unwrap();
    // Flip one bit in every byte: parsing must either fail with a typed
    // error or — never — silently yield a different record. It must not
    // panic anywhere.
    for i in 0..bytes.len() {
        let mut tampered = bytes.clone();
        tampered[i] ^= 0x01;
        assert!(
            SessionRecord::from_bytes(&tampered).is_err(),
            "flip at byte {i} of {} went undetected",
            bytes.len()
        );
    }
}

/// A record whose header asks for a day-long session decodes, but every
/// use of it that regenerates the trace is a typed scenario error: no
/// synthesis of 86 400 s runs.
#[test]
fn day_long_header_is_a_typed_error() {
    let mut record = SessionRecord::record(RecordScenario {
        session: RecordedSession::Synthetic {
            context: Context::Walking,
            seconds: 20.0,
            seed: 11,
        },
        approach: Approach::Ours,
        eta: 0.5,
        fault: None,
    })
    .unwrap();
    record.scenario.session = RecordedSession::Synthetic {
        context: Context::Walking,
        seconds: 86_400.0,
        seed: 11,
    };
    let back = SessionRecord::from_bytes(&record.to_bytes().unwrap()).unwrap();
    for outcome in [
        back.verify().map(|_| ()),
        back.replay().map(|_| ()),
        back.rerecord().map(|_| ()),
    ] {
        let err = outcome.unwrap_err();
        assert!(
            matches!(err, SessionRecordError::Scenario(ref msg) if msg.contains("86400")),
            "{err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Fuzz-sampled scenarios: short synthetic sessions across contexts,
    // approaches, eta and fault intensity all record, round-trip and
    // verify.
    #[test]
    fn fuzzed_scenarios_roundtrip_and_verify(
        seed in 0u64..1000,
        secs in 8.0f64..30.0,
        ctx in 0usize..4,
        approach in 0usize..10,
        eta in 0.0f64..1.0,
        fault in proptest::option::of(0.1f64..1.0),
    ) {
        let session = match ctx {
            0 => RecordedSession::Synthetic { context: Context::QuietRoom, seconds: secs, seed },
            1 => RecordedSession::Synthetic { context: Context::Walking, seconds: secs, seed },
            2 => RecordedSession::Synthetic { context: Context::MovingVehicle, seconds: secs, seed },
            _ => RecordedSession::Commute { seconds: secs, seed },
        };
        let scenario = RecordScenario {
            session,
            approach: Approach::all()[approach],
            eta,
            fault: fault.map(|f| FaultSpec::scaled(f, seed)),
        };
        let record = SessionRecord::record(scenario).unwrap();
        let bytes = record.to_bytes().unwrap();
        let back = SessionRecord::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&record, &back);
        prop_assert!(matches!(back.verify().unwrap(), ReplayVerdict::Pass { .. }));
        // Determinism end to end: a second recording is byte-identical.
        prop_assert_eq!(bytes, record.rerecord().unwrap().to_bytes().unwrap());
    }
}
