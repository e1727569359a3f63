//! Golden bit-exactness fixture for the radio-energy integration.
//!
//! The chunked radio-power integration is shared between the simulator's
//! download loop and the replay oracle (`ecas_sim::radio`). These fixtures
//! pin the *exact bits* of the accumulated radio energy for a spread of
//! sessions, fault-free and under heavy fault injection, so any refactor
//! of the kernel that changes the chunking order — and therefore the
//! floating-point accumulation order — fails loudly instead of silently
//! shifting every downstream energy table.
//!
//! The values were captured from the pre-extraction download loop; the
//! shared kernel must reproduce them bit-for-bit.

use ecas_sim::controller::FixedLevel;
use ecas_sim::{FaultSpec, Simulator};
use ecas_trace::videos::EvalTraceSpec;
use ecas_types::ladder::BitrateLadder;

/// Radio energy bits per Table V trace, highest fixed level, fault-free.
const GOLDEN_FAULT_FREE: &[u64] = &[
    4643246366666562140,
    4640036819494067237,
    4648556146859169315,
    4649643512871171560,
    4650248979596873425,
];

/// Radio energy bits per Table V trace, highest fixed level, faults at
/// full intensity (seed 23).
const GOLDEN_FAULTED: &[u64] = &[
    4644130417221715440,
    4642959770668030489,
    4650399659596003399,
    4651145797440994777,
    4652302740042803836,
];

fn radio_energy_bits(faulty: bool) -> Vec<u64> {
    EvalTraceSpec::table_v()
        .iter()
        .map(|spec| {
            let session = spec.generate();
            let sim = Simulator::paper(BitrateLadder::evaluation());
            let sim = if faulty {
                sim.with_faults(FaultSpec::scaled(1.0, 23))
            } else {
                sim
            };
            let mut controller = FixedLevel::highest();
            let result = sim.run(&session, &mut controller);
            result.energy.radio.value().to_bits()
        })
        .collect()
}

#[test]
fn radio_energy_is_bit_identical_to_golden() {
    let fault_free = radio_energy_bits(false);
    let faulted = radio_energy_bits(true);
    assert_eq!(
        fault_free, GOLDEN_FAULT_FREE,
        "fault-free radio energy bits drifted"
    );
    assert_eq!(faulted, GOLDEN_FAULTED, "faulted radio energy bits drifted");
}
