//! Drift pin for the optimal planner: one FNV-1a digest over the plans,
//! objectives and `objective_of` values of a fixed set of sessions, η
//! values and ladders. Any change to the solver or to the Eq. (1) and
//! Eq. (11) arithmetic that moves a single plan level or objective bit
//! moves the digest.

use std::io::Write;

use ecas_abr::OptimalPlanner;
use ecas_obs::FnvHasher;
use ecas_trace::session::SessionTrace;
use ecas_trace::synth::context::{Context, ContextSchedule};
use ecas_trace::synth::SessionGenerator;
use ecas_trace::videos::EvalTraceSpec;
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::Seconds;

/// The five Table V rows, three single-context sessions and a commute.
fn sessions() -> Vec<SessionTrace> {
    let mut sessions: Vec<SessionTrace> = EvalTraceSpec::table_v()
        .iter()
        .map(EvalTraceSpec::generate)
        .collect();
    for (context, secs, seed) in [
        (Context::QuietRoom, 60.0, 1),
        (Context::Walking, 90.0, 2),
        (Context::MovingVehicle, 120.0, 3),
    ] {
        sessions.push(
            SessionGenerator::new(
                "pin",
                ContextSchedule::constant(context),
                Seconds::new(secs),
                seed,
            )
            .generate(),
        );
    }
    let commute = Seconds::new(300.0);
    sessions.push(
        SessionGenerator::new("pin", ContextSchedule::commute(commute), commute, 4).generate(),
    );
    sessions
}

/// A plan that climbs and falls through every level, so `objective_of`
/// prices switch penalties the optimal plans rarely pay.
fn zigzag(n: usize, m: usize) -> Vec<LevelIndex> {
    (0..n)
        .map(|i| LevelIndex::new((i * 5 + i / 3) % m))
        .collect()
}

#[test]
fn planner_outputs_match_the_pinned_digest() {
    let sessions = sessions();
    let mut hasher = FnvHasher::new();
    let mut plans = 0;
    for ladder in [BitrateLadder::evaluation(), BitrateLadder::table_ii()] {
        for eta in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let planner = OptimalPlanner::with_eta(ladder.clone(), eta);
            for session in &sessions {
                let plan = planner.plan(session);
                for level in &plan.levels {
                    hasher
                        .write_all(&(level.value() as u64).to_le_bytes())
                        .unwrap();
                }
                let reported = planner.objective_of(session, &plan.levels);
                let zigzag =
                    planner.objective_of(session, &zigzag(plan.levels.len(), ladder.len()));
                for value in [plan.objective, reported, zigzag] {
                    hasher.write_all(&value.to_bits().to_le_bytes()).unwrap();
                }
                plans += 1;
            }
        }
    }
    assert_eq!(plans, 90);
    assert_eq!(
        hasher.finish(),
        0xa3a1_7da7_69e3_bd11,
        "planner digest {:#018x}",
        hasher.finish()
    );
}
