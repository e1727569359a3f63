//! The canonical metric-name registry for the whole workspace.
//!
//! Every counter, gauge, histogram and span name that reaches a
//! [`MetricsRegistry`](crate::MetricsRegistry) from non-test code is
//! declared here as a named constant, and emitters pass the constant —
//! never a string literal. `ecas-lint`'s `obs-name-registry` rule
//! enforces both directions: a literal metric name at an emission site
//! that is not registered here is a deny finding, and a registered name
//! that nothing emits or references is a warn finding.
//!
//! Keep one `pub const NAME: &str = "value";` per line — the lint's
//! registry parser associates each string literal with the constant
//! declared on the same line.
//!
//! Naming convention: `<area>/<noun>` in snake case (see the crate docs,
//! § "Counter conventions"). Span names share the namespace with
//! counters and gauges.

// ----------------------------------------------------------- sweep cache
//
// The sweep cache (see `ecas-core`'s `sweep` module and the README
// "Result caching" section) reports every lookup against these names so
// observed runs expose their cache behaviour in `metrics.txt`. On a
// fully warm cache the simulator never runs, so `sim/*` counters stay at
// zero while `sweep/cache_hit` equals the grid size.

/// A grid cell was served from the on-disk result cache.
pub const SWEEP_CACHE_HIT: &str = "sweep/cache_hit";
/// A grid cell had to be computed (no valid cache entry).
pub const SWEEP_CACHE_MISS: &str = "sweep/cache_miss";
/// A cache entry existed but failed validation and was discarded
/// (a corrupt entry is a miss plus a corrupt).
pub const SWEEP_CACHE_CORRUPT: &str = "sweep/cache_corrupt";
/// A computed result could not be persisted to the cache (store
/// failures degrade to recomputation and are never fatal).
pub const SWEEP_CACHE_WRITE_ERROR: &str = "sweep/cache_write_error";
/// A grid cell was served from a recorded `.ecasr` reference in the
/// cache directory (counted on top of `sweep/cache_hit`).
pub const SWEEP_CACHE_FROM_RECORD: &str = "sweep/cache_from_record";
/// Wall-clock span around one sweep grid execution.
pub const SWEEP_EXECUTE_SPAN: &str = "sweep/execute";
/// Simulated session-seconds computed per core-second of wall clock
/// during the sweep — the throughput figure of merit.
pub const PERF_SWEEP_SESS_S_PER_CORE_S: &str = "perf/sweep_sess_s_per_core_s";

// ---------------------------------------------------------- fleet engine
//
// The fleet population engine (see `ecas-core`'s `fleet` module) streams
// batches of synthesized users through the sweep pool; these counters
// expose its progress without materializing per-session state.

/// A fleet user's session was simulated and folded into the reducer.
pub const FLEET_USERS: &str = "fleet/users";
/// A bounded-memory fleet batch completed (synthesis + simulation +
/// reduction).
pub const FLEET_BATCHES: &str = "fleet/batches";
/// Wall-clock span around one full fleet run.
pub const FLEET_EXECUTE_SPAN: &str = "fleet/execute";

// --------------------------------------------------------- replay oracle

/// A session replay (see `ecas-core`'s `oracle` module) matched the
/// simulator's result field-for-field.
pub const ORACLE_REPLAY_PASS: &str = "oracle/replay_pass";
/// A session replay diverged from the simulator's result.
pub const ORACLE_REPLAY_FAIL: &str = "oracle/replay_fail";
/// A replay check was skipped because no event log was recorded.
pub const ORACLE_REPLAY_SKIP: &str = "oracle/replay_skip";
/// A differential check confirmed the online objective never beats
/// the shortest-path optimal.
pub const ORACLE_OBJECTIVE_PASS: &str = "oracle/objective_pass";
/// A differential check found an online objective below the optimal
/// — an optimality violation in the planner or the objective.
pub const ORACLE_OBJECTIVE_FAIL: &str = "oracle/objective_fail";

// -------------------------------------------------------- session records

/// A scenario was run and captured as a `.ecasr` session record
/// (see `ecas-core`'s `record` module).
pub const RECORD_RECORDED: &str = "record/recorded";
/// A stored session record replayed and matched its reference result.
pub const RECORD_VERIFY_PASS: &str = "record/verify_pass";
/// A stored session record diverged from its reference on replay.
pub const RECORD_VERIFY_FAIL: &str = "record/verify_fail";

// ------------------------------------------------------------- simulator

/// A segment download completed.
pub const SIM_SEGMENTS: &str = "sim/segments";
/// A quality-level switch between consecutive segments.
pub const SIM_LEVEL_SWITCHES: &str = "sim/level_switches";
/// A rebuffering stall began.
pub const SIM_STALLS: &str = "sim/stalls";
/// The player idled with a full buffer instead of downloading.
pub const SIM_IDLE_WAITS: &str = "sim/idle_waits";
/// A download was deferred by the energy-aware scheduler.
pub const SIM_DEFERRALS: &str = "sim/deferrals";
/// A connectivity outage window was entered (fault injection).
pub const SIM_OUTAGES: &str = "sim/outages";
/// A segment download was aborted by fault injection.
pub const SIM_ABORTS: &str = "sim/aborts";
/// A segment was served at a degraded level under fault injection.
pub const SIM_DEGRADED_SEGMENTS: &str = "sim/degraded_segments";
/// A faulted segment download was retried.
pub const SIM_RETRIES: &str = "sim/retries";
/// One constant-state chunk processed by the radio-energy integration
/// kernel (`ecas-sim`'s `radio` module) inside the download loop —
/// the deterministic work measure of the simulator's hottest path.
pub const SIM_INTEGRATION_CHUNKS: &str = "sim/integration_chunks";
/// Histogram of observed per-segment throughput (Mbit/s).
pub const SIM_THROUGHPUT_MBPS: &str = "sim/throughput_mbps";
/// Histogram of individual stall durations (seconds).
pub const SIM_STALL_SECONDS: &str = "sim/stall_seconds";
/// Total screen energy of the finished session (joules).
pub const SIM_ENERGY_SCREEN_J: &str = "sim/energy/screen_j";
/// Total decode energy of the finished session (joules).
pub const SIM_ENERGY_DECODE_J: &str = "sim/energy/decode_j";
/// Total radio transfer energy of the finished session (joules).
pub const SIM_ENERGY_RADIO_J: &str = "sim/energy/radio_j";
/// Total radio tail energy of the finished session (joules).
pub const SIM_ENERGY_TAIL_J: &str = "sim/energy/tail_j";
/// Total rebuffering time of the finished session (seconds).
pub const SIM_REBUFFER_S: &str = "sim/rebuffer_s";
/// Mean per-segment QoE of the finished session.
pub const SIM_MEAN_QOE: &str = "sim/mean_qoe";
/// Seconds spent inside injected outage windows.
pub const SIM_OUTAGE_SECONDS: &str = "sim/outage_seconds";
/// Energy spent on downloads that were aborted or degraded (joules).
pub const SIM_WASTED_ENERGY_J: &str = "sim/wasted_energy_j";
/// Wall-clock span around one ABR decision.
pub const SIM_DECISION_SPAN: &str = "sim/decision";
/// Wall-clock span around one segment download.
pub const SIM_DOWNLOAD_SPAN: &str = "sim/download";

// ------------------------------------------------------------ abr solver

/// A (task, level) cell filled by the Eq. (11) optimal planner's
/// forward dynamic program: `n·m` per plan for `n` tasks and `m` levels.
pub const ABR_DP_CELLS: &str = "abr/dp_cells";

// ----------------------------------------------------------- power model

/// Wall-clock span around one power-model measurement.
pub const POWER_MEASURE_SPAN: &str = "power/measure";
/// A power-model measurement was taken.
pub const POWER_MEASUREMENTS: &str = "power/measurements";
/// Last measured energy reading (joules).
pub const POWER_MEASURED_J: &str = "power/measured_j";
/// Last exact (closed-form) energy reading (joules).
pub const POWER_EXACT_J: &str = "power/exact_j";

// ------------------------------------------------- runner and perf gate

/// Wall-clock span around one full experiment run.
pub const CORE_RUN_SPAN: &str = "core/run";
/// Constant-state chunks processed by the standalone radio-integration
/// perf harness (`ecas-bench`'s `perf` binary work counters).
pub const RADIO_INTEGRATION_CHUNKS: &str = "radio/integration_chunks";
/// Perf-gate path id: the end-to-end player simulation loop.
pub const PERF_PATH_SIM_LOOP: &str = "sim_loop";
/// Perf-gate path id: the radio-energy integration kernel.
pub const PERF_PATH_RADIO_INTEGRATION: &str = "radio_integration";
/// Perf-gate path id: the Eq. (11) optimal planner's dynamic program.
pub const PERF_PATH_OPTIMAL_SOLVER: &str = "optimal_solver";

/// Every registered name, for runtime enumeration (e.g. dashboards and
/// the registry round-trip test).
pub const ALL: &[&str] = &[
    SWEEP_CACHE_HIT,
    SWEEP_CACHE_MISS,
    SWEEP_CACHE_CORRUPT,
    SWEEP_CACHE_WRITE_ERROR,
    SWEEP_CACHE_FROM_RECORD,
    SWEEP_EXECUTE_SPAN,
    PERF_SWEEP_SESS_S_PER_CORE_S,
    FLEET_USERS,
    FLEET_BATCHES,
    FLEET_EXECUTE_SPAN,
    ORACLE_REPLAY_PASS,
    ORACLE_REPLAY_FAIL,
    ORACLE_REPLAY_SKIP,
    ORACLE_OBJECTIVE_PASS,
    ORACLE_OBJECTIVE_FAIL,
    RECORD_RECORDED,
    RECORD_VERIFY_PASS,
    RECORD_VERIFY_FAIL,
    SIM_SEGMENTS,
    SIM_LEVEL_SWITCHES,
    SIM_STALLS,
    SIM_IDLE_WAITS,
    SIM_DEFERRALS,
    SIM_OUTAGES,
    SIM_ABORTS,
    SIM_DEGRADED_SEGMENTS,
    SIM_RETRIES,
    SIM_INTEGRATION_CHUNKS,
    SIM_THROUGHPUT_MBPS,
    SIM_STALL_SECONDS,
    SIM_ENERGY_SCREEN_J,
    SIM_ENERGY_DECODE_J,
    SIM_ENERGY_RADIO_J,
    SIM_ENERGY_TAIL_J,
    SIM_REBUFFER_S,
    SIM_MEAN_QOE,
    SIM_OUTAGE_SECONDS,
    SIM_WASTED_ENERGY_J,
    SIM_DECISION_SPAN,
    SIM_DOWNLOAD_SPAN,
    ABR_DP_CELLS,
    POWER_MEASURE_SPAN,
    POWER_MEASUREMENTS,
    POWER_MEASURED_J,
    POWER_EXACT_J,
    CORE_RUN_SPAN,
    RADIO_INTEGRATION_CHUNKS,
    PERF_PATH_SIM_LOOP,
    PERF_PATH_RADIO_INTEGRATION,
    PERF_PATH_OPTIMAL_SOLVER,
];

#[cfg(test)]
mod tests {
    use super::ALL;
    use std::collections::BTreeSet;

    #[test]
    fn registry_values_are_unique_and_well_formed() {
        let set: BTreeSet<&str> = ALL.iter().copied().collect();
        assert_eq!(set.len(), ALL.len(), "duplicate registry values");
        for name in ALL {
            assert!(!name.is_empty());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "/_".contains(c)),
                "non-conventional metric name: {name}"
            );
        }
    }
}
