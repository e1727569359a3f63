//! Committed performance baselines (`BENCH_*.json`).
//!
//! The `perf` binary times the workspace's three hot paths — the
//! simulator inner loop, the radio-energy integration kernel and the
//! Eq. (11) optimal planner — and records each path twice:
//!
//! * **work** — deterministic work counters (integration chunks, DP
//!   cells filled). Same seed, same configuration → byte-identical
//!   counters on every host; CI compares them *exactly*.
//! * **throughput** — measured simulated session-seconds per core-second
//!   ([`ecas_obs::perf::session_seconds_per_core_second`]). Wall-clock,
//!   host-dependent; CI only rejects a *collapse* beyond
//!   [`THROUGHPUT_COLLAPSE_FACTOR`].
//!
//! The two halves live in one [`Baseline`] file, with host metadata
//! ([`HostInfo`]) kept in its own block so readers (and the comparison)
//! never mistake host-specific numbers for comparable ones. The on-disk
//! format is schema-versioned ([`BENCH_SCHEMA`]) and field-order-stable,
//! so `from_json` → `to_json` round-trips the committed file
//! byte-for-byte (a golden test pins this).

use std::collections::BTreeMap;

use ecas_core::types::units::Seconds;
use ecas_obs::perf::PerfStats;
use serde::{Deserialize, Serialize};

/// Version tag of the baseline file layout. Bump on any field change;
/// the comparison refuses files with a different schema.
pub const BENCH_SCHEMA: &str = "ecas-bench/1";

/// The hot paths every valid baseline must cover, in file order.
pub const REQUIRED_PATHS: [&str; 3] = ["sim_loop", "radio_integration", "optimal_solver"];

/// How far measured throughput may fall below the committed baseline
/// before the regression gate fails: the measured median must stay above
/// `committed_median / THROUGHPUT_COLLAPSE_FACTOR`. Generous by design —
/// CI hosts vary widely, and the exact work-counter comparison is the
/// precise regression signal; this gate only catches order-of-magnitude
/// collapses (an accidentally quadratic loop, a debug build).
pub const THROUGHPUT_COLLAPSE_FACTOR: f64 = 20.0;

/// The fleet target the ROADMAP states for the simulator inner loop:
/// simulated session-seconds processed per core-second.
pub const TARGET_SESS_S_PER_CORE_S: f64 = 1e5;

/// Where the baseline was measured. Informational only — never part of
/// the comparison.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism when the baseline was recorded.
    pub cores: u64,
}

impl HostInfo {
    /// Describes the current host.
    #[must_use]
    pub fn current() -> Self {
        Self {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }
}

/// One hot path's record: deterministic work plus measured throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotPath {
    /// Path name (one of [`REQUIRED_PATHS`]).
    pub name: String,
    /// Simulated session-seconds one iteration of this path processes.
    /// `Seconds` serializes as the bare number, and a negative one fails
    /// to parse.
    pub sim_seconds: Seconds,
    /// Deterministic work counters (`<area>/<noun>` names). Compared
    /// exactly by [`Baseline::compare`].
    pub work: BTreeMap<String, u64>,
    /// Simulated session-seconds per core-second across the timed
    /// iterations. Host-dependent; only collapse-checked.
    pub throughput: PerfStats,
}

/// A committed `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// File layout version ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Measurement profile (`"smoke"` or `"full"`).
    pub profile: String,
    /// Timed iterations per hot path.
    pub iters: u64,
    /// Where the committed numbers were measured (not comparable).
    pub host: HostInfo,
    /// The hot-path records, in [`REQUIRED_PATHS`] order.
    pub paths: Vec<HotPath>,
}

impl Baseline {
    /// The record for `name`, if present.
    #[must_use]
    pub fn path(&self, name: &str) -> Option<&HotPath> {
        self.paths.iter().find(|p| p.name == name)
    }

    /// Checks internal consistency: known schema, every required hot
    /// path present with non-empty work counters and at least one timing
    /// sample.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported schema {:?} (expected {BENCH_SCHEMA:?})",
                self.schema
            ));
        }
        for required in REQUIRED_PATHS {
            let path = self
                .path(required)
                .ok_or_else(|| format!("missing hot path {required:?}"))?;
            if path.work.is_empty() {
                return Err(format!("hot path {required:?} records no work counters"));
            }
            if path.throughput.samples == 0 {
                return Err(format!("hot path {required:?} has no timing samples"));
            }
        }
        Ok(())
    }

    /// Serializes to the canonical on-disk form: pretty-printed JSON with
    /// a trailing newline. Field order is struct order and `work` maps
    /// are sorted, so equal values always produce equal bytes.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (the type contains nothing
    /// unserializable, so this indicates a serializer bug).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self)
            // ecas-lint: allow(panic-safety, reason = "Baseline contains only derive-serializable fields; failure here is a serializer bug")
            .expect("baseline serializes");
        text.push('\n');
        text
    }

    /// Parses a baseline document.
    ///
    /// # Errors
    ///
    /// Returns the parse or [`Baseline::validate`] error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let baseline: Baseline = serde_json::from_str(text).map_err(|e| format!("parse: {e}"))?;
        baseline.validate()?;
        Ok(baseline)
    }

    /// Only the deterministic half — path name → work counters — as
    /// canonical JSON. Two same-seed runs must produce identical bytes
    /// here; `scripts/bench.sh` compares exactly that.
    #[must_use]
    pub fn work_json(&self) -> String {
        let map: BTreeMap<String, BTreeMap<String, u64>> = self
            .paths
            .iter()
            .map(|p| (p.name.clone(), p.work.clone()))
            .collect();
        let mut text = serde_json::to_string_pretty(&map)
            // ecas-lint: allow(panic-safety, reason = "a string-keyed map of integers always serializes")
            .expect("work map serializes");
        text.push('\n');
        text
    }

    /// The regression gate: compares a fresh measurement against this
    /// committed baseline. Work counters must match *exactly*; measured
    /// throughput medians must stay above `committed / factor`.
    ///
    /// Returns every violation found (empty = pass). Host metadata and
    /// absolute timings are never compared.
    #[must_use]
    pub fn compare(&self, measured: &Baseline, factor: f64) -> Vec<String> {
        let mut issues = Vec::new();
        if self.schema != measured.schema {
            issues.push(format!(
                "schema mismatch: committed {:?}, measured {:?}",
                self.schema, measured.schema
            ));
            return issues;
        }
        if self.profile != measured.profile {
            issues.push(format!(
                "profile mismatch: committed {:?}, measured {:?} — counters are only comparable within one profile",
                self.profile, measured.profile
            ));
            return issues;
        }
        for committed in &self.paths {
            let Some(fresh) = measured.path(&committed.name) else {
                issues.push(format!(
                    "hot path {:?} missing from measurement",
                    committed.name
                ));
                continue;
            };
            if committed.work != fresh.work {
                issues.push(work_drift(&committed.name, &committed.work, &fresh.work));
            }
            let floor = committed.throughput.median / factor;
            if fresh.throughput.median < floor {
                issues.push(format!(
                    "throughput collapse on {:?}: measured median {:.3e} sess-s/core-s, committed {:.3e} (floor {:.3e} at factor {factor})",
                    committed.name, fresh.throughput.median, committed.throughput.median, floor
                ));
            }
        }
        issues
    }
}

/// Renders an exact work-counter diff for one hot path.
fn work_drift(
    path: &str,
    committed: &BTreeMap<String, u64>,
    measured: &BTreeMap<String, u64>,
) -> String {
    let mut parts = Vec::new();
    for (name, want) in committed {
        match measured.get(name) {
            Some(got) if got == want => {}
            Some(got) => parts.push(format!("{name}: committed {want}, measured {got}")),
            None => parts.push(format!("{name}: committed {want}, measured absent")),
        }
    }
    for name in measured.keys() {
        if !committed.contains_key(name) {
            parts.push(format!("{name}: new counter {}", measured[name]));
        }
    }
    format!("work drift on {path:?}: {}", parts.join("; "))
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let path = |name: &str, chunks: u64| HotPath {
            name: name.to_string(),
            sim_seconds: Seconds::new(198.0),
            work: BTreeMap::from([(format!("{name}/work"), chunks)]),
            throughput: PerfStats {
                samples: 3,
                p10: 1.0e5,
                median: 2.0e5,
                p90: 3.0e5,
            },
        };
        Baseline {
            schema: BENCH_SCHEMA.to_string(),
            profile: "smoke".to_string(),
            iters: 3,
            host: HostInfo {
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                cores: 8,
            },
            paths: vec![
                path("sim_loop", 100),
                path("radio_integration", 200),
                path("optimal_solver", 300),
            ],
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let baseline = sample();
        let text = baseline.to_json();
        let reparsed = Baseline::from_json(&text).unwrap();
        assert_eq!(reparsed, baseline);
        assert_eq!(reparsed.to_json(), text);
    }

    #[test]
    fn validate_rejects_bad_schema_and_missing_paths() {
        let mut b = sample();
        b.schema = "ecas-bench/999".to_string();
        assert!(b.validate().unwrap_err().contains("unsupported schema"));

        let mut b = sample();
        b.paths.retain(|p| p.name != "radio_integration");
        assert!(b.validate().unwrap_err().contains("radio_integration"));
    }

    #[test]
    fn compare_passes_on_identical_work_despite_host_and_timing_drift() {
        let committed = sample();
        let mut measured = sample();
        measured.host.cores = 1;
        measured.host.os = "macos".to_string();
        for p in &mut measured.paths {
            // A slower host: 4x less throughput is well within the gate.
            p.throughput.median /= 4.0;
        }
        assert!(committed
            .compare(&measured, THROUGHPUT_COLLAPSE_FACTOR)
            .is_empty());
    }

    #[test]
    fn compare_fails_on_counter_drift_and_collapse() {
        let committed = sample();

        let mut drifted = sample();
        drifted.paths[0]
            .work
            .insert("sim_loop/work".to_string(), 101);
        let issues = committed.compare(&drifted, THROUGHPUT_COLLAPSE_FACTOR);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].contains("work drift"), "{issues:?}");
        assert!(issues[0].contains("committed 100, measured 101"));

        let mut collapsed = sample();
        collapsed.paths[1].throughput.median =
            committed.paths[1].throughput.median / (2.0 * THROUGHPUT_COLLAPSE_FACTOR);
        let issues = committed.compare(&collapsed, THROUGHPUT_COLLAPSE_FACTOR);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].contains("throughput collapse"), "{issues:?}");
    }

    #[test]
    fn compare_refuses_cross_profile_comparison() {
        let committed = sample();
        let mut full = sample();
        full.profile = "full".to_string();
        let issues = committed.compare(&full, THROUGHPUT_COLLAPSE_FACTOR);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].contains("profile mismatch"));
    }

    #[test]
    fn work_json_is_deterministic_and_sorted() {
        let a = sample().work_json();
        let b = sample().work_json();
        assert_eq!(a, b);
        let sim = a.find("\"sim_loop\"").unwrap();
        let radio = a.find("\"radio_integration\"").unwrap();
        // BTreeMap keys sort alphabetically regardless of insertion order.
        assert!(radio < sim);
    }
}
