//! Deterministic fault injection for the download path.
//!
//! Real LTE sessions — especially the moving-vehicle regime the paper
//! evaluates in Section V — see complete link outages in deep fades,
//! transfers that stall mid-segment, and episodes where throughput
//! collapses to a fraction of the trace value. A perfect-HTTP simulator
//! never exercises any of that, so the retry and radio-wakeup behaviour
//! that dominates the energy story under failure goes untested.
//!
//! This module schedules those failure modes onto a session
//! *deterministically*: a [`FaultSpec`] describes how hostile the link is
//! (outage and collapse rates, per-attempt failure probability) and
//! [`FaultSpec::plan`] expands it into a concrete [`FaultPlan`] — sorted
//! outage intervals, collapse episodes, and hash-derived per-attempt
//! failure draws — from a seed. Same seed, same spec ⇒ the same plan,
//! byte for byte, so faulted runs replay exactly like clean ones and the
//! workspace determinism guarantee (PR 1's manifest hashing) holds.
//!
//! The plan is consumed by the simulator's download loop (see
//! [`crate::Simulator`]): outages zero the link, collapses scale it, and
//! doomed attempts abort after a deterministic fraction of the retry
//! policy's per-attempt budget. The plan never touches wall clocks or
//! process entropy, keeping `ecas-sim` clean under the `ecas-lint`
//! determinism rule.

use ecas_types::units::Seconds;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Describes the failure modes to inject into a session.
///
/// Rates are per minute of session time; episode durations are drawn
/// uniformly from the given ranges. All draws come from [`FaultSpec::seed`]
/// (independent of the trace seed) so the same spec can be replayed over
/// different traces, or re-drawn over the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed for every stochastic choice the plan makes.
    pub seed: u64,
    /// Expected complete link outages per minute of session time.
    pub outages_per_minute: f64,
    /// Shortest outage duration.
    pub outage_min: Seconds,
    /// Longest outage duration.
    pub outage_max: Seconds,
    /// Probability that any single download attempt fails mid-flight
    /// (a reset connection, a dead TCP stream).
    pub failure_probability: f64,
    /// Expected throughput-collapse episodes per minute.
    pub collapses_per_minute: f64,
    /// Shortest collapse duration.
    pub collapse_min: Seconds,
    /// Longest collapse duration.
    pub collapse_max: Seconds,
    /// Multiplier applied to the trace throughput during a collapse
    /// (in `(0, 1]`; outages handle the zero case).
    pub collapse_factor: f64,
}

impl FaultSpec {
    /// A spec that injects nothing — the simulator's legacy behaviour.
    #[must_use]
    pub fn disabled(seed: u64) -> Self {
        Self {
            seed,
            outages_per_minute: 0.0,
            outage_min: Seconds::zero(),
            outage_max: Seconds::zero(),
            failure_probability: 0.0,
            collapses_per_minute: 0.0,
            collapse_min: Seconds::zero(),
            collapse_max: Seconds::zero(),
            collapse_factor: 1.0,
        }
    }

    /// A spec whose hostility scales linearly with `intensity` in
    /// `[0, 1]`: `0.0` injects nothing, `1.0` matches [`FaultSpec::severe`]
    /// (outages every ~40 s, every fourth attempt failing, frequent deep
    /// collapses). Used by the fault-sweep harness.
    #[must_use]
    pub fn scaled(intensity: f64, seed: u64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        Self {
            seed,
            outages_per_minute: 1.5 * i,
            outage_min: Seconds::new(0.5),
            outage_max: Seconds::new(1.0 + 7.0 * i),
            failure_probability: 0.25 * i,
            collapses_per_minute: 2.0 * i,
            collapse_min: Seconds::new(2.0),
            collapse_max: Seconds::new(4.0 + 8.0 * i),
            collapse_factor: 0.2,
        }
    }

    /// A moderately hostile link: occasional outages and failures.
    #[must_use]
    pub fn moderate(seed: u64) -> Self {
        Self::scaled(0.5, seed)
    }

    /// A severely hostile link: the deep-fade, moving-vehicle regime.
    #[must_use]
    pub fn severe(seed: u64) -> Self {
        Self::scaled(1.0, seed)
    }

    /// Whether the spec injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.outages_per_minute > 0.0
            || self.failure_probability > 0.0
            || self.collapses_per_minute > 0.0
    }

    /// Validates rates, probabilities and duration ranges.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.outages_per_minute >= 0.0
            && self.collapses_per_minute >= 0.0
            && (0.0..=1.0).contains(&self.failure_probability)
            && self.collapse_factor > 0.0
            && self.collapse_factor <= 1.0
            && self.outage_max >= self.outage_min
            && self.collapse_max >= self.collapse_min
            && (self.outages_per_minute <= 0.0 || self.outage_min.value() > 0.0)
            && (self.collapses_per_minute <= 0.0 || self.collapse_min.value() > 0.0)
    }

    /// Expands the spec into a concrete schedule covering `[0, horizon]`.
    /// Beyond the horizon the link is fault-free, which bounds every
    /// faulted download and guarantees session termination.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FaultSpec::is_valid`].
    #[must_use]
    pub fn plan(&self, horizon: Seconds) -> FaultPlan {
        assert!(self.is_valid(), "invalid fault spec: {self:?}");
        let h = horizon.value().max(0.0);
        let mut outage_rng = SmallRng::seed_from_u64(self.seed ^ 0x0007_A6E5_EED0);
        let mut collapse_rng = SmallRng::seed_from_u64(self.seed ^ 0xC011_AB5E_5EED);
        FaultPlan {
            outages: episodes(
                &mut outage_rng,
                self.outages_per_minute,
                self.outage_min.value(),
                self.outage_max.value(),
                h,
            ),
            collapses: episodes(
                &mut collapse_rng,
                self.collapses_per_minute,
                self.collapse_min.value(),
                self.collapse_max.value(),
                h,
            ),
            collapse_factor: self.collapse_factor,
            failure_probability: self.failure_probability,
            seed: self.seed,
        }
    }
}

/// Draws non-overlapping `(start, end)` episodes with exponential
/// inter-arrival gaps (a Poisson process thinned by the episodes
/// themselves) and uniform durations, until `horizon`.
fn episodes(
    rng: &mut SmallRng,
    per_minute: f64,
    shortest: f64,
    longest: f64,
    horizon: f64,
) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    if per_minute <= 0.0 || horizon <= 0.0 {
        return out;
    }
    let rate = per_minute / 60.0;
    let mut t = 0.0_f64;
    // The cap is a runaway guard only; realistic rates never approach it.
    while out.len() < 100_000 {
        let u: f64 = rng.gen();
        let gap = (-(1.0 - u).ln() / rate).max(1e-3);
        t += gap;
        if t >= horizon {
            break;
        }
        let d: f64 = rng.gen();
        let duration = shortest + d * (longest - shortest);
        let end = t + duration.max(0.0);
        out.push((t, end));
        t = end;
    }
    out
}

/// A concrete, fully deterministic fault schedule for one session.
///
/// Built by [`FaultSpec::plan`]; queried by the simulator's download loop
/// at simulation time. All queries are pure functions of `(plan, t)` or
/// `(plan, segment, attempt)`, so replaying a run reproduces the exact
/// same failures in the exact same order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Sorted, non-overlapping complete-outage intervals.
    outages: Vec<(f64, f64)>,
    /// Sorted, non-overlapping throughput-collapse intervals.
    collapses: Vec<(f64, f64)>,
    collapse_factor: f64,
    failure_probability: f64,
    seed: u64,
}

/// The interval in a sorted non-overlapping list containing `t`, if any.
fn interval_at(list: &[(f64, f64)], t: f64) -> Option<(f64, f64)> {
    let i = list.partition_point(|&(start, _)| start <= t);
    i.checked_sub(1)
        .and_then(|j| list.get(j))
        .filter(|&&(_, end)| t < end)
        .copied()
}

/// The earliest episode boundary (start or end) strictly after `t`.
fn next_boundary(list: &[(f64, f64)], t: f64) -> Option<f64> {
    let i = list.partition_point(|&(start, _)| start <= t);
    let containing_end = i
        .checked_sub(1)
        .and_then(|j| list.get(j))
        .and_then(|&(_, end)| (end > t).then_some(end));
    let upcoming_start = list.get(i).map(|&(start, _)| start);
    match (containing_end, upcoming_start) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Seconds of overlap between `[from, to]` and the episodes in `list`.
fn overlap(list: &[(f64, f64)], from: f64, to: f64) -> f64 {
    list.iter()
        .map(|&(start, end)| (end.min(to) - start.max(from)).max(0.0))
        .sum()
}

/// FNV-1a over a handful of words (their little-endian bytes, in order) —
/// the per-attempt failure draw. Hashing `(seed, segment, attempt, salt)`
/// makes the draw independent of query order, so retries cannot perturb
/// other segments' fates.
fn fnv1a(words: [u64; 4]) -> u64 {
    let mut bytes = [0u8; 32];
    for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    ecas_obs::fnv1a_64(&bytes)
}

/// Maps a hash to a uniform draw in `[0, 1)` (53 mantissa bits).
fn unit_from_hash(h: u64) -> f64 {
    (h >> 11) as f64 / (1_u64 << 53) as f64
}

impl FaultPlan {
    /// Whether the plan schedules nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.collapses.is_empty() && self.failure_probability <= 0.0
    }

    /// The throughput multiplier at time `t`: `0` inside an outage, the
    /// collapse factor inside a collapse episode, `1` otherwise.
    #[must_use]
    pub fn factor_at(&self, t: Seconds) -> f64 {
        if interval_at(&self.outages, t.value()).is_some() {
            0.0
        } else if interval_at(&self.collapses, t.value()).is_some() {
            self.collapse_factor
        } else {
            1.0
        }
    }

    /// The outage interval containing `t`, if any.
    #[must_use]
    pub fn outage_containing(&self, t: Seconds) -> Option<(Seconds, Seconds)> {
        interval_at(&self.outages, t.value())
            .map(|(start, end)| (Seconds::new(start), Seconds::new(end)))
    }

    /// The earliest fault transition (episode start or end) strictly
    /// after `t`, or `None` when the rest of the timeline is fault-free.
    #[must_use]
    pub fn next_transition_after(&self, t: Seconds) -> Option<Seconds> {
        let a = next_boundary(&self.outages, t.value());
        let b = next_boundary(&self.collapses, t.value());
        match (a, b) {
            (Some(x), Some(y)) => Some(Seconds::new(x.min(y))),
            (x, y) => x.or(y).map(Seconds::new),
        }
    }

    /// Total outage time overlapping `[from, to]`.
    #[must_use]
    pub fn outage_seconds_between(&self, from: Seconds, to: Seconds) -> Seconds {
        Seconds::new(overlap(&self.outages, from.value(), to.value()))
    }

    /// Whether download attempt `attempt` (1-based) of `segment` is doomed
    /// to fail mid-flight; `Some(f)` gives the fraction of the per-attempt
    /// time budget after which the failure fires, in `[0.1, 0.9)`.
    ///
    /// The draw hashes `(seed, segment, attempt)`, so it depends on
    /// nothing but the plan itself — not on query order, simulation state
    /// or earlier retries.
    #[must_use]
    pub fn attempt_failure(&self, segment: usize, attempt: usize) -> Option<f64> {
        if self.failure_probability <= 0.0 {
            return None;
        }
        let seg = segment as u64;
        let att = attempt as u64;
        let u = unit_from_hash(fnv1a([self.seed, seg, att, 0x0BAD]));
        (u < self.failure_probability)
            .then(|| 0.1 + 0.8 * unit_from_hash(fnv1a([self.seed, seg, att, 0x0FA1])))
    }

    /// The scheduled outage intervals (for overlays and reports).
    #[must_use]
    pub fn outages(&self) -> Vec<(Seconds, Seconds)> {
        self.outages
            .iter()
            .map(|&(s, e)| (Seconds::new(s), Seconds::new(e)))
            .collect()
    }

    /// The scheduled collapse intervals.
    #[must_use]
    pub fn collapses(&self) -> Vec<(Seconds, Seconds)> {
        self.collapses
            .iter()
            .map(|&(s, e)| (Seconds::new(s), Seconds::new(e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(intensity: f64, seed: u64) -> FaultPlan {
        FaultSpec::scaled(intensity, seed).plan(Seconds::new(600.0))
    }

    #[test]
    fn disabled_spec_plans_nothing() {
        let p = FaultSpec::disabled(7).plan(Seconds::new(600.0));
        assert!(p.is_empty());
        assert!((p.factor_at(Seconds::new(10.0)) - 1.0).abs() < 1e-12);
        assert!(p.next_transition_after(Seconds::zero()).is_none());
        assert!(p.attempt_failure(0, 1).is_none());
    }

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(plan(1.0, 42), plan(1.0, 42));
        assert_ne!(plan(1.0, 42), plan(1.0, 43));
    }

    #[test]
    fn episodes_are_sorted_and_disjoint() {
        let p = plan(1.0, 9);
        for list in [p.outages(), p.collapses()] {
            assert!(!list.is_empty(), "severe spec schedules episodes");
            for pair in list.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "episodes overlap: {pair:?}");
            }
            for (s, e) in &list {
                assert!(e > s, "empty episode {s}..{e}");
            }
        }
    }

    #[test]
    fn factor_reflects_schedule() {
        let p = plan(1.0, 11);
        let (start, end) = p.outages()[0];
        let mid = Seconds::new(0.5 * (start.value() + end.value()));
        assert!((p.factor_at(mid)).abs() < 1e-12, "outage zeroes the link");
        assert!(p.outage_containing(mid).is_some());
        // Just past the end the outage no longer applies.
        let after = Seconds::new(end.value() + 1e-6);
        assert!(p.outage_containing(after).is_none());
    }

    #[test]
    fn next_transition_walks_every_boundary() {
        let p = plan(0.7, 5);
        let mut t = Seconds::zero();
        let mut hops = 0;
        while let Some(next) = p.next_transition_after(t) {
            assert!(next > t, "transition must move forward");
            t = next;
            hops += 1;
            assert!(hops < 10_000, "transition walk must terminate");
        }
        assert!(hops >= 2, "expected at least one episode's boundaries");
    }

    #[test]
    fn outage_overlap_accounting() {
        let p = plan(1.0, 3);
        let total = p.outage_seconds_between(Seconds::zero(), Seconds::new(600.0));
        let by_hand: f64 = p
            .outages()
            .iter()
            .map(|(s, e)| (e.value().min(600.0) - s.value()).max(0.0))
            .sum();
        assert!((total.value() - by_hand).abs() < 1e-9);
        assert!(total.value() > 0.0);
    }

    #[test]
    fn attempt_failure_is_order_independent_and_bounded() {
        let p = plan(1.0, 17);
        let forward: Vec<_> = (0..50).map(|s| p.attempt_failure(s, 1)).collect();
        let backward: Vec<_> = (0..50).rev().map(|s| p.attempt_failure(s, 1)).collect();
        let reversed: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        let doomed = forward.iter().flatten().count();
        assert!(doomed > 0, "25% failure rate over 50 segments");
        assert!(doomed < 50, "not every attempt fails");
        for f in forward.into_iter().flatten() {
            assert!((0.1..0.9).contains(&f), "failure fraction {f}");
        }
    }

    #[test]
    fn scaled_zero_is_inactive() {
        assert!(!FaultSpec::scaled(0.0, 1).is_active());
        assert!(FaultSpec::scaled(0.1, 1).is_active());
        assert!(FaultSpec::severe(1).is_active());
        assert!(!FaultSpec::disabled(1).is_active());
    }

    #[test]
    #[should_panic(expected = "invalid fault spec")]
    fn invalid_spec_rejected() {
        let mut s = FaultSpec::severe(1);
        s.failure_probability = 1.5;
        let _ = s.plan(Seconds::new(10.0));
    }

    #[test]
    fn serde_roundtrip() {
        let p = plan(0.9, 23);
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(p, serde_json::from_str::<FaultPlan>(&json).unwrap());
    }
}
