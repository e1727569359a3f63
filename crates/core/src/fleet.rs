//! Fleet-scale population simulation with streaming aggregation.
//!
//! The paper's evaluation runs a handful of Table V sessions; the
//! ROADMAP north star is a deployment serving millions of users. This
//! module closes that gap without ever holding a fleet in memory:
//!
//! 1. a [`PopulationSpec`] describes the fleet intensively (diurnal
//!    arrivals, context / battery / signal mix) — user `i` is a pure
//!    function of the fleet seed, so no per-user state exists up front;
//! 2. [`FleetEngine::run`] walks the fleet in bounded-size batches of
//!    user indices. Each user is one job of [`SweepEngine`]'s
//!    work-stealing pool ([`SweepEngine::run_generated`]): the worker
//!    derives the user, synthesizes the session, simulates it (through
//!    the cache when the policy has one), drops the trace and hands
//!    back only the user spec and its result. The caller folds each
//!    batch's results into a [`FleetReducer`] **in global user order**
//!    — then drops them;
//! 3. the reducer keeps only aggregates: counters, fixed-bin QoE and
//!    energy histograms ([`FixedHistogram`]), per-class [`ClassReport`]
//!    slices (context / battery / signal) and an arrivals-by-hour
//!    profile. Peak memory is one batch of results plus one trace per
//!    worker, independent of fleet size.
//!
//! **Determinism.** `SweepEngine::run_generated` returns results in
//! user-index order regardless of [`ExecPolicy`], and the reducer folds
//! them in that order across batches, so the aggregate report is
//! byte-identical for `Sequential` and `Parallel { jobs }` execution
//! *and* invariant to the batch size (the floating-point sums
//! accumulate in the same global order either way). CI asserts both.
//!
//! **Shards.** [`FleetReducer::merge`] combines independently built
//! reducers. Integer state (counters, histograms) merges exactly;
//! floating-point sums merge associatively up to the usual rounding, so
//! sharded and single-pass runs agree to within f64 round-off (the
//! engine's own streaming path never relies on merge — it folds one
//! reducer in order precisely to keep the byte-identity guarantee).
//!
//! Percentile tails use the workspace's shared [`nearest_rank`]
//! convention over the histogram's cumulative counts, reported at bin
//! midpoints.

use std::sync::Arc;

use ecas_obs::{names, perf, MetricsRegistry};
use ecas_sim::result::SessionResult;
use ecas_trace::population::{BatteryState, FleetContext, PopulationSpec, SignalTier, UserSpec};
use ecas_types::float::nearest_rank;
use ecas_types::units::MegaBytes;
use serde::{Deserialize, Serialize};

use crate::approach::Approach;
use crate::runner::ExperimentRunner;
use crate::sweep::{CacheStats, ExecPolicy, SweepEngine};

/// QoE histogram range: Eq. (1) scores live in the MOS band `[0, 5]`.
const QOE_LO: f64 = 0.0;
/// Upper edge of the QoE histogram.
const QOE_HI: f64 = 5.0;
/// QoE histogram resolution (0.1-MOS bins).
const QOE_BINS: usize = 50;

/// Energy histogram range: a 10-minute 1080p session on a poor link
/// stays well under 3200 J with the Table VI power model; anything
/// above clamps into the top bin.
const ENERGY_LO: f64 = 0.0;
/// Upper edge of the energy histogram (joules).
const ENERGY_HI: f64 = 3200.0;
/// Energy histogram resolution (50-joule bins).
const ENERGY_BINS: usize = 64;

/// A fixed-range, fixed-width histogram with saturating edge bins.
///
/// The bounded-memory backbone of the fleet reducer: recording is O(1),
/// merging is element-wise `u64` addition (exact), and percentile tails
/// come from the cumulative counts via the shared `nearest_rank`
/// convention, reported at bin midpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// NaN samples, counted apart from the bins so they can be reported
    /// explicitly instead of silently polluting the lowest bin.
    #[serde(default)]
    nan: u64,
}

impl FixedHistogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `hi <= lo`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            nan: 0,
        }
    }

    fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Records one value; out-of-range values clamp into the edge bins.
    /// NaN is counted in the explicit [`Self::nan_count`] tally — not a
    /// bin — so it still contributes to [`Self::total`] (keeping the
    /// `total == users` invariant) without invisibly skewing the lowest
    /// bin's percentile mass.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            self.nan += 1;
            return;
        }
        let raw = (value - self.lo) / self.bin_width();
        let idx = if raw < 0.0 {
            0
        } else {
            (raw as usize).min(self.counts.len() - 1)
        };
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot += 1;
        }
    }

    /// Total recorded count, NaN samples included.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.finite() + self.nan
    }

    /// Finite samples actually sitting in bins.
    fn finite(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// NaN samples recorded (excluded from every bin and percentile).
    #[must_use]
    pub fn nan_count(&self) -> u64 {
        self.nan
    }

    /// Adds `other`'s counts into `self` (exact).
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different shapes.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert!(
            self.counts.len() == other.counts.len()
                && self.lo.to_bits() == other.lo.to_bits()
                && self.hi.to_bits() == other.hi.to_bits(),
            "cannot merge differently-shaped histograms"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.nan += other.nan;
    }

    /// The `p`-quantile (0 ≤ p ≤ 1) of the **finite** samples under the
    /// workspace nearest-rank convention, reported as the midpoint of
    /// the bin holding the ranked sample. `None` when no finite sample
    /// was recorded — and `None` (never a silently saturated rank) in
    /// the degenerate case of a finite count that does not fit `usize`
    /// on a 32-bit target.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` (via `nearest_rank`).
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let finite = usize::try_from(self.finite()).ok()?;
        let rank = nearest_rank(finite, p)? as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(self.lo + (i as f64 + 0.5) * self.bin_width());
            }
        }
        None
    }
}

/// Sub-aggregate for one population class (a context, battery state or
/// signal tier): enough to report the class share and its mean QoE and
/// energy without per-session state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct ClassAgg {
    count: u64,
    qoe_sum: f64,
    energy_sum: f64,
}

impl ClassAgg {
    fn absorb(&mut self, qoe: f64, energy: f64) {
        self.count += 1;
        self.qoe_sum += qoe;
        self.energy_sum += energy;
    }

    fn merge(&mut self, other: &ClassAgg) {
        self.count += other.count;
        self.qoe_sum += other.qoe_sum;
        self.energy_sum += other.energy_sum;
    }

    fn report(&self, class: &str, fleet: u64) -> ClassReport {
        let n = self.count as f64;
        ClassReport {
            class: class.to_string(),
            share: if fleet == 0 {
                0.0
            } else {
                self.count as f64 / fleet as f64
            },
            mean_qoe: if self.count == 0 {
                0.0
            } else {
                self.qoe_sum / n
            },
            mean_energy_j: if self.count == 0 {
                0.0
            } else {
                self.energy_sum / n
            },
        }
    }
}

/// The streaming fleet aggregator: absorbs one `(user, result)` pair at
/// a time and keeps only O(1) state — counters, sums, fixed-bin
/// histograms, per-class sub-aggregates and the arrivals profile.
///
/// Reducers built over disjoint user ranges can be combined with
/// [`FleetReducer::merge`] (exact for all integer state; floating-point
/// sums combine up to f64 rounding).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReducer {
    users: u64,
    segments: u64,
    switches: u64,
    retries: u64,
    aborts: u64,
    degraded: u64,
    stalled_sessions: u64,
    qoe_sum: f64,
    energy_sum: f64,
    screen_sum: f64,
    decode_sum: f64,
    radio_sum: f64,
    tail_sum: f64,
    rebuffer_sum: f64,
    wall_sum: f64,
    played_sum: f64,
    downloaded: MegaBytes,
    arrivals: [u64; 24],
    by_context: [ClassAgg; 4],
    by_battery: [ClassAgg; 3],
    by_signal: [ClassAgg; 3],
    qoe_hist: FixedHistogram,
    energy_hist: FixedHistogram,
}

impl Default for FleetReducer {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetReducer {
    /// An empty reducer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            users: 0,
            segments: 0,
            switches: 0,
            retries: 0,
            aborts: 0,
            degraded: 0,
            stalled_sessions: 0,
            qoe_sum: 0.0,
            energy_sum: 0.0,
            screen_sum: 0.0,
            decode_sum: 0.0,
            radio_sum: 0.0,
            tail_sum: 0.0,
            rebuffer_sum: 0.0,
            wall_sum: 0.0,
            played_sum: 0.0,
            downloaded: MegaBytes::default(),
            arrivals: [0; 24],
            by_context: [ClassAgg::default(); 4],
            by_battery: [ClassAgg::default(); 3],
            by_signal: [ClassAgg::default(); 3],
            qoe_hist: FixedHistogram::new(QOE_LO, QOE_HI, QOE_BINS),
            energy_hist: FixedHistogram::new(ENERGY_LO, ENERGY_HI, ENERGY_BINS),
        }
    }

    /// Number of sessions absorbed so far.
    #[must_use]
    pub fn users(&self) -> u64 {
        self.users
    }

    /// Folds one simulated session into the aggregate.
    pub fn absorb(&mut self, user: &UserSpec, result: &SessionResult) {
        let qoe = result.mean_qoe.value();
        let energy = result.total_energy().value();

        self.users += 1;
        self.segments += result.tasks.len() as u64;
        self.switches += result.switches as u64;
        self.retries += result.retries as u64;
        self.aborts += result.aborts as u64;
        self.degraded += result.degraded_segments as u64;
        if result.total_rebuffer.value() > 0.0 {
            self.stalled_sessions += 1;
        }
        self.qoe_sum += qoe;
        self.energy_sum += energy;
        self.screen_sum += result.energy.screen.value();
        self.decode_sum += result.energy.decode.value();
        self.radio_sum += result.energy.radio.value();
        self.tail_sum += result.energy.tail.value();
        self.rebuffer_sum += result.total_rebuffer.value();
        self.wall_sum += result.wall_time.value();
        self.played_sum += result.played.value();
        self.downloaded += result.downloaded;

        let hour = (user.hour as usize).min(23);
        if let Some(slot) = self.arrivals.get_mut(hour) {
            *slot += 1;
        }
        let ctx = match user.context {
            FleetContext::Static => 0,
            FleetContext::Walking => 1,
            FleetContext::Vehicle => 2,
            FleetContext::Commute => 3,
        };
        if let Some(agg) = self.by_context.get_mut(ctx) {
            agg.absorb(qoe, energy);
        }
        let bat = match user.battery {
            BatteryState::Charged => 0,
            BatteryState::Normal => 1,
            BatteryState::Low => 2,
        };
        if let Some(agg) = self.by_battery.get_mut(bat) {
            agg.absorb(qoe, energy);
        }
        let sig = match user.signal {
            SignalTier::Good => 0,
            SignalTier::Fair => 1,
            SignalTier::Poor => 2,
        };
        if let Some(agg) = self.by_signal.get_mut(sig) {
            agg.absorb(qoe, energy);
        }
        self.qoe_hist.record(qoe);
        self.energy_hist.record(energy);
    }

    /// Combines `other` (built over a disjoint user range) into `self`.
    /// Counters and histograms add exactly; floating-point sums add with
    /// the usual f64 rounding.
    pub fn merge(&mut self, other: &FleetReducer) {
        self.users += other.users;
        self.segments += other.segments;
        self.switches += other.switches;
        self.retries += other.retries;
        self.aborts += other.aborts;
        self.degraded += other.degraded;
        self.stalled_sessions += other.stalled_sessions;
        self.qoe_sum += other.qoe_sum;
        self.energy_sum += other.energy_sum;
        self.screen_sum += other.screen_sum;
        self.decode_sum += other.decode_sum;
        self.radio_sum += other.radio_sum;
        self.tail_sum += other.tail_sum;
        self.rebuffer_sum += other.rebuffer_sum;
        self.wall_sum += other.wall_sum;
        self.played_sum += other.played_sum;
        self.downloaded += other.downloaded;
        for (a, b) in self.arrivals.iter_mut().zip(&other.arrivals) {
            *a += b;
        }
        for (a, b) in self.by_context.iter_mut().zip(&other.by_context) {
            a.merge(b);
        }
        for (a, b) in self.by_battery.iter_mut().zip(&other.by_battery) {
            a.merge(b);
        }
        for (a, b) in self.by_signal.iter_mut().zip(&other.by_signal) {
            a.merge(b);
        }
        self.qoe_hist.merge(&other.qoe_hist);
        self.energy_hist.merge(&other.energy_hist);
    }

    /// Freezes the aggregate into a serializable report.
    #[must_use]
    pub fn finalize(&self) -> FleetReport {
        let n = self.users as f64;
        let mean = |sum: f64| if self.users == 0 { 0.0 } else { sum / n };
        let tail = |h: &FixedHistogram| Tail {
            p50: h.percentile(0.50).unwrap_or(0.0),
            p90: h.percentile(0.90).unwrap_or(0.0),
            p99: h.percentile(0.99).unwrap_or(0.0),
        };
        FleetReport {
            users: self.users,
            segments: self.segments,
            switches: self.switches,
            retries: self.retries,
            aborts: self.aborts,
            degraded_segments: self.degraded,
            stalled_sessions: self.stalled_sessions,
            mean_qoe: mean(self.qoe_sum),
            mean_energy_j: mean(self.energy_sum),
            energy_per_gb_j: if self.downloaded.value() > 0.0 {
                self.energy_sum / (self.downloaded.value() / 1000.0)
            } else {
                0.0
            },
            energy_screen_j: self.screen_sum,
            energy_decode_j: self.decode_sum,
            energy_radio_j: self.radio_sum,
            energy_tail_j: self.tail_sum,
            rebuffer_ratio: if self.wall_sum > 0.0 {
                self.rebuffer_sum / self.wall_sum
            } else {
                0.0
            },
            stalled_share: mean(self.stalled_sessions as f64),
            degraded_share: if self.segments == 0 {
                0.0
            } else {
                self.degraded as f64 / self.segments as f64
            },
            played_s: self.played_sum,
            downloaded_mb: self.downloaded,
            qoe_tail: tail(&self.qoe_hist),
            energy_tail: tail(&self.energy_hist),
            qoe_nan: self.qoe_hist.nan_count(),
            energy_nan: self.energy_hist.nan_count(),
            arrivals_by_hour: self.arrivals.to_vec(),
            by_context: FleetContext::all()
                .iter()
                .zip(&self.by_context)
                .map(|(c, agg)| agg.report(&c.to_string(), self.users))
                .collect(),
            by_battery: BatteryState::all()
                .iter()
                .zip(&self.by_battery)
                .map(|(b, agg)| agg.report(&b.to_string(), self.users))
                .collect(),
            by_signal: SignalTier::all()
                .iter()
                .zip(&self.by_signal)
                .map(|(s, agg)| agg.report(&s.to_string(), self.users))
                .collect(),
        }
    }
}

/// Percentile tails of a fleet distribution (nearest-rank-from-below at
/// histogram-bin resolution).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Per-class slice of the fleet (one context, battery state or signal
/// tier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// Class label (e.g. `"commute"`, `"low"`, `"poor"`).
    pub class: String,
    /// Fraction of the fleet in this class.
    pub share: f64,
    /// Mean session QoE of the class.
    pub mean_qoe: f64,
    /// Mean session energy of the class (joules).
    pub mean_energy_j: f64,
}

/// The aggregate outcome of a fleet run: everything the deployment
/// claim needs, nothing per-session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Sessions simulated.
    pub users: u64,
    /// Segments downloaded across the fleet.
    pub segments: u64,
    /// Bitrate switches across the fleet.
    pub switches: u64,
    /// Faulted-download retries across the fleet.
    pub retries: u64,
    /// Aborted download attempts across the fleet.
    pub aborts: u64,
    /// Segments served degraded after exhausting retries.
    pub degraded_segments: u64,
    /// Sessions that stalled at least once.
    pub stalled_sessions: u64,
    /// Fleet mean of per-session mean QoE.
    pub mean_qoe: f64,
    /// Fleet mean session energy (joules).
    pub mean_energy_j: f64,
    /// Total energy per gigabyte delivered (J/GB).
    pub energy_per_gb_j: f64,
    /// Total screen energy (joules).
    pub energy_screen_j: f64,
    /// Total decode energy (joules).
    pub energy_decode_j: f64,
    /// Total radio transfer energy (joules).
    pub energy_radio_j: f64,
    /// Total radio tail energy (joules).
    pub energy_tail_j: f64,
    /// Fleet stall time over fleet wall time.
    pub rebuffer_ratio: f64,
    /// Fraction of sessions that stalled at least once.
    pub stalled_share: f64,
    /// Fraction of segments served degraded.
    pub degraded_share: f64,
    /// Seconds of video played across the fleet.
    pub played_s: f64,
    /// Megabytes delivered across the fleet.
    pub downloaded_mb: MegaBytes,
    /// QoE distribution tails.
    pub qoe_tail: Tail,
    /// Session-energy distribution tails (joules).
    pub energy_tail: Tail,
    /// Sessions whose QoE came back NaN (excluded from the QoE tails;
    /// nonzero means a model bug upstream, so the report says so).
    #[serde(default)]
    pub qoe_nan: u64,
    /// Sessions whose energy came back NaN (excluded from the energy
    /// tails).
    #[serde(default)]
    pub energy_nan: u64,
    /// Session arrivals per local hour (24 entries).
    pub arrivals_by_hour: Vec<u64>,
    /// Slices by watching context.
    pub by_context: Vec<ClassReport>,
    /// Slices by battery state.
    pub by_battery: Vec<ClassReport>,
    /// Slices by signal tier.
    pub by_signal: Vec<ClassReport>,
}

impl FleetReport {
    /// Renders the report as stable plain text. Contains no timing,
    /// policy or host information, so two runs of the same fleet under
    /// any execution policy print byte-identical text — CI diffs it.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // ecas-lint: allow(panic-safety, reason = "writing to a String cannot fail")
        let mut w = |line: String| writeln!(out, "{line}").expect("String write cannot fail");
        w(format!("fleet users={}", self.users));
        w(format!(
            "sessions segments={} switches={} retries={} aborts={} degraded={} stalled={}",
            self.segments,
            self.switches,
            self.retries,
            self.aborts,
            self.degraded_segments,
            self.stalled_sessions
        ));
        w(format!(
            "qoe mean={:.6} p50={:.3} p90={:.3} p99={:.3} nan={}",
            self.mean_qoe, self.qoe_tail.p50, self.qoe_tail.p90, self.qoe_tail.p99, self.qoe_nan
        ));
        w(format!(
            "energy mean_j={:.6} p50_j={:.1} p90_j={:.1} p99_j={:.1} per_gb_j={:.3} nan={}",
            self.mean_energy_j,
            self.energy_tail.p50,
            self.energy_tail.p90,
            self.energy_tail.p99,
            self.energy_per_gb_j,
            self.energy_nan
        ));
        w(format!(
            "energy_split screen_j={:.3} decode_j={:.3} radio_j={:.3} tail_j={:.3}",
            self.energy_screen_j, self.energy_decode_j, self.energy_radio_j, self.energy_tail_j
        ));
        w(format!(
            "playback rebuffer_ratio={:.6} stalled_share={:.6} degraded_share={:.6} played_s={:.1} downloaded_mb={:.3}",
            self.rebuffer_ratio,
            self.stalled_share,
            self.degraded_share,
            self.played_s,
            self.downloaded_mb.value()
        ));
        let hours: Vec<String> = self.arrivals_by_hour.iter().map(u64::to_string).collect();
        w(format!("arrivals_by_hour {}", hours.join(",")));
        let groups = [
            ("context", &self.by_context),
            ("battery", &self.by_battery),
            ("signal", &self.by_signal),
        ];
        for (title, classes) in groups {
            for c in classes.iter() {
                w(format!(
                    "{title}/{} share={:.6} mean_qoe={:.6} mean_energy_j={:.6}",
                    c.class, c.share, c.mean_qoe, c.mean_energy_j
                ));
            }
        }
        out
    }
}

/// The fleet population engine: streams a [`PopulationSpec`] through a
/// [`SweepEngine`]'s pool, one user per job, in bounded-memory batches
/// and reduces on the fly.
///
/// # Examples
///
/// ```
/// use ecas_core::fleet::FleetEngine;
/// use ecas_core::sweep::ExecPolicy;
/// use ecas_core::trace::population::PopulationSpec;
/// use ecas_core::types::units::Seconds;
///
/// let spec = PopulationSpec::new(8, 7).mean_duration(Seconds::new(20.0));
/// let engine = FleetEngine::paper().batch_size(4);
/// let seq = engine.run(&spec, &ExecPolicy::Sequential);
/// let par = engine.run(&spec, &ExecPolicy::parallel());
/// assert_eq!(seq.users, 8);
/// // The aggregate is execution-policy independent, byte for byte.
/// assert_eq!(seq.render(), par.render());
/// ```
pub struct FleetEngine {
    sweep: SweepEngine,
    approach: Approach,
    batch: usize,
    registry: Option<Arc<MetricsRegistry>>,
}

impl FleetEngine {
    /// Default batch size: large enough to keep every worker of a wide
    /// pool busy, small enough that a batch of buffered results stays
    /// small.
    pub const DEFAULT_BATCH: usize = 2048;

    /// Creates an engine around a configured runner, evaluating the
    /// paper's controller ([`Approach::Ours`]).
    #[must_use]
    pub fn new(runner: ExperimentRunner) -> Self {
        Self {
            sweep: SweepEngine::new(runner),
            approach: Approach::Ours,
            batch: Self::DEFAULT_BATCH,
            registry: None,
        }
    }

    /// An engine over the paper's simulator configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(ExperimentRunner::paper())
    }

    /// Evaluates `approach` instead of the default [`Approach::Ours`].
    #[must_use]
    pub fn approach(mut self, approach: Approach) -> Self {
        self.approach = approach;
        self
    }

    /// Overrides the batch size (the memory bound of a fleet run).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn batch_size(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        self.batch = batch;
        self
    }

    /// Mirrors fleet progress (`fleet/*` names) and the sweep's cache
    /// counters into `registry`.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.sweep = self.sweep.with_registry(Arc::clone(&registry));
        self.registry = Some(registry);
        self
    }

    /// Cache activity of the underlying sweep engine (all zeros unless
    /// the policy caches).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.sweep.stats()
    }

    /// Runs the whole fleet under `policy` and returns the aggregate.
    ///
    /// Each user is one pool job that synthesizes, simulates (cache
    /// lookup and store included when `policy` caches) and drops its
    /// session; `Sequential` is the same loop one worker wide. Memory:
    /// one batch of `batch_size` results plus one trace per worker —
    /// never the fleet. The fold order is the global user order for
    /// every policy and batch size, so the report (and its
    /// [`FleetReport::render`] text) is byte-identical across
    /// `Sequential` / `Parallel { jobs }` and across batch-size choices.
    #[must_use]
    pub fn run(&self, spec: &PopulationSpec, policy: &ExecPolicy) -> FleetReport {
        let watch = self.registry.as_ref().map(|_| perf::Stopwatch::start());
        let mut reducer = FleetReducer::new();
        let mut start = 0u64;
        while start < spec.users() {
            let len = usize::try_from(spec.users() - start)
                .map_or(self.batch, |rest| rest.min(self.batch));
            let results = self.sweep.run_generated(len, &self.approach, policy, |i| {
                let user = spec.user(start + i as u64);
                let session = user.synthesize();
                (user, session)
            });
            for (user, result) in &results {
                reducer.absorb(user, result);
            }
            start += len as u64;
            if let Some(registry) = &self.registry {
                registry.add(names::FLEET_USERS, len as u64);
                registry.add(names::FLEET_BATCHES, 1);
            }
        }
        if let (Some(watch), Some(registry)) = (watch, &self.registry) {
            registry.record_span(names::FLEET_EXECUTE_SPAN, watch.elapsed_nanos());
        }
        reducer.finalize()
    }
}

#[cfg(test)]
// Tests assert exact aggregate equality on purpose; clippy::float_cmp
// guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use ecas_trace::population::SessionBatch;
    use ecas_types::units::Seconds;

    fn tiny_spec(users: u64) -> PopulationSpec {
        PopulationSpec::new(users, 0xF1EE7).mean_duration(Seconds::new(20.0))
    }

    #[test]
    fn histogram_percentiles_follow_nearest_rank() {
        let mut h = FixedHistogram::new(0.0, 10.0, 10);
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        // nearest_rank(4, 0.25) = floor(0.25 * 3) = 0 → the 1.0 sample,
        // reported at its bin midpoint 1.5.
        assert_eq!(h.percentile(0.25), Some(1.5));
        assert_eq!(h.percentile(1.0), Some(4.5));
        assert_eq!(FixedHistogram::new(0.0, 1.0, 4).percentile(0.5), None);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = FixedHistogram::new(0.0, 10.0, 10);
        h.record(-5.0);
        h.record(1e9);
        h.record(f64::NAN);
        assert_eq!(h.total(), 3);
        assert_eq!(h.percentile(1.0), Some(9.5));
    }

    #[test]
    fn histogram_counts_nan_explicitly_not_in_a_bin() {
        let mut h = FixedHistogram::new(0.0, 10.0, 10);
        h.record(f64::NAN);
        h.record(f64::NAN);
        h.record(9.0);
        assert_eq!(h.nan_count(), 2);
        assert_eq!(h.total(), 3, "NaN still counts toward the total");
        // Percentiles run over the finite sample alone: the single 9.0
        // is every quantile. Under the old lowest-bin folding, p50 of
        // this input came out as 0.5 — a silent lie.
        assert_eq!(h.percentile(0.5), Some(9.5));
        assert_eq!(h.percentile(0.0), Some(9.5));

        let mut only_nan = FixedHistogram::new(0.0, 1.0, 4);
        only_nan.record(f64::NAN);
        assert_eq!(only_nan.percentile(0.5), None, "no finite sample, no rank");

        // Merge carries the tally; old serialized shapes (no `nan`
        // field) still deserialize.
        let mut other = FixedHistogram::new(0.0, 10.0, 10);
        other.record(f64::NAN);
        h.merge(&other);
        assert_eq!(h.nan_count(), 3);
        let legacy: FixedHistogram =
            serde_json::from_str(r#"{"lo":0.0,"hi":10.0,"counts":[1,0,0,0,0,0,0,0,0,0]}"#).unwrap();
        assert_eq!(legacy.nan_count(), 0);
        assert_eq!(legacy.total(), 1);
    }

    #[test]
    fn nan_sessions_surface_in_the_fleet_report() {
        // The unit types reject NaN at construction, so a healthy run
        // reports zero — and the render must say so explicitly rather
        // than hide the tally.
        let spec = tiny_spec(3);
        let mut report = FleetEngine::paper()
            .batch_size(3)
            .run(&spec, &ExecPolicy::Sequential);
        assert_eq!(report.qoe_nan, 0);
        assert_eq!(report.energy_nan, 0);
        assert!(report.render().contains("p99=") && report.render().contains(" nan=0"));
        // If a NaN ever slips through (a model bug), the report calls
        // it out on the affected line.
        report.qoe_nan = 1;
        let text = report.render();
        let qoe_line = text.lines().find(|l| l.starts_with("qoe ")).unwrap();
        assert!(qoe_line.ends_with("nan=1"), "{qoe_line}");
        let energy_line = text.lines().find(|l| l.starts_with("energy ")).unwrap();
        assert!(energy_line.ends_with("nan=0"), "{energy_line}");
    }

    #[test]
    fn reducer_merge_matches_single_pass_on_integer_state() {
        let spec = tiny_spec(6);
        let engine = FleetEngine::paper().batch_size(6);
        // Build session results once via the engine's own sweep path.
        let mut batch = SessionBatch::with_capacity(6);
        batch.refill(&spec, 0, 6);
        let results = SweepEngine::new(ExperimentRunner::paper()).run_grid(
            batch.sessions(),
            &[Approach::Ours],
            &ExecPolicy::Sequential,
        );

        let mut single = FleetReducer::new();
        for (u, r) in batch.specs().iter().zip(&results) {
            single.absorb(u, r);
        }
        let mut left = FleetReducer::new();
        let mut right = FleetReducer::new();
        for (i, (u, r)) in batch.specs().iter().zip(&results).enumerate() {
            if i < 3 {
                left.absorb(u, r);
            } else {
                right.absorb(u, r);
            }
        }
        left.merge(&right);

        let a = single.finalize();
        let b = left.finalize();
        assert_eq!(a.users, b.users);
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.arrivals_by_hour, b.arrivals_by_hour);
        assert_eq!(a.qoe_tail, b.qoe_tail, "histograms merge exactly");
        assert_eq!(a.energy_tail, b.energy_tail);
        // Floating-point sums agree up to round-off.
        assert!((a.mean_qoe - b.mean_qoe).abs() < 1e-9);
        assert!((a.mean_energy_j - b.mean_energy_j).abs() < 1e-6);
        // Engine smoke: the full run agrees with the hand fold exactly
        // (same order, same batches).
        let via_engine = engine.run(&spec, &ExecPolicy::Sequential);
        assert_eq!(via_engine, a);
    }

    #[test]
    fn aggregate_is_policy_and_batch_invariant() {
        let spec = tiny_spec(10);
        let seq = FleetEngine::paper()
            .batch_size(4)
            .run(&spec, &ExecPolicy::Sequential);
        let par = FleetEngine::paper()
            .batch_size(4)
            .run(&spec, &ExecPolicy::Parallel { jobs: 3 });
        assert_eq!(seq, par, "parallel aggregates must equal sequential");
        assert_eq!(seq.render(), par.render());
        let other_batch = FleetEngine::paper()
            .batch_size(7)
            .run(&spec, &ExecPolicy::Sequential);
        assert_eq!(
            seq, other_batch,
            "batch size must not leak into the aggregate"
        );
    }

    #[test]
    fn report_is_populated_and_consistent() {
        let spec = tiny_spec(12);
        let report = FleetEngine::paper()
            .batch_size(5)
            .run(&spec, &ExecPolicy::parallel());
        assert_eq!(report.users, 12);
        assert!(report.segments > 0);
        assert!(report.mean_qoe > 0.0);
        assert!(report.mean_energy_j > 0.0);
        assert!(report.energy_per_gb_j > 0.0);
        assert!(report.played_s > 0.0);
        let arrivals: u64 = report.arrivals_by_hour.iter().sum();
        assert_eq!(arrivals, 12);
        for classes in [&report.by_context, &report.by_battery, &report.by_signal] {
            let share: f64 = classes.iter().map(|c| c.share).sum();
            assert!((share - 1.0).abs() < 1e-9, "class shares sum to 1");
        }
        let text = report.render();
        assert!(text.contains("fleet users=12"));
        assert!(text.contains("arrivals_by_hour"));
        // Round-trips through JSON.
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
