//! Fleet population synthesis: who watches, when, and in what context.
//!
//! The paper evaluates its controllers on five hand-picked Table V
//! sessions; a deployment claim needs distributions over a *fleet*. This
//! module models the demand side of that fleet:
//!
//! * [`PopulationSpec`] — the whole population as a *pure function* of
//!   three numbers (fleet size, seed, mean session duration): the spec
//!   for user `i` of a fleet seeded with `s` is derived by counter-based
//!   seeding, so any batch of users can be synthesized independently, in
//!   any order, without materializing O(fleet) state. Every fleet shares
//!   one fixed mix and arrival profile: a 24-hour arrival process
//!   (piecewise-constant hourly rates, inverse-CDF sampled) that peaks at
//!   commute hours and in the evening the way mobile-video demand does,
//!   shares of static / walking / vehicle / commuting viewers (the
//!   commute share is boosted at rush hours), and battery-state and
//!   signal-quality distributions;
//! * [`UserSpec::synthesize`] — per-user session synthesis on top of
//!   [`SessionGenerator`], with the user's [`SignalTier`] applied as a
//!   cell-center/cell-edge rescaling of the link channels;
//! * [`SessionBatch`] — a reusable batch buffer whose spine vectors are
//!   allocated once and refilled, so a caller streaming fixed-size
//!   batches of traces does not grow allocations with fleet size.
//!
//! Everything is deterministic given the fleet seed; no wall clock, no
//! global RNG.

use std::fmt;

use ecas_types::units::{Dbm, Mbps, Seconds};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sample::{NetworkSample, SignalSample};
use crate::series::TimeSeries;
use crate::session::SessionTrace;
use crate::synth::context::{Context, ContextSchedule};
use crate::synth::SessionGenerator;

/// SplitMix64 finalizer: spreads a counter into an independent-looking
/// 64-bit seed. The standard constant-based mixer (Steele et al.),
/// used here so user `i`'s seed is a pure function of `(fleet_seed, i)`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Picks an index from `weights` (one of the non-degenerate weight
/// vectors below) proportionally to its weight.
fn pick(weights: &[f64], rng: &mut SmallRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

// ------------------------------------------------- the fleet's constants

/// Relative session-arrival rate per local hour: a deep night trough,
/// morning and evening commute bumps, and an evening prime-time peak.
/// Shapes follow published mobile-traffic diurnal cycles; only the
/// relative proportions matter. An arrival time is drawn by inverse-CDF
/// sampling over this piecewise-constant hourly density (uniform within
/// the hour).
const ARRIVAL_WEIGHTS: [f64; 24] = [
    1.5, 0.9, 0.6, 0.4, 0.4, 0.7, // 00-05: night trough
    1.8, 3.5, 4.0, 2.8, 2.4, 2.6, // 06-11: morning commute bump
    3.2, 3.0, 2.6, 2.8, 3.4, 4.4, // 12-17: day plateau into evening commute
    5.2, 6.5, 7.0, 6.2, 4.6, 2.8, // 18-23: prime-time peak
];

/// Base context shares, in the order of [`FleetContext::all`]: mostly
/// stationary viewers with walking, vehicle and commute minorities.
const CONTEXT_SHARES: [f64; 4] = [0.55, 0.15, 0.15, 0.15];

/// Battery-state weights, in the order of [`BatteryState::all`]: mostly
/// charged or mid-charge.
const BATTERY_WEIGHTS: [f64; 3] = [0.30, 0.55, 0.15];

/// Signal-tier weights, in the order of [`SignalTier::all`]: a
/// good / fair / poor cell-position split.
const SIGNAL_WEIGHTS: [f64; 3] = [0.50, 0.35, 0.15];

/// Longest session (or fleet mean session) a recipe may ask for, in
/// seconds. An hour's mean keeps one synthesized fleet trace near 29 MB
/// of accelerometer samples.
pub const MAX_SESSION_S: f64 = 3600.0;

/// Longest trace any recipe synthesizes, in seconds: a charged fleet
/// user at the [`MAX_SESSION_S`] mean whose duration jitter reaches the
/// clamp's ceiling, 5 × [`MAX_SESSION_S`] + 10 s. The `.bin` reader
/// rejects a longer video length.
pub const MAX_TRACE_S: f64 =
    longest_session(MAX_SESSION_S * BatteryState::Charged.duration_scale());

/// The ceiling of the duration jitter around a battery-scaled `nominal`.
const fn longest_session(nominal: f64) -> f64 {
    nominal * 4.0 + 10.0
}

/// Context shares effective at local `hour` (fractional, 0–24): the
/// base shares with the commute share boosted 3× at rush hours (07–09,
/// 16–19), renormalized, so the context mix co-varies with the arrival
/// process the way real demand does.
fn context_shares_at(hour: f64) -> [f64; 4] {
    let h = hour.rem_euclid(24.0);
    let rush = (7.0..9.0).contains(&h) || (16.0..19.0).contains(&h);
    let mut shares = CONTEXT_SHARES;
    if rush {
        shares[3] *= 3.0;
    }
    let total: f64 = shares.iter().sum();
    for s in &mut shares {
        *s /= total;
    }
    shares
}

// ------------------------------------------------------- mix components

/// The battery state a user starts their session with. Low-battery
/// users cut sessions short (they are rationing the charge), which the
/// duration model reflects via [`BatteryState::duration_scale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatteryState {
    /// Plugged in or freshly charged.
    Charged,
    /// Mid-charge, unconcerned.
    Normal,
    /// Low battery: rationing, shorter sessions.
    Low,
}

impl BatteryState {
    /// All states, in the order of the population's battery weights.
    #[must_use]
    pub fn all() -> [BatteryState; 3] {
        [
            BatteryState::Charged,
            BatteryState::Normal,
            BatteryState::Low,
        ]
    }

    /// Multiplier applied to the user's nominal session duration.
    #[must_use]
    pub const fn duration_scale(self) -> f64 {
        match self {
            BatteryState::Charged => 1.25,
            BatteryState::Normal => 1.0,
            BatteryState::Low => 0.5,
        }
    }
}

impl fmt::Display for BatteryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BatteryState::Charged => "charged",
            BatteryState::Normal => "normal",
            BatteryState::Low => "low",
        })
    }
}

/// Radio-quality tier of the user's current cell position. Applied as a
/// static rescaling of the synthesized link channels: cell-edge users
/// see a fraction of the cell-center throughput and a weaker RSRP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalTier {
    /// Cell center: channels as synthesized.
    Good,
    /// Mid-cell: moderate attenuation.
    Fair,
    /// Cell edge: strong attenuation.
    Poor,
}

impl SignalTier {
    /// All tiers, in the order of the population's signal weights.
    #[must_use]
    pub fn all() -> [SignalTier; 3] {
        [SignalTier::Good, SignalTier::Fair, SignalTier::Poor]
    }

    /// Multiplier applied to the throughput channel.
    #[must_use]
    pub fn throughput_scale(self) -> f64 {
        match self {
            SignalTier::Good => 1.0,
            SignalTier::Fair => 0.6,
            SignalTier::Poor => 0.3,
        }
    }

    /// Offset (dB) applied to the signal-strength channel.
    #[must_use]
    pub fn signal_offset_db(self) -> f64 {
        match self {
            SignalTier::Good => 0.0,
            SignalTier::Fair => -10.0,
            SignalTier::Poor => -20.0,
        }
    }
}

impl fmt::Display for SignalTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SignalTier::Good => "good",
            SignalTier::Fair => "fair",
            SignalTier::Poor => "poor",
        })
    }
}

/// The watching context a fleet user spends their session in — the
/// population-level counterpart of [`ContextSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetContext {
    /// Stationary indoors (quiet room) for the whole session.
    Static,
    /// On foot for the whole session.
    Walking,
    /// On a bus/train for the whole session.
    Vehicle,
    /// The canonical walk–ride–walk–sit commute schedule.
    Commute,
}

impl FleetContext {
    /// All contexts, in the order of the population's context shares.
    #[must_use]
    pub fn all() -> [FleetContext; 4] {
        [
            FleetContext::Static,
            FleetContext::Walking,
            FleetContext::Vehicle,
            FleetContext::Commute,
        ]
    }

    /// The context schedule this fleet context expands to.
    #[must_use]
    pub fn schedule(self, duration: Seconds) -> ContextSchedule {
        match self {
            FleetContext::Static => ContextSchedule::constant(Context::QuietRoom),
            FleetContext::Walking => ContextSchedule::constant(Context::Walking),
            FleetContext::Vehicle => ContextSchedule::constant(Context::MovingVehicle),
            FleetContext::Commute => ContextSchedule::commute(duration),
        }
    }
}

impl fmt::Display for FleetContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FleetContext::Static => "static",
            FleetContext::Walking => "walking",
            FleetContext::Vehicle => "vehicle",
            FleetContext::Commute => "commute",
        })
    }
}

// ------------------------------------------------------------ the spec

/// A whole fleet population, described intensively: user `i`'s
/// [`UserSpec`] is a pure function of `(seed, i)`, so any slice of the
/// fleet can be synthesized independently without materializing per-user
/// state for the rest.
///
/// # Examples
///
/// ```
/// use ecas_trace::population::PopulationSpec;
///
/// let spec = PopulationSpec::new(1_000, 0xF1EE7);
/// let user = spec.user(123);
/// // Derivation is pure: asking again gives the same user.
/// assert_eq!(user, spec.user(123));
/// let session = user.synthesize();
/// assert!(session.network().duration().value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    users: u64,
    seed: u64,
    mean_duration: Seconds,
}

impl PopulationSpec {
    /// A population of `users` viewers with a 120-second nominal session
    /// duration.
    #[must_use]
    pub fn new(users: u64, seed: u64) -> Self {
        Self {
            users,
            seed,
            mean_duration: Seconds::new(120.0),
        }
    }

    /// Replaces the nominal (pre-battery-scaling) session duration.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    #[must_use]
    pub fn mean_duration(mut self, mean: Seconds) -> Self {
        assert!(mean.value() > 0.0, "mean duration must be positive");
        self.mean_duration = mean;
        self
    }

    /// Number of users in the fleet.
    #[must_use]
    pub fn users(&self) -> u64 {
        self.users
    }

    /// The fleet seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the spec for user `index` (0-based). Pure: depends only
    /// on the fleet seed, the mean duration and `index` (the fleet size
    /// is only a bound).
    ///
    /// # Panics
    ///
    /// Panics if `index >= users()`.
    #[must_use]
    pub fn user(&self, index: u64) -> UserSpec {
        assert!(index < self.users, "user index {index} out of range");
        let user_seed = splitmix64(self.seed ^ splitmix64(index));
        let mut rng = SmallRng::seed_from_u64(user_seed);
        let hour = pick(&ARRIVAL_WEIGHTS, &mut rng) as f64 + rng.gen_range(0.0..1.0);
        let context = FleetContext::all()[pick(&context_shares_at(hour), &mut rng)];
        let battery = BatteryState::all()[pick(&BATTERY_WEIGHTS, &mut rng)];
        let signal = SignalTier::all()[pick(&SIGNAL_WEIGHTS, &mut rng)];
        // Log-normal-ish duration jitter (σ = 0.35 in log space) around
        // the battery-scaled nominal duration, clamped so even extreme
        // draws stay playable and bounded.
        let jitter = (0.35 * crate::synth::standard_normal(&mut rng)).exp();
        let nominal = self.mean_duration.value() * battery.duration_scale();
        let duration = (nominal * jitter).clamp(10.0, longest_session(nominal));
        UserSpec {
            index,
            seed: rng.gen(),
            hour,
            context,
            battery,
            signal,
            duration: Seconds::new(duration),
        }
    }
}

/// One fleet user, fully determined: when they arrive, what they are
/// doing, the state of their phone, and the seed their session trace is
/// synthesized from.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSpec {
    /// Position in the fleet (0-based).
    pub index: u64,
    /// Seed for this user's session synthesis.
    pub seed: u64,
    /// Local arrival time in hours, `[0, 24)`.
    pub hour: f64,
    /// Watching context for the session.
    pub context: FleetContext,
    /// Battery state at session start.
    pub battery: BatteryState,
    /// Cell-position signal tier.
    pub signal: SignalTier,
    /// Session (video) duration after battery scaling and jitter.
    pub duration: Seconds,
}

impl UserSpec {
    /// Synthesizes this user's session trace: the context schedule runs
    /// through [`SessionGenerator`], then the [`SignalTier`] rescales
    /// the link channels (cell-edge users see less throughput and a
    /// weaker RSRP at every instant).
    #[must_use]
    pub fn synthesize(&self) -> SessionTrace {
        let session = SessionGenerator::new(
            format!("u{}", self.index),
            self.context.schedule(self.duration),
            self.duration,
            self.seed,
        )
        .description(format!(
            "fleet user {} ({}, battery {}, signal {})",
            self.index, self.context, self.battery, self.signal
        ))
        .generate();
        apply_signal_tier(session, self.signal)
    }
}

/// Applies a [`SignalTier`]'s attenuation to a synthesized session:
/// throughput is scaled (floored at the generator's 0.05 Mbps minimum)
/// and signal strength offset (clamped to the generator's [-130, -60]
/// dBm range). `Good` is the identity.
fn apply_signal_tier(session: SessionTrace, tier: SignalTier) -> SessionTrace {
    if tier == SignalTier::Good {
        return session;
    }
    let scale = tier.throughput_scale();
    let offset = tier.signal_offset_db();
    let (meta, network, signal, accel) = session.into_parts();
    let network: Vec<NetworkSample> = network
        .into_inner()
        .into_iter()
        .map(|s| NetworkSample::new(s.time, Mbps::new((s.throughput.value() * scale).max(0.05))))
        .collect();
    let signal: Vec<SignalSample> = signal
        .into_inner()
        .into_iter()
        .map(|s| {
            SignalSample::new(
                s.time,
                Dbm::new((s.dbm.value() + offset).clamp(-130.0, -60.0)),
            )
        })
        .collect();
    // ecas-lint: allow(panic-safety, reason = "rescaling preserves timestamps and lengths, so the validated channels stay valid")
    let network = TimeSeries::new(network).expect("rescaled network channel stays valid");
    // ecas-lint: allow(panic-safety, reason = "rescaling preserves timestamps and lengths, so the validated channels stay valid")
    let signal = TimeSeries::new(signal).expect("rescaled signal channel stays valid");
    // ecas-lint: allow(panic-safety, reason = "rescaling preserves timestamps and lengths, so the validated channels stay valid")
    SessionTrace::new(meta, network, signal, accel).expect("rescaled session stays valid")
}

// --------------------------------------------------------- batch buffer

/// A reusable buffer for one batch of synthesized users.
///
/// The spine vectors (specs and sessions) are allocated once and
/// refilled in place, so a caller that streams millions of users in
/// fixed-size batches performs no per-batch spine allocation and its
/// peak trace memory is O(batch), independent of fleet size. (The fleet
/// engine holds no batch of traces at all: it synthesizes each user
/// inside its own pool job.)
#[derive(Debug, Default)]
pub struct SessionBatch {
    specs: Vec<UserSpec>,
    sessions: Vec<SessionTrace>,
}

impl SessionBatch {
    /// Creates a buffer with spine capacity for `capacity` users.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            specs: Vec::with_capacity(capacity),
            sessions: Vec::with_capacity(capacity),
        }
    }

    /// Clears the buffer and synthesizes users `start .. start + len`
    /// of `spec` into it (`len` is clamped to the fleet end).
    pub fn refill(&mut self, spec: &PopulationSpec, start: u64, len: usize) {
        self.specs.clear();
        self.sessions.clear();
        let end = spec.users().min(start.saturating_add(len as u64));
        for i in start..end {
            let user = spec.user(i);
            self.sessions.push(user.synthesize());
            self.specs.push(user);
        }
    }

    /// The user specs of the current batch.
    #[must_use]
    pub fn specs(&self) -> &[UserSpec] {
        &self.specs
    }

    /// The synthesized sessions of the current batch, index-aligned
    /// with [`SessionBatch::specs`].
    #[must_use]
    pub fn sessions(&self) -> &[SessionTrace] {
        &self.sessions
    }

    /// Number of users in the current batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the current batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_derivation_is_pure_and_seed_sensitive() {
        let spec = PopulationSpec::new(1000, 42);
        assert_eq!(spec.user(7), spec.user(7));
        assert_ne!(spec.user(7), spec.user(8));
        let other = PopulationSpec::new(1000, 43);
        assert_ne!(spec.user(7), other.user(7));
    }

    /// Drift guard: the users of one fleet, and the `.bin` content hash
    /// of a few of their traces, captured before the mix and arrival
    /// weights became constants. Any change to the population draw or
    /// to session synthesis fails it.
    #[test]
    fn fleet_users_are_pinned() {
        let spec = PopulationSpec::new(1000, 7).mean_duration(Seconds::new(60.0));
        let mut bytes = Vec::new();
        for i in 0..spec.users() {
            let user = spec.user(i);
            bytes.extend(user.seed.to_le_bytes());
            bytes.extend(user.hour.to_bits().to_le_bytes());
            bytes.extend(user.duration.value().to_bits().to_le_bytes());
            bytes.extend(format!("{}/{}/{}", user.context, user.battery, user.signal).bytes());
        }
        assert_eq!(ecas_obs::fnv1a_64(&bytes), 0xd9de_4531_ce03_2c14);

        for (index, class, hash) in [
            (0, "static/normal/good", 0xdb54_57bc_9c67_7562),
            (1, "walking/charged/good", 0x88aa_aa71_a460_ba3b),
            (2, "static/low/fair", 0x1e67_bc7c_3007_a610),
            (7, "vehicle/normal/fair", 0xbfc3_cf7c_47d4_b2bd),
            (10, "commute/charged/good", 0xddf4_ecb7_98f6_433a),
            (27, "commute/charged/poor", 0xd481_b8bb_2885_10c2),
        ] {
            let user = spec.user(index);
            let shown = format!("{}/{}/{}", user.context, user.battery, user.signal);
            assert_eq!(shown, class, "user {index}");
            assert_eq!(
                user.synthesize().content_hash(),
                hash,
                "user {index} ({class})"
            );
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let spec = PopulationSpec::new(100, 9);
        let a = spec.user(3).synthesize();
        let b = spec.user(3).synthesize();
        assert_eq!(a, b);
    }

    #[test]
    fn mix_shares_are_respected() {
        let spec = PopulationSpec::new(4000, 1);
        let mut contexts = [0usize; 4];
        let mut batteries = [0usize; 3];
        let mut signals = [0usize; 3];
        for i in 0..spec.users() {
            let u = spec.user(i);
            contexts[FleetContext::all()
                .iter()
                .position(|c| *c == u.context)
                .unwrap()] += 1;
            batteries[BatteryState::all()
                .iter()
                .position(|b| *b == u.battery)
                .unwrap()] += 1;
            signals[SignalTier::all()
                .iter()
                .position(|s| *s == u.signal)
                .unwrap()] += 1;
        }
        // Context shares are the base shares under each hour's rush
        // boost, weighted by that hour's arrival rate; battery and signal
        // are drawn apart from the hour.
        let arrivals: f64 = ARRIVAL_WEIGHTS.iter().sum();
        let mut expected = [0.0; 4];
        for (hour, weight) in ARRIVAL_WEIGHTS.iter().enumerate() {
            let shares = context_shares_at(hour as f64 + 0.5);
            for (e, share) in expected.iter_mut().zip(shares) {
                *e += weight / arrivals * share;
            }
        }
        let n = spec.users() as f64;
        for (counts, weights) in [
            (&contexts[..], &expected[..]),
            (&batteries[..], &BATTERY_WEIGHTS[..]),
            (&signals[..], &SIGNAL_WEIGHTS[..]),
        ] {
            let total: f64 = weights.iter().sum();
            for (count, weight) in counts.iter().zip(weights) {
                let share = *count as f64 / n;
                assert!(
                    (share - weight / total).abs() < 0.03,
                    "{counts:?} vs {weights:?}"
                );
            }
        }
    }

    #[test]
    fn arrivals_follow_the_diurnal_profile() {
        let spec = PopulationSpec::new(6000, 2);
        let mut by_hour = [0usize; 24];
        for i in 0..spec.users() {
            let h = spec.user(i).hour;
            assert!((0.0..24.0).contains(&h));
            by_hour[h as usize] += 1;
        }
        // Prime time (20h) must clearly outdraw the night trough (03h),
        // and every hour draws its share of the arrival weights.
        assert!(by_hour[20] > 4 * by_hour[3], "{by_hour:?}");
        let total: f64 = ARRIVAL_WEIGHTS.iter().sum();
        for (count, weight) in by_hour.iter().zip(ARRIVAL_WEIGHTS) {
            let share = *count as f64 / spec.users() as f64;
            assert!((share - weight / total).abs() < 0.015, "{by_hour:?}");
        }
    }

    #[test]
    fn signal_tier_attenuates_channels() {
        let spec = PopulationSpec::new(5000, 3);
        // Find a poor-signal user and compare with the same session at
        // good signal.
        let poor = (0..spec.users())
            .map(|i| spec.user(i))
            .find(|u| u.signal == SignalTier::Poor)
            .expect("the fleet mix produces poor-signal users");
        let mut good = poor.clone();
        good.signal = SignalTier::Good;
        let attenuated = poor.synthesize();
        let baseline = good.synthesize();
        assert!(attenuated.network().mean_throughput() < baseline.network().mean_throughput());
        assert!(attenuated.signal().mean_signal() < baseline.signal().mean_signal());
        // Accelerometer is untouched by the radio tier.
        assert_eq!(attenuated.accel(), baseline.accel());
    }

    #[test]
    fn battery_low_shortens_sessions() {
        let spec = PopulationSpec::new(5000, 4);
        let (mut low_sum, mut low_n, mut charged_sum, mut charged_n) = (0.0, 0u32, 0.0, 0u32);
        for i in 0..spec.users() {
            let u = spec.user(i);
            match u.battery {
                BatteryState::Low => {
                    low_sum += u.duration.value();
                    low_n += 1;
                }
                BatteryState::Charged => {
                    charged_sum += u.duration.value();
                    charged_n += 1;
                }
                BatteryState::Normal => {}
            }
        }
        assert!(low_n > 0 && charged_n > 0);
        assert!(low_sum / f64::from(low_n) < charged_sum / f64::from(charged_n));
    }

    #[test]
    fn rush_hour_boosts_commute_share() {
        let rush = context_shares_at(8.0);
        let calm = context_shares_at(13.0);
        assert!(rush[3] > 2.0 * calm[3], "{rush:?} vs {calm:?}");
        assert!((rush.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batch_refill_reuses_spines_and_clamps_at_fleet_end() {
        let spec = PopulationSpec::new(10, 5).mean_duration(Seconds::new(20.0));
        let mut batch = SessionBatch::with_capacity(4);
        batch.refill(&spec, 0, 4);
        assert_eq!(batch.len(), 4);
        let spine = batch.sessions.capacity();
        batch.refill(&spec, 4, 4);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.sessions.capacity(), spine, "spine must be reused");
        batch.refill(&spec, 8, 4);
        assert_eq!(batch.len(), 2, "final batch clamps to the fleet end");
        assert_eq!(batch.specs()[0].index, 8);
        assert_eq!(batch.sessions()[0].meta().name, "u8");
        batch.refill(&spec, 12, 4);
        assert!(batch.is_empty());
    }
}
