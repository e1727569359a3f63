//! Joint throughput / signal-strength synthesis.
//!
//! Cellular link quality on a moving vehicle switches between regimes
//! (cell-center, cell-edge, handover dips); within a regime throughput
//! fluctuates around a mean and the signal strength random-walks around a
//! regime level. We model this with a per-context discrete-time Markov
//! chain over `LinkState` sampled at 1 Hz, an AR(1)-smoothed lognormal
//! throughput process, and an AR(1) signal-strength process — the standard
//! structure used to emulate LTE traces in ABR studies.
//!
//! Throughput and signal are generated **jointly** so that weak signal
//! coincides with low throughput; this coupling is what produces the
//! paper's core observation that streaming on a vehicle costs more energy
//! per byte (Fig. 1a).

use ecas_types::units::{Dbm, Mbps, Seconds};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sample::{NetworkSample, SignalSample};
use crate::series::TimeSeries;
use crate::synth::context::{Context, ContextSchedule};
use crate::synth::standard_normal;

/// Link quality regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LinkState {
    /// Cell-center, line-of-sight conditions.
    Excellent,
    /// Typical good coverage.
    Good,
    /// Mild degradation (indoor wall, mild congestion).
    Fair,
    /// Cell-edge conditions.
    Poor,
    /// Deep fade / handover dip.
    Bad,
}

impl LinkState {
    /// Mean throughput of the regime.
    #[must_use]
    pub fn mean_throughput(self) -> Mbps {
        match self {
            LinkState::Excellent => Mbps::new(36.0),
            LinkState::Good => Mbps::new(18.0),
            LinkState::Fair => Mbps::new(8.0),
            LinkState::Poor => Mbps::new(1.2),
            LinkState::Bad => Mbps::new(0.5),
        }
    }

    /// Mean signal strength of the regime.
    #[must_use]
    pub fn mean_signal(self) -> Dbm {
        match self {
            LinkState::Excellent => Dbm::new(-78.0),
            LinkState::Good => Dbm::new(-86.0),
            LinkState::Fair => Dbm::new(-96.0),
            LinkState::Poor => Dbm::new(-106.0),
            LinkState::Bad => Dbm::new(-115.0),
        }
    }

    fn index(self) -> usize {
        match self {
            LinkState::Excellent => 0,
            LinkState::Good => 1,
            LinkState::Fair => 2,
            LinkState::Poor => 3,
            LinkState::Bad => 4,
        }
    }

    const ALL: [LinkState; 5] = [
        LinkState::Excellent,
        LinkState::Good,
        LinkState::Fair,
        LinkState::Poor,
        LinkState::Bad,
    ];
}

/// Per-context Markov transition matrix (row-stochastic, 1 Hz steps).
fn transition_matrix(context: Context) -> [[f64; 5]; 5] {
    match context {
        // A quiet room sits in Excellent/Good nearly all the time.
        Context::QuietRoom => [
            [0.96, 0.04, 0.00, 0.00, 0.00],
            [0.10, 0.88, 0.02, 0.00, 0.00],
            [0.05, 0.60, 0.35, 0.00, 0.00],
            [0.00, 0.40, 0.50, 0.10, 0.00],
            [0.00, 0.20, 0.60, 0.20, 0.00],
        ],
        // Walking drifts between Good and Fair with occasional Poor dips.
        Context::Walking => [
            [0.80, 0.19, 0.01, 0.00, 0.00],
            [0.04, 0.88, 0.075, 0.005, 0.00],
            [0.00, 0.15, 0.80, 0.05, 0.00],
            [0.00, 0.05, 0.45, 0.50, 0.00],
            [0.00, 0.00, 0.50, 0.40, 0.10],
        ],
        // A moving vehicle mostly rides Fair coverage (just above the top
        // ladder bitrate) punctuated by deep-fade episodes (Poor/Bad runs
        // of ~5-15 s every minute or so: underpasses, handovers,
        // cell-edge stretches). The 30 s player buffer absorbs a fade,
        // but a throughput estimator's window stays depressed well after
        // the link recovers — the dynamic that separates the baselines.
        Context::MovingVehicle => [
            [0.40, 0.50, 0.10, 0.000, 0.00],
            [0.02, 0.60, 0.364, 0.016, 0.00],
            [0.00, 0.082, 0.90, 0.018, 0.00],
            [0.00, 0.00, 0.04, 0.94, 0.02],
            [0.00, 0.00, 0.00, 0.50, 0.50],
        ],
    }
}

/// Initial regime distribution per context.
fn initial_state(context: Context) -> LinkState {
    match context {
        Context::QuietRoom => LinkState::Excellent,
        Context::Walking => LinkState::Good,
        Context::MovingVehicle => LinkState::Good,
    }
}

/// Generates a joint (throughput, signal) trace for a context schedule.
///
/// # Examples
///
/// ```
/// use ecas_trace::synth::link::LinkTraceGenerator;
/// use ecas_trace::synth::context::{Context, ContextSchedule};
/// use ecas_types::units::Seconds;
///
/// let (network, signal) = LinkTraceGenerator::new(
///     ContextSchedule::constant(Context::QuietRoom),
///     Seconds::new(60.0),
///     1,
/// )
/// .generate();
/// assert_eq!(network.len(), signal.len());
/// ```
#[derive(Debug, Clone)]
pub struct LinkTraceGenerator {
    schedule: ContextSchedule,
    duration: Seconds,
    seed: u64,
    tick: Seconds,
}

impl LinkTraceGenerator {
    /// Creates a generator covering `[0, duration]` at a 1 Hz tick.
    #[must_use]
    pub fn new(schedule: ContextSchedule, duration: Seconds, seed: u64) -> Self {
        Self {
            schedule,
            duration,
            seed,
            tick: Seconds::new(1.0),
        }
    }

    /// Overrides the sampling tick (default 1 s).
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    #[must_use]
    pub fn tick(mut self, tick: Seconds) -> Self {
        assert!(!tick.is_zero(), "link generator tick must be positive");
        self.tick = tick;
        self
    }

    /// Generates the two channels. Deterministic for a given seed.
    #[must_use]
    pub fn generate(&self) -> (TimeSeries<NetworkSample>, TimeSeries<SignalSample>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let steps = (self.duration.value() / self.tick.value()).ceil() as usize + 1;

        let mut state = initial_state(self.schedule.context_at(Seconds::zero()));
        // Mild AR(1) smoothing: enough to correlate segment-scale (2 s)
        // throughput like real LTE, weak enough that regime changes stay
        // sharp (heavy smoothing would smear short good-coverage bursts
        // over the surrounding fair periods and destroy the heavy-tailed
        // shape of vehicle links).
        let rho_thr = 0.4;
        let rho_sig = 0.85;
        let mut thr = state.mean_throughput().value();
        let mut sig = state.mean_signal().value();

        let mut network = Vec::with_capacity(steps);
        let mut signal = Vec::with_capacity(steps);

        for step in 0..steps {
            let t = Seconds::new(step as f64 * self.tick.value());
            let context = self.schedule.context_at(t);
            let matrix = transition_matrix(context);

            // Markov step.
            let row = matrix[state.index()];
            let mut u: f64 = rng.gen();
            let mut next = state;
            for (i, p) in row.iter().enumerate() {
                if u < *p {
                    next = LinkState::ALL[i];
                    break;
                }
                u -= p;
            }
            state = next;

            // Lognormal fluctuation around the regime mean, AR(1)-smoothed.
            let target_thr =
                state.mean_throughput().value() * (0.35 * standard_normal(&mut rng)).exp();
            thr = rho_thr * thr + (1.0 - rho_thr) * target_thr;
            let thr_clamped = thr.clamp(0.05, 80.0);

            // Signal strength: AR(1) toward the regime level with 1.5 dB noise.
            let target_sig = state.mean_signal().value() + 1.5 * standard_normal(&mut rng);
            sig = rho_sig * sig + (1.0 - rho_sig) * target_sig;
            let sig_clamped = sig.clamp(-130.0, -60.0);

            network.push(NetworkSample::new(t, Mbps::new(thr_clamped)));
            signal.push(SignalSample::new(t, Dbm::new(sig_clamped)));
        }

        (
            // ecas-lint: allow(panic-safety, reason = "samples are generated on a strictly increasing time grid")
            TimeSeries::new(network).expect("generated network samples are ordered"),
            // ecas-lint: allow(panic-safety, reason = "samples are generated on a strictly increasing time grid")
            TimeSeries::new(signal).expect("generated signal samples are ordered"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(
        ctx: Context,
        seed: u64,
        secs: f64,
    ) -> (TimeSeries<NetworkSample>, TimeSeries<SignalSample>) {
        LinkTraceGenerator::new(ContextSchedule::constant(ctx), Seconds::new(secs), seed).generate()
    }

    #[test]
    fn transition_matrices_are_row_stochastic() {
        for ctx in Context::all() {
            for (i, row) in transition_matrix(ctx).iter().enumerate() {
                let sum: f64 = row.iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "context {ctx} row {i} sums to {sum}"
                );
                assert!(row.iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn covers_duration_with_both_channels() {
        let (n, s) = gen(Context::Walking, 3, 120.0);
        assert!(n.duration().value() >= 120.0);
        assert_eq!(n.len(), s.len());
    }

    #[test]
    fn room_is_faster_and_stronger_than_vehicle() {
        // Averaged across several seeds to avoid single-run flakiness.
        let mut room_thr = 0.0;
        let mut bus_thr = 0.0;
        let mut room_sig = 0.0;
        let mut bus_sig = 0.0;
        for seed in 0..5 {
            let (n, s) = gen(Context::QuietRoom, seed, 300.0);
            room_thr += n.mean_throughput().value();
            room_sig += s.mean_signal().value();
            let (n, s) = gen(Context::MovingVehicle, seed, 300.0);
            bus_thr += n.mean_throughput().value();
            bus_sig += s.mean_signal().value();
        }
        assert!(room_thr > bus_thr, "room {room_thr} vs bus {bus_thr}");
        assert!(room_sig > bus_sig, "room {room_sig} vs bus {bus_sig}");
    }

    #[test]
    fn vehicle_reaches_weak_signal_regimes() {
        let (_, s) = gen(Context::MovingVehicle, 17, 600.0);
        let min = s
            .iter()
            .map(|x| x.dbm.value())
            .fold(f64::INFINITY, f64::min);
        assert!(
            min < -100.0,
            "vehicle trace never went below -100 dBm ({min})"
        );
    }

    #[test]
    fn throughput_values_stay_positive_and_bounded() {
        let (n, _) = gen(Context::MovingVehicle, 23, 600.0);
        for s in n.iter() {
            assert!(s.throughput.value() >= 0.05);
            assert!(s.throughput.value() <= 80.0);
        }
    }

    #[test]
    fn custom_tick_changes_density() {
        let (n, _) = LinkTraceGenerator::new(
            ContextSchedule::constant(Context::QuietRoom),
            Seconds::new(10.0),
            1,
        )
        .tick(Seconds::new(0.5))
        .generate();
        assert_eq!(n.len(), 21);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen(Context::Walking, 5, 60.0);
        let b = gen(Context::Walking, 5, 60.0);
        assert_eq!(a, b);
    }
}
