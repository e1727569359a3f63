//! The radio-energy chunked integration kernel.
//!
//! Radio power is integrated over piecewise-constant state: throughput is
//! a step function of the network trace, and fault injection multiplies
//! it by a piecewise-constant degradation factor. A chunk therefore ends
//! at the next network sample time or fault transition, whichever comes
//! first; within a chunk the effective rate — and hence the radio power —
//! is constant.
//!
//! Both consumers of this kernel must agree *bit-for-bit*:
//!
//! * the simulator's download loop ([`crate::player`]) walks chunks while
//!   tracking transferred bytes, attempt deadlines and injected failures;
//! * the replay oracle (`ecas-core`'s `oracle` module) re-integrates the
//!   same chunks over each attempt window to reconstruct the session's
//!   radio energy from its event log alone.
//!
//! Keeping the per-chunk state lookup (`step_at`), the per-chunk energy
//! term (`chunk_energy`) and the windowed integral ([`integrate`]) in
//! one place guarantees the two accumulate in the same order over the
//! same boundaries, so replay identity holds to the last bit (pinned by
//! `tests/radio_golden.rs`).

use std::fmt;

use ecas_power::model::PowerModel;
use ecas_trace::series::TimeSeries;
use ecas_trace::{NetworkSample, SignalSample};
use ecas_types::units::{Mbps, Seconds};

use crate::fault::FaultPlan;
use crate::player::MIN_THROUGHPUT_MBPS;

/// The piecewise-constant radio state at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RadioStep {
    /// Trace throughput at `t`, floored to [`MIN_THROUGHPUT_MBPS`].
    pub thr: f64,
    /// Fault degradation factor at `t` (`1.0` without a plan, `0.0`
    /// inside an outage).
    pub factor: f64,
    /// Effective link rate `thr * factor` in Mbps.
    pub eff: f64,
    /// Earliest time strictly after `t` where the state may change: the
    /// next network sample or fault transition ([`f64::INFINITY`] when
    /// neither exists). Callers clip this against their own stops
    /// (segment completion, attempt deadline, window end).
    pub boundary: f64,
}

/// Looks up the radio state at time `t`.
#[must_use]
pub(crate) fn step_at(
    network: &TimeSeries<NetworkSample>,
    fault: Option<&FaultPlan>,
    t: f64,
) -> RadioStep {
    let thr = network
        .throughput_at(Seconds::new(t))
        .value()
        .max(MIN_THROUGHPUT_MBPS);
    let factor = fault.map_or(1.0, |p| p.factor_at(Seconds::new(t)));
    // Next point where the throughput step function may change.
    let next_change = network
        .index_at_or_before(Seconds::new(t))
        .and_then(|i| network.as_slice().get(i + 1))
        .map_or(f64::INFINITY, |s| s.time.value());
    let next_change = if next_change > t {
        next_change
    } else {
        f64::INFINITY
    };
    let next_fault = fault
        .and_then(|p| p.next_transition_after(Seconds::new(t)))
        .map_or(f64::INFINITY, Seconds::value);
    RadioStep {
        thr,
        factor,
        eff: thr * factor,
        boundary: next_change.min(next_fault),
    }
}

/// Radio energy of one constant-state chunk `[t, t + dt)` at effective
/// rate `eff`: the radio burns power for the signal strength at the chunk
/// start even at zero goodput (it is actively holding, or re-acquiring,
/// the link through outages).
#[must_use]
pub(crate) fn chunk_energy(
    power: &PowerModel,
    signal: &TimeSeries<SignalSample>,
    t: f64,
    dt: f64,
    eff: f64,
) -> f64 {
    power
        .radio_power(signal.signal_at(Seconds::new(t)), Mbps::new(eff))
        .value()
        * dt
}

/// Why [`integrate`] could not finish.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegrateError {
    /// A chunk boundary failed to advance past `t` (degenerate trace or
    /// fault plan).
    Stalled {
        /// The time the integration was stuck at.
        t: f64,
    },
    /// The hop budget was exhausted before reaching the window end.
    Unterminated,
}

impl fmt::Display for IntegrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Stalled { t } => {
                write!(f, "radio integration chunk failed to advance at t = {t}")
            }
            Self::Unterminated => {
                f.write_str("radio integration did not terminate (degenerate chunking)")
            }
        }
    }
}

impl std::error::Error for IntegrateError {}

/// The result of integrating radio power over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Integration {
    /// Accumulated radio energy in joules.
    pub energy: f64,
    /// Chunks processed — the deterministic work counter of this kernel
    /// (`sim/integration_chunks` in the counter conventions).
    pub chunks: u64,
}

/// Integrates radio power over `[start, end)` with the simulator's exact
/// chunking. Interior chunk boundaries in the download loop are exactly
/// the `RadioStep::boundary` times (attempt endpoints — completion,
/// abort, timeout — are the window bounds themselves), so summing whole
/// chunks over each attempt window reproduces the run's accumulation
/// order bit-for-bit.
///
/// # Errors
///
/// [`IntegrateError::Stalled`] when a chunk cannot advance,
/// [`IntegrateError::Unterminated`] when 10 million chunks do not reach
/// `end`.
pub fn integrate(
    network: &TimeSeries<NetworkSample>,
    signal: &TimeSeries<SignalSample>,
    power: &PowerModel,
    fault: Option<&FaultPlan>,
    start: f64,
    end: f64,
) -> Result<Integration, IntegrateError> {
    let mut t = start;
    let mut energy = 0.0_f64;
    let mut chunks = 0_u64;
    while t < end - 1e-12 {
        if chunks >= 10_000_000 {
            return Err(IntegrateError::Unterminated);
        }
        let step = step_at(network, fault, t);
        let chunk_end = step.boundary.min(end);
        if chunk_end <= t {
            return Err(IntegrateError::Stalled { t });
        }
        energy += chunk_energy(power, signal, t, chunk_end - t, step.eff);
        t = chunk_end;
        chunks += 1;
    }
    Ok(Integration { energy, chunks })
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use ecas_trace::videos::EvalTraceSpec;

    #[test]
    fn step_state_is_piecewise_constant_up_to_boundary() {
        let session = EvalTraceSpec::table_v()[0].generate();
        let network = session.network();
        let step = step_at(network, None, 0.0);
        assert_eq!(step.factor, 1.0);
        assert!(step.eff >= MIN_THROUGHPUT_MBPS);
        assert!(step.boundary > 0.0);
        // Probing strictly inside the chunk sees the same state.
        if step.boundary.is_finite() {
            let mid = 0.5 * step.boundary;
            let inner = step_at(network, None, mid);
            assert_eq!(inner.thr, step.thr, "state changed inside a chunk");
        }
    }

    #[test]
    fn integrate_splits_are_additive_in_energy() {
        let session = EvalTraceSpec::table_v()[0].generate();
        let power = PowerModel::paper();
        let whole = integrate(session.network(), session.signal(), &power, None, 0.0, 30.0)
            .expect("integrates");
        assert!(whole.energy > 0.0);
        assert!(whole.chunks > 0);
        // Splitting at a chunk boundary preserves the exact sum order:
        // every interior boundary is a sample time, so [0, b) + [b, 30)
        // accumulates the same chunk terms.
        let b = step_at(session.network(), None, 0.0).boundary;
        let left = integrate(session.network(), session.signal(), &power, None, 0.0, b)
            .expect("integrates");
        let right = integrate(session.network(), session.signal(), &power, None, b, 30.0)
            .expect("integrates");
        assert_eq!(left.chunks + right.chunks, whole.chunks);
        assert!((left.energy + right.energy - whole.energy).abs() < 1e-9);
    }

    #[test]
    fn degenerate_window_integrates_to_zero() {
        let session = EvalTraceSpec::table_v()[0].generate();
        let power = PowerModel::paper();
        let out = integrate(session.network(), session.signal(), &power, None, 5.0, 5.0)
            .expect("empty window is fine");
        assert_eq!(out.chunks, 0);
        assert_eq!(out.energy, 0.0);
    }
}
