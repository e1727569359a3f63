//! Player configuration.

use ecas_types::units::Seconds;
use serde::Serialize;

/// Retry/timeout/backoff policy for the fault-aware download path.
///
/// Only consulted when fault injection is enabled (see
/// [`crate::fault::FaultSpec`] and [`crate::Simulator::with_faults`]):
/// a download attempt that outlives [`RetryPolicy::attempt_timeout`] or
/// hits an injected failure is aborted and retried with exponential
/// backoff; after [`RetryPolicy::max_attempts`] failed attempts the
/// player degrades gracefully to the lowest ladder level instead of
/// spinning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Failed attempts at the chosen level before degrading to the
    /// lowest ladder level (which retries without a timeout and without
    /// further injected failures, so sessions always terminate).
    pub max_attempts: usize,
    /// Wall-clock budget per attempt; a slower attempt is aborted.
    pub attempt_timeout: Seconds,
    /// Backoff wait after the first abort.
    pub initial_backoff: Seconds,
    /// Multiplier applied to the backoff after each further abort.
    pub backoff_factor: f64,
    /// Upper bound on a single backoff wait.
    pub max_backoff: Seconds,
}

impl RetryPolicy {
    /// The default policy: 4 attempts, 20 s per-attempt budget, backoff
    /// 0.5 s doubling up to 8 s.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            max_attempts: 4,
            attempt_timeout: Seconds::new(20.0),
            initial_backoff: Seconds::new(0.5),
            backoff_factor: 2.0,
            max_backoff: Seconds::new(8.0),
        }
    }

    /// Validates the policy.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.max_attempts >= 1
            && self.attempt_timeout.value() > 0.0
            && self.initial_backoff.value() >= 0.0
            && self.backoff_factor >= 1.0
            && self.max_backoff >= self.initial_backoff
    }

    /// The backoff wait after the `aborts`-th abort (1-based):
    /// `initial · factor^(aborts-1)`, capped at [`RetryPolicy::max_backoff`].
    #[must_use]
    pub fn backoff_for(&self, aborts: usize) -> Seconds {
        let exp = aborts.saturating_sub(1).min(32) as i32;
        let raw = self.initial_backoff.value() * self.backoff_factor.powi(exp);
        Seconds::new(raw.min(self.max_backoff.value()))
    }
}

/// DASH player configuration.
///
/// The paper's evaluation uses 2-second segments and a buffer threshold
/// `B = 30 s` (Section V-A); playback starts once two segments are
/// buffered.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PlayerConfig {
    /// Segment duration `τ`.
    pub segment_duration: Seconds,
    /// Buffer threshold `B`: the player idles when more than `B − τ`
    /// seconds are buffered.
    pub buffer_threshold: Seconds,
    /// Playback begins once this much video is buffered.
    pub startup_threshold: Seconds,
    /// Model the LTE RRC tail after each download burst.
    pub radio_tail: bool,
    /// Retry/timeout/backoff behaviour under fault injection.
    pub retry: RetryPolicy,
}

impl PlayerConfig {
    /// The paper's configuration (τ = 2 s, B = 30 s, 4 s startup).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            segment_duration: Seconds::new(2.0),
            buffer_threshold: Seconds::new(30.0),
            startup_threshold: Seconds::new(4.0),
            radio_tail: true,
            retry: RetryPolicy::paper(),
        }
    }

    /// Validates the configuration.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        !self.segment_duration.is_zero()
            && self.buffer_threshold >= self.segment_duration
            && self.startup_threshold >= self.segment_duration
            && self.startup_threshold <= self.buffer_threshold
            && self.retry.is_valid()
    }

    /// Returns a copy with a different buffer threshold (for sweeps).
    ///
    /// # Panics
    ///
    /// Panics if the resulting configuration is invalid.
    #[must_use]
    pub fn with_buffer_threshold(mut self, threshold: Seconds) -> Self {
        self.buffer_threshold = threshold;
        assert!(self.is_valid(), "invalid player config after override");
        self
    }
}

impl Default for PlayerConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_v() {
        let c = PlayerConfig::paper();
        assert_eq!(c.segment_duration, Seconds::new(2.0));
        assert_eq!(c.buffer_threshold, Seconds::new(30.0));
        assert!(c.is_valid());
    }

    #[test]
    fn invalid_configs_detected() {
        let mut c = PlayerConfig::paper();
        c.buffer_threshold = Seconds::new(1.0);
        assert!(!c.is_valid());
        let mut c = PlayerConfig::paper();
        c.startup_threshold = Seconds::new(60.0);
        assert!(!c.is_valid());
    }

    #[test]
    fn overrides_validate() {
        let c = PlayerConfig::paper().with_buffer_threshold(Seconds::new(10.0));
        assert_eq!(c.buffer_threshold, Seconds::new(10.0));
    }

    #[test]
    #[should_panic(expected = "invalid player config")]
    fn bad_override_panics() {
        let _ = PlayerConfig::paper().with_buffer_threshold(Seconds::new(0.5));
    }

    #[test]
    fn retry_backoff_grows_and_caps() {
        let p = RetryPolicy::paper();
        assert!(p.is_valid());
        assert_eq!(p.backoff_for(1), Seconds::new(0.5));
        assert_eq!(p.backoff_for(2), Seconds::new(1.0));
        assert_eq!(p.backoff_for(3), Seconds::new(2.0));
        // 0.5 * 2^9 = 256 s, capped at 8 s.
        assert_eq!(p.backoff_for(10), Seconds::new(8.0));
        assert_eq!(p.backoff_for(1000), Seconds::new(8.0));
    }

    #[test]
    fn invalid_retry_policies_detected() {
        let mut p = RetryPolicy::paper();
        p.max_attempts = 0;
        assert!(!p.is_valid());
        let mut p = RetryPolicy::paper();
        p.backoff_factor = 0.5;
        assert!(!p.is_valid());
        let mut p = RetryPolicy::paper();
        p.max_backoff = Seconds::new(0.1);
        assert!(!p.is_valid());
        // An invalid retry policy invalidates the whole player config.
        let mut c = PlayerConfig::paper();
        c.retry.attempt_timeout = Seconds::zero();
        assert!(!c.is_valid());
    }
}
