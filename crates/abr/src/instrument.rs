//! Wall-clock instrumentation for any [`BitrateController`].
//!
//! [`InstrumentedBox`] wraps a boxed controller and times every
//! `select`/`decide` call with a span named `abr/decide/<controller name>`,
//! so profiling summaries show how long each algorithm deliberates — the
//! planner's shortest-path search versus the online algorithm's closed
//! form. The wrapper is transparent: same decisions, same reported name.

use ecas_obs::{Probe, SpanGuard};
use ecas_sim::controller::{BitrateController, Decision, DecisionContext};
use ecas_types::ladder::LevelIndex;

/// A [`BitrateController`] decorator that reports decision latency to a
/// [`Probe`], over the `Box<dyn BitrateController>` the experiment runner
/// holds.
pub struct InstrumentedBox<'p> {
    inner: Box<dyn BitrateController>,
    probe: &'p dyn Probe,
    /// Cached span label (`abr/decide/<name>`), built once per wrap so the
    /// hot path never allocates.
    span_name: String,
}

impl<'p> InstrumentedBox<'p> {
    /// Wraps `inner`, reporting to `probe`.
    #[must_use]
    pub fn new(inner: Box<dyn BitrateController>, probe: &'p dyn Probe) -> Self {
        let span_name = format!("abr/decide/{}", inner.name());
        Self {
            inner,
            probe,
            span_name,
        }
    }
}

impl BitrateController for InstrumentedBox<'_> {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        let _span = SpanGuard::new(self.probe, &self.span_name);
        self.inner.select(ctx)
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        let _span = SpanGuard::new(self.probe, &self.span_name);
        self.inner.decide(ctx)
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecas_obs::{MemoryRecorder, NULL_PROBE};
    use ecas_sim::controller::FixedLevel;
    use ecas_types::ladder::BitrateLadder;
    use ecas_types::units::{Dbm, Seconds};

    fn ctx(ladder: &BitrateLadder) -> DecisionContext<'_> {
        DecisionContext {
            segment: ecas_types::ids::SegmentIndex::new(0),
            total_segments: 10,
            now: Seconds::zero(),
            buffer_level: Seconds::zero(),
            prev_level: None,
            ladder,
            segment_duration: Seconds::new(2.0),
            buffer_threshold: Seconds::new(30.0),
            playback_started: false,
            history: &[],
            vibration: None,
            signal: Dbm::new(-90.0),
        }
    }

    #[test]
    fn wrapper_is_transparent() {
        let ladder = BitrateLadder::evaluation();
        let mut plain = FixedLevel::highest();
        let mut wrapped = InstrumentedBox::new(Box::new(FixedLevel::highest()), &NULL_PROBE);
        assert_eq!(wrapped.name(), plain.name());
        assert_eq!(wrapped.select(&ctx(&ladder)), plain.select(&ctx(&ladder)));
        assert_eq!(wrapped.decide(&ctx(&ladder)), plain.decide(&ctx(&ladder)));
    }

    #[test]
    fn spans_are_recorded_per_decision() {
        let ladder = BitrateLadder::evaluation();
        let recorder = MemoryRecorder::new();
        let mut wrapped = InstrumentedBox::new(Box::new(FixedLevel::highest()), &recorder);
        for _ in 0..3 {
            let _ = wrapped.decide(&ctx(&ladder));
        }
        let snap = recorder.metrics().snapshot();
        assert_eq!(snap.span("abr/decide/youtube").unwrap().count, 3);
    }

    #[test]
    fn boxed_wrapper_is_transparent() {
        let ladder = BitrateLadder::evaluation();
        let recorder = MemoryRecorder::new();
        let boxed: Box<dyn BitrateController> = Box::new(FixedLevel::highest());
        let mut wrapped = InstrumentedBox::new(boxed, &recorder);
        assert_eq!(wrapped.name(), "youtube");
        let _ = wrapped.select(&ctx(&ladder));
        let snap = recorder.metrics().snapshot();
        assert_eq!(snap.span("abr/decide/youtube").unwrap().count, 1);
    }
}
