//! The [`Probe`] instrumentation interface and the zero-cost null probe.
//!
//! Events reach a probe as `&dyn Serialize`: the emitting site hands over
//! its typed event, and only a recorder that consumes events serializes
//! it, straight to compact JSON.

use std::time::Instant;

use serde::Serialize;

/// The instrumentation interface the simulator, controllers, runner and
/// power accounting report into.
///
/// Call sites hold a `&dyn Probe` and stay agnostic of where the data
/// goes. The two `*_enabled` methods let hot paths skip serialization and
/// clock reads entirely when nobody is listening — the default
/// implementation of everything is a no-op, so [`NullProbe`] costs one
/// virtual call per site.
pub trait Probe: Sync {
    /// Whether [`Probe::emit`] consumes events. Call sites should skip
    /// building event payloads when this is `false`.
    fn events_enabled(&self) -> bool {
        false
    }

    /// Whether metric recording (spans, counters, gauges, histograms) is
    /// active. [`SpanGuard`] skips reading the clock when `false`.
    fn metrics_enabled(&self) -> bool {
        false
    }

    /// Records a deterministic, simulation-time event. Events must depend
    /// only on the run's seed and configuration (never on wall-clock) so
    /// recorded streams reproduce byte-for-byte. Recorders stream the
    /// event's compact JSON from [`Serialize::write_json`].
    fn emit(&self, event: &dyn Serialize) {
        let _ = event;
    }

    /// Records a completed wall-clock span.
    fn record_span(&self, name: &str, nanos: u64) {
        let _ = (name, nanos);
    }

    /// Increments a monotonic counter.
    fn add(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets a gauge to a value (last write wins).
    fn gauge(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Records one observation into a fixed-bucket histogram.
    fn observe(&self, name: &str, value: f64) {
        let _ = (name, value);
    }
}

/// The probe that records nothing. Instrumented code paths run against
/// this by default; the acceptance bar is that it costs under 2% on the
/// simulator benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// A `&'static` null probe for default arguments.
pub static NULL_PROBE: NullProbe = NullProbe;

/// An RAII wall-clock span: created by [`crate::span!`], records its
/// elapsed time into the probe on drop.
///
/// The clock is only read when the probe has metrics enabled, keeping the
/// disabled path free of `Instant::now` syscalls.
pub struct SpanGuard<'p> {
    probe: &'p dyn Probe,
    name: &'p str,
    start: Option<Instant>,
}

impl<'p> SpanGuard<'p> {
    /// Opens a span against `probe`.
    #[must_use]
    pub fn new(probe: &'p dyn Probe, name: &'p str) -> Self {
        let start = probe.metrics_enabled().then(Instant::now);
        Self { probe, name, start }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.probe.record_span(self.name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryRecorder;
    use serde::Value;

    #[test]
    fn null_probe_reports_disabled() {
        assert!(!NullProbe.events_enabled());
        assert!(!NullProbe.metrics_enabled());
        // And all recording methods are callable no-ops.
        NullProbe.emit(&Value::Null);
        NullProbe.record_span("x", 1);
        NullProbe.add("x", 1);
        NullProbe.gauge("x", 1.0);
        NullProbe.observe("x", 1.0);
    }

    #[test]
    fn span_guard_skips_clock_when_disabled() {
        let guard = SpanGuard::new(&NULL_PROBE, "idle");
        assert!(guard.start.is_none());
    }

    #[test]
    fn span_guard_records_on_drop() {
        let recorder = MemoryRecorder::new();
        {
            let _g = SpanGuard::new(&recorder, "work");
        }
        let snap = recorder.metrics().snapshot();
        assert_eq!(snap.span("work").unwrap().count, 1);
    }
}
