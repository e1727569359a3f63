//! The in-memory recorder implementation of [`Probe`].
//!
//! It keeps each event as one JSONL line, the event's compact JSON
//! streamed from `Serialize::write_json` plus a newline, so the captured
//! stream is the bytes an events file holds.

use std::sync::{Arc, Mutex, PoisonError};

use serde::Serialize;

use crate::metrics::MetricsRegistry;
use crate::probe::Probe;

/// One JSONL line: the event's compact JSON and a newline.
fn jsonl_line(event: &dyn Serialize) -> String {
    let mut line = String::new();
    // A `String` sink never fails, and serialization only forwards sink
    // errors.
    let _ = event.write_json(&mut line);
    line.push('\n');
    line
}

/// Records events in memory and metrics into a [`MetricsRegistry`].
///
/// The workhorse for tests, in-process inspection and observed runs.
/// Events are kept as JSONL lines, so [`MemoryRecorder::to_jsonl`] is
/// the events file a caller publishes, built without touching the
/// filesystem.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    metrics: Arc<MetricsRegistry>,
    lines: Mutex<Vec<String>>,
}

impl MemoryRecorder {
    /// Creates an empty recorder with its own registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder sharing an existing registry (several recorders
    /// aggregating metrics into one summary).
    #[must_use]
    pub fn with_registry(metrics: Arc<MetricsRegistry>) -> Self {
        Self {
            metrics,
            lines: Mutex::new(Vec::new()),
        }
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Number of captured events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no events were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }

    /// The captured events as JSONL — one compact JSON object per line,
    /// each ending in a newline.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .concat()
    }
}

impl Probe for MemoryRecorder {
    fn events_enabled(&self) -> bool {
        true
    }

    fn metrics_enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: &dyn Serialize) {
        let line = jsonl_line(event);
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line);
    }

    fn record_span(&self, name: &str, nanos: u64) {
        self.metrics.record_span(name, nanos);
    }

    fn add(&self, name: &str, delta: u64) {
        self.metrics.add(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.metrics.gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.metrics.observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn event(kind: &str, at: f64) -> Value {
        Value::Object(vec![(
            kind.to_string(),
            Value::Object(vec![("at".to_string(), Value::Float(at))]),
        )])
    }

    #[test]
    fn memory_recorder_captures_in_order() {
        let r = MemoryRecorder::new();
        r.emit(&event("A", 1.0));
        r.emit(&event("B", 2.0));
        assert_eq!(r.len(), 2);
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"A\""));
        assert!(lines[1].contains("\"B\""));
        // The events-file line format: compact JSON, one newline each.
        assert_eq!(jsonl, "{\"A\":{\"at\":1.0}}\n{\"B\":{\"at\":2.0}}\n");
    }

    #[test]
    fn shared_registry_aggregates_across_recorders() {
        let registry = Arc::new(MetricsRegistry::new());
        let a = MemoryRecorder::with_registry(Arc::clone(&registry));
        let b = MemoryRecorder::with_registry(Arc::clone(&registry));
        a.add("runs", 1);
        b.add("runs", 1);
        assert_eq!(registry.snapshot().counter("runs"), Some(2));
    }
}
