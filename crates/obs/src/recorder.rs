//! The in-memory recorder implementation of [`Probe`].

use std::sync::Arc;

use crate::metrics::MetricsRegistry;
use crate::probe::Probe;

/// Records metrics into a [`MetricsRegistry`].
///
/// The workhorse for tests, in-process inspection and observed runs.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    metrics: Arc<MetricsRegistry>,
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
        Self { metrics }
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }
}

impl Probe for MemoryRecorder {
    fn metrics_enabled(&self) -> bool {
        true
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
