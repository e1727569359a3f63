//! Recorder implementations of [`Probe`]: in-memory and JSONL.
//!
//! Both write each event as one JSONL line, the event's compact JSON
//! streamed from `Serialize::write_json` plus a newline, so an in-memory
//! stream and a file stream of the same run are the same bytes.

use std::io::{self, BufWriter, Write};
use std::path::Path;
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
/// The workhorse for tests and in-process inspection. Events are kept as
/// the JSONL lines [`JsonlRecorder`] would write, so
/// [`MemoryRecorder::to_jsonl`] is byte-identical to a recorded file
/// without touching the filesystem.
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
    /// exactly what [`JsonlRecorder`] writes.
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

/// Streams events as JSON Lines to a writer; metrics go to a (possibly
/// shared) [`MetricsRegistry`].
///
/// Event lines are written in emission order with no timestamps or other
/// wall-clock contamination, so a rerun with the same seed and
/// configuration produces a byte-identical file.
pub struct JsonlRecorder {
    metrics: Arc<MetricsRegistry>,
    sink: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder").finish_non_exhaustive()
    }
}

impl JsonlRecorder {
    /// Wraps an arbitrary writer.
    #[must_use]
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self::with_registry(writer, Arc::new(MetricsRegistry::new()))
    }

    /// Wraps a writer, recording metrics into a shared registry.
    #[must_use]
    pub fn with_registry(writer: Box<dyn Write + Send>, metrics: Arc<MetricsRegistry>) -> Self {
        Self {
            metrics,
            sink: Mutex::new(BufWriter::new(writer)),
        }
    }

    /// Creates (truncating) a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(file)))
    }

    /// Like [`JsonlRecorder::create`] with a shared metrics registry.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn create_with_registry(path: &Path, metrics: Arc<MetricsRegistry>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::with_registry(Box::new(file), metrics))
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Flushes buffered event lines to the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the flush fails.
    pub fn flush(&self) -> io::Result<()> {
        self.sink
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self
            .sink
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush();
    }
}

impl Probe for JsonlRecorder {
    fn events_enabled(&self) -> bool {
        true
    }

    fn metrics_enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: &dyn Serialize) {
        let line = jsonl_line(event);
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        // An experiment tool that loses its event stream should fail
        // loudly rather than report success over partial data.
        sink.write_all(line.as_bytes())
            // ecas-lint: allow(panic-safety, reason = "a tool that loses its event stream must fail loudly, not report success")
            .expect("event sink write failed");
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
    }

    #[test]
    fn jsonl_recorder_writes_one_line_per_event() {
        let path = std::env::temp_dir().join(format!("ecas-obs-test-{}.jsonl", std::process::id()));
        {
            let r = JsonlRecorder::create(&path).unwrap();
            r.emit(&event("StallStart", 5.0));
            r.emit(&event("StallEnd", 6.0));
            r.flush().unwrap();
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(contents.lines().count(), 2);
        assert!(contents.starts_with("{\"StallStart\""));
        assert!(contents.ends_with('\n'));
    }

    #[test]
    fn jsonl_matches_memory_serialization() {
        let mem = MemoryRecorder::new();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let jsonl = JsonlRecorder::new(Box::new(Shared(Arc::clone(&buf))));
        for e in [event("X", 0.5), event("Y", 1.5)] {
            mem.emit(&e);
            jsonl.emit(&e);
        }
        jsonl.flush().unwrap();
        assert_eq!(
            mem.to_jsonl().as_bytes(),
            buf.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_slice()
        );
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
