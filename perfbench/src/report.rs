//! Metric catalogue and output format.
//!
//! Every metric is printed on its own line as `name value unit`,
//! optionally followed by ` # note`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end catalogue for an untraced run, the per-layer
//! catalogue for a traced one).

use std::fmt::Write as _;

use serde_json::Value;

/// End-to-end metrics: name, unit. `BENCHMARK.json` lists the same.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_s_per_s", "session-s/s"),
    ("sim_s_per_cpu_s", "session-s/cpu-s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Printed with the end-to-end metrics but carried in the JSON result
/// by `attempted` and `failed` instead: it is 0 on a correct program,
/// and the result format wants metrics that never read 0.
pub const ERROR_RATE: (&str, &str) = ("error_rate", "ratio");

/// Per-layer metrics of the traced run: name, unit. `BENCHMARK.json`
/// lists the same. A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("population.refill_s", "s"),
    ("population.serial_share", "ratio"),
    ("population.users", "count"),
    ("sweep.busy_s", "s"),
    ("sweep.cells", "count"),
    ("sweep.pool_efficiency", "ratio"),
    ("sim.busy_s", "s"),
    ("sim.segments", "count"),
    ("optimal.busy_s", "s"),
    ("optimal.share", "ratio"),
    ("optimal.work", "count"),
    ("hash.busy_s", "s"),
    ("hash.bytes", "bytes"),
    ("cache.fill_s", "s"),
    ("cache.read_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.corrupt", "count"),
    ("cache.from_record", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_per_cell", "bytes"),
    ("fleet.fold_s", "s"),
    ("corpus.record_s", "s"),
    ("corpus.verify_s", "s"),
    ("record.encode_s", "s"),
    ("record.decode_s", "s"),
    ("record.bytes", "bytes"),
    ("synth.regen_s", "s"),
    ("oracle.replay_s", "s"),
    ("oracle.checks", "count"),
    ("fleet.unattributed_s", "s"),
    ("grid.unattributed_s", "s"),
    ("grid-warm.unattributed_s", "s"),
    ("corpus.unattributed_s", "s"),
    ("trace.overhead", "ratio"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Optional remark printed after `#`.
    pub note: Option<String>,
}

impl Metric {
    /// A metric without a note.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            note: None,
        }
    }

    /// Attaches a note.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    /// `name value unit[ # note]`.
    #[must_use]
    pub fn line(&self) -> String {
        let mut line = format!("{} {} {}", self.name, self.value, self.unit);
        if let Some(note) = &self.note {
            let _ = write!(line, " # {note}");
        }
        line
    }
}

/// Parses a metric line back into name, value and unit (the note is
/// dropped). `None` unless the line has exactly those three fields
/// before any `#` and the value is a finite number.
#[must_use]
pub fn parse_line(line: &str) -> Option<(String, f64, String)> {
    let body = line.split_once(" # ").map_or(line, |(body, _)| body);
    let mut fields = body.split(' ');
    let (name, value, unit) = (fields.next()?, fields.next()?, fields.next()?);
    if fields.next().is_some() || name.is_empty() || unit.is_empty() {
        return None;
    }
    let value: f64 = value.parse().ok()?;
    value
        .is_finite()
        .then(|| (name.to_string(), value, unit.to_string()))
}

/// The final JSON line. `metrics` are written in the given order.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let entry = |m: &Metric| {
        let body = vec![
            ("value".to_string(), Value::Float(m.value)),
            ("unit".to_string(), Value::Str(m.unit.to_string())),
        ];
        (m.name.to_string(), Value::Object(body))
    };
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        (
            "metrics".to_string(),
            Value::Object(metrics.iter().map(entry).collect()),
        ),
    ]);
    serde_json::to_string(&result).expect("Value serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_through_the_parser() {
        let m = Metric::new("unit_ms_tail", 812.25, "ms").note("p47 of 19 units");
        assert_eq!(m.line(), "unit_ms_tail 812.25 ms # p47 of 19 units");
        assert_eq!(
            parse_line(&m.line()),
            Some(("unit_ms_tail".to_string(), 812.25, "ms".to_string()))
        );
        assert_eq!(parse_line("two fields"), None);
        assert_eq!(parse_line("a 1 b c"), None);
        assert_eq!(parse_line("a x b"), None);
    }

    #[test]
    fn json_has_the_four_keys() {
        let json = result_json(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let serde_json::Value::Object(entries) = &value else {
            panic!("not an object: {json}")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let unit = value
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("unit"))
            .and_then(serde_json::Value::as_str);
        assert_eq!(unit, Some("s"));
        assert_eq!(
            value.get("attempted").and_then(serde_json::Value::as_f64),
            Some(3.0)
        );
        let json = result_json(false, 1, 1, &[Metric::new("setup_s", f64::NAN, "s")]);
        assert!(
            serde_json::from_str::<serde_json::Value>(&json).is_ok(),
            "a non-finite value still gives valid JSON: {json}"
        );
    }
}
