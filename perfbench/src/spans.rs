//! The benchmark's own span table.
//!
//! Every timed call into a layer becomes one row: name, start, end,
//! parent and the id of the unit it belongs to. Rows stay in memory and
//! are written out when the run ends. Span names live here, not in the
//! workspace's metric-name registry: they describe the benchmark's view
//! of the program, not metrics the program emits.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use ecas_core::obs::perf::Stopwatch;

/// Handle to a span in a [`SpanTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span; times are nanoseconds since the table's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    unit: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns
            .map_or(0, |end| end.saturating_sub(self.start_ns))
    }
}

/// An in-memory table of spans sharing one monotonic origin.
#[derive(Debug)]
pub struct SpanTable {
    origin: Stopwatch,
    spans: Vec<Span>,
}

impl Default for SpanTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTable {
    /// An empty table whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    /// Opens a span of `unit` under `parent` (`None` for a root span).
    pub fn open(&mut self, name: &'static str, unit: u64, parent: Option<SpanId>) -> SpanId {
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns: self.origin.elapsed_nanos(),
            end_ns: None,
        });
        id
    }

    /// Closes `id` and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.origin.elapsed_nanos();
        match self.spans.get_mut(id.0) {
            Some(span) => {
                span.end_ns = Some(now);
                secs(span.nanos())
            }
            None => 0.0,
        }
    }

    /// Runs `f` inside a span and returns its value and the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, unit, parent);
        let value = f();
        let seconds = self.close(id);
        (value, seconds)
    }

    /// Duration of `id` in seconds (0 while open).
    #[must_use]
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.spans.get(id.0).map_or(0.0, |s| secs(s.nanos()))
    }

    /// Self time of every span: its duration minus its children's
    /// durations, in nanoseconds, indexed like the table. The benchmark
    /// opens a span's children one after the other on one thread, so
    /// they never overlap.
    fn self_nanos(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| children.get_mut(p.0)) {
                *slot += span.nanos();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, covered)| span.nanos().saturating_sub(covered))
            .collect()
    }

    /// Self time of `id` in seconds.
    #[must_use]
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        self.self_nanos().get(id.0).map_or(0.0, |&n| secs(n))
    }

    /// Per-name summary over units: for each span name, the median over
    /// units of the name's total and self time in that unit, and the
    /// number of units it appeared in. Sorted by name.
    #[must_use]
    pub fn summary(&self) -> Vec<SpanSummary> {
        let selfs = self.self_nanos();
        let mut per: BTreeMap<&'static str, BTreeMap<u64, (u64, u64)>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(&selfs) {
            let slot = per
                .entry(span.name)
                .or_default()
                .entry(span.unit)
                .or_default();
            slot.0 += span.nanos();
            slot.1 += self_ns;
        }
        per.into_iter()
            .map(|(name, units)| {
                let total: Vec<f64> = units.values().map(|&(t, _)| secs(t)).collect();
                let own: Vec<f64> = units.values().map(|&(_, s)| secs(s)).collect();
                SpanSummary {
                    name,
                    units: units.len(),
                    total_s: crate::sys::median(&total),
                    self_s: crate::sys::median(&own),
                }
            })
            .collect()
    }

    /// Writes the table as tab-separated rows with a header:
    /// `id unit parent name start_ns end_ns self_ns`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from writing `path`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let selfs = self.self_nanos();
        let mut out = String::from("id\tunit\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.0.to_string());
            let end = span
                .end_ns
                .map_or_else(|| "-".to_string(), |e| e.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{end}\t{self_ns}",
                span.unit, span.name, span.start_ns
            );
        }
        fs::write(path, out)
    }
}

/// One line of [`SpanTable::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Units the span appeared in.
    pub units: usize,
    /// Median over units of the span's total time in the unit (s).
    pub total_s: f64,
    /// Median over units of the span's self time in the unit (s).
    pub self_s: f64,
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut table = SpanTable::new();
        let root = table.open("unit", 0, None);
        let (_, a) = table.time("a", 0, Some(root), || std::hint::black_box(0));
        let (_, b) = table.time("b", 0, Some(root), || std::hint::black_box(1));
        let total = table.close(root);
        let own = table.self_seconds(root);
        assert!(own >= 0.0);
        assert!(
            (own + a + b - total).abs() < 1e-6,
            "{own} + {a} + {b} != {total}"
        );
        let names: Vec<&str> = table.summary().iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b", "unit"]);
    }
}
