//! Rendering recorded sessions: per-segment timelines and metrics
//! summaries.

use serde::Value;

use crate::metrics::MetricsSnapshot;

/// Renders an aligned fixed-width text table.
fn aligned_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header: Vec<String> = header.iter().map(ToString::to_string).collect();
    let mut out = fmt_row(&header);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Renders a Markdown table.
#[must_use]
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::from("|");
    for h in header {
        out.push_str(&format!(" {h} |"));
    }
    out.push_str("\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

fn field(event: &Value, variant: &str, key: &str) -> Option<f64> {
    event.get(variant)?.get(key)?.as_f64()
}

#[derive(Default, Clone)]
struct SegmentRow {
    decide_at: Option<f64>,
    level: Option<f64>,
    vibration: Option<f64>,
    buffer: Option<f64>,
    dl_start: Option<f64>,
    dl_end: Option<f64>,
    throughput: Option<f64>,
    stall: f64,
}

/// Renders a per-segment timeline table from a recorded JSONL event
/// stream: one externally-tagged `SessionEvent` of `ecas-sim` per line,
/// as the recorders write it.
///
/// One row per segment: decision time, chosen level, vibration estimate,
/// buffer level at decision, download window, achieved throughput, and
/// stall seconds attributed to the download. Unknown event shapes and
/// lines that do not parse are ignored, so the renderer stays usable on
/// partial or extended streams. So is an event whose segment index is
/// not below the stream's line count: the player writes one `Decision`
/// line per segment, so only a hostile stream has one that far out.
#[must_use]
pub fn segment_timeline(jsonl: &str) -> String {
    let lines = jsonl.lines().count();
    let events: Vec<Value> = jsonl
        .lines()
        .filter_map(|line| serde_json::from_str(line).ok())
        .collect();
    let mut rows: Vec<SegmentRow> = Vec::new();
    let row = |event: &Value, variant: &str, rows: &mut Vec<SegmentRow>| -> Option<usize> {
        let idx = field(event, variant, "segment")?.max(0.0) as usize;
        if idx >= lines {
            return None;
        }
        if rows.len() <= idx {
            rows.resize(idx + 1, SegmentRow::default());
        }
        Some(idx)
    };

    let mut open_segment: Option<usize> = None;
    let mut stall_open: Option<f64> = None;
    for event in &events {
        if let Some(idx) = row(event, "Decision", &mut rows) {
            rows[idx].decide_at = field(event, "Decision", "at");
            rows[idx].level = field(event, "Decision", "level");
            rows[idx].vibration = field(event, "Decision", "vibration");
            rows[idx].buffer = field(event, "Decision", "buffer");
        } else if let Some(idx) = row(event, "DownloadStart", &mut rows) {
            rows[idx].dl_start = field(event, "DownloadStart", "at");
            open_segment = Some(idx);
        } else if let Some(idx) = row(event, "DownloadEnd", &mut rows) {
            rows[idx].dl_end = field(event, "DownloadEnd", "at");
            rows[idx].throughput = field(event, "DownloadEnd", "throughput");
            open_segment = None;
        } else if let Some(at) = field(event, "StallStart", "at") {
            stall_open = Some(at);
        } else if let Some(at) = field(event, "StallEnd", "at") {
            // Attribute the stall to the download in flight when it began
            // (stalls only accrue while a download blocks playback).
            if let (Some(start), Some(idx)) = (stall_open.take(), open_segment) {
                rows[idx].stall += at - start;
            }
        }
    }

    let fmt = |v: Option<f64>, digits: usize| {
        v.map_or_else(|| "-".to_string(), |x| format!("{x:.digits$}"))
    };
    let cells: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                i.to_string(),
                fmt(r.level, 0),
                fmt(r.decide_at, 2),
                fmt(r.vibration, 2),
                fmt(r.buffer, 1),
                fmt(r.dl_start, 2),
                fmt(r.dl_end, 2),
                fmt(r.throughput, 2),
                format!("{:.2}", r.stall),
            ]
        })
        .collect();
    aligned_table(
        &[
            "seg",
            "level",
            "decide(s)",
            "vib",
            "buf(s)",
            "dl-start",
            "dl-end",
            "Mbps",
            "stall(s)",
        ],
        &cells,
    )
}

/// Renders a metrics snapshot as a human-readable summary: counters,
/// gauges, span timers and histograms, each in its own table.
#[must_use]
pub fn metrics_summary(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();

    if !snapshot.counters.is_empty() {
        out.push_str("## Counters\n\n");
        let rows: Vec<Vec<String>> = snapshot
            .counters
            .iter()
            .map(|(k, v)| vec![k.clone(), v.to_string()])
            .collect();
        out.push_str(&aligned_table(&["counter", "value"], &rows));
        out.push('\n');
    }

    if !snapshot.gauges.is_empty() {
        out.push_str("## Gauges\n\n");
        let rows: Vec<Vec<String>> = snapshot
            .gauges
            .iter()
            .map(|(k, v)| vec![k.clone(), format!("{v:.3}")])
            .collect();
        out.push_str(&aligned_table(&["gauge", "value"], &rows));
        out.push('\n');
    }

    if !snapshot.spans.is_empty() {
        out.push_str("## Spans (wall clock)\n\n");
        let rows: Vec<Vec<String>> = snapshot
            .spans
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    s.count.to_string(),
                    format!("{:.3}", s.total_ns as f64 / 1e6),
                    format!("{:.1}", s.mean_ns() / 1e3),
                    format!("{:.1}", s.min_ns as f64 / 1e3),
                    format!("{:.1}", s.max_ns as f64 / 1e3),
                ]
            })
            .collect();
        out.push_str(&aligned_table(
            &[
                "span",
                "count",
                "total(ms)",
                "mean(us)",
                "min(us)",
                "max(us)",
            ],
            &rows,
        ));
        out.push('\n');
    }

    if !snapshot.histograms.is_empty() {
        out.push_str("## Histograms\n\n");
        for h in &snapshot.histograms {
            out.push_str(&format!(
                "{}: n={} mean={}\n",
                h.name,
                h.count,
                h.mean()
                    .map_or_else(|| "-".to_string(), |m| format!("{m:.3}")),
            ));
            // Only non-empty buckets; empty tails add noise, not signal.
            for (i, &count) in h.counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let label = h
                    .bounds
                    .get(i)
                    .map_or_else(|| "inf".to_string(), |b| format!("{b}"));
                out.push_str(&format!("  <= {label:>8}: {count}\n"));
            }
            out.push('\n');
        }
    }

    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn tagged(variant: &str, fields: Vec<(&str, f64)>) -> Value {
        obj(vec![(
            variant,
            obj(fields
                .into_iter()
                .map(|(k, v)| (k, Value::Float(v)))
                .collect()),
        )])
    }

    /// The events as a recorded JSONL stream.
    fn jsonl(events: &[Value]) -> String {
        events.iter().map(|e| format!("{e}\n")).collect()
    }

    #[test]
    fn timeline_builds_one_row_per_segment() {
        let events = vec![
            tagged(
                "Decision",
                vec![
                    ("at", 0.0),
                    ("segment", 0.0),
                    ("level", 3.0),
                    ("vibration", 1.5),
                    ("buffer", 0.0),
                ],
            ),
            tagged("DownloadStart", vec![("at", 0.0), ("segment", 0.0)]),
            tagged("StallStart", vec![("at", 0.4)]),
            tagged("StallEnd", vec![("at", 0.9)]),
            tagged(
                "DownloadEnd",
                vec![("at", 1.0), ("segment", 0.0), ("throughput", 4.0)],
            ),
        ];
        let table = segment_timeline(&jsonl(&events));
        assert_eq!(table.lines().count(), 3, "{table}");
        let row = table.lines().last().unwrap();
        assert!(row.contains("4.00"), "{row}");
        assert!(row.contains("0.50"), "stall seconds missing: {row}");
    }

    #[test]
    fn timeline_tolerates_unknown_events() {
        let events = vec![
            obj(vec![("SomethingNew", Value::Null)]),
            tagged("DownloadStart", vec![("at", 2.0), ("segment", 1.0)]),
        ];
        let table = segment_timeline(&format!("not json\n{}", jsonl(&events)));
        // Segments 0 and 1 render (0 has no data).
        assert_eq!(table.lines().count(), 4);
    }

    /// An event whose segment lies at or past the stream's line count is
    /// skipped like an unknown one: a hostile index cannot overflow the
    /// row arithmetic or size the table.
    #[test]
    fn timeline_skips_segments_past_the_stream() {
        let decision = |segment| {
            tagged(
                "Decision",
                vec![("at", 1.0), ("segment", segment), ("level", 2.0)],
            )
        };
        let stream = format!(
            "{}{{\"DownloadStart\":{{\"at\":1.0,\"segment\":1e300}}}}\n",
            jsonl(&[decision(0.0), decision(4.0), decision(2.0)])
        );
        let table = segment_timeline(&stream);
        // Header, rule, then rows 0..=2: segment 4 equals the line count.
        assert_eq!(table.lines().count(), 5, "{table}");
        let unknown = obj(vec![("SomethingNew", Value::Null)]);
        assert_eq!(
            table,
            segment_timeline(&jsonl(&[decision(0.0), decision(2.0), unknown]))
        );
    }

    #[test]
    fn metrics_summary_lists_all_sections() {
        let r = MetricsRegistry::new();
        r.add("sim/segments", 30);
        r.gauge("sim/energy/radio_j", 120.5);
        r.record_span("sim/download", 1_500_000);
        r.observe("sim/throughput_mbps", 3.0);
        let text = metrics_summary(&r.snapshot());
        assert!(text.contains("## Counters"));
        assert!(text.contains("sim/segments"));
        assert!(text.contains("## Gauges"));
        assert!(text.contains("120.500"));
        assert!(text.contains("## Spans"));
        assert!(text.contains("## Histograms"));
        assert!(text.contains("n=1"));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let text = metrics_summary(&MetricsSnapshot::default());
        assert!(text.contains("no metrics"));
    }

    #[test]
    fn markdown_table_shape() {
        let md = markdown_table(&["a", "b"], &[vec!["1".to_string(), "2".to_string()]]);
        assert_eq!(md, "| a | b |\n|---|---|\n| 1 | 2 |\n");
    }
}
