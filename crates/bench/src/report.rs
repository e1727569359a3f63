//! The shared output path for every experiment tool.
//!
//! A [`Report`] collects a title, tables and commentary notes, then
//! renders them in one of three consistent formats — aligned text
//! (default), Markdown (`--markdown`) or JSON (`--json`) — so every
//! ablation and figure binary emits the same shapes instead of ad-hoc
//! `println!` sequences.

use serde::Value;

use crate::render::Table;

/// A structured tool report: title, captioned tables, trailing notes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    title: String,
    tables: Vec<(String, Table)>,
    notes: Vec<String>,
}

/// Output format for [`Report::render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned fixed-width text (the default terminal format).
    Text,
    /// GitHub-flavoured Markdown.
    Markdown,
    /// One JSON object: `{title, tables, notes}`.
    Json,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a table with an optional caption (empty string for none).
    pub fn table(&mut self, caption: impl Into<String>, table: Table) -> &mut Self {
        self.tables.push((caption.into(), table));
        self
    }

    /// Appends a commentary line printed after the tables.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the report in the requested format.
    #[must_use]
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.render_text(),
            Format::Markdown => self.render_markdown(),
            Format::Json => {
                let mut out = serde_json::to_string_pretty(&self.to_json_value())
                    // ecas-lint: allow(panic-safety, reason = "a serde_json::Value tree always serializes")
                    .expect("report serializes");
                out.push('\n');
                out
            }
        }
    }

    fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        for (caption, table) in &self.tables {
            out.push('\n');
            if !caption.is_empty() {
                out.push_str(caption);
                out.push('\n');
            }
            out.push_str(&table.render());
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(note);
                out.push('\n');
            }
        }
        out
    }

    fn render_markdown(&self) -> String {
        let mut out = format!("# {}\n", self.title);
        for (caption, table) in &self.tables {
            out.push('\n');
            if !caption.is_empty() {
                out.push_str(&format!("## {caption}\n\n"));
            }
            let header: Vec<&str> = table.header().iter().map(String::as_str).collect();
            out.push_str(&ecas_obs::render::markdown_table(&header, table.rows()));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(note);
                out.push('\n');
            }
        }
        out
    }

    /// The report as a JSON value.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let str_val = |s: &String| Value::Str(s.clone());
        let tables = self
            .tables
            .iter()
            .map(|(caption, table)| {
                Value::Object(vec![
                    ("caption".to_string(), Value::Str(caption.clone())),
                    (
                        "header".to_string(),
                        Value::Array(table.header().iter().map(str_val).collect()),
                    ),
                    (
                        "rows".to_string(),
                        Value::Array(
                            table
                                .rows()
                                .iter()
                                .map(|r| Value::Array(r.iter().map(str_val).collect()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("title".to_string(), Value::Str(self.title.clone())),
            ("tables".to_string(), Value::Array(tables)),
            (
                "notes".to_string(),
                Value::Array(self.notes.iter().map(str_val).collect()),
            ),
        ])
    }

    /// Renders in the given format and prints to stdout. Binaries get
    /// the format from [`crate::cli::Args::format`].
    pub fn emit(&self, format: Format) {
        print!("{}", self.render(format));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut table = Table::new(vec!["a", "b"]);
        table.row(vec!["1", "2"]);
        let mut r = Report::new("demo sweep");
        r.table("the numbers", table).note("a closing remark.");
        r
    }

    #[test]
    fn text_contains_title_table_and_notes() {
        let text = report().render(Format::Text);
        assert!(text.starts_with("demo sweep\n"));
        assert!(text.contains("the numbers"));
        assert!(text.contains('1'));
        assert!(text.ends_with("a closing remark.\n"));
    }

    #[test]
    fn markdown_uses_headings_and_pipes() {
        let md = report().render(Format::Markdown);
        assert!(md.starts_with("# demo sweep\n"));
        assert!(md.contains("## the numbers"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let json = report().render(Format::Json);
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            value.get("title").and_then(Value::as_str),
            Some("demo sweep")
        );
        let tables = value.get("tables").unwrap();
        assert!(matches!(tables, Value::Array(t) if t.len() == 1));
    }
}
