//! Minimal fixed-width table rendering for terminal reports.

/// A simple text table: header + rows, auto-sized columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The rows appended so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        ecas_obs::render::aligned_table(&header, &self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }
}
