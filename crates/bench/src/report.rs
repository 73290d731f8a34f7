//! Markdown / CSV report output.

use std::fmt::Write as _;

/// A simple aligned markdown table builder.
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        MarkdownTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {cell:<w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        let _ = cols;
        out
    }

    /// CSV rendering (no alignment padding).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a metric in the paper's `.1234` style (`1.000` when saturated).
pub fn paper_fmt(v: f64) -> String {
    if v >= 0.99995 {
        "1.000".to_string()
    } else {
        format!(".{:04.0}", (v * 10_000.0).round())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = MarkdownTable::new(&["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        let r = t.render();
        assert!(r.contains("| a | long-header |"));
        assert!(r.contains("| x | 1           |"));
        assert!(r.lines().count() == 3);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = MarkdownTable::new(&["name"]);
        t.row(vec!["a,b".into()]);
        assert!(t.to_csv().contains("\"a,b\""));
    }

    #[test]
    fn paper_format() {
        assert_eq!(paper_fmt(0.7581), ".7581");
        assert_eq!(paper_fmt(0.9), ".9000");
        assert_eq!(paper_fmt(1.0), "1.000");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = MarkdownTable::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
