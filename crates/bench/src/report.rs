//! Plain-text table and CSV reporting for the experiment harness.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as the header).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells, header has {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.header.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders the table as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Writes CSV content to `path`, creating parent directories as needed.
pub fn write_csv(path: impl AsRef<Path>, csv: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, csv)
}

/// Formats a millisecond value with two decimals.
pub fn ms(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a seconds value with one decimal (Table 1 style).
pub fn secs(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_text_and_csv() {
        let mut t = Table::new("demo", &["k", "variant", "ms"]);
        t.add_row(vec!["1250".into(), "zonemap".into(), ms(12.345)]);
        t.add_row(vec!["80000".into(), "virtual-view".into(), ms(1.5)]);
        assert_eq!(t.num_rows(), 2);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("virtual-view"));
        assert!(text.contains("12.35") || text.contains("12.34"));
        let csv = t.to_csv();
        assert!(csv.starts_with("k,variant,ms\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn csv_writing_creates_directories() {
        let dir = std::env::temp_dir().join(format!("asv-report-test-{}", std::process::id()));
        let path = dir.join("nested/out.csv");
        write_csv(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(1.005), "1.00");
        assert_eq!(secs(58.64), "58.6");
    }
}
