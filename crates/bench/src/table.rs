//! Aligned plain-text tables for harness output.

/// A simple column-aligned table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table: numbers right-aligned, text left-aligned, two
    /// spaces between columns, and a rule under the headers.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let number = |cell: &String| cell.starts_with(|c: char| c.is_ascii_digit());
            let pad = |(cell, &w): (&String, &usize)| match number(cell) {
                true => format!("{cell:>w$}"),
                false => format!("{cell:<w$}"),
            };
            cells
                .iter()
                .zip(&widths)
                .map(pad)
                .collect::<Vec<_>>()
                .join("  ")
                + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        let rows: String = self.rows.iter().map(|row| line(row)).collect();
        line(&self.headers) + &rule + "\n" + &rows
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats milliseconds compactly.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Formats KiB compactly.
pub fn kib(v: f64) -> String {
    format!("{v:.0}")
}

/// Formats a relative error in scientific notation.
pub fn err(v: f64) -> String {
    format!("{v:.1e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].contains("12345"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(1234.6), "1235");
        assert_eq!(ms(12.34), "12.3");
        assert_eq!(kib(1024.4), "1024");
        assert_eq!(err(1.23e-8), "1.2e-8");
    }
}
