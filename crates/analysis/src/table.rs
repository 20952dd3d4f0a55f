//! Aligned ASCII table rendering for experiment output.

/// A simple table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience for string-slice rows.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, &w) in widths.iter().enumerate().take(cols) {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                // Right-align numeric-looking cells, left-align text.
                let numeric = cell
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_digit() || c == '-' || c == '+')
                    .unwrap_or(false);
                if numeric {
                    line.push_str(&format!("{cell:>w$}"));
                } else {
                    line.push_str(&format!("{cell:<w$}"));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a float with `digits` decimals.
pub fn fnum(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Format a ratio as `N.NNx`.
pub fn fx(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a fraction as a percentage.
pub fn fpct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row_str(&["short", "1.0"]);
        t.row_str(&["a-much-longer-name", "12345.6"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // title, header, separator, two data rows.
        assert_eq!(lines.len(), 5);
        // Numeric column right-aligned: both values end at same column.
        let v1 = lines[3].rfind("1.0").unwrap() + 3;
        let v2 = lines[4].rfind("12345.6").unwrap() + 7;
        assert_eq!(v1, v2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new("x", &["a", "b"]).row_str(&["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fx(16.406), "16.41x");
        assert_eq!(fpct(0.0133), "1.3%");
    }
}
