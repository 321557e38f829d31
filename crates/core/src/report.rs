//! Plain-text report rendering for the figure runner.

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use dstress::report::TextTable;
///
/// let mut t = TextTable::new(vec!["pattern", "CEs"]);
/// t.row(vec!["worst".into(), "812".into()]);
/// let s = t.render();
/// assert!(s.contains("pattern"));
/// assert!(s.contains("812"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<&str>) -> Self {
        TextTable {
            header: header.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        let all = std::iter::once(&self.header).chain(&self.rows);
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}  ", width = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as a signed percentage ("+45.0 %").
pub fn percent_delta(new: f64, old: f64) -> String {
    if old == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1} %", (new / old - 1.0) * 100.0)
}

/// Compact rendering of a bit-pattern's first `n` bits, bit 0 first, in
/// groups of four (the paper's `1100` reading).
pub fn pattern_prefix(words: &[u64], n: usize) -> String {
    let mut s = String::new();
    for i in 0..n {
        if i > 0 && i % 4 == 0 {
            s.push(' ');
        }
        let bit = (words[i / 64] >> (i % 64)) & 1;
        s.push(if bit == 1 { '1' } else { '0' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["1".into()]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn percent_delta_formats() {
        assert_eq!(percent_delta(145.0, 100.0), "+45.0 %");
        assert_eq!(percent_delta(84.0, 100.0), "-16.0 %");
        assert_eq!(percent_delta(1.0, 0.0), "n/a");
    }

    #[test]
    fn pattern_prefix_groups_by_four() {
        assert_eq!(
            pattern_prefix(&[0x3333_3333_3333_3333], 12),
            "1100 1100 1100"
        );
    }
}
