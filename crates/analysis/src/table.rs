//! Minimal aligned plain-text tables for experiment reports.
//!
//! The experiments binary regenerates the paper's per-claim results as rows;
//! this renderer keeps them readable in a terminal and diffable as text.

use std::fmt;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use iabc_analysis::table::Table;
///
/// let mut t = Table::new(["graph", "f", "satisfied"]);
/// t.row(["chord(7,5)", "2", "no"]);
/// t.row(["chord(5,3)", "1", "yes"]);
/// let s = t.to_string();
/// assert!(s.contains("chord(7,5)"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept and
    /// widen the table.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The data rows, in insertion order (cells as rendered).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The column headers (the serving tier serializes tables losslessly).
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// `true` when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn column_count(&self) -> usize {
        self.rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.column_count();
        let mut widths = vec![0usize; cols];
        let all_rows = std::iter::once(&self.headers).chain(self.rows.iter());
        for row in all_rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (c, width) in widths.iter().enumerate() {
                let cell = row.get(c).map(String::as_str).unwrap_or("");
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["a", "long-header", "c"]);
        t.row(["xxxx", "y", "z"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "), "{:?}", lines[0]);
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1"]);
        t.row(["1", "2", "3"]);
        let s = t.to_string();
        assert!(s.contains('3'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::new(["x"]);
        assert!(t.is_empty());
        assert_eq!(t.to_string().lines().count(), 2);
    }
}
