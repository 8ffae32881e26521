//! Table rendering for the experiment binaries: aligned plain-text /
//! markdown tables and a minimal CSV writer (no external dependencies).

use std::fmt;

/// A simple column-aligned table.
///
/// # Examples
///
/// ```
/// let mut table = asmcap_eval::Table::new(vec!["T", "F1"]);
/// table.row(vec!["1".into(), "81.2".into()]);
/// let rendered = table.to_string();
/// assert!(rendered.contains("| 1"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: Vec<&str>) -> Self {
        Self {
            header: header.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// The number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (comma-separated, quotes around cells with commas).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    /// Renders as a markdown-style aligned table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let render_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (cell, width) in cells.iter().zip(&widths) {
                line.push_str(&format!(" {cell:<width$} |"));
            }
            line
        };
        writeln!(f, "{}", render_row(&self.header))?;
        let mut rule = String::from("|");
        for width in &widths {
            rule.push_str(&format!("{:-<w$}|", "", w = width + 2));
        }
        writeln!(f, "{rule}")?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row))?;
        }
        Ok(())
    }
}

/// Writes a table as `<dir>/<name>.csv`, creating the directory, and
/// returns the file path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(
    dir: &std::path::Path,
    name: &str,
    table: &Table,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Formats a ratio like the paper does: `4.7e4x`, `1.4x`.
#[must_use]
pub fn ratio(value: f64) -> String {
    if value >= 1e3 {
        format!("{value:.1e}x")
    } else {
        format!("{value:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut table = Table::new(vec!["system", "F1"]);
        table.row(vec!["EDAM".into(), "74.7".into()]);
        table.row(vec!["ASMCap w/ H&T".into(), "87.6".into()]);
        let rendered = table.to_string();
        assert!(rendered.contains("| system"));
        assert!(rendered.contains("| ASMCap w/ H&T | 87.6 |"));
        assert!(rendered.lines().count() == 4);
    }

    #[test]
    fn pads_short_rows() {
        let mut table = Table::new(vec!["a", "b", "c"]);
        table.row(vec!["1".into()]);
        assert!(table.to_string().contains("| 1 |"));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut table = Table::new(vec!["name", "value"]);
        table.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = table.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn ratio_formats_like_the_paper() {
        assert_eq!(ratio(47_000.0), "4.7e4x");
        assert_eq!(ratio(1.4), "1.4x");
    }
}
