//! Plain-text rendering of series and tables.
//!
//! The benchmark binaries regenerate the paper's figures as terminal
//! output: an ASCII area chart per curve (the analogue of the resource
//! monitor screenshots in Figures 6–8) plus the raw rows so EXPERIMENTS.md
//! can quote exact numbers.

/// Render `(t, value)` rows (already bucketed) as a fixed-height ASCII area
/// chart. `title` is printed above; `unit` labels the y-axis maximum.
pub fn ascii_chart_rows(title: &str, unit: &str, rows: &[(f64, f64)], height: usize) -> String {
    let height = height.max(2);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if rows.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let max = rows.iter().map(|&(_, v)| v).fold(0.0_f64, f64::max);
    if max <= 0.0 {
        out.push_str("  (all zero)\n");
        return out;
    }
    // one column per bucket
    for level in (1..=height).rev() {
        let threshold = max * (level as f64 - 0.5) / height as f64;
        if level == height {
            out.push_str(&format!("{:>12.1} |", max));
        } else {
            out.push_str(&format!("{:>12} |", ""));
        }
        for &(_, v) in rows {
            out.push(if v >= threshold { '#' } else { ' ' });
        }
        if level == height {
            out.push(' ');
            out.push_str(unit);
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>12} +", "0"));
    for _ in rows {
        out.push('-');
    }
    out.push('\n');
    let t_end = rows.last().map(|&(t, _)| t).unwrap_or(0.0);
    out.push_str(&format!("{:>12}  0s .. {:.0}s\n", "", t_end));
    out
}

/// Render rows as an aligned two-column table (`t`, `value`).
pub fn series_table(header: &str, rows: &[(f64, f64)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>8}  {:>14}\n", "t(s)", header));
    for &(t, v) in rows {
        out.push_str(&format!("{t:>8.1}  {v:>14.2}\n"));
    }
    out
}

/// A simple aligned text table builder for experiment reports.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>w$}", cells[i], w = widths[i]));
            }
            out.push('\n');
        };
        render_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

/// Render aligned `(t, value)` curves as CSV with a shared time column.
/// Curves must share bucketing (same `t` grid); shorter curves pad with
/// empty cells.
pub fn curves_to_csv(headers: &[&str], curves: &[&[(f64, f64)]]) -> String {
    assert_eq!(headers.len(), curves.len(), "one header per curve");
    let mut out = String::from("t_seconds");
    for h in headers {
        out.push(',');
        // minimal CSV quoting: wrap fields containing commas/quotes
        if h.contains(',') || h.contains('"') {
            out.push('"');
            out.push_str(&h.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(h);
        }
    }
    out.push('\n');
    let rows = curves.iter().map(|c| c.len()).max().unwrap_or(0);
    for i in 0..rows {
        let t = curves
            .iter()
            .find_map(|c| c.get(i).map(|&(t, _)| t))
            .unwrap_or(0.0);
        out.push_str(&format!("{t}"));
        for c in curves {
            out.push(',');
            if let Some(&(_, v)) = c.get(i) {
                out.push_str(&format!("{v}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Human-readable byte count (KB/MB with the paper's 1024 base).
pub fn fmt_bytes(bytes: f64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    if bytes >= GB {
        format!("{:.2} GB", bytes / GB)
    } else if bytes >= MB {
        format!("{:.2} MB", bytes / MB)
    } else if bytes >= KB {
        format!("{:.1} KB", bytes / KB)
    } else {
        format!("{bytes:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Recorder;
    use crate::time::{Duration, SimTime};

    #[test]
    fn chart_renders_peaks() {
        let mut r = Recorder::new(Duration::from_secs(1));
        for (i, v) in [0.0, 1.0, 4.0, 1.0, 0.0].iter().enumerate() {
            r.add_point("x", SimTime::from_secs(i as u64), *v);
        }
        let chart = ascii_chart_rows("net in", "KB/s", &r.series("x").unwrap().rows(), 4);
        assert!(chart.contains("net in"));
        assert!(chart.contains('#'));
        // the peak column has full height: count '#' per line
        let full_rows = chart.lines().filter(|l| l.contains('#')).count();
        assert_eq!(full_rows, 4);
    }

    #[test]
    fn chart_handles_empty_and_zero() {
        assert!(ascii_chart_rows("t", "u", &[], 4).contains("no data"));
        assert!(ascii_chart_rows("t", "u", &[(0.0, 0.0)], 4).contains("all zero"));
    }

    #[test]
    fn table_aligns_and_counts() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]).row(vec!["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_row() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2048.0), "2.0 KB");
        assert_eq!(fmt_bytes(5.0 * 1024.0 * 1024.0), "5.00 MB");
    }

    #[test]
    fn csv_aligns_curves() {
        let a = [(0.0, 1.0), (3.0, 2.0)];
        let b = [(0.0, 5.0)];
        let csv = curves_to_csv(&["net", "disk,write"], &[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_seconds,net,\"disk,write\"");
        assert_eq!(lines[1], "0,1,5");
        assert_eq!(lines[2], "3,2,");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    #[should_panic(expected = "one header per curve")]
    fn csv_rejects_mismatched_headers() {
        let a = [(0.0, 1.0)];
        let _ = curves_to_csv(&["x", "y"], &[&a]);
    }

    #[test]
    fn series_table_lists_rows() {
        let s = series_table("bytes", &[(0.0, 10.0), (3.0, 20.0)]);
        assert!(s.contains("0.0"));
        assert!(s.contains("20.00"));
    }
}
