//! Text-table and CSV rendering of run results.
//!
//! The experiment binaries print two shapes:
//!
//! * the per-cell **status table** of Tables 2–3 (`P_CB`, `P_HD`, `T_est`,
//!   `B_r`, `B_u` per cell, 1-based cell numbers like the paper);
//! * **sweep series** — one row per x-value (offered load, hour of day)
//!   with one column per (scheme, metric) series, shaped like the figures'
//!   plotted lines.

use std::fmt::Write as _;

use crate::metrics::RunResult;

/// Formats a probability the way the paper's tables do (`6.53e-3`, or `0.`
/// for exactly zero).
pub fn fmt_prob(p: f64) -> String {
    if p == 0.0 {
        "0.".to_string()
    } else {
        format!("{p:.2e}")
    }
}

/// Renders the Table 2 / Table 3 per-cell status table.
pub fn cell_status_table(result: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scheme: {}", result.label);
    let _ = writeln!(
        out,
        "{:>4} | {:>9} {:>9} {:>6} {:>8} {:>5}",
        "cell", "P_CB", "P_HD", "T_est", "B_r", "B_u"
    );
    let _ = writeln!(out, "{}", "-".repeat(50));
    for c in &result.cells {
        let _ = writeln!(
            out,
            "{:>4} | {:>9} {:>9} {:>6} {:>8.2} {:>5}",
            c.cell.0 + 1, // the paper numbers cells 1..10
            fmt_prob(c.p_cb),
            fmt_prob(c.p_hd),
            c.t_est_secs,
            c.b_r_final,
            c.b_u_final,
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(50));
    let _ = writeln!(
        out,
        "system: P_CB = {}  P_HD = {}  avg B_r = {:.2}  avg B_u = {:.2}  N_calc = {:.3}",
        fmt_prob(result.p_cb()),
        fmt_prob(result.p_hd()),
        result.avg_br(),
        result.avg_bu(),
        result.n_calc_mean,
    );
    out
}

/// A multi-series table keyed on a shared x-axis: the shape of every sweep
/// figure (x = offered load or hour; one column per plotted line).
#[derive(Debug, Clone)]
pub struct SeriesTable {
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(f64, Vec<Option<f64>>)>,
}

impl SeriesTable {
    /// Creates a table with the given x-axis label and column names.
    pub fn new(x_label: impl Into<String>, columns: Vec<String>) -> Self {
        SeriesTable {
            x_label: x_label.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row; `values` must match the column count (missing points
    /// are `None`).
    pub fn push_row(&mut self, x: f64, values: Vec<Option<f64>>) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        self.rows.push((x, values));
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows.
    pub fn rows(&self) -> &[(f64, Vec<Option<f64>>)] {
        &self.rows
    }

    /// Renders an aligned text table in scientific notation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:>10}", self.x_label);
        for c in &self.columns {
            let _ = write!(out, " {c:>14}");
        }
        out.push('\n');
        let _ = writeln!(out, "{}", "-".repeat(10 + 15 * self.columns.len()));
        for (x, values) in &self.rows {
            let _ = write!(out, "{x:>10}");
            for v in values {
                match v {
                    Some(v) => {
                        let _ = write!(out, " {:>14}", format!("{v:.4e}"));
                    }
                    None => {
                        let _ = write!(out, " {:>14}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label);
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        out.push('\n');
        for (x, values) in &self.rows {
            let _ = write!(out, "{x}");
            for v in values {
                match v {
                    Some(v) => {
                        let _ = write!(out, ",{v}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::scenario::Scenario;

    #[test]
    fn prob_formatting_matches_paper_style() {
        assert_eq!(fmt_prob(0.0), "0.");
        assert_eq!(fmt_prob(0.00653), "6.53e-3");
        assert_eq!(fmt_prob(0.623), "6.23e-1");
    }

    #[test]
    fn status_table_has_one_row_per_cell() {
        let r = Engine::new(
            Scenario::paper_baseline()
                .offered_load(100.0)
                .duration_secs(120.0)
                .seed(1),
        )
        .run();
        let table = cell_status_table(&r);
        // Header(2) + separator + 10 cells + separator + system line.
        assert_eq!(table.lines().count(), 15);
        assert!(table.contains("P_CB"));
        assert!(table.contains("system:"));
        // 1-based numbering like the paper.
        assert!(table.contains("\n  10 |"));
        assert!(!table.contains("\n   0 |"));
    }

    #[test]
    fn series_table_render_and_csv() {
        let mut t = SeriesTable::new("load", vec!["P_CB:AC1".into(), "P_HD:AC1".into()]);
        t.push_row(60.0, vec![Some(0.01), Some(0.001)]);
        t.push_row(120.0, vec![Some(0.2), None]);
        let text = t.render();
        assert!(text.contains("load"));
        assert!(text.contains("P_CB:AC1"));
        assert!(text.contains("1.0000e-2"));
        assert!(text.contains('-'));
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("load,P_CB:AC1,P_HD:AC1"));
        assert_eq!(lines.next(), Some("60,0.01,0.001"));
        assert_eq!(lines.next(), Some("120,0.2,"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_width_checked() {
        let mut t = SeriesTable::new("x", vec!["a".into()]);
        t.push_row(1.0, vec![Some(1.0), Some(2.0)]);
    }
}
