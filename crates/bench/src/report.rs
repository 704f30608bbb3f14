//! Plain-text tables and JSON series for the figure/table benches.
//!
//! Every bench prints a human-readable table mirroring the paper's figure
//! and saves the same series as JSON under `target/paper-results/` so runs
//! are diffable.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are displayed as given).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<width$}  ", c, width = widths[i]);
            }
            let _ = writeln!(out, "{}", s.trim_end());
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 3 decimals ("1.342").
pub fn f3(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.3}")
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.2}")
    }
}

/// Geometric mean (ignores non-positive values, which would poison it).
pub fn geomean(xs: &[f64]) -> f64 {
    let vals: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0).collect();
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|x| x.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Directory where benches drop their JSON series.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/paper-results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Saves a JSON-serializable value as `target/paper-results/<name>.json`.
pub fn save_json<T: uvm_util::ToJson>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = value.to_json().pretty();
    if let Err(e) = fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[saved {}]", path.display());
    }
}

/// Directory where event traces (JSONL) are dropped:
/// `target/paper-results/traces/`.
pub fn traces_dir() -> PathBuf {
    let dir = results_dir().join("traces");
    let _ = fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["app", "value"]);
        t.row(vec!["HSD".into(), "2.81".into()]);
        t.row(vec!["longname".into(), "1".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("HSD"));
        assert!(s.contains("longname"));
        // Header and rows align on the same column width.
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        assert!(lines.len() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        Table::new("x", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(geomean(&[2.0, 8.0]), 4.0);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0, -1.0]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(f64::INFINITY), "inf");
    }
}
