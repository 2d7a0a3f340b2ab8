//! Result formatting: paper-style `mean±std` tables and CSV output.
//!
//! Kept dependency-free on purpose (DESIGN.md §5): experiment binaries
//! print fixed-width tables to stdout and mirror them as CSV files under
//! `results/`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::error::Result;

/// Formats `mean ± std` in percent with two decimals, as the paper's
/// tables do (e.g. `40.89±1.82`).
pub fn pct(mean: f64, std: f64) -> String {
    format!("{:.2}±{:.2}", mean * 100.0, std * 100.0)
}

/// Formats a plain percentage with two decimals.
pub fn pct1(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

/// A fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| (*s).to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}", cell, w = widths[i] + 2);
            }
            out.push('\n');
        };
        write_row(&self.header, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.min(120)));
        out.push('\n');
        for row in &self.rows {
            write_row(row, &mut out);
        }
        let _ = cols;
        out
    }

    /// Serialises to CSV (naive quoting: cells with commas are quoted).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in rows {
            let line: Vec<String> = row.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV form to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())?;
        Ok(())
    }
}

/// One baseline-vs-candidate measurement of a harness binary. The record
/// names its own columns, so every `BENCH_*.json` is self-describing.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Workload label (e.g. `lhnn_in_dist`).
    pub name: String,
    /// What the baseline column measures (e.g. `"full rebuild"`).
    pub baseline_label: String,
    /// Wall-clock milliseconds of the baseline.
    pub baseline_ms: f64,
    /// What the candidate column measures (e.g. `"incremental update"`).
    pub candidate_label: String,
    /// Wall-clock milliseconds of the candidate.
    pub candidate_ms: f64,
    /// Extra named numeric columns emitted verbatim into the JSON record
    /// (e.g. `full_rebuilds`, `fallback_fraction`, `halo_gcells`). Keys
    /// must not collide with the fixed column names.
    pub extras: Vec<(String, f64)>,
}

impl BenchRecord {
    /// A record with explicit column semantics.
    pub fn labeled(
        name: impl Into<String>,
        baseline_label: impl Into<String>,
        baseline_ms: f64,
        candidate_label: impl Into<String>,
        candidate_ms: f64,
    ) -> Self {
        Self {
            name: name.into(),
            baseline_label: baseline_label.into(),
            baseline_ms,
            candidate_label: candidate_label.into(),
            candidate_ms,
            extras: Vec::new(),
        }
    }

    /// Appends an extra named numeric column to the JSON record.
    #[must_use]
    pub fn with_extra(mut self, key: impl Into<String>, value: f64) -> Self {
        self.extras.push((key.into(), value));
        self
    }

    /// Speedup of the candidate over the baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline_ms / self.candidate_ms.max(1e-9)
    }
}

/// Writes a machine-readable `BENCH_*.json` perf-trajectory artifact
/// (hand-rolled JSON — the workspace's serde is a compile-only stand-in).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_bench_json(
    path: &Path,
    bench: &str,
    threads: usize,
    records: &[BenchRecord],
) -> Result<()> {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"{}\",", escape(bench));
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"results\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let mut extras = String::new();
        for (k, v) in &r.extras {
            let _ = write!(extras, ", \"{}\": {:.4}", escape(k), v);
        }
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"baseline\": \"{}\", \"candidate\": \"{}\", \
             \"ms_baseline\": {:.4}, \"ms_candidate\": {:.4}, \"speedup\": {:.3}{extras}}}{comma}",
            escape(&r.name),
            escape(&r.baseline_label),
            escape(&r.candidate_label),
            r.baseline_ms,
            r.candidate_ms,
            r.speedup()
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_well_formed() {
        let dir = std::env::temp_dir().join("lhnn_bench_json_test");
        let path = dir.join("BENCH_test.json");
        let records = vec![
            BenchRecord::labeled("matmul_2x2", "1 thread", 2.0, "4 threads", 1.0),
            BenchRecord::labeled("spmm \"odd\"", "full rebuild", 4.0, "incremental", 2.0)
                .with_extra("full_rebuilds", 3.0)
                .with_extra("fallback_fraction", 0.25),
        ];
        write_bench_json(&path, "test", 4, &records).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bench\": \"test\""));
        assert!(text.contains("\"threads\": 4"));
        assert!(text.contains("\"speedup\": 2.000"));
        assert!(text.contains("spmm \\\"odd\\\""), "quotes must be escaped:\n{text}");
        // self-describing columns
        assert!(text.contains("\"baseline\": \"full rebuild\""));
        assert!(text.contains("\"candidate\": \"incremental\""));
        assert!(text.contains("\"ms_baseline\": 4.0000"));
        assert!(text.contains("\"ms_candidate\": 2.0000"));
        // extra columns land verbatim on their record only
        assert!(text.contains("\"full_rebuilds\": 3.0000"));
        assert!(text.contains("\"fallback_fraction\": 0.2500"));
        assert_eq!(text.matches("full_rebuilds").count(), 1, "extras stay per-record");
        // crude balance check on the hand-rolled JSON
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_record_speedup() {
        let r = BenchRecord::labeled("x", "serial", 3.0, "pipelined", 1.5);
        assert!((r.speedup() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.4089, 0.0182), "40.89±1.82");
        assert_eq!(pct1(0.1738), "17.38");
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(&["Model", "F1"]);
        t.add_row(vec!["LHNN".into(), "40.89±1.82".into()]);
        t.add_row(vec!["U-net".into(), "29.75±3.03".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Model"));
        assert!(lines[2].contains("LHNN"));
        // data rows aligned: "F1" column starts at the same offset
        let off = lines[0].find("F1").unwrap();
        assert_eq!(&lines[2][off..off + 2], "40");
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(&["a", "b"]);
        t.add_row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rejects_wrong_arity() {
        let mut t = TextTable::new(&["a"]);
        t.add_row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let mut t = TextTable::new(&["k", "v"]);
        t.add_row(vec!["a".into(), "1".into()]);
        let path = std::env::temp_dir().join("lhnn_data_report_test/out.csv");
        t.write_csv(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert!(read.starts_with("k,v\n"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
