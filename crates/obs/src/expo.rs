//! Exposition: Prometheus-style text, JSON snapshots, and a parser for
//! reading the text form back.
//!
//! Both renderers are hand-rolled (the workspace's serde is a
//! compile-only stand-in). Label values are client-chosen (a session's
//! design id), so the text form escapes backslash, double quote and
//! newline as the Prometheus text format prescribes, the JSON form
//! escapes every control character, and the parser unescapes what the
//! text form escaped.
//!
//! Histograms render **summary-style**: the unsuffixed series carries
//! the mean, `quantile="..."` label variants carry p50/p95/p99, and
//! `_count`/`_sum` suffixes carry the totals. That keeps the canonical
//! series key (e.g. `lhnn_stage_us{stage="splice"}`) present verbatim in
//! the dump.

use std::fmt::Write as _;

use crate::metrics::{escape_label, SeriesValue, Snapshot};

/// Quantiles the summary rendering and JSON snapshot report.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Escapes a JSON string body: quote, backslash and control characters.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        first = false;
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

impl Snapshot {
    /// Renders the snapshot as Prometheus-style text.
    ///
    /// Counters are one line per series; histograms render as
    /// summaries (mean on the unsuffixed series, `quantile` variants,
    /// `_count` and `_sum`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<(String, &'static str)> = None;
        for s in &self.series {
            let kind = match &s.value {
                SeriesValue::Counter(_) => "counter",
                SeriesValue::Histogram(_) => "summary",
            };
            if last_typed.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((s.name.as_str(), kind)) {
                let _ = writeln!(out, "# TYPE {} {kind}", s.name);
                last_typed = Some((s.name.clone(), kind));
            }
            let labels = render_labels(&s.labels, None);
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = writeln!(out, "{}{labels} {v}", s.name);
                }
                SeriesValue::Histogram(h) => {
                    let _ = writeln!(out, "{}{labels} {:.4}", s.name, h.mean());
                    for q in QUANTILES {
                        let ql = render_labels(&s.labels, Some(("quantile", &format!("{q}"))));
                        let _ = writeln!(out, "{}{ql} {}", s.name, h.quantile(q));
                    }
                    let _ = writeln!(out, "{}_count{labels} {}", s.name, h.count);
                    let _ = writeln!(out, "{}_sum{labels} {}", s.name, h.sum);
                }
            }
        }
        out
    }

    /// Renders the snapshot as a hand-rolled JSON document
    /// (`{"snapshot": "lhnn_obs", "series": [...]}`), mirroring the
    /// `write_bench_json` artifact style.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"snapshot\": \"lhnn_obs\",");
        let _ = writeln!(out, "  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            let comma = if i + 1 < self.series.len() { "," } else { "" };
            let mut labels = String::new();
            for (j, (k, v)) in s.labels.iter().enumerate() {
                let sep = if j > 0 { ", " } else { "" };
                let _ = write!(labels, "{sep}\"{}\": \"{}\"", json_escape(k), json_escape(v));
            }
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, \"kind\": \"counter\", \"value\": {v}}}{comma}",
                        json_escape(&s.name)
                    );
                }
                SeriesValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, \"kind\": \"histogram\", \
                         \"count\": {}, \"sum\": {}, \"mean\": {:.4}, \
                         \"p50\": {}, \"p95\": {}, \"p99\": {}}}{comma}",
                        json_escape(&s.name),
                        h.count,
                        h.sum,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                    );
                }
            }
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// One series parsed back from Prometheus-style text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSeries {
    /// Metric name (suffixes like `_count` are kept verbatim).
    pub name: String,
    /// Label pairs in file order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl ParsedSeries {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus-style text (the subset [`Snapshot::to_prometheus`]
/// emits: `name value` and `name{k="v",...} value` lines, label values
/// unescaped). `#` comments and blank lines are skipped; so are malformed
/// lines and non-finite values, rather than failing the whole postmortem.
pub fn parse_prometheus(text: &str) -> Vec<ParsedSeries> {
    text.lines().filter_map(parse_line).collect()
}

/// One sample line, or `None` for a comment, blank or malformed line.
fn parse_line(line: &str) -> Option<ParsedSeries> {
    let line = line.trim();
    if line.starts_with('#') {
        return None;
    }
    let name_end = line.find(|c: char| c == '{' || c.is_whitespace())?;
    let (name, mut rest) = line.split_at(name_end);
    let mut labels = Vec::new();
    if let Some(mut body) = rest.strip_prefix('{') {
        loop {
            if let Some(after) = body.strip_prefix('}') {
                rest = after;
                break;
            }
            let eq = body.find("=\"")?;
            let (value, after) = unquote(&body[eq + 2..])?;
            labels.push((body[..eq].trim().to_string(), value));
            body = match after.strip_prefix(',') {
                Some(next) => next,
                None if after.starts_with('}') => after,
                None => return None,
            };
        }
    }
    let value = rest.trim().parse::<f64>().ok().filter(|v| v.is_finite())?;
    (!name.is_empty()).then(|| ParsedSeries { name: name.to_string(), labels, value })
}

/// Reads an escaped label value up to its closing quote, returning the
/// unescaped value and the text after the quote.
fn unquote(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                'n' => out.push('\n'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("lhnn_requests_total").add(7);
        r.counter_with("lhnn_updates_total", &[("design", "d0")]).add(3);
        let h = r.stage("splice");
        h.observe(10);
        h.observe(1500);
        r.snapshot()
    }

    #[test]
    fn prometheus_text_contains_canonical_keys() {
        let text = sample().to_prometheus();
        assert!(text.contains("lhnn_requests_total 7"), "got:\n{text}");
        assert!(text.contains("lhnn_updates_total{design=\"d0\"} 3"), "got:\n{text}");
        // the canonical histogram key appears verbatim (CI greps this)
        assert!(text.contains("lhnn_stage_us{stage=\"splice\"}"), "got:\n{text}");
        assert!(
            text.contains("lhnn_stage_us{stage=\"splice\",quantile=\"0.99\"} 1535"),
            "got:\n{text}"
        );
        assert!(text.contains("lhnn_stage_us_count{stage=\"splice\"} 2"), "got:\n{text}");
        assert!(text.contains("lhnn_stage_us_sum{stage=\"splice\"} 1510"), "got:\n{text}");
        assert!(text.contains("# TYPE lhnn_requests_total counter"), "got:\n{text}");
    }

    #[test]
    fn json_is_balanced_and_typed() {
        let json = sample().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "got:\n{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"snapshot\": \"lhnn_obs\""));
        assert!(json.contains("\"kind\": \"counter\", \"value\": 7"), "got:\n{json}");
        assert!(json.contains("\"labels\": {\"design\": \"d0\"}"), "got:\n{json}");
        assert!(json.contains("\"kind\": \"histogram\""), "got:\n{json}");
        assert!(json.contains("\"p99\": 1535"), "got:\n{json}");
    }

    #[test]
    fn parse_roundtrips_own_dump() {
        let snap = sample();
        let parsed = parse_prometheus(&snap.to_prometheus());
        let req = parsed.iter().find(|p| p.name == "lhnn_requests_total").unwrap();
        assert_eq!(req.value, 7.0);
        assert!(req.labels.is_empty());
        let design = parsed.iter().find(|p| p.name == "lhnn_updates_total").unwrap();
        assert_eq!(design.label("design"), Some("d0"));
        assert_eq!(design.value, 3.0);
        let p99 = parsed
            .iter()
            .find(|p| p.name == "lhnn_stage_us" && p.label("quantile") == Some("0.99"))
            .unwrap();
        assert_eq!(p99.label("stage"), Some("splice"));
        assert_eq!(p99.value, 1535.0);
        let count = parsed.iter().find(|p| p.name == "lhnn_stage_us_count").unwrap();
        assert_eq!(count.value, 2.0);

        // Client-chosen design ids round-trip exactly, and none can split
        // its line to forge a series.
        let hostile =
            ["q\"x", "back\\slash\\", "two\nlines", "a\",b=\"c", "x\"} 1\nforged_total 99\n#"];
        let r = Registry::new();
        for (i, id) in hostile.iter().enumerate() {
            r.counter_with("lhnn_updates_total", &[("design", id), ("model", "lhnn")])
                .add(i as u64);
        }
        let text = r.snapshot().to_prometheus();
        // JSON strings carry no raw newline: one line per series
        assert_eq!(r.snapshot().to_json().lines().count(), hostile.len() + 5);
        let parsed = parse_prometheus(&text);
        assert_eq!(parsed.len(), hostile.len(), "got:\n{text}");
        for (i, id) in hostile.iter().enumerate() {
            let p = parsed.iter().find(|p| p.label("design") == Some(id)).expect(id);
            assert_eq!(
                (p.name.as_str(), p.label("model"), p.value),
                ("lhnn_updates_total", Some("lhnn"), i as f64)
            );
        }
        assert!(parsed.iter().all(|p| p.name == "lhnn_updates_total"), "forged series: {parsed:?}");
    }

    #[test]
    fn parser_skips_garbage() {
        let parsed = parse_prometheus(
            "# comment\n\nnot a metric\nok 1\nbad{unclosed 2\nnan NaN\ninf{a=\"b\"} +Inf\n",
        );
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "ok");
    }
}
