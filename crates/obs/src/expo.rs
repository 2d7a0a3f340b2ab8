//! Exposition: Prometheus-style text, JSON snapshots, and a parser for
//! reading the text form back.
//!
//! Both renderers are hand-rolled (the workspace's serde is a
//! compile-only stand-in), following the same escaping discipline as
//! `lhnn_data::write_bench_json` so the artifacts slot into the existing
//! `results/` pipeline.
//!
//! Histograms render **summary-style**: the unsuffixed series carries
//! the mean, `quantile="..."` label variants carry p50/p95/p99, and
//! `_count`/`_sum` suffixes carry the totals. That keeps the canonical
//! series key (e.g. `lhnn_stage_us{stage="splice"}`) present verbatim in
//! the dump.

use std::fmt::Write as _;

use crate::metrics::{SeriesValue, Snapshot};

/// Quantiles the summary rendering and JSON snapshot report.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
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
        let _ = write!(out, "{k}=\"{}\"", escape(v));
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
    /// Counters and gauges are one line per series; histograms render as
    /// summaries (mean on the unsuffixed series, `quantile` variants,
    /// `_count` and `_sum`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<(String, &'static str)> = None;
        for s in &self.series {
            let kind = match &s.value {
                SeriesValue::Counter(_) => "counter",
                SeriesValue::Gauge(_) => "gauge",
                SeriesValue::Histogram(_) => "summary",
            };
            if last_typed.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((s.name.as_str(), kind)) {
                let _ = writeln!(out, "# TYPE {} {kind}", s.name);
                last_typed = Some((s.name.clone(), kind));
            }
            let labels = render_labels(&s.labels, None);
            match &s.value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
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
                let _ = write!(labels, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
            }
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, \"kind\": \"counter\", \"value\": {v}}}{comma}",
                        escape(&s.name)
                    );
                }
                SeriesValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, \"kind\": \"gauge\", \"value\": {v}}}{comma}",
                        escape(&s.name)
                    );
                }
                SeriesValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, \"kind\": \"histogram\", \
                         \"count\": {}, \"sum\": {}, \"mean\": {:.4}, \
                         \"p50\": {}, \"p95\": {}, \"p99\": {}}}{comma}",
                        escape(&s.name),
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
/// emits: `name value` and `name{k="v",...} value` lines; `#` comments
/// and blank lines are skipped; malformed lines are skipped too rather
/// than failing the whole postmortem).
pub fn parse_prometheus(text: &str) -> Vec<ParsedSeries> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(space) = line.rfind(' ') else { continue };
        let (key, value) = line.split_at(space);
        let Ok(value) = value.trim().parse::<f64>() else { continue };
        let key = key.trim();
        let (name, labels) = match key.find('{') {
            None => (key.to_string(), Vec::new()),
            Some(open) => {
                let Some(close) = key.rfind('}') else { continue };
                if close < open {
                    continue;
                }
                let mut labels = Vec::new();
                let body = &key[open + 1..close];
                // labels never contain escaped quotes in our own dumps;
                // split on `",` boundaries to tolerate commas in values
                for pair in body.split("\",") {
                    let pair = pair.trim_end_matches('"');
                    let Some(eq) = pair.find("=\"") else { continue };
                    labels.push((pair[..eq].to_string(), pair[eq + 2..].to_string()));
                }
                (key[..open].to_string(), labels)
            }
        };
        out.push(ParsedSeries { name, labels, value });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("lhnn_requests_total").add(7);
        r.counter_with("lhnn_design_updates_total", &[("design", "d0")]).add(3);
        r.gauge("lhnn_queue_depth_high").set(5);
        let h = r.stage("splice");
        h.observe(10);
        h.observe(1500);
        r.snapshot()
    }

    #[test]
    fn prometheus_text_contains_canonical_keys() {
        let text = sample().to_prometheus();
        assert!(text.contains("lhnn_requests_total 7"), "got:\n{text}");
        assert!(text.contains("lhnn_design_updates_total{design=\"d0\"} 3"), "got:\n{text}");
        assert!(text.contains("lhnn_queue_depth_high 5"), "got:\n{text}");
        // the canonical histogram key appears verbatim (CI greps this)
        assert!(text.contains("lhnn_stage_us{stage=\"splice\"}"), "got:\n{text}");
        assert!(
            text.contains("lhnn_stage_us{stage=\"splice\",quantile=\"0.99\"} 2047"),
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
        assert!(json.contains("\"p99\": 2047"), "got:\n{json}");
    }

    #[test]
    fn parse_roundtrips_own_dump() {
        let snap = sample();
        let parsed = parse_prometheus(&snap.to_prometheus());
        let req = parsed.iter().find(|p| p.name == "lhnn_requests_total").unwrap();
        assert_eq!(req.value, 7.0);
        assert!(req.labels.is_empty());
        let design = parsed.iter().find(|p| p.name == "lhnn_design_updates_total").unwrap();
        assert_eq!(design.label("design"), Some("d0"));
        assert_eq!(design.value, 3.0);
        let p99 = parsed
            .iter()
            .find(|p| p.name == "lhnn_stage_us" && p.label("quantile") == Some("0.99"))
            .unwrap();
        assert_eq!(p99.label("stage"), Some("splice"));
        assert_eq!(p99.value, 2047.0);
        let count = parsed.iter().find(|p| p.name == "lhnn_stage_us_count").unwrap();
        assert_eq!(count.value, 2.0);
    }

    #[test]
    fn parser_skips_garbage() {
        let parsed = parse_prometheus("# comment\n\nnot a metric\nok 1\nbad{unclosed 2\n");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "ok");
    }
}
