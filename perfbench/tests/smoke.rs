//! Seconds-long smoke profile of every workload: each run must pass its
//! correctness checks and emit exactly the metrics `BENCHMARK.json` lists.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// The names listed in one section (`workloads`, `end_to_end` or
/// `per_layer`) of the repository's `BENCHMARK.json`.
fn listed_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed name")].to_string())
        .collect()
}

/// Runs one smoke invocation and returns its last stdout line.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lhnn-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace"])
        .arg(trace.to_string())
        .arg("--smoke")
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The metric names in a result line, in order: each name ends the text
/// before one `{"value": ` object.
fn emitted_metrics(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let parts: Vec<&str> = metrics.split("{\"value\": ").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|chunk| {
            let end = chunk.rfind("\": ").expect("name before value");
            let start = chunk[..end].rfind('"').expect("quoted name") + 1;
            chunk[start..end].to_string()
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let names = listed_names("workloads");
    assert_eq!(names, ["placer_loop", "serve_stateless"]);
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let mut expected = listed_names(section);
        expected.sort();
        for w in &names {
            let line = run(w, trace);
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
                "{w} trace {trace} reported a failure: {line}"
            );
            let mut got = emitted_metrics(&line);
            got.sort();
            assert_eq!(got, expected, "{w} trace {trace} metric set");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_lhnn-perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
