//! End-to-end tests of the `lhnn` binary: generate → stats → route →
//! train → predict on temp directories.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lhnn"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lhnn_cli_test_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn usage_on_unknown_command() {
    let out = bin().arg("bogus").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn generate_stats_route_pipeline() {
    let dir = temp_dir("pipeline");
    let out = bin()
        .args(["generate", "--cells", "300", "--grid", "12", "--seed", "5", "--name", "t"])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .expect("generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("t.nodes").exists());
    assert!(dir.join("t.pl").exists());

    let out = bin()
        .args(["stats", "--dir", dir.to_str().unwrap(), "--design", "t"])
        .output()
        .expect("stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2-pin fraction"), "{text}");

    let out = bin()
        .args(["route", "--dir", dir.to_str().unwrap(), "--design", "t", "--grid", "12"])
        .output()
        .expect("route");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("congestion rate"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_then_predict_roundtrip() {
    let dir = temp_dir("train_predict");
    let model = dir.join("model.lhnn");
    // tiny protocol: scale 0.1, 2 epochs — exercises the path, not quality
    let out = bin()
        .args(["train", "--scale", "0.1", "--epochs", "2", "--seed", "1"])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .expect("train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    let out = bin()
        .args(["generate", "--cells", "200", "--grid", "12", "--seed", "9", "--name", "p"])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .expect("generate");
    assert!(out.status.success());

    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap()])
        .args(["--dir", dir.to_str().unwrap(), "--design", "p", "--grid", "12", "--compare"])
        .output()
        .expect("predict");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("predicted congestion rate"), "{text}");
    assert!(text.contains("vs global router"), "{text}");

    // --threshold is plumbed through the served path: an impossible
    // threshold flags nothing, threshold 0 flags everything
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap(), "--threshold", "2.0"])
        .args(["--dir", dir.to_str().unwrap(), "--design", "p", "--grid", "12"])
        .output()
        .expect("predict hi threshold");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("predicted congestion rate: 0.00%"), "{text}");
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap(), "--threshold", "0.0"])
        .args(["--dir", dir.to_str().unwrap(), "--design", "p", "--grid", "12"])
        .output()
        .expect("predict lo threshold");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("predicted congestion rate: 100.00%"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_reads_back_a_metrics_exposition() {
    let dir = temp_dir("stats_metrics");
    let registry = lhnn_obs::Registry::new();
    registry.counter("lhnn_requests_total").add(7);
    registry.counter_with("lhnn_model_registrations_total", &[("kind", "hybridnet")]).inc();
    let prom = dir.join("metrics.prom");
    std::fs::write(&prom, registry.snapshot().to_prometheus()).expect("write exposition");
    let out = bin().args(["stats", "--metrics", prom.to_str().unwrap()]).output().expect("stats");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lhnn_requests_total = 7"), "{text}");
    assert!(text.contains("lhnn_model_registrations_total{kind=\"hybridnet\"} = 1"), "{text}");

    let junk = dir.join("junk.prom");
    std::fs::write(&junk, "# only a comment\nnot a series\n").expect("write junk");
    let out = bin().args(["stats", "--metrics", junk.to_str().unwrap()]).output().expect("stats");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("contains no readable metric series"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_rejects_missing_model() {
    let out = bin()
        .args(["predict", "--model", "/nonexistent/model.lhnn", "--dir", "/tmp", "--design", "x"])
        .output()
        .expect("predict");
    assert!(!out.status.success());
}
