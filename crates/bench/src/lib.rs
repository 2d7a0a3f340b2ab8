//! `lhnn-bench` — the benchmark harness regenerating every table and
//! figure of the LHNN paper's evaluation (§5).
//!
//! Binaries (run with `cargo run --release -p lhnn-bench --bin <name>`):
//!
//! * `table1` — dataset statistics + the fixed 10:5 split,
//! * `table2` — model comparison (uni-/duo-channel F1 + ACC, 5 seeds),
//! * `table3` — the uni-channel ablation study,
//! * `figure4` — prediction-map visualisations for three test designs,
//! * `gamma_sweep`, `fanout_ablation`, `scaling` — extensions beyond the
//!   paper,
//! * `model_zoo` — LHNN vs HybridNet, in-distribution and cross-family.
//!
//! Every binary accepts `--scale`, `--epochs` and `--seeds` to shrink the
//! protocol for smoke runs, and writes CSV mirrors under `results/`.
//! Speed is measured by the separate `perfbench` workspace, not here.

#![warn(missing_docs)]

use lhnn::TrainConfig;
use lhnn_baselines::BaselineTrainConfig;
use lhnn_data::{DatasetConfig, ExperimentConfig};

/// Usage text for a harness binary: the flags [`HarnessArgs::parse`]
/// understands (binaries may accept further flags of their own).
pub(crate) fn usage(binary: &str) -> String {
    format!(
        "\
{binary} — LHNN evaluation harness binary

USAGE:
  cargo run --release -p lhnn-bench --bin {binary} [-- OPTIONS]

OPTIONS:
  --scale F     dataset scale multiplier (default 1.0)
  --epochs N    training epochs for all models (default 150)
  --seeds N     number of random seeds (default 5)
  --out DIR     output directory for CSV/PGM results (default results/)
  -h, --help    print this help and exit"
    )
}

/// Command-line overrides shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Dataset scale multiplier.
    pub scale: f32,
    /// Training epochs (all models).
    pub epochs: usize,
    /// Number of random seeds.
    pub seeds: usize,
    /// Output directory for CSV/PGM results.
    pub out_dir: String,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self { scale: 1.0, epochs: 150, seeds: 5, out_dir: "results".into() }
    }
}

impl HarnessArgs {
    /// Parses `--scale F --epochs N --seeds N --out DIR` from `args`
    /// (unknown flags are ignored so binaries can add their own).
    pub(crate) fn parse(args: &[String]) -> Self {
        let mut out = Self::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        out.scale = v;
                    }
                }
                "--epochs" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        out.epochs = v;
                    }
                }
                "--seeds" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        out.seeds = v;
                    }
                }
                "--out" => {
                    if let Some(v) = it.next() {
                        out.out_dir = v.clone();
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Parses from the process arguments.
    ///
    /// `--help` / `-h` prints the shared usage text and exits, so every
    /// harness binary supports a cheap smoke invocation that never starts
    /// the (expensive) experiment protocol.
    pub fn from_env() -> Self {
        let mut args = std::env::args();
        let binary = args
            .next()
            .map(|p| {
                std::path::Path::new(&p)
                    .file_stem()
                    .map_or_else(|| p.clone(), |s| s.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "lhnn-bench".into());
        let args: Vec<String> = args.collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", usage(&binary));
            std::process::exit(0);
        }
        Self::parse(&args)
    }

    /// Builds the experiment configuration these arguments describe.
    pub fn experiment_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetConfig { scale: self.scale, ..Default::default() },
            seeds: (0..self.seeds as u64).collect(),
            lhnn_train: TrainConfig { epochs: self.epochs, ..Default::default() },
            baseline_train: BaselineTrainConfig { epochs: self.epochs, ..Default::default() },
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_overrides() {
        let args: Vec<String> = ["--scale", "0.3", "--epochs", "10", "--seeds", "2", "--out", "x"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let h = HarnessArgs::parse(&args);
        assert_eq!(h.scale, 0.3);
        assert_eq!(h.epochs, 10);
        assert_eq!(h.seeds, 2);
        assert_eq!(h.out_dir, "x");
    }

    #[test]
    fn defaults_match_paper_protocol() {
        let h = HarnessArgs::default();
        assert_eq!(h.seeds, 5);
        let cfg = h.experiment_config();
        assert_eq!(cfg.seeds.len(), 5);
        assert_eq!(cfg.lhnn_train.epochs, cfg.baseline_train.epochs);
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let args: Vec<String> =
            ["--bogus", "7", "--epochs", "3"].iter().map(|s| (*s).to_string()).collect();
        let h = HarnessArgs::parse(&args);
        assert_eq!(h.epochs, 3);
        assert_eq!(h.scale, 1.0);
    }
}
