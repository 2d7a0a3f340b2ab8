//! Experiment harness: the model-comparison (Table 2) and ablation
//! (Table 3) protocols of §5 of the paper.
//!
//! Each experiment fixes the Table 1 split, trains for a fixed number of
//! epochs, repeats over 5 seeds and reports the mean ± std of per-design
//! F1 and accuracy on the test set. Seeds run on parallel threads
//! (samples are shared immutably; every model owns its parameters).

use lh_graph::ChannelMode;
use lhnn::{evaluate, train, AblationSpec, Lhnn, LhnnConfig, Sample, TrainConfig};
use lhnn_baselines::{
    BaselineTrainConfig, ImageModel, ImageSample, MlpBaseline, Pix2PixModel, UNetModel,
};
use neurograd::{mean_std, Confusion};
use serde::{Deserialize, Serialize};

use crate::dataset::{build_suite, DatasetConfig, DesignData};
use crate::error::Result;
use crate::split::{best_split, SplitSearch};

/// Which model a Table 2 row refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum ModelKind {
    /// 4-layer residual MLP.
    Mlp,
    /// Pix2Pix conditional GAN.
    Pix2Pix,
    /// U-Net.
    UNet,
    /// The paper's model.
    Lhnn,
}

impl ModelKind {
    /// Display name matching the paper's table.
    pub(crate) fn display(&self) -> &'static str {
        match self {
            ModelKind::Mlp => "4-layer MLP",
            ModelKind::Pix2Pix => "Pix2Pix",
            ModelKind::UNet => "U-net",
            ModelKind::Lhnn => "LHNN(Ours)",
        }
    }

    /// All models in the paper's row order.
    pub(crate) fn all() -> [ModelKind; 4] {
        [ModelKind::Mlp, ModelKind::Pix2Pix, ModelKind::UNet, ModelKind::Lhnn]
    }
}

/// Harness configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Dataset build settings.
    pub dataset: DatasetConfig,
    /// Random seeds (paper repeats 5 times).
    pub seeds: Vec<u64>,
    /// LHNN training settings.
    pub lhnn_train: TrainConfig,
    /// Baseline training settings.
    pub baseline_train: BaselineTrainConfig,
    /// LHNN hidden size etc.
    pub lhnn: LhnnConfig,
    /// U-Net / Pix2Pix base feature width.
    pub cnn_features: usize,
    /// MLP hidden width (paper: common hyper-parameters with LHNN → 32).
    pub mlp_hidden: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            dataset: DatasetConfig::default(),
            seeds: vec![0, 1, 2, 3, 4],
            lhnn_train: TrainConfig::default(),
            baseline_train: BaselineTrainConfig::default(),
            lhnn: LhnnConfig::default(),
            cnn_features: 8,
            mlp_hidden: 32,
        }
    }
}

/// The dataset with its fixed split.
#[derive(Debug)]
pub struct PreparedDataset {
    /// All 15 designs.
    pub designs: Vec<DesignData>,
    /// The Table 1 split (indices into `designs`).
    pub search: SplitSearch,
}

impl PreparedDataset {
    /// Builds the suite and runs the exhaustive split search.
    ///
    /// # Errors
    ///
    /// Propagates dataset-build failures.
    pub fn build(cfg: &DatasetConfig) -> Result<Self> {
        let designs = build_suite(cfg)?;
        let rates: Vec<f64> = designs.iter().map(|d| d.stats.congestion_rate).collect();
        let search = best_split(&rates, 5);
        Ok(Self { designs, search })
    }

    /// Training-set LHNN samples.
    pub fn train_samples(&self) -> Vec<Sample> {
        self.search.split.train.iter().map(|&i| self.designs[i].sample.clone()).collect()
    }

    /// Test-set LHNN samples.
    pub fn test_samples(&self) -> Vec<Sample> {
        self.search.split.test.iter().map(|&i| self.designs[i].sample.clone()).collect()
    }

    /// Training-set image samples under a channel mode.
    pub fn train_images(&self, mode: ChannelMode) -> Vec<ImageSample> {
        self.search.split.train.iter().map(|&i| self.designs[i].image_sample(mode)).collect()
    }

    /// Test-set image samples under a channel mode.
    pub(crate) fn test_images(&self, mode: ChannelMode) -> Vec<ImageSample> {
        self.search.split.test.iter().map(|&i| self.designs[i].image_sample(mode)).collect()
    }

    /// Test designs ordered by congestion rate (used by Figure 4).
    pub fn test_by_congestion(&self) -> Vec<&DesignData> {
        let mut v: Vec<&DesignData> =
            self.search.split.test.iter().map(|&i| &self.designs[i]).collect();
        v.sort_by(|a, b| {
            a.stats.congestion_rate.partial_cmp(&b.stats.congestion_rate).expect("finite rates")
        });
        v
    }
}

/// One (model, seed) outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeedScore {
    /// Seed used.
    pub seed: u64,
    /// Mean per-design F1 on the test set.
    pub f1: f64,
    /// Mean per-design accuracy on the test set.
    pub accuracy: f64,
}

/// Aggregated Table 2 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelScore {
    /// Model display name.
    pub model: String,
    /// Per-seed scores.
    pub per_seed: Vec<SeedScore>,
    /// `(mean, std)` of F1.
    pub f1: (f64, f64),
    /// `(mean, std)` of accuracy.
    pub accuracy: (f64, f64),
}

fn aggregate(model: String, per_seed: Vec<SeedScore>) -> ModelScore {
    let f1s: Vec<f64> = per_seed.iter().map(|s| s.f1).collect();
    let accs: Vec<f64> = per_seed.iter().map(|s| s.accuracy).collect();
    ModelScore { model, f1: mean_std(&f1s), accuracy: mean_std(&accs), per_seed }
}

/// Per-design evaluation of an image model, averaged like
/// [`lhnn::evaluate`].
pub(crate) fn evaluate_image_model(model: &dyn ImageModel, samples: &[ImageSample]) -> (f64, f64) {
    let mut f1 = 0.0;
    let mut acc = 0.0;
    for s in samples {
        let pred = model.predict(s);
        let conf = Confusion::from_scores(pred.as_slice(), s.target_cls.as_slice(), 0.5);
        f1 += conf.f1();
        acc += conf.accuracy();
    }
    let n = samples.len().max(1) as f64;
    (f1 / n, acc / n)
}

/// Trains + evaluates LHNN for one seed.
pub fn run_lhnn_seed(
    prep: &PreparedDataset,
    cfg: &ExperimentConfig,
    mode: ChannelMode,
    ablation: &AblationSpec,
    seed: u64,
) -> SeedScore {
    let model_cfg = LhnnConfig { channel_mode: mode, ..cfg.lhnn.clone() };
    let mut model = Lhnn::new(model_cfg, seed);
    let train_cfg = TrainConfig { seed, ..cfg.lhnn_train.clone() };
    let train_set = prep.train_samples();
    train(&mut model, &train_set, ablation, &train_cfg);
    let test_set = prep.test_samples();
    let eval = evaluate(&model, &test_set, ablation);
    SeedScore { seed, f1: eval.f1, accuracy: eval.accuracy }
}

/// Trains + evaluates one baseline for one seed.
pub(crate) fn run_baseline_seed(
    kind: ModelKind,
    prep: &PreparedDataset,
    cfg: &ExperimentConfig,
    mode: ChannelMode,
    seed: u64,
) -> SeedScore {
    let in_dim = 4;
    let out_dim = mode.channels();
    let train_cfg = BaselineTrainConfig { seed, ..cfg.baseline_train.clone() };
    let train_set = prep.train_images(mode);
    let test_set = prep.test_images(mode);
    let mut model: Box<dyn ImageModel> = match kind {
        ModelKind::Mlp => Box::new(MlpBaseline::new(in_dim, out_dim, cfg.mlp_hidden, seed)),
        ModelKind::UNet => Box::new(UNetModel::new(in_dim, out_dim, cfg.cnn_features, seed)),
        ModelKind::Pix2Pix => Box::new(Pix2PixModel::new(in_dim, out_dim, cfg.cnn_features, seed)),
        ModelKind::Lhnn => unreachable!("lhnn is not an image model"),
    };
    model.fit(&train_set, &train_cfg);
    let (f1, accuracy) = evaluate_image_model(model.as_ref(), &test_set);
    SeedScore { seed, f1, accuracy }
}

/// Runs one model across all seeds (parallel threads, one per seed).
pub(crate) fn run_model(
    kind: ModelKind,
    prep: &PreparedDataset,
    cfg: &ExperimentConfig,
    mode: ChannelMode,
) -> ModelScore {
    let per_seed: Vec<SeedScore> = std::thread::scope(|scope| {
        let handles: Vec<_> = cfg
            .seeds
            .iter()
            .map(|&seed| {
                scope.spawn(move || match kind {
                    ModelKind::Lhnn => run_lhnn_seed(prep, cfg, mode, &AblationSpec::full(), seed),
                    other => run_baseline_seed(other, prep, cfg, mode, seed),
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("seed thread panicked")).collect()
    });
    aggregate(kind.display().to_string(), per_seed)
}

/// Table 2: every model under a channel mode.
pub fn model_comparison(
    prep: &PreparedDataset,
    cfg: &ExperimentConfig,
    mode: ChannelMode,
) -> Vec<ModelScore> {
    ModelKind::all().iter().map(|&k| run_model(k, prep, cfg, mode)).collect()
}

/// Table 3 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationScore {
    /// Ablation label (`full`, `-hypermp`, …).
    pub label: String,
    /// `(mean, std)` of F1 over seeds.
    pub f1: (f64, f64),
    /// Relative change vs the full model, `ΔF1/F1_full` in percent.
    pub delta_pct: f64,
}

/// The ablation specs of Table 3, in the paper's column order.
pub(crate) fn table3_specs() -> Vec<AblationSpec> {
    vec![
        AblationSpec::full(),
        AblationSpec::without_featuregen(),
        AblationSpec::without_hypermp(),
        AblationSpec::without_latticemp(),
        AblationSpec::without_jointing(),
        AblationSpec::without_gcell_features(),
    ]
}

/// Table 3: the uni-channel ablation study.
pub fn ablation_study(prep: &PreparedDataset, cfg: &ExperimentConfig) -> Vec<AblationScore> {
    let specs = table3_specs();
    let mut rows: Vec<(String, (f64, f64))> = Vec::new();
    for spec in &specs {
        let per_seed: Vec<SeedScore> = std::thread::scope(|scope| {
            let handles: Vec<_> = cfg
                .seeds
                .iter()
                .map(|&seed| {
                    scope.spawn(move || run_lhnn_seed(prep, cfg, ChannelMode::Uni, spec, seed))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("seed thread panicked")).collect()
        });
        let f1s: Vec<f64> = per_seed.iter().map(|s| s.f1).collect();
        rows.push((spec.label(), mean_std(&f1s)));
    }
    let full_f1 = rows[0].1 .0.max(1e-12);
    rows.into_iter()
        .map(|(label, f1)| AblationScore {
            label,
            f1,
            delta_pct: (f1.0 - full_f1) / full_f1 * 100.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast, shrunken configuration for harness tests.
    pub(crate) fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetConfig {
                scale: 0.15,
                h_tracks: 6.0,
                v_tracks: 6.0,
                ..Default::default()
            },
            seeds: vec![0, 1],
            lhnn_train: TrainConfig { epochs: 6, ..Default::default() },
            baseline_train: BaselineTrainConfig { epochs: 6, ..Default::default() },
            cnn_features: 4,
            ..Default::default()
        }
    }

    #[test]
    fn prepared_dataset_builds_and_splits() {
        let cfg = quick_cfg();
        let prep = PreparedDataset::build(&cfg.dataset).unwrap();
        assert_eq!(prep.designs.len(), 15);
        assert_eq!(prep.train_samples().len(), 10);
        assert_eq!(prep.test_samples().len(), 5);
        assert_eq!(prep.search.candidates, 3003);
        // congestion sorted test designs are monotone
        let sorted = prep.test_by_congestion();
        for w in sorted.windows(2) {
            assert!(w[0].stats.congestion_rate <= w[1].stats.congestion_rate);
        }
    }

    #[test]
    fn lhnn_seed_run_produces_scores() {
        let mut cfg = quick_cfg();
        // Range-check only — 4 epochs keeps this comfortably inside the
        // ~60s single-test budget on slow machines.
        cfg.lhnn_train.epochs = 4;
        let prep = PreparedDataset::build(&cfg.dataset).unwrap();
        let s = run_lhnn_seed(&prep, &cfg, ChannelMode::Uni, &AblationSpec::full(), 0);
        assert!((0.0..=1.0).contains(&s.f1));
        assert!((0.0..=1.0).contains(&s.accuracy));
    }

    #[test]
    fn mlp_baseline_seed_run_produces_scores() {
        let cfg = quick_cfg();
        let prep = PreparedDataset::build(&cfg.dataset).unwrap();
        let s = run_baseline_seed(ModelKind::Mlp, &prep, &cfg, ChannelMode::Uni, 0);
        assert!((0.0..=1.0).contains(&s.f1));
        assert!(s.accuracy > 0.3, "accuracy implausibly low: {}", s.accuracy);
    }

    #[test]
    fn table3_has_six_specs_in_paper_order() {
        let specs = table3_specs();
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].label(), "full");
        assert_eq!(specs[2].label(), "-hypermp");
        assert_eq!(specs[5].label(), "-gcellfeat");
    }

    #[test]
    fn aggregate_computes_mean_std() {
        let scores = vec![
            SeedScore { seed: 0, f1: 0.4, accuracy: 0.9 },
            SeedScore { seed: 1, f1: 0.6, accuracy: 1.0 },
        ];
        let agg = aggregate("m".into(), scores);
        assert!((agg.f1.0 - 0.5).abs() < 1e-12);
        assert!((agg.accuracy.0 - 0.95).abs() < 1e-12);
        assert!(agg.f1.1 > 0.0);
    }
}
