//! Training and evaluation loops over any [`CongestionModel`].
//!
//! A [`Sample`] bundles everything one design contributes: its LH-graph,
//! normalised features and supervision targets. [`train`] runs the paper's
//! protocol (Adam 2e-3 stepping down to 5e-4, γ-weighted joint loss);
//! [`evaluate`] reports the paper's metrics — per-design F1 and accuracy
//! averaged over a test set, with the zero-congestion ⇒ F1 = 0 convention.
//!
//! # Data-parallel training
//!
//! Each optimiser step covers a mini-batch of `TrainConfig::batch_size`
//! samples (1 = the paper's per-design stepping). Per-sample forwards and
//! backwards run on `TrainConfig::threads` shards of the batch, each shard
//! owning a long-lived scratch [`Tape`]; per-sample gradients and losses
//! are then reduced **sequentially in sample order** on the calling
//! thread. Because the reduction order is fixed and the kernel backend is
//! bitwise thread-count-invariant, `threads` never changes the training
//! trajectory: for a given `batch_size`, any thread count reproduces the
//! serial [`TrainHistory`] exactly (see `parallel_matches_serial_exactly`).

use lh_graph::{ChannelMode, FeatureSet, LhGraph, Targets};
use neurograd::tape::ParamId;
use neurograd::{Adam, Confusion, Matrix, Tape};
use serde::{Deserialize, Serialize};

use crate::config::{AblationSpec, TrainConfig};
use crate::congestion::CongestionModel;
use crate::loss::joint_loss;
use crate::ops::{epoch_rng, shuffled_indices, GraphOps};

/// One design's training/evaluation data.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Design name (for reports).
    pub name: String,
    /// The LH-graph of the placed design.
    pub graph: LhGraph,
    /// Normalised input features.
    pub features: FeatureSet,
    /// Supervision targets (demand + congestion).
    pub targets: Targets,
}

/// Loss trace of a training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainHistory {
    /// Mean joint loss per epoch.
    pub epoch_loss: Vec<f32>,
}

/// Per-design evaluation record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignEval {
    /// Design name.
    pub name: String,
    /// F1 score of the congestion classification.
    pub f1: f64,
    /// Accuracy of the congestion classification.
    pub accuracy: f64,
    /// Ground-truth congestion rate of the design.
    pub congestion_rate: f64,
}

/// Aggregate evaluation result (averaged over designs, as in the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalResult {
    /// Mean per-design F1.
    pub f1: f64,
    /// Mean per-design accuracy.
    pub accuracy: f64,
    /// Per-design breakdown.
    pub designs: Vec<DesignEval>,
}

/// One shard of a mini-batch: a long-lived scratch tape plus the
/// per-sample results it produced this step, in shard-local sample order.
struct Shard {
    tape: Tape,
    results: Vec<(f32, Vec<(ParamId, Matrix)>)>,
}

/// Runs forward + backward for one sample on a scratch tape, returning the
/// loss and the per-parameter gradients in tape (registration) order.
fn sample_grads(
    model: &dyn CongestionModel,
    tape: &mut Tape,
    ops: &GraphOps,
    feats: &FeatureSet,
    congestion: &Matrix,
    demand: &Matrix,
    gamma: f32,
    jointing: bool,
) -> (f32, Vec<(ParamId, Matrix)>) {
    tape.clear();
    let out = model.forward(tape, ops, feats);
    let loss = joint_loss(tape, out.cls_logits, out.reg, congestion, demand, gamma, jointing);
    let loss_value = tape.value(loss).item();
    tape.backward(loss);
    (loss_value, tape.take_param_grads())
}

/// Trains `model` on `samples` under an ablation spec.
///
/// Applies the paper's learning-rate step (2e-3 → 5e-4 halfway), optional
/// neighbour-sampling fanouts, gradient clipping and per-epoch shuffling.
/// Deterministic for a fixed `cfg.seed`, independent of `cfg.threads` (see
/// the module docs).
pub fn train(
    model: &mut dyn CongestionModel,
    samples: &[Sample],
    ablation: &AblationSpec,
    cfg: &TrainConfig,
) -> TrainHistory {
    let mode = model.channel_mode();
    // Pre-extract per-sample tensors (feature ablation applied once) and
    // warm the operators' transpose caches so no backward step rebuilds
    // a CSR transpose.
    let prepared: Vec<(GraphOps, FeatureSet, Matrix, Matrix)> = samples
        .iter()
        .map(|s| {
            let ops = GraphOps::from_graph(&s.graph, ablation);
            ops.warm_transpose_caches();
            let feats = if ablation.gcell_features {
                s.features.clone()
            } else {
                s.features.without_gcell_features()
            };
            let congestion = s.targets.congestion_channels(mode);
            let demand = s.targets.demand_channels(mode);
            (ops, feats, congestion, demand)
        })
        .collect();

    let threads = cfg.threads.max(1);
    let batch_size = cfg.batch_size.max(1);
    let pool = neurograd::pool::global();
    // One scratch tape per shard, reused across steps and epochs: after
    // the first step the forwards/backwards allocate (near) nothing.
    let mut shards: Vec<Shard> =
        (0..threads).map(|_| Shard { tape: Tape::new(), results: Vec::new() }).collect();

    let mut opt = Adam::new(cfg.lr);
    let mut history = TrainHistory::default();
    for epoch in 0..cfg.epochs {
        if cfg.epochs > 1 && epoch == cfg.epochs / 2 {
            opt.set_lr(cfg.lr_final);
        }
        let mut rng = epoch_rng(cfg.seed, epoch);
        let order = shuffled_indices(prepared.len(), &mut rng);
        let mut epoch_loss = 0.0f32;
        for step in order.chunks(batch_size) {
            // Phase 1 (sequential): neighbour sampling consumes the epoch
            // RNG in sample order, so the stream is thread-count-invariant.
            let step_ops: Vec<GraphOps> = step
                .iter()
                .map(|&i| match cfg.fanouts {
                    Some(fanouts) => prepared[i].0.sampled(fanouts, &mut rng),
                    None => prepared[i].0.clone(),
                })
                .collect();
            // Phase 2 (parallel): per-sample forward/backward over
            // contiguous shards of the batch, one scratch tape per shard.
            let ranges = neurograd::pool::chunk_ranges(step.len(), 1, threads);
            let used = ranges.len();
            let model_ref: &dyn CongestionModel = &*model;
            pool.run_mut(&mut shards[..used], |s, shard| {
                shard.results.clear();
                for pos in ranges[s].clone() {
                    let (_, feats, congestion, demand) = &prepared[step[pos]];
                    shard.results.push(sample_grads(
                        model_ref,
                        &mut shard.tape,
                        &step_ops[pos],
                        feats,
                        congestion,
                        demand,
                        cfg.gamma,
                        ablation.jointing,
                    ));
                }
            });
            // Phase 3 (sequential): fixed-order reduction — losses and
            // gradients accumulate in sample order whatever the shard
            // count, making the step bitwise reproducible.
            let store = model.store_mut();
            for shard in &mut shards[..used] {
                for (loss, grads) in shard.results.drain(..) {
                    epoch_loss += loss;
                    for (id, grad) in grads {
                        store.param_mut(id).grad.add_scaled_inplace(&grad, 1.0);
                    }
                }
            }
            if cfg.grad_clip > 0.0 {
                store.clip_grad_norm(cfg.grad_clip);
            }
            opt.step(store);
            store.zero_grad();
        }
        history.epoch_loss.push(epoch_loss / prepared.len().max(1) as f32);
    }
    history
}

/// Evaluates a model: per-design F1/ACC at threshold 0.5, averaged.
pub fn evaluate(
    model: &dyn CongestionModel,
    samples: &[Sample],
    ablation: &AblationSpec,
) -> EvalResult {
    let mode = model.channel_mode();
    let mut designs = Vec::with_capacity(samples.len());
    for s in samples {
        let ops = GraphOps::from_graph(&s.graph, ablation);
        let feats = if ablation.gcell_features {
            s.features.clone()
        } else {
            s.features.without_gcell_features()
        };
        let pred = model.predict(&ops, &feats);
        let target = s.targets.congestion_channels(mode);
        let conf = Confusion::from_scores(pred.cls_prob.as_slice(), target.as_slice(), 0.5);
        designs.push(DesignEval {
            name: s.name.clone(),
            f1: conf.f1(),
            accuracy: conf.accuracy(),
            congestion_rate: s.targets.congestion_rate(mode),
        });
    }
    let n = designs.len().max(1) as f64;
    EvalResult {
        f1: designs.iter().map(|d| d.f1).sum::<f64>() / n,
        accuracy: designs.iter().map(|d| d.accuracy).sum::<f64>() / n,
        designs,
    }
}

/// Collects per-G-cell probabilities for one sample (used by the Figure 4
/// visualisation harness). Returns `(probabilities, binary labels)` for
/// the first channel.
pub fn predict_map(
    model: &dyn CongestionModel,
    sample: &Sample,
    ablation: &AblationSpec,
) -> (Vec<f32>, Vec<f32>) {
    let ops = GraphOps::from_graph(&sample.graph, ablation);
    let feats = if ablation.gcell_features {
        sample.features.clone()
    } else {
        sample.features.without_gcell_features()
    };
    let pred = model.predict(&ops, &feats);
    let prob: Vec<f32> = (0..pred.cls_prob.rows()).map(|r| pred.cls_prob[(r, 0)]).collect();
    let target = sample.targets.congestion_channels(ChannelMode::Uni);
    (prob, target.into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LhnnConfig;
    use crate::model::Lhnn;
    use lh_graph::{LhGraphConfig, Targets};
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_place::GlobalPlacer;
    use vlsi_route::{route, CapacityConfig, RouterConfig};

    /// Regression-branch quality over a sample set.
    #[derive(Debug)]
    struct RegEval {
        /// Root-mean-square error of the demand prediction.
        pub rmse: f64,
        /// Pearson correlation between predicted and true demand.
        pub pearson: f64,
    }

    /// Evaluates the routing-demand regression head (Eq. 4) — RMSE and Pearson
    /// correlation pooled over all G-cells of `samples`.
    fn evaluate_regression(
        model: &dyn CongestionModel,
        samples: &[Sample],
        ablation: &AblationSpec,
    ) -> RegEval {
        let mode = model.channel_mode();
        let mut preds: Vec<f64> = Vec::new();
        let mut truths: Vec<f64> = Vec::new();
        for s in samples {
            let ops = GraphOps::from_graph(&s.graph, ablation);
            let feats = if ablation.gcell_features {
                s.features.clone()
            } else {
                s.features.without_gcell_features()
            };
            let pred = model.predict(&ops, &feats);
            let target = s.targets.demand_channels(mode);
            preds.extend(pred.reg.as_slice().iter().map(|&v| f64::from(v)));
            truths.extend(target.as_slice().iter().map(|&v| f64::from(v)));
        }
        let n = preds.len().max(1) as f64;
        let rmse =
            (preds.iter().zip(&truths).map(|(p, t)| (p - t) * (p - t)).sum::<f64>() / n).sqrt();
        let mp = preds.iter().sum::<f64>() / n;
        let mt = truths.iter().sum::<f64>() / n;
        let cov: f64 = preds.iter().zip(&truths).map(|(p, t)| (p - mp) * (t - mt)).sum();
        let vp: f64 = preds.iter().map(|p| (p - mp) * (p - mp)).sum();
        let vt: f64 = truths.iter().map(|t| (t - mt) * (t - mt)).sum();
        let pearson = if vp > 0.0 && vt > 0.0 { cov / (vp.sqrt() * vt.sqrt()) } else { 0.0 };
        RegEval { rmse, pearson }
    }

    fn make_sample(seed: u64) -> Sample {
        let cfg = SynthConfig {
            name: format!("t{seed}"),
            seed,
            n_cells: 200,
            grid_nx: 8,
            grid_ny: 8,
            ..SynthConfig::default()
        };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let rcfg = RouterConfig {
            capacity: CapacityConfig { h_tracks: 6.0, v_tracks: 6.0, ..Default::default() },
            ..Default::default()
        };
        let routed =
            route(&synth.circuit, &placed.placement, &grid, &synth.macro_rects, &rcfg).unwrap();
        let graph =
            LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default())
                .unwrap();
        let features = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid)
            .unwrap()
            .normalized();
        let targets = Targets::from_labels(&routed.labels);
        Sample { name: cfg.name, graph, features, targets }
    }

    #[test]
    fn training_reduces_loss() {
        let samples = vec![make_sample(1), make_sample(2)];
        let mut model = Lhnn::new(LhnnConfig::default(), 0);
        let cfg = TrainConfig { epochs: 10, ..Default::default() };
        let hist = train(&mut model, &samples, &AblationSpec::full(), &cfg);
        assert_eq!(hist.epoch_loss.len(), 10);
        let first = hist.epoch_loss[0];
        let last = *hist.epoch_loss.last().unwrap();
        assert!(last < first, "loss did not fall: {first} -> {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn training_is_deterministic() {
        let samples = vec![make_sample(3)];
        let cfg = TrainConfig { epochs: 3, ..Default::default() };
        let run = || {
            let mut model = Lhnn::new(LhnnConfig::default(), 5);
            train(&mut model, &samples, &AblationSpec::full(), &cfg).epoch_loss
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn evaluation_reports_per_design() {
        let samples = vec![make_sample(4), make_sample(5)];
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let eval = evaluate(&model, &samples, &AblationSpec::full());
        assert_eq!(eval.designs.len(), 2);
        assert!((0.0..=1.0).contains(&eval.f1));
        assert!((0.0..=1.0).contains(&eval.accuracy));
    }

    #[test]
    fn trained_model_beats_untrained() {
        let samples = vec![make_sample(6), make_sample(7)];
        let untrained = Lhnn::new(LhnnConfig::default(), 1);
        let before = evaluate(&untrained, &samples, &AblationSpec::full());
        let mut model = Lhnn::new(LhnnConfig::default(), 1);
        let cfg = TrainConfig { epochs: 30, ..Default::default() };
        train(&mut model, &samples, &AblationSpec::full(), &cfg);
        let after = evaluate(&model, &samples, &AblationSpec::full());
        // training-set fit: should clearly improve over random init
        assert!(
            after.f1 > before.f1 || after.accuracy > before.accuracy,
            "no improvement: f1 {} -> {}, acc {} -> {}",
            before.f1,
            after.f1,
            before.accuracy,
            after.accuracy
        );
        assert!(after.f1 > 0.3, "trained f1 too low: {}", after.f1);
    }

    #[test]
    fn regression_head_learns_demand() {
        let samples = vec![make_sample(12)];
        let mut model = Lhnn::new(LhnnConfig::default(), 0);
        let before = evaluate_regression(&model, &samples, &AblationSpec::full());
        let cfg = TrainConfig { epochs: 40, ..Default::default() };
        train(&mut model, &samples, &AblationSpec::full(), &cfg);
        let after = evaluate_regression(&model, &samples, &AblationSpec::full());
        assert!(after.rmse < before.rmse, "rmse {} -> {}", before.rmse, after.rmse);
        assert!(after.pearson > 0.5, "pearson too low: {}", after.pearson);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // The headline determinism guarantee: for a fixed batch size, the
        // training trajectory is bitwise identical at any thread count.
        let samples = vec![make_sample(20), make_sample(21), make_sample(22), make_sample(23)];
        let run = |threads: usize, batch_size: usize, fanouts: Option<[usize; 3]>| {
            let mut model = Lhnn::new(LhnnConfig::default(), 9);
            let cfg = TrainConfig { epochs: 3, threads, batch_size, fanouts, ..Default::default() };
            train(&mut model, &samples, &AblationSpec::full(), &cfg).epoch_loss
        };
        for batch_size in [1usize, 2, 4] {
            let serial = run(1, batch_size, None);
            for threads in [2usize, 3, 4] {
                assert_eq!(
                    serial,
                    run(threads, batch_size, None),
                    "threads={threads} batch={batch_size} diverged from serial"
                );
            }
        }
        // neighbour sampling consumes the RNG before the parallel phase,
        // so sampled training is thread-count-invariant too
        let serial_sampled = run(1, 2, Some([6, 3, 2]));
        assert_eq!(serial_sampled, run(4, 2, Some([6, 3, 2])));
    }

    #[test]
    fn batched_training_still_learns() {
        let samples = vec![make_sample(24), make_sample(25)];
        let mut model = Lhnn::new(LhnnConfig::default(), 0);
        let cfg = TrainConfig { epochs: 10, batch_size: 2, threads: 2, ..Default::default() };
        let hist = train(&mut model, &samples, &AblationSpec::full(), &cfg);
        let first = hist.epoch_loss[0];
        let last = *hist.epoch_loss.last().unwrap();
        assert!(last < first, "batched loss did not fall: {first} -> {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn sampled_training_runs() {
        let samples = vec![make_sample(8)];
        let mut model = Lhnn::new(LhnnConfig::default(), 0);
        let cfg = TrainConfig { epochs: 2, fanouts: Some([6, 3, 2]), ..Default::default() };
        let hist = train(&mut model, &samples, &AblationSpec::full(), &cfg);
        assert!(hist.epoch_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn predict_map_matches_grid_size() {
        let s = make_sample(9);
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let (prob, label) = predict_map(&model, &s, &AblationSpec::full());
        assert_eq!(prob.len(), 64);
        assert_eq!(label.len(), 64);
    }
}
