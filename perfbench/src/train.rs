//! The paper flow (generate → place → route → LH-graph → features) over
//! the synthblue suite, design by design, and LHNN training: the per-stage
//! and taped-pass layers of the traced run. The suite is the fixed one
//! `lhnn train` builds; the seed draws the model's initial weights and the
//! epoch shuffles.

use std::time::Instant;

use lh_graph::{FeatureSet, LhGraph, LhGraphConfig, Targets};
use lhnn::loss::joint_loss;
use lhnn::{
    evaluate, train, AblationSpec, CongestionModel, GraphOps, Lhnn, LhnnConfig, Sample, TrainConfig,
};
use lhnn_data::{best_split, DatasetConfig};
use neurograd::Tape;
use vlsi_netlist::synth::{generate, superblue_suite, SynthCircuit, SynthConfig};
use vlsi_place::{GlobalPlacer, GlobalPlacerConfig, SpreadConfig};
use vlsi_route::{route, CapacityConfig, CostModel, RouterConfig};

use crate::common::{
    median, same_prediction, sub_seed, timed, Ctx, Report, Result, COMPUTE_THREADS,
};

/// Designs of the 15-design suite held out of training, as `lhnn train`
/// chooses them.
const TEST_SIZE: usize = 5;
/// Samples per optimiser step; the data-parallel trainer shards them.
const BATCH: usize = 2;

/// Wall time of each flow stage of one synthesized design, in ms.
struct StageMs {
    place: f64,
    route: f64,
    build: f64,
    features: f64,
}

/// One synthesized netlist of the suite.
struct Netlist {
    config: SynthConfig,
    synth: SynthCircuit,
}

/// The dataset settings the flow uses: the default `lhnn train` builds
/// its suite with, which routes once at fixed track counts.
fn dataset_config() -> Result<DatasetConfig> {
    let cfg = DatasetConfig::default();
    if cfg.capacity_mode != lhnn_data::CapacityMode::FixedTracks {
        return Err("the timed flow routes at fixed track counts only".into());
    }
    Ok(cfg)
}

/// Synthesizes the suite `lhnn train` builds: the synthblue designs at the
/// dataset's base seed, so every seed of the benchmark measures the same
/// fixed suite users train on. Returns each netlist with its generate ms.
fn synthesize(ctx: &Ctx, cfg: &DatasetConfig) -> Result<Vec<(Netlist, f64)>> {
    superblue_suite(cfg.base_seed, ctx.profile.train_scale)
        .into_iter()
        .map(|sc| {
            let config =
                SynthConfig { nets_per_cell: cfg.nets_per_cell, degree_p: cfg.degree_p, ..sc };
            let (synth, ms) = timed(|| generate(&config));
            Ok((Netlist { config, synth: synth? }, ms))
        })
        .collect()
}

/// One netlist through the rest of the flow with the dataset's settings
/// (as `lhnn_data::build_design` runs it), with each stage's wall time.
fn flow(n: &Netlist, cfg: &DatasetConfig) -> Result<(Sample, f64, StageMs)> {
    let mut last = Instant::now();
    let mut stamp = move || {
        let now = Instant::now();
        let d = now.duration_since(last).as_secs_f64() * 1e3;
        last = now;
        d
    };
    let synth = &n.synth;
    let grid = n.config.grid();
    let placer = GlobalPlacer::new(GlobalPlacerConfig {
        spreading: SpreadConfig { target_density: cfg.target_density, ..Default::default() },
        ..Default::default()
    });
    let placed = placer.place_synth(synth, &grid)?;
    let place_ms = stamp();
    let router = RouterConfig {
        capacity: CapacityConfig {
            h_tracks: cfg.h_tracks,
            v_tracks: cfg.v_tracks,
            ..Default::default()
        },
        rrr_rounds: cfg.rrr_rounds,
        cost: CostModel { overflow_penalty: cfg.overflow_penalty, ..Default::default() },
        ..Default::default()
    };
    let routed = route(&synth.circuit, &placed.placement, &grid, &synth.macro_rects, &router)?;
    let route_ms = stamp();
    let graph_cfg =
        LhGraphConfig { max_gnet_fraction: cfg.max_gnet_fraction, ..LhGraphConfig::default() };
    let graph = LhGraph::build(&synth.circuit, &placed.placement, &grid, &graph_cfg)?;
    let build_ms = stamp();
    let (gd, nd) = FeatureSet::default_divisors();
    let features =
        FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid)?.scaled_fixed(&gd, &nd);
    let features_ms = stamp();
    let sample = Sample {
        name: n.config.name.clone(),
        graph,
        features,
        targets: Targets::from_labels(&routed.labels),
    };
    let stages =
        StageMs { place: place_ms, route: route_ms, build: build_ms, features: features_ms };
    Ok((sample, routed.congestion_rate(), stages))
}

/// The suite through the flow, design by design.
struct Dataset {
    samples: Vec<Sample>,
    rates: Vec<f64>,
    stages: Vec<StageMs>,
}

impl Dataset {
    fn build(netlists: &[Netlist], cfg: &DatasetConfig) -> Result<Self> {
        let mut data = Self { samples: Vec::new(), rates: Vec::new(), stages: Vec::new() };
        for n in netlists {
            let (sample, rate, s) = flow(n, cfg)?;
            data.samples.push(sample);
            data.rates.push(rate);
            data.stages.push(s);
        }
        Ok(data)
    }

    /// (training, test) samples of the split `lhnn train` uses: the test
    /// set whose congestion rate best matches the training set's.
    fn split(&self) -> (Vec<Sample>, Vec<Sample>) {
        let split = best_split(&self.rates, TEST_SIZE).split;
        let pick = |idx: &[usize]| idx.iter().map(|&i| self.samples[i].clone()).collect();
        (pick(&split.train), pick(&split.test))
    }
}

fn fresh_model(ctx: &Ctx) -> Lhnn {
    Lhnn::new(LhnnConfig::default(), sub_seed(ctx.seed, 1))
}

/// `epochs` of training from `model`'s weights; the loss of each epoch.
fn train_epochs(
    ctx: &Ctx,
    model: &mut Lhnn,
    samples: &[Sample],
    epochs: usize,
    threads: usize,
) -> Vec<f32> {
    let cfg = TrainConfig {
        epochs,
        seed: sub_seed(ctx.seed, 700),
        batch_size: BATCH,
        threads,
        ..TrainConfig::default()
    };
    train(model, samples, &AblationSpec::full(), &cfg).epoch_loss
}

/// Whether the fused predict equals the taped forward bitwise.
fn fused_matches_taped(model: &Lhnn, sample: &Sample) -> bool {
    let ops = GraphOps::from_graph(&sample.graph, &AblationSpec::full());
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, &ops, &sample.features);
    let prob = tape.sigmoid(out.cls_logits);
    let taped =
        lhnn::Prediction { cls_prob: tape.value(prob).clone(), reg: tape.value(out.reg).clone() };
    same_prediction(&taped, &model.predict(&ops, &sample.features))
}

/// The per-layer metrics of the flow and of training.
pub fn layers(ctx: &Ctx, report: &mut Report) -> Result<()> {
    let cfg = dataset_config()?;
    let (netlists, generate_ms): (Vec<Netlist>, Vec<f64>) =
        synthesize(ctx, &cfg)?.into_iter().unzip();
    let data = Dataset::build(&netlists, &cfg)?;
    let stage = |f: fn(&StageMs) -> f64| median(&data.stages.iter().map(f).collect::<Vec<_>>());
    report.push("netlist.generate_ms", median(&generate_ms), "ms");
    report.push("place.place_ms", stage(|s| s.place), "ms");
    report.push("route.route_ms", stage(|s| s.route), "ms");
    report.push("lhgraph.build_ms", stage(|s| s.build), "ms");
    report.push("lhgraph.features_ms", stage(|s| s.features), "ms");

    let (train_set, test_set) = data.split();
    let model = fresh_model(ctx);
    let mode = model.channel_mode();
    let gamma = TrainConfig::default().gamma;
    let mut tape = Tape::new();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for s in &train_set {
        let ops = GraphOps::from_graph(&s.graph, &AblationSpec::full());
        ops.warm_transpose_caches();
        let (congestion, demand) =
            (s.targets.congestion_channels(mode), s.targets.demand_channels(mode));
        tape.clear();
        let (out, t) = timed(|| model.forward(&mut tape, &ops, &s.features));
        fwd.push(t);
        let loss =
            joint_loss(&mut tape, out.cls_logits, out.reg, &congestion, &demand, gamma, true);
        let ((), t) = timed(|| tape.backward(loss));
        bwd.push(t);
    }
    report.push("core.taped_forward_ms", median(&fwd), "ms");
    report.push("neurograd.backward_ms", median(&bwd), "ms");

    // One epoch at one data-parallel thread against one at two, from the
    // same weights: the losses must agree bitwise. Then evaluate the
    // trained model on the held-out designs.
    let mut one = fresh_model(ctx);
    let mut two = fresh_model(ctx);
    let (loss1, t1) = timed(|| train_epochs(ctx, &mut one, &train_set, 1, 1));
    let (loss2, t2) = timed(|| train_epochs(ctx, &mut two, &train_set, 1, COMPUTE_THREADS));
    report.check(loss1[0].to_bits() == loss2[0].to_bits());
    report.check(loss2[0].is_finite() && fused_matches_taped(&two, &train_set[0]));
    report.push("core.train_epoch_speedup_2t", t1 / t2.max(1e-9), "x");
    report.note("train.final_loss", loss2[0]);
    report.note("train.test_f1", evaluate(&two, &test_set, &AblationSpec::full()).f1);
    Ok(())
}
