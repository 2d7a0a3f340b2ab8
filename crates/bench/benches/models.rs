//! Criterion benchmarks for the learned models: LHNN inference and one
//! training step vs the CNN baselines, at the experiment grid sizes.
//! These quantify the cost behind every Table 2/3 cell.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lh_graph::{ChannelMode, FeatureSet, LhGraph, LhGraphConfig, Targets};
use lhnn::{AblationSpec, CongestionModel, GraphOps, Lhnn, LhnnConfig, Sample, TrainConfig};
use lhnn_baselines::{BaselineTrainConfig, ImageModel, ImageSample, MlpBaseline, UNetModel};
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_place::GlobalPlacer;
use vlsi_route::{route, RouterConfig};

fn sample(n_cells: usize, grid: u32) -> Sample {
    let cfg = SynthConfig {
        name: format!("bench{n_cells}"),
        n_cells,
        grid_nx: grid,
        grid_ny: grid,
        ..SynthConfig::default()
    };
    let synth = generate(&cfg).expect("generate");
    let g = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &g).expect("place");
    let routed =
        route(&synth.circuit, &placed.placement, &g, &synth.macro_rects, &RouterConfig::default())
            .expect("route");
    let graph = LhGraph::build(&synth.circuit, &placed.placement, &g, &LhGraphConfig::default())
        .expect("graph");
    let (gd, nd) = FeatureSet::default_divisors();
    let features = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &g)
        .expect("features")
        .scaled_fixed(&gd, &nd);
    Sample { name: cfg.name, graph, features, targets: Targets::from_labels(&routed.labels) }
}

fn image_of(s: &Sample, nx: usize, ny: usize) -> ImageSample {
    ImageSample::from_node_major(
        s.name.clone(),
        nx,
        ny,
        &s.features.gcell,
        &s.targets.congestion_channels(ChannelMode::Uni),
    )
}

fn bench_lhnn(c: &mut Criterion) {
    let mut group = c.benchmark_group("lhnn");
    group.sample_size(10);
    for grid in [16u32, 32] {
        let s = sample((grid * grid) as usize, grid);
        let ops = GraphOps::from_graph(&s.graph, &AblationSpec::full());
        let model = Lhnn::new(LhnnConfig::default(), 0);
        group.bench_with_input(BenchmarkId::new("inference", grid * grid), &grid, |b, _| {
            b.iter(|| model.predict(&ops, &s.features));
        });
        group.bench_with_input(BenchmarkId::new("train_epoch", grid * grid), &grid, |b, _| {
            b.iter(|| {
                let mut m = Lhnn::new(LhnnConfig::default(), 0);
                let cfg = TrainConfig { epochs: 1, ..Default::default() };
                lhnn::train(&mut m, std::slice::from_ref(&s), &AblationSpec::full(), &cfg)
            });
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    let grid = 32u32;
    let s = sample((grid * grid) as usize, grid);
    let img = image_of(&s, grid as usize, grid as usize);
    let mlp = MlpBaseline::new(4, 1, 32, 0);
    let unet = UNetModel::new(4, 1, 8, 0);
    group.bench_function("mlp_inference_1024", |b| {
        b.iter(|| mlp.predict(&img));
    });
    group.bench_function("unet_inference_1024", |b| {
        b.iter(|| unet.predict(&img));
    });
    group.bench_function("unet_train_epoch_1024", |b| {
        b.iter(|| {
            let mut m = UNetModel::new(4, 1, 8, 0);
            m.fit(
                std::slice::from_ref(&img),
                &BaselineTrainConfig { epochs: 1, ..Default::default() },
            );
        });
    });
    group.finish();
}

criterion_group!(benches, bench_lhnn, bench_baselines);
criterion_main!(benches);
