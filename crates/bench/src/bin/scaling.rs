//! Extension experiment beyond the paper: inference cost vs circuit size.
//!
//! The practical promise of learned congestion prediction is replacing the
//! global router inside the placement loop. This harness measures, per
//! grid size: router label time, LHNN inference time (single-threaded and
//! through the `lhnn-serve` worker pool) and U-Net inference time — the
//! speed-up a placer would see, and how it scales across cores.
//!
//! ```text
//! cargo run --release -p lhnn-bench --bin scaling [-- --threads N]
//! ```

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lh_graph::{ChannelMode, FeatureSet, LhGraph, LhGraphConfig, Targets};
use lhnn::{train, AblationSpec, CongestionModel, GraphOps, Lhnn, LhnnConfig, Sample, TrainConfig};
use lhnn_baselines::{ImageModel, ImageSample, UNetModel};
use lhnn_bench::HarnessArgs;
use lhnn_data::TextTable;
use lhnn_serve::{EngineConfig, ModelRegistry, PredictRequest, ServeEngine};
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_place::GlobalPlacer;
use vlsi_route::{route, rudy_maps, RouterConfig};

fn time_ms(mut f: impl FnMut()) -> f64 {
    // warm-up + best of 3
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// Wall-clock (ms) for a burst of distinct same-size requests through an
/// engine with `workers` threads; the per-request mean shows pool scaling.
fn serve_burst_ms(ops: &Arc<GraphOps>, variants: &[Arc<FeatureSet>], workers: usize) -> f64 {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Lhnn::new(LhnnConfig::default(), 0)).expect("register");
    // cache off: we are measuring forwards, not lookups
    let engine = ServeEngine::new(
        registry,
        EngineConfig { workers, cache_capacity: 0, ..EngineConfig::default() },
    );
    let handle = engine.handle();
    let requests: Vec<PredictRequest> =
        variants.iter().map(|f| PredictRequest::new("m", Arc::clone(ops), Arc::clone(f))).collect();
    let total = time_ms(|| {
        for r in handle.predict_batch(&requests) {
            r.expect("serve");
        }
    });
    engine.shutdown();
    total / variants.len() as f64
}

fn main() {
    let args = HarnessArgs::from_env();
    // extra flag: worker-pool width for the parallel columns
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let threads = raw
        .windows(2)
        .find(|w| w[0] == "--threads")
        .and_then(|w| w[1].parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get).min(4)
        })
        .max(1);
    // Pin the intra-op pool to one lane so the worker-pool columns keep
    // measuring request-level parallelism; the epoch columns re-widen it
    // explicitly. Kernel results are bitwise identical either way.
    neurograd::pool::configure_threads(1);
    let mut table = TextTable::new(&[
        "G-cells",
        "#cells",
        "route (ms)",
        "rudy (ms)",
        "lhnn direct (ms)",
        "lhnn 1T (ms)",
        &format!("lhnn {threads}T (ms)"),
        "pool speedup",
        "epoch 1T (ms)",
        &format!("epoch {threads}T (ms)"),
        "epoch speedup",
        "unet (ms)",
        "router/lhnn",
    ]);
    for grid in [16u32, 24, 32, 48, 64] {
        let n_cells = (grid * grid) as usize;
        let cfg = SynthConfig {
            name: format!("scale{grid}"),
            n_cells,
            grid_nx: grid,
            grid_ny: grid,
            ..SynthConfig::default()
        };
        let synth = generate(&cfg).expect("generate");
        let g = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &g).expect("place");
        let route_ms = time_ms(|| {
            route(
                &synth.circuit,
                &placed.placement,
                &g,
                &synth.macro_rects,
                &RouterConfig::default(),
            )
            .expect("route");
        });
        let rudy_ms = time_ms(|| {
            rudy_maps(&synth.circuit, &placed.placement, &g);
        });
        let routed = route(
            &synth.circuit,
            &placed.placement,
            &g,
            &synth.macro_rects,
            &RouterConfig::default(),
        )
        .expect("route");
        let graph =
            LhGraph::build(&synth.circuit, &placed.placement, &g, &LhGraphConfig::default())
                .expect("graph");
        let (gd, nd) = FeatureSet::default_divisors();
        let features = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &g)
            .expect("features")
            .scaled_fixed(&gd, &nd);
        let sample = Sample {
            name: cfg.name.clone(),
            graph,
            features,
            targets: Targets::from_labels(&routed.labels),
        };
        let ops = Arc::new(GraphOps::from_graph(&sample.graph, &AblationSpec::full()));
        let lhnn = Lhnn::new(LhnnConfig::default(), 0);
        let lhnn_ms = time_ms(|| {
            lhnn.predict(&ops, &sample.features);
        });
        // Distinct same-shape feature variants (tiny rescale changes the
        // fingerprint, not the cost) so neither the cache nor single-flight
        // collapses the burst; 2 per worker keeps every thread busy.
        let variants: Vec<Arc<FeatureSet>> = (0..threads * 2)
            .map(|i| {
                let eps = 1.0 + i as f32 * 1e-6;
                Arc::new(FeatureSet {
                    gnet: sample.features.gnet.map(|v| v * eps),
                    gcell: sample.features.gcell.map(|v| v * eps),
                })
            })
            .collect();
        let serve_1t_ms = serve_burst_ms(&ops, &variants, 1);
        let serve_nt_ms = serve_burst_ms(&ops, &variants, threads);
        let speedup = serve_1t_ms / serve_nt_ms.max(1e-9);
        // One training epoch (forward + backward + Adam step) on this
        // design, intra-op serial vs the pooled kernels.
        let epoch_samples = [sample.clone()];
        let epoch_cfg = TrainConfig { epochs: 1, ..Default::default() };
        let run_epoch = || {
            let mut model = Lhnn::new(LhnnConfig::default(), 0);
            train(&mut model, &epoch_samples, &AblationSpec::full(), &epoch_cfg);
        };
        let epoch_1t_ms = time_ms(run_epoch);
        neurograd::pool::configure_threads(threads);
        let epoch_nt_ms = time_ms(run_epoch);
        neurograd::pool::configure_threads(1);
        let epoch_speedup = epoch_1t_ms / epoch_nt_ms.max(1e-9);
        let unet = UNetModel::new(4, 1, 8, 0);
        let img = ImageSample::from_node_major(
            cfg.name.clone(),
            grid as usize,
            grid as usize,
            &sample.features.gcell,
            &sample.targets.congestion_channels(ChannelMode::Uni),
        );
        let unet_ms = time_ms(|| {
            unet.predict(&img);
        });
        println!(
            "grid {grid}x{grid}: route {route_ms:.1} ms, rudy {rudy_ms:.2} ms, lhnn {lhnn_ms:.1} ms (pool {serve_1t_ms:.1} -> {serve_nt_ms:.1} ms/req at {threads}T, {speedup:.2}x; epoch {epoch_1t_ms:.1} -> {epoch_nt_ms:.1} ms, {epoch_speedup:.2}x), unet {unet_ms:.1} ms"
        );
        table.add_row(vec![
            (grid * grid).to_string(),
            n_cells.to_string(),
            format!("{route_ms:.1}"),
            format!("{rudy_ms:.2}"),
            format!("{lhnn_ms:.1}"),
            format!("{serve_1t_ms:.1}"),
            format!("{serve_nt_ms:.1}"),
            format!("{speedup:.2}x"),
            format!("{epoch_1t_ms:.1}"),
            format!("{epoch_nt_ms:.1}"),
            format!("{epoch_speedup:.2}x"),
            format!("{unet_ms:.1}"),
            format!("{:.1}x", route_ms / lhnn_ms.max(1e-9)),
        ]);
    }
    println!("\nInference scaling (single thread vs {threads}-worker pool):");
    println!("{}", table.render());
    table.write_csv(&Path::new(&args.out_dir).join("scaling.csv")).expect("write csv");
}
