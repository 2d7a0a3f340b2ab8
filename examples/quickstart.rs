//! Quickstart: the full LHNN pipeline on one small synthetic design.
//!
//! Generates a circuit, places it, routes it for ground-truth congestion
//! labels, builds the LH-graph, trains LHNN briefly and prints test
//! metrics plus an ASCII congestion map.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lh_graph::{ChannelMode, FeatureSet, LhGraph, LhGraphConfig, Targets};
use lhnn::{
    evaluate, predict_map, train, AblationSpec, CongestionModel, Lhnn, LhnnConfig, Sample,
    TrainConfig,
};
use lhnn_data::ascii_map;
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_place::GlobalPlacer;
use vlsi_route::{route, RouterConfig};

fn build_sample(seed: u64) -> Result<Sample, Box<dyn std::error::Error>> {
    // 1. A synthetic circuit: 600 cells on a 20×20 G-cell grid.
    let cfg = SynthConfig {
        name: format!("quickstart{seed}"),
        seed,
        n_cells: 600,
        grid_nx: 20,
        grid_ny: 20,
        ..SynthConfig::default()
    };
    let synth = generate(&cfg)?;
    let grid = cfg.grid();

    // 2. Analytic placement (quadratic + spreading).
    let placed = GlobalPlacer::default().place_synth(&synth, &grid)?;
    println!(
        "[{}] placed {} cells, hpwl = {:.0}",
        cfg.name,
        synth.circuit.num_cells(),
        placed.hpwl
    );

    // 3. Global routing → demand + congestion labels.
    let routed = route(
        &synth.circuit,
        &placed.placement,
        &grid,
        &synth.macro_rects,
        &RouterConfig::default(),
    )?;
    println!(
        "[{}] routed, wirelength = {}, congestion rate = {:.1}%",
        cfg.name,
        routed.wirelength,
        routed.congestion_rate() * 100.0
    );

    // 4. LH-graph + features + targets.
    let graph =
        LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default())?;
    let (gd, nd) = FeatureSet::default_divisors();
    let features =
        FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid)?.scaled_fixed(&gd, &nd);
    println!(
        "[{}] lh-graph: {} g-cells, {} g-nets ({} filtered)",
        cfg.name,
        graph.num_gcells(),
        graph.num_gnets(),
        graph.dropped_gnets()
    );
    Ok(Sample { name: cfg.name, graph, features, targets: Targets::from_labels(&routed.labels) })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three designs to train on, one held out.
    let train_set: Vec<Sample> = (1..=3).map(build_sample).collect::<Result<_, _>>()?;
    let test_sample = build_sample(9)?;

    // 5. Train LHNN (shortened protocol for the example).
    let mut model =
        Lhnn::new(LhnnConfig { channel_mode: ChannelMode::Uni, ..Default::default() }, 0);
    println!("\ntraining LHNN ({} parameters) for 40 epochs...", model.num_parameters());
    let cfg = TrainConfig { epochs: 40, ..Default::default() };
    let history = train(&mut model, &train_set, &AblationSpec::full(), &cfg);
    println!(
        "loss: {:.4} -> {:.4}",
        history.epoch_loss.first().unwrap_or(&0.0),
        history.epoch_loss.last().unwrap_or(&0.0)
    );

    // 6. Evaluate on the held-out design.
    let eval = evaluate(&model, std::slice::from_ref(&test_sample), &AblationSpec::full());
    println!("\nheld-out design: F1 = {:.3}, accuracy = {:.3}", eval.f1, eval.accuracy);

    // 7. Show label vs prediction.
    let (prob, label) = predict_map(&model, &test_sample, &AblationSpec::full());
    let nx = test_sample.graph.nx();
    let ny = test_sample.graph.ny();
    println!("\nground-truth congestion:");
    println!("{}", ascii_map(&label, nx, ny));
    println!("predicted congestion probability:");
    println!("{}", ascii_map(&prob, nx, ny));
    Ok(())
}
