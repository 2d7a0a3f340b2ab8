//! Implementations of the `lhnn` subcommands.

use std::error::Error;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use lh_graph::{ChannelMode, FeatureSet, LhGraph, LhGraphConfig, Targets};
use lhnn::{
    evaluate, train as train_model, AblationSpec, CongestionModel, HybridNet, HybridNetConfig,
    Lhnn, LhnnConfig, Sample, TrainConfig,
};
use lhnn_data::{ascii_map, write_pgm, DatasetConfig, PreparedDataset};
use lhnn_serve::obs::parse_prometheus;
use lhnn_serve::{EngineConfig, ModelRegistry, PredictRequest, ServeEngine};
use neurograd::Confusion;
use vlsi_netlist::synth::{generate as synth_generate, SynthConfig};
use vlsi_netlist::{bookshelf, netlist_stats, rent_exponent, Circuit, GcellGrid, Placement, Rect};
use vlsi_place::GlobalPlacer;
use vlsi_route::{route as route_circuit, CapacityConfig, Dir, RouterConfig};

use crate::args::{Args, BadNumber};

type CmdResult = Result<(), Box<dyn Error>>;

/// `lhnn generate`: synthesise + place + write Bookshelf.
pub(crate) fn generate(args: &Args) -> CmdResult {
    let cfg = SynthConfig {
        name: args.get("name", "design"),
        seed: args.num("seed", 1u64)?,
        n_cells: args.num("cells", 800usize)?,
        grid_nx: args.num("grid", 24u32)?,
        grid_ny: args.num("grid", 24u32)?,
        ..SynthConfig::default()
    };
    let out_dir = args.get("out", ".");
    let synth = synth_generate(&cfg)?;
    let grid = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &grid)?;
    bookshelf::write_design(Path::new(&out_dir), &synth.circuit, &placed.placement)?;
    println!(
        "generated `{}`: {} cells ({} terminals), {} nets, hpwl {:.0}",
        cfg.name,
        synth.circuit.num_cells(),
        synth.circuit.num_terminals(),
        synth.circuit.num_nets(),
        placed.hpwl
    );
    println!("wrote {out_dir}/{}.{{aux,nodes,nets,pl}}", cfg.name);
    Ok(())
}

fn load_design(args: &Args) -> Result<(Circuit, Placement), Box<dyn Error>> {
    let dir = args.opt("dir").ok_or("missing --dir")?.to_string();
    let design = args.opt("design").ok_or("missing --design")?;
    let (circuit, placement) = bookshelf::read_design(Path::new(&dir), design)?;
    circuit.validate()?;
    Ok((circuit, placement))
}

fn grid_for(args: &Args, circuit: &Circuit) -> Result<GcellGrid, BadNumber> {
    let g = args.num("grid", 24u32)?;
    let die = if circuit.die.area() > 0.0 { circuit.die } else { Rect::new(0.0, 0.0, 1.0, 1.0) };
    Ok(GcellGrid::new(die, g, g))
}

/// Builds the architecture `lhnn train --model` selects (`lhnn` |
/// `hybridnet`). (`predict` needs no selector: the checkpoint's kind tag
/// picks the architecture at load time.)
fn build_arch(arch: &str, seed: u64) -> Result<Box<dyn CongestionModel>, Box<dyn Error>> {
    match arch {
        "lhnn" => Ok(Box::new(Lhnn::new(LhnnConfig::default(), seed))),
        "hybridnet" => Ok(Box::new(HybridNet::new(HybridNetConfig::default(), seed))),
        other => Err(format!("unknown --model `{other}` (expected `lhnn` or `hybridnet`)").into()),
    }
}

/// `lhnn stats`: netlist statistics — or, with `--metrics FILE`, a read
/// back of a saved Prometheus exposition.
pub(crate) fn stats(args: &Args) -> CmdResult {
    if let Some(path) = args.opt("metrics") {
        return metrics_report(path);
    }
    let (circuit, _) = load_design(args)?;
    let s = netlist_stats(&circuit);
    println!("design: {}", circuit.name);
    println!("cells: {} ({} terminals)", circuit.num_cells(), circuit.num_terminals());
    println!(
        "nets: {} (mean degree {:.2}, max {})",
        circuit.num_nets(),
        s.mean_degree,
        s.max_degree
    );
    println!("2-pin fraction: {:.1}%", s.two_pin_fraction * 100.0);
    println!("mean nets per cell: {:.2}", s.mean_cell_fanout);
    match rent_exponent(&circuit, 7) {
        Some(p) => println!("rent exponent (sampled): {p:.2}"),
        None => println!("rent exponent: n/a (too few movable cells)"),
    }
    println!("degree histogram (degree: count):");
    for (d, n) in s.degree_histogram.iter().enumerate().filter(|(_, &n)| n > 0) {
        println!("  {d:>3}: {n}");
    }
    Ok(())
}

/// `lhnn route`: global routing + congestion report.
pub(crate) fn route(args: &Args) -> CmdResult {
    let (circuit, placement) = load_design(args)?;
    let grid = grid_for(args, &circuit)?;
    let tracks = args.num("tracks", 14.0f32)?;
    let rcfg = RouterConfig {
        capacity: CapacityConfig { h_tracks: tracks, v_tracks: tracks, ..Default::default() },
        ..Default::default()
    };
    let routed = route_circuit(&circuit, &placement, &grid, &[], &rcfg)?;
    println!("design: {} on {}x{} g-cells", circuit.name, grid.nx(), grid.ny());
    println!("wirelength: {} g-cell steps", routed.wirelength);
    println!(
        "overflowed edges: {} (total overflow {:.1})",
        routed.overflowed_edges, routed.total_overflow
    );
    println!(
        "congestion rate: {:.2}% (h {:.2}%, v {:.2}%)",
        routed.congestion_rate() * 100.0,
        routed.labels.congestion_rate(Dir::H) * 100.0,
        routed.labels.congestion_rate(Dir::V) * 100.0
    );
    if let Some(prefix) = args.opt("pgm") {
        let (nx, ny) = (grid.nx() as usize, grid.ny() as usize);
        write_pgm(&routed.labels.demand_h, nx, ny, Path::new(&format!("{prefix}_demand_h.pgm")))?;
        write_pgm(&routed.labels.demand_v, nx, ny, Path::new(&format!("{prefix}_demand_v.pgm")))?;
        println!("wrote {prefix}_demand_h.pgm / {prefix}_demand_v.pgm");
    }
    Ok(())
}

/// `lhnn train`: train the selected architecture on the synthetic suite
/// and save the model.
pub(crate) fn train(args: &Args) -> CmdResult {
    let scale = args.num("scale", 0.5f32)?;
    let epochs = args.num("epochs", 60usize)?;
    let seed = args.num("seed", 0u64)?;
    let arch = args.get("model", "lhnn");
    let out = args.get("out", "model.lhnn");
    // --threads 0 (the default) inherits the process-wide compute pool;
    // batch defaults to 1 (the paper's per-sample stepping) so --threads
    // alone never changes the optimisation trajectory; --batch opts into
    // gradient accumulation, which the threads then shard.
    let threads = args.num("threads", 0usize)?;
    let batch_size = args.num("batch", 1usize)?.max(1);
    eprintln!("building training suite (scale {scale})...");
    let ds = DatasetConfig { scale, ..Default::default() };
    let prep = PreparedDataset::build(&ds)?;
    let train_set = prep.train_samples();
    let test_set = prep.test_samples();
    let mut model = build_arch(&arch, seed)?;
    if threads > 0 {
        neurograd::pool::configure_threads(threads);
    }
    eprintln!(
        "training {arch} ({} parameters) for {epochs} epochs on {} designs \
         ({} data-parallel threads, batch {batch_size})...",
        model.num_parameters(),
        train_set.len(),
        threads.max(1)
    );
    let cfg =
        TrainConfig { epochs, seed, threads: threads.max(1), batch_size, ..Default::default() };
    let history = train_model(model.as_mut(), &train_set, &AblationSpec::full(), &cfg);
    let eval = evaluate(model.as_ref(), &test_set, &AblationSpec::full());
    println!(
        "final loss {:.4}; held-out F1 {:.3}, accuracy {:.3}",
        history.epoch_loss.last().copied().unwrap_or(f32::NAN),
        eval.f1,
        eval.accuracy
    );
    model.save_to(&mut File::create(&out)?)?;
    println!("model written to {out} (kind {arch})");
    Ok(())
}

/// `lhnn predict`: predict a congestion map for a design through the
/// serving engine (registry + prediction cache).
pub(crate) fn predict(args: &Args) -> CmdResult {
    let model_path = args.opt("model").ok_or("missing --model")?;
    let threshold = args.num("threshold", 0.5f32)?;
    // The one-shot CLI rides the same path a long-running service uses: a
    // registry entry, an engine (the forward runs on this thread) and a
    // per-request threshold. The checkpoint loads first, so a missing or
    // refused model fails before any design is read.
    let registry = Arc::new(ModelRegistry::new());
    registry.load_file("default", model_path)?;
    let (circuit, placement) = load_design(args)?;
    let grid = grid_for(args, &circuit)?;
    let graph = LhGraph::build(&circuit, &placement, &grid, &LhGraphConfig::default())?;
    let (gd, nd) = FeatureSet::default_divisors();
    let features =
        Arc::new(FeatureSet::build(&graph, &circuit, &placement, &grid)?.scaled_fixed(&gd, &nd));
    let ops = lhnn::GraphOps::from_graph(&graph, &AblationSpec::full());

    let engine = ServeEngine::new(Arc::clone(&registry), EngineConfig::default());
    let handle = engine.handle();
    let request = PredictRequest::new("default", Arc::new(ops), Arc::clone(&features))
        .with_threshold(threshold);
    let reply = handle.predict(&request)?;
    let pred = &reply.prediction;
    let prob: Vec<f32> = (0..pred.cls_prob.rows()).map(|r| pred.cls_prob[(r, 0)]).collect();
    println!("design: {} on {}x{} g-cells", circuit.name, grid.nx(), grid.ny());
    println!(
        "predicted congestion rate: {:.2}% (threshold {threshold})",
        reply.congested_fraction * 100.0
    );
    println!("{}", ascii_map(&prob, grid.nx() as usize, grid.ny() as usize));
    if let Some(path) = args.opt("pgm") {
        write_pgm(&prob, grid.nx() as usize, grid.ny() as usize, Path::new(path))?;
        println!("probability map written to {path}");
    }
    if args.has("compare") {
        let tracks = args.num("tracks", 14.0f32)?;
        let rcfg = RouterConfig {
            capacity: CapacityConfig { h_tracks: tracks, v_tracks: tracks, ..Default::default() },
            ..Default::default()
        };
        let routed = route_circuit(&circuit, &placement, &grid, &[], &rcfg)?;
        let targets = Targets::from_labels(&routed.labels);
        let label = targets.congestion_channels(ChannelMode::Uni);
        let conf = Confusion::from_scores(&prob, label.as_slice(), threshold);
        println!(
            "vs global router: F1 {:.3}, accuracy {:.3} (router congestion rate {:.2}%)",
            conf.f1(),
            conf.accuracy(),
            routed.congestion_rate() * 100.0
        );
        // keep the sample around so the types stay exercised
        let _ =
            Sample { name: circuit.name.clone(), graph, features: (*features).clone(), targets };
    }
    engine.shutdown();
    Ok(())
}

/// `lhnn stats --metrics FILE`: read back a Prometheus-style exposition
/// (e.g. a saved `ServeHandle::metrics_snapshot().to_prometheus()`) and
/// print every series.
fn metrics_report(path: &str) -> CmdResult {
    let text = std::fs::read_to_string(path)?;
    let series = parse_prometheus(&text);
    if series.is_empty() {
        return Err(format!("{path} contains no readable metric series").into());
    }
    println!("{path}: {} series", series.len());
    for s in &series {
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            let body: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            format!("{{{}}}", body.join(","))
        };
        println!("  {}{labels} = {}", s.name, s.value);
    }
    Ok(())
}
