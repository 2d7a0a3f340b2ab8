//! `lhnn` — command-line interface for the LHNN congestion-prediction
//! pipeline.
//!
//! ```text
//! lhnn generate --cells 800 --grid 24 --seed 7 --name mydesign --out ./designs
//! lhnn stats    --dir ./designs --design mydesign
//! lhnn route    --dir ./designs --design mydesign --grid 24 [--tracks 14] [--pgm demand]
//! lhnn train    --scale 0.5 --epochs 60 --out model.lhnn
//! lhnn predict  --model model.lhnn --dir ./designs --design mydesign --grid 24 [--compare]
//! ```

mod args;
mod commands;

use args::Args;

const USAGE: &str = "\
lhnn — lattice hypergraph neural network for VLSI congestion prediction

USAGE:
  lhnn generate --cells N --grid G [--seed S] [--name NAME] [--out DIR]
      synthesise a circuit, place it, write Bookshelf files
  lhnn stats --dir DIR --design NAME
      netlist statistics (degree histogram, Rent exponent)
  lhnn stats --metrics FILE
      read back a saved Prometheus exposition (an engine metrics
      snapshot) and print every series
  lhnn route --dir DIR --design NAME --grid G [--tracks T] [--pgm PREFIX]
      global-route a placed Bookshelf design, print congestion stats
  lhnn train [--model lhnn|hybridnet] [--scale F] [--epochs N] [--seed S]
             [--threads N] [--batch B] --out MODEL
      train the selected architecture (default lhnn) on the synthetic
      suite, save the model. --batch B (default 1 = the paper's per-sample
      stepping) accumulates gradients over B samples per optimiser step;
      --threads N shards each batch across N workers — for a given --batch
      the loss trajectory is bitwise identical at any thread count
  lhnn predict --model MODEL_FILE --dir DIR --design NAME --grid G
               [--threshold T] [--compare] [--pgm FILE]
      predict a congestion map for a placed design (served through the
      inference engine on this thread; the architecture is read from the
      checkpoint's kind tag; --threshold sets the congestion cutoff,
      default 0.5)

A numeric flag whose value does not parse is an error (exit 1).
";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw);
    let result = match args.command.as_str() {
        "generate" => commands::generate(&args),
        "stats" => commands::stats(&args),
        "route" => commands::route(&args),
        "train" => commands::train(&args),
        "predict" => commands::predict(&args),
        _ => {
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
