//! `lhnn-suite` — facade over the LHNN reproduction workspace.
//!
//! Re-exports every crate of the reproduction of *"LHNN: Lattice
//! Hypergraph Neural Network for VLSI Congestion Prediction"* (Wang et
//! al., DAC 2022) so downstream users can depend on a single crate:
//!
//! * [`netlist`] — circuit model, Bookshelf I/O, synthetic benchmarks,
//! * [`place`] — analytic global placement (DREAMPlace stand-in),
//! * [`route`] — global routing and congestion labels (NCTU-GR stand-in),
//! * [`graph`] — the LH-graph formulation (paper §3),
//! * [`nn`] — the `neurograd` deep-learning substrate,
//! * [`model`] — the LHNN architecture and training (paper §4),
//! * [`baselines`] — MLP / U-Net / Pix2Pix comparators (paper §5),
//! * [`data`] — dataset assembly and the experiment harness,
//! * [`serve`] — the inference engine (model registry, one LRU
//!   prediction cache, placement-loop sessions; each forward runs on its
//!   caller's thread),
//! * [`obs`] — the zero-dependency metrics registry, stage tracing and
//!   flight recorder threaded through the serving stack.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`; the one-paragraph version:
//!
//! ```
//! use lhnn_suite::netlist::synth::{generate, SynthConfig};
//! use lhnn_suite::place::GlobalPlacer;
//! use lhnn_suite::route::{route, RouterConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SynthConfig { n_cells: 150, grid_nx: 8, grid_ny: 8, ..SynthConfig::default() };
//! let synth = generate(&cfg)?;
//! let grid = cfg.grid();
//! let placed = GlobalPlacer::default().place_synth(&synth, &grid)?;
//! let routed = route(&synth.circuit, &placed.placement, &grid,
//!                    &synth.macro_rects, &RouterConfig::default())?;
//! println!("congestion rate: {:.1}%", routed.congestion_rate() * 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use lh_graph as graph;
pub use lhnn as model;
pub use lhnn_baselines as baselines;
pub use lhnn_data as data;
pub use lhnn_obs as obs;
pub use lhnn_serve as serve;
pub use neurograd as nn;
pub use vlsi_netlist as netlist;
pub use vlsi_place as place;
pub use vlsi_route as route;
