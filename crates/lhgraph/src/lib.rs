//! `lh-graph` — the lattice hypergraph formulation of VLSI circuits
//! (section 3 of the LHNN paper).
//!
//! * [`LhGraph`] — the heterogeneous graph `G = (V_c, V_n, A, H)` with its
//!   pre-built aggregation operators (`H`, `D⁻¹H`, `B⁻¹Hᵀ`, `P⁻¹A`),
//! * [`FeatureSet`] — the 4-channel G-net and G-cell features of §3.1,
//! * [`features`] — the crafted-feature recovery of §3.2 (net density is
//!   recovered *exactly* by one-step message passing; pin density and RUDY
//!   in expectation),
//! * [`Targets`] — demand/congestion supervision extracted from router
//!   labels, with the paper's uni-/duo-channel selection.
//!
//! # Example
//!
//! ```
//! use vlsi_netlist::synth::{generate, SynthConfig};
//! use vlsi_place::GlobalPlacer;
//! use lh_graph::{FeatureSet, LhGraph, LhGraphConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SynthConfig { n_cells: 120, grid_nx: 8, grid_ny: 8, ..SynthConfig::default() };
//! let synth = generate(&cfg)?;
//! let grid = cfg.grid();
//! let placed = GlobalPlacer::default().place_synth(&synth, &grid)?;
//! let graph = LhGraph::build(&synth.circuit, &placed.placement, &grid,
//!                            &LhGraphConfig::default())?;
//! let feats = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid)?;
//! assert_eq!(feats.gcell.rows(), graph.num_gcells());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod features;
pub mod graph;
pub mod halo;
pub mod targets;

pub use error::{LhGraphError, Result};
pub use features::{
    gcell_channel, gnet_channel, recover_net_density, recover_pin_density, recover_rudy, FeatureSet,
};
pub use graph::{DeltaOutcome, LhGraph, LhGraphConfig, StructuralReason};
pub use targets::{ChannelMode, Targets};
