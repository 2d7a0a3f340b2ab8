//! `vlsi-route` — grid global routing and congestion-label generation.
//!
//! The paper obtains ground-truth horizontal/vertical routing-demand maps
//! from NCTU-GR 2.0 and thresholds them against capacity into congestion
//! masks. This crate is the stand-in:
//!
//! * [`maps`] — the edge-based routing-resource model and per-G-cell
//!   label maps,
//! * [`capacity`] — track capacities with macro blockages,
//! * [`decompose`] — MST net decomposition into 2-pin segments,
//! * [`pattern`] / [`maze`] — L/Z pattern routing and A* maze fallback,
//! * [`router`] — the PathFinder-style negotiation loop,
//! * [`rudy`] — the RUDY fast estimator (baseline feature).
//!
//! # Example
//!
//! ```
//! use vlsi_netlist::synth::{generate, SynthConfig};
//! use vlsi_place::GlobalPlacer;
//! use vlsi_route::{route, RouterConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SynthConfig { n_cells: 150, grid_nx: 8, grid_ny: 8, ..SynthConfig::default() };
//! let synth = generate(&cfg)?;
//! let grid = cfg.grid();
//! let placed = GlobalPlacer::default().place_synth(&synth, &grid)?;
//! let routed = route(&synth.circuit, &placed.placement, &grid,
//!                    &synth.macro_rects, &RouterConfig::default())?;
//! assert!(routed.wirelength > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod capacity;
pub mod cost;
pub mod decompose;
pub mod error;
pub mod maps;
pub mod maze;
pub mod pattern;
pub mod router;
pub mod rudy;

pub use capacity::CapacityConfig;
pub use cost::CostModel;
pub use decompose::{mst_segments, Segment};
pub use error::{Result, RouteError};
pub use maps::{Dir, EdgeField, LabelMaps};
pub use pattern::candidate_paths;
pub use router::{route, RouteResult, RouterConfig};
pub use rudy::rudy_maps;
