//! `vlsi-netlist` — circuit data model, Bookshelf I/O and synthetic
//! benchmark generation for the LHNN reproduction.
//!
//! The crate provides:
//!
//! * [`Circuit`] / [`Placement`] — cells, pins, nets, die outline and
//!   placed positions (the inputs to congestion prediction),
//! * [`GcellGrid`] — the G-cell tessellation of the die (paper Figure 1a),
//! * [`bookshelf`] — read/write the ISPD/DAC contest interchange format,
//! * [`synth`] — a generator of Superblue-like synthetic designs standing
//!   in for the contest benchmarks (its module doc gives the substitution
//!   argument).
//!
//! # Example
//!
//! ```
//! use vlsi_netlist::synth::{generate, SynthConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SynthConfig { n_cells: 100, ..SynthConfig::default() };
//! let design = generate(&cfg)?;
//! assert!(design.circuit.num_nets() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bookshelf;
pub mod circuit;
pub mod delta;
pub mod error;
pub mod geometry;
pub mod grid;
pub mod stats;
pub mod synth;

pub use circuit::{Cell, CellId, CellKind, Circuit, Net, NetId, Pin, Placement};
pub use delta::{rebin_delta_in_place, span_cells, DirtyReport, GcellSpan, PlacementDelta};
pub use error::{NetlistError, Result};
pub use geometry::{Point, Rect};
pub use grid::{GcellCoord, GcellGrid};
pub use stats::{netlist_stats, rent_exponent};
pub use synth::{generate, superblue_suite, SynthCircuit, SynthConfig};
