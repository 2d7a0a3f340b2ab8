//! `vlsi-place` — analytic global placement for the LHNN reproduction.
//!
//! The paper generates its training placements with DREAMPlace; this crate
//! is the stand-in. It implements the classic analytic
//! recipe:
//!
//! 1. [`quadratic`] — clique-model quadratic wirelength minimisation with
//!    fixed terminals, solved per axis by conjugate gradient,
//! 2. [`spreading`] — density-driven diffusion that relieves overlap while
//!    retaining realistic hotspots,
//! 3. [`density`] — the density maps and overflow metrics used by both.
//!
//! [`GlobalPlacer`] chains the steps.
//!
//! # Example
//!
//! ```
//! use vlsi_netlist::synth::{generate, SynthConfig};
//! use vlsi_place::GlobalPlacer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SynthConfig { n_cells: 120, grid_nx: 8, grid_ny: 8, ..SynthConfig::default() };
//! let synth = generate(&cfg)?;
//! let result = GlobalPlacer::default().place_synth(&synth, &cfg.grid())?;
//! assert!(result.hpwl > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod density;
pub mod error;
pub mod placer;
pub mod quadratic;
pub mod spreading;

pub use error::{PlaceError, Result};
pub use placer::{GlobalPlacer, GlobalPlacerConfig};
pub use spreading::{spread, SpreadConfig};
