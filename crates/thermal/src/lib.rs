//! A compact transient thermal simulator in the style of 3D-ICE.
//!
//! The EigenMaps paper builds its design-time dataset by simulating an
//! UltraSPARC T1 with 3D-ICE (Sridhar et al., ICCAD 2010), a compact
//! transient thermal model validated against CFD. 3D-ICE itself is not a
//! Rust library and its inputs are not redistributable, so this crate
//! re-implements the same modelling family from scratch:
//!
//! * a 3-D finite-volume RC network over a layered stack
//!   ([`ThermalModel`]): silicon die, TIM, copper spreader, heat-sink base,
//!   with adiabatic side walls and a convective top boundary;
//! * steady-state solves (`G·T = P`) and unconditionally-stable
//!   backward-Euler transient stepping ([`TransientSim`]), which is what
//!   generates the thermal-map snapshots consumed by the PCA stage. Both
//!   solve in the 2-D DCT basis. Each layer is one material, the side
//!   walls are adiabatic and the vertical and sink conductances are the
//!   same for every cell, so the orthonormal DCT-II of the grid
//!   diagonalizes every layer's lateral conduction, and a solve splits
//!   into one tridiagonal system per mode across the layers. Per-cell
//!   materials or lateral convection would couple the modes and break
//!   that split;
//! * a liquid-cooled variant ([`LiquidCooledStack`]) whose coolant
//!   advection makes the system nonsymmetric; it is solved with BiCGSTAB.
//!
//! Cell indexing follows the paper's column-stacking convention
//! (`i = row + col·H`), so the die-layer slice of a state vector *is* a
//! vectorized thermal map.
//!
//! # Examples
//!
//! ```
//! use eigenmaps_thermal::{GridSpec, ThermalModel, TransientSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ThermalModel::with_default_stack(GridSpec::new(8, 10, 1.0e-3, 1.0e-3))?;
//! let mut sim = TransientSim::new(model, 1.0e-3)?;
//!
//! // A hot column of cells (e.g. a busy core) for 50 ms...
//! let mut power = vec![0.01; 80];
//! for r in 0..8 {
//!     power[r + 2 * 8] = 0.25;
//! }
//! sim.run(&power, 50)?;
//! let map = sim.die_temperatures();
//! // ...heats the powered column above the rest of the die.
//! assert!(map[2 * 8] > map[7 * 8]);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod liquid;
pub mod material;
pub mod model;
mod spectral;
pub mod transient;

pub use error::{Result, ThermalError};
pub use liquid::{Coolant, LiquidCooledStack, LiquidTransientSim};
pub use material::{Layer, Material};
pub use model::{Environment, GridSpec, ThermalModel};
pub use transient::TransientSim;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::error::{Result, ThermalError};
    pub use crate::liquid::{Coolant, LiquidCooledStack, LiquidTransientSim};
    pub use crate::material::{Layer, Material};
    pub use crate::model::{Environment, GridSpec, ThermalModel};
    pub use crate::transient::TransientSim;
}
