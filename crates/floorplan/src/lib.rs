//! UltraSPARC T1 floorplan modelling, workload synthesis and design-time
//! dataset generation for the EigenMaps reproduction.
//!
//! The paper's evaluation needs three inputs this crate provides:
//!
//! * a **floorplan** of the 8-core UltraSPARC T1 ([`Floorplan::ultrasparc_t1`],
//!   Fig. 1 of the paper) with per-block power envelopes scaled to the
//!   chip's ~63 W budget;
//! * **power traces** for "different scenarios/workload"
//!   ([`TraceGenerator`], [`Scenario`]) — the published traces of Leon et
//!   al. are proprietary, so statistically comparable Markov-modulated
//!   traces are synthesized (see DESIGN.md, substitutions);
//! * the **design-time dataset** of `T = 2652` thermal maps on a
//!   `56 × 60` grid ([`DatasetBuilder`]), produced by replaying the traces
//!   through the compact transient thermal simulator of
//!   [`eigenmaps_thermal`].
//!
//! # Examples
//!
//! ```
//! use eigenmaps_floorplan::{DatasetBuilder, BlockKind};
//! use eigenmaps_core::Mask;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = DatasetBuilder::ultrasparc_t1()
//!     .grid(14, 15)     // coarse smoke-test grid
//!     .snapshots(40)
//!     .seed(1)
//!     .build()?;
//!
//! // The Fig. 6 constraint: no sensors in the L2 cache banks.
//! let fp = dataset.floorplan();
//! let mask = Mask::all_allowed(14, 15)
//!     .forbid_rects(&fp.rects_of_kind(BlockKind::L2Cache));
//! assert!(mask.allowed_count() < 14 * 15);
//! # Ok(())
//! # }
//! ```

pub mod block;
pub mod dataset;
pub mod error;
pub mod power;
pub mod ptrace;
pub mod workload;

pub use block::{Block, BlockKind, Floorplan};
pub use dataset::{DatasetBuilder, ThermalDataset};
pub use error::{FloorplanError, Result};
pub use power::PowerRasterizer;
pub use ptrace::{from_ptrace_string, load_ptrace, save_ptrace, to_ptrace_string};
pub use workload::{PowerTrace, Scenario, TraceGenerator};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::block::{Block, BlockKind, Floorplan};
    pub use crate::dataset::{DatasetBuilder, ThermalDataset};
    pub use crate::error::{FloorplanError, Result};
    pub use crate::power::PowerRasterizer;
    pub use crate::ptrace::{from_ptrace_string, load_ptrace, save_ptrace, to_ptrace_string};
    pub use crate::workload::{PowerTrace, Scenario, TraceGenerator};
}
