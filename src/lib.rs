//! # EigenMaps
//!
//! A reproduction of *“EigenMaps: Algorithms for Optimal Thermal Maps
//! Extraction and Sensor Placement on Multicore Processors”* (Ranieri,
//! Vincenzi, Chebira, Atienza, Vetterli — DAC 2012), grown into a
//! production-shaped serving stack.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`linalg`] — dense and sparse linear algebra kernels (QR, SVD,
//!   symmetric eigensolvers, randomized PCA, DCT bases, CG/BiCGSTAB).
//! * [`thermal`] — a 3D-ICE-style compact transient thermal simulator.
//! * [`floorplan`] — the UltraSPARC T1 floorplan model and workload/power
//!   trace generators used to produce the design-time thermal dataset.
//! * [`core`] — the paper's algorithms behind the [`core::Pipeline`] /
//!   [`core::Deployment`] lifecycle API: EigenMaps basis extraction,
//!   least-squares thermal map reconstruction, greedy sensor allocation,
//!   and the k-LSE / energy-center baselines — with the hot synthesis
//!   loop in [`core::kernel`], a runtime-dispatched SIMD kernel
//!   (AVX2+FMA where the CPU has it, a portable 4-wide path elsewhere,
//!   and a scalar oracle every backend is tested against).
//! * [`serve`] — the serving runtime on top of `Deployment`: a versioned
//!   [`serve::DeploymentRegistry`] with hot swap, the sharded
//!   multi-threaded [`serve::ShardedExecutor`], the micro-batching
//!   [`serve::Server`] front end, streaming [`serve::TrackerSession`]s
//!   (each step run to completion on the server's batcher thread, not on
//!   the worker pool) and serving metrics.
//! * [`net`] — the network edge: the versioned `EMWIRE2` binary wire
//!   protocol, the nonblocking TCP front door [`net::NetServer`] (plain
//!   `std::net`, no async runtime) bridging sockets onto
//!   [`serve::Server`], and the blocking [`net::Client`]. Batches and
//!   streaming sessions served over TCP stay bitwise-identical to the
//!   in-process path, and a session snapshot resumes across a server
//!   restart over the wire.
//!
//! ## The lifecycle: design time → artifact → serving fleet
//!
//! The workflow is a three-stage contract:
//!
//! 1. **Design time** — [`core::Pipeline`] turns an ensemble of simulated
//!    thermal maps into a [`core::Deployment`]: fitted basis, sensor
//!    placement and prefactored solver in one artifact.
//! 2. **Artifact** — `Deployment::to_bytes`/`save` serializes it to the
//!    versioned `EMDEPLOY` format (shared byte codec in
//!    [`core::codec`]), shipped to every runtime monitor.
//! 3. **Serving fleet** — [`serve::DeploymentRegistry`] hosts the
//!    artifacts by name and version; a [`serve::Server`] micro-batches
//!    incoming requests and fans each batch out across the
//!    [`serve::ShardedExecutor`] worker pool, where every worker runs the
//!    deployment's dispatched SIMD synthesis kernel
//!    ([`core::Deployment::kernel_kind`]) — bitwise-identical to the
//!    sequential path no matter the shard count.
//!
//! ```
//! use std::sync::Arc;
//! use eigenmaps::core::prelude::*;
//! use eigenmaps::floorplan::prelude::*;
//! use eigenmaps::serve::{DeploymentRegistry, ServeRequest, Server};
//!
//! # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
//! // 1. Design time: simulate a small dataset and design the deployment.
//! let dataset = DatasetBuilder::ultrasparc_t1()
//!     .grid(14, 15)
//!     .snapshots(120)
//!     .settle_steps(30)
//!     .seed(7)
//!     .build()?;
//! let deployment = Pipeline::new(dataset.ensemble())
//!     .basis(BasisSpec::Eigen { k: 8 })
//!     .allocator(AllocatorSpec::Greedy(GreedyAllocator::new()))
//!     .sensors(8)
//!     .design()?;
//!
//! // 2. Artifact: serialize for the fleet (or `deployment.save(path)`).
//! let artifact = deployment.to_bytes();
//!
//! // 3. Serving fleet: registry + sharded, micro-batching server.
//! let registry = Arc::new(DeploymentRegistry::new());
//! registry.publish_bytes("t1-chip", &artifact)?;
//! let server = Server::new(Arc::clone(&registry), 4);
//!
//! let frames: Vec<Vec<f64>> = (0..32)
//!     .map(|t| deployment.sensors().sample(&dataset.ensemble().map(t)))
//!     .collect();
//! let maps = server.submit(ServeRequest::new("t1-chip", frames))?.wait()?;
//! assert_eq!(maps.len(), 32);
//!
//! // Streaming telemetry gets a stateful, temporally filtered session.
//! let mut session = server.open_session("t1-chip", 0.9)?;
//! let map = session.step(&deployment.sensors().sample(&dataset.ensemble().map(100)))?;
//! assert!(map.max() > 0.0);
//! // Which SIMD synthesis backend is this host actually running?
//! println!("kernel = {}", deployment.kernel_kind());
//! println!("p99 = {:?}", server.metrics().latency_p99);
//! # Ok(())
//! # }
//! ```
//!
//! Single-process callers that don't need the fleet layer can stay on
//! [`core::Deployment::reconstruct`] /
//! [`core::Deployment::reconstruct_batch`] directly. The pre-`Pipeline`
//! entry points (`EigenBasis::fit` → `allocate` → `Reconstructor::new`)
//! remain available for manual wiring but are deprecated for application
//! code; see `eigenmaps::core` for details.

pub use eigenmaps_core as core;
pub use eigenmaps_floorplan as floorplan;
pub use eigenmaps_linalg as linalg;
pub use eigenmaps_net as net;
pub use eigenmaps_serve as serve;
pub use eigenmaps_thermal as thermal;
