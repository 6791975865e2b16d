//! # eigenmaps-serve
//!
//! The sharded, multi-threaded serving runtime for EigenMaps deployments —
//! the layer that turns the fitted
//! [`Deployment`](eigenmaps_core::Deployment) artifact of
//! [`eigenmaps_core::Pipeline`] into a concurrent, many-tenant service:
//!
//! * [`DeploymentRegistry`] — named, versioned deployments loaded from
//!   `EMDEPLOY` bytes or published directly; hot-swappable under `Arc`
//!   without stalling in-flight requests;
//! * [`ShardedExecutor`] — a fixed pool of worker threads that splits each
//!   batch into contiguous frame shards, runs the batched reconstruction
//!   path per shard with per-worker reused scratch, and reassembles
//!   results **bitwise-identical** to the sequential path;
//! * [`Server`] / [`ServeRequest`] — the request front end: one pending
//!   queue per pinned `(name, version)` tenant, coalesced by the pure
//!   [`Scheduler`] state machine under per-tenant size/latency budgets
//!   ([`BatchPolicy`]) with a fairness rotation across tenants, plus a
//!   nonblocking door ([`Server::try_submit`], pollable [`Ticket`] with a
//!   readiness callback) for event-loop transports;
//! * [`Scheduler`] — the clock-injected coalesce/flush state machine
//!   itself, usable (and deterministically testable) without threads;
//!   per-tenant batch queues and per-session stream lanes share one
//!   fairness rotation, and per-tenant [`BatchPolicy`] overrides tier
//!   the budgets by SKU ([`Server::set_tenant_policy`]);
//! * [`TrackerSession`] — streaming per-tenant telemetry sessions with
//!   temporal filtering, pinned to the deployment version they opened;
//!   every session comes from a [`Server`] and is a **scheduled
//!   workload** (admission control, stream lane, run to completion on
//!   the batcher, pollable `Ticket<ThermalMap>`s), and durable: `EMSESS1`
//!   snapshots warm-restart a stream bitwise-identically across process
//!   restarts ([`Server::resume_session`]);
//! * [`ServeMetrics`] / [`MetricsSnapshot`] — request/frame counters,
//!   fixed-bucket latency histograms per workload class (p50/p99),
//!   shard utilization, per-tenant batch-size/queue-depth gauges
//!   ([`TenantSnapshot`]) and session gauges;
//! * [`SnapshotStore`] / [`DurabilityHub`] — the crash-safe on-disk
//!   durability layer ([`store`]): background whole-fleet checkpoints
//!   (write-new → fsync → atomic-rename, generation rotation, a
//!   checksummed `EMSTORE1` manifest) scheduled through the executor's
//!   fire-and-forget job lane, and cold-start hydration
//!   ([`Server::hydrate`]) that republishes the persisted catalog and
//!   resumes every recoverable session, skipping-and-metering torn
//!   entries instead of failing the boot.
//!
//! # Quickstart: design time → artifact → serving fleet
//!
//! At design time, fit a deployment once and ship its bytes; at serving
//! time, publish those bytes into a registry, start a [`Server`], and
//! point traffic at it by name:
//!
//! ```
//! use std::sync::Arc;
//! use eigenmaps_core::prelude::*;
//! use eigenmaps_serve::{DeploymentRegistry, ServeRequest, Server};
//!
//! # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
//! // Design time (typically a separate process; artifact shipped as bytes).
//! let maps: Vec<ThermalMap> = (0..60)
//!     .map(|t| {
//!         let a = (t as f64 / 5.0).sin();
//!         let b = (t as f64 / 3.0).cos();
//!         ThermalMap::from_fn(8, 8, |r, c| 50.0 + a * r as f64 + b * c as f64)
//!     })
//!     .collect();
//! let ensemble = MapEnsemble::from_maps(&maps)?;
//! let artifact = Pipeline::new(&ensemble)
//!     .basis(BasisSpec::Eigen { k: 2 })
//!     .sensors(4)
//!     .design()?
//!     .to_bytes();
//!
//! // Serving fleet: registry + sharded server.
//! let registry = Arc::new(DeploymentRegistry::new());
//! registry.publish_bytes("chip-a", &artifact)?;
//! let server = Server::new(Arc::clone(&registry), 4);
//!
//! // Traffic: requests resolve deployments by name and are micro-batched;
//! // every worker runs the host-dispatched SIMD synthesis kernel.
//! let deployment = registry.latest("chip-a")?;
//! assert!(deployment.kernel_kind().is_available());
//! let frames: Vec<Vec<f64>> = (0..16)
//!     .map(|t| deployment.sensors().sample(&ensemble.map(t)))
//!     .collect();
//! let maps = server.submit(ServeRequest::new("chip-a", frames))?.wait()?;
//! assert_eq!(maps.len(), 16);
//!
//! // Telemetry: open a streaming, temporally filtered session.
//! let mut session = server.open_session("chip-a", 0.8)?;
//! let estimate = session.step(&deployment.sensors().sample(&ensemble.map(17)))?;
//! assert_eq!(estimate.rows(), 8);
//!
//! println!("{:?}", server.metrics());
//! # Ok(())
//! # }
//! ```
//!
//! ## Bitwise-identity contract
//!
//! Every parallel path in this crate reproduces the single-threaded
//! [`Deployment::reconstruct_batch`](eigenmaps_core::Deployment::reconstruct_batch)
//! output bit for bit: shard boundaries are placed between frames
//! ([`eigenmaps_core::shard_spans`]), each frame's arithmetic is unchanged,
//! and outputs are reassembled in frame order. Scaling out never changes
//! an answer.
//!
//! The guarantee is *per synthesis backend*: each worker runs the
//! deployment's runtime-dispatched SIMD kernel
//! ([`eigenmaps_core::kernel`], AVX2+FMA where the CPU has it), whose
//! per-frame rounding is independent of batching and shard position.
//! Changing the backend (e.g. forcing the scalar oracle with
//! [`Deployment::set_kernel`](eigenmaps_core::Deployment::set_kernel))
//! may change outputs within documented rounding tolerance (`1e-10`
//! relative); sharding and batching under any one backend never do.
//!
//! The same contract covers streams: a session step scheduled through
//! the fair front door and executed on the batcher thread produces maps
//! bitwise-identical to stepping the deployment's
//! [`tracker`](eigenmaps_core::Deployment::tracker) directly, and a
//! stream resumed from an `EMSESS1` snapshot continues
//! bitwise-identically to one that was never interrupted.

pub mod batch;
pub mod error;
pub mod metrics;
pub mod registry;
pub mod scheduler;
pub mod session;
pub mod shard;
pub mod store;
pub mod trace;

pub use batch::{BatchPolicy, ServeRequest, Server, Ticket};
pub use error::{Result, ServeError};
pub use metrics::{
    bucket_bounds_ns, HistogramSnapshot, LatencyHistogram, MetricsSnapshot, ReapReason,
    ServeMetrics, StageLatency, TenantSnapshot, WireErrorKind, WireSnapshot,
};
pub use registry::DeploymentRegistry;
pub use scheduler::{
    BrownoutPolicy, Decision, FlushDecision, FlushReason, OverrunAction, Scheduler, ShedDecision,
    StepDecision, StreamId, TenantKey,
};
pub use session::TrackerSession;
pub use shard::{MapBatch, ShardedExecutor};
pub use store::{
    CatalogArtifact, CheckpointReport, CrashStyle, DiskIo, DurabilityHub, Hydration,
    HydrationReport, MemIo, SessionCheckpoint, SnapshotStore, StoreContents, StoreIo,
};
pub use trace::{
    FlightRecorder, RejectReason, RingSnapshot, Stage, TraceCard, TraceEvent, TraceExemplar,
    TraceId,
};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared test fixture: a deployment designed over a synthetic
    //! two-mode map family, used by every module's unit tests.

    use eigenmaps_core::prelude::*;

    /// Designs a `k`/`m` deployment on a `rows × cols` two-mode ensemble
    /// (60 maps), returning both.
    pub fn two_mode_deployment(
        rows: usize,
        cols: usize,
        k: usize,
        m: usize,
    ) -> (Deployment, MapEnsemble) {
        let maps: Vec<ThermalMap> = (0..60)
            .map(|t| {
                let a = (t as f64 / 5.0).sin();
                let b = (t as f64 / 3.0).cos();
                ThermalMap::from_fn(rows, cols, |r, c| 50.0 + a * r as f64 - b * c as f64)
            })
            .collect();
        let ens = MapEnsemble::from_maps(&maps).unwrap();
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k })
            .sensors(m)
            .design()
            .unwrap();
        (deployment, ens)
    }
}

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::batch::{BatchPolicy, ServeRequest, Server, Ticket};
    pub use crate::error::{Result, ServeError};
    pub use crate::metrics::{
        bucket_bounds_ns, HistogramSnapshot, LatencyHistogram, MetricsSnapshot, ReapReason,
        ServeMetrics, StageLatency, TenantSnapshot, WireErrorKind, WireSnapshot,
    };
    pub use crate::registry::DeploymentRegistry;
    pub use crate::scheduler::{
        BrownoutPolicy, Decision, FlushDecision, FlushReason, OverrunAction, Scheduler,
        ShedDecision, StepDecision, StreamId, TenantKey,
    };
    pub use crate::session::TrackerSession;
    pub use crate::shard::{MapBatch, ShardedExecutor};
    pub use crate::store::{
        CatalogArtifact, CheckpointReport, CrashStyle, DiskIo, DurabilityHub, Hydration,
        HydrationReport, MemIo, SessionCheckpoint, SnapshotStore, StoreContents, StoreIo,
    };
    pub use crate::trace::{
        FlightRecorder, RejectReason, RingSnapshot, Stage, TraceCard, TraceEvent, TraceExemplar,
        TraceId,
    };
}
