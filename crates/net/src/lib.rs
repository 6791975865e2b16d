//! Network edge for the EigenMaps serving runtime.
//!
//! Everything below the socket — micro-batching, fair scheduling,
//! streaming sessions, deployment registry — lives in
//! [`eigenmaps_serve`]. This crate puts that runtime on the network with
//! three pieces:
//!
//! * [`protocol`] — the `EMWIRE2` versioned, length-prefixed,
//!   checksummed binary wire format covering the full serving surface
//!   (batches, streaming sessions, snapshot/resume, catalog, publish,
//!   metrics), built on the same little-endian codec as the workspace's
//!   file formats. The module docs are the format specification.
//! * [`door`] — [`NetServer`], a single-threaded nonblocking TCP
//!   readiness-driven event loop (plain [`std::net`] and one `poll(2)`
//!   call, no async runtime) that bridges wire requests onto
//!   [`eigenmaps_serve::Server`] and completes parked tickets when their
//!   readiness callbacks poke its self-pipe.
//! * [`client`] — [`Client`], a blocking request/response client with
//!   typed helpers and retryability surfaced on errors.
//!
//! Determinism carries over the wire: `f64` cells travel bit-exact, so a
//! batch served over TCP is bitwise-identical to the same batch served
//! in-process, and a session can be snapshotted, carried to a restarted
//! server, resumed over the wire and continue producing bit-identical
//! estimates.
//!
//! ```no_run
//! use std::sync::Arc;
//! use eigenmaps_serve::{DeploymentRegistry, Server};
//! use eigenmaps_net::{Client, NetServer};
//!
//! let registry = Arc::new(DeploymentRegistry::new());
//! let server = Arc::new(Server::new(registry, 2));
//! let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server))?;
//! let addr = door.local_addr();
//! let handle = door.handle();
//! let loop_thread = std::thread::spawn(move || door.run());
//!
//! let mut client = Client::connect(addr)?;
//! let catalog = client.catalog()?;
//! assert!(catalog.is_empty());
//!
//! handle.shutdown();
//! loop_thread.join().unwrap();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The one `unsafe` block is the `poll(2)` call in `sys`, which opts in
// with `allow`; every block must carry a `// SAFETY:` comment.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod client;
pub mod door;
pub mod protocol;
mod sys;

pub use client::{BatchReply, Client, NetError, SessionInfo};
pub use door::{DoorHandle, NetConfig, NetServer};
pub use protocol::{
    status_of, DecodeFailure, EncodeError, FrameBuffer, Request, Response, WireError, WireExemplar,
    WireMap, WireMetrics, WireStage, WireStatus, WireTenantTrace, WireTrace, WireTraceEvent,
    MAX_FRAME_BYTES,
};

/// Convenience glob import for the network edge.
pub mod prelude {
    pub use crate::client::{BatchReply, Client, NetError, SessionInfo};
    pub use crate::door::{DoorHandle, NetConfig, NetServer};
    pub use crate::protocol::{
        EncodeError, FrameBuffer, Request, Response, WireError, WireExemplar, WireMap, WireMetrics,
        WireStage, WireStatus, WireTenantTrace, WireTrace, WireTraceEvent,
    };
}
