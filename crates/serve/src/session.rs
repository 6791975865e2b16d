//! Streaming tracker sessions: stateful per-tenant telemetry feeds,
//! scheduled through the same fair front door as batch traffic, durable
//! across monitor restarts.
//!
//! Batch serving treats frames as independent; a DTM loop streaming one
//! reading vector per control interval wants temporal filtering instead.
//! A [`TrackerSession`] wraps the deployment's
//! [`eigenmaps_core::TrackingReconstructor`] with fleet bookkeeping: the
//! session pins the deployment version it was opened against (hot swaps
//! don't disturb a live feed), counts the frames it has served, and
//! reports steps into the shared serving metrics.
//!
//! # A session step is a scheduled unit of work
//!
//! A session opened through [`Server::open_session`] owns a **stream
//! lane** in the server's scheduler ([`StreamId`]):
//! [`TrackerSession::submit_step`] passes admission control (the tenant's
//! [`max_pending_per_tenant`](crate::BatchPolicy::max_pending_per_tenant)
//! bound, like `try_submit`), enqueues the readings, and returns a
//! pollable [`StepTicket`]; the batcher grants the step in its fairness
//! rotation — interleaved with batch flushes, neither starving the other —
//! and the tracker arithmetic executes on the sharded worker pool with
//! the deployment's dispatched SIMD kernel, never on the caller's thread.
//! The result is bitwise-identical to stepping the tracker inline: the
//! scheduling layer moves *where and when* the arithmetic runs, not what
//! it computes. A session opened standalone ([`TrackerSession::open`],
//! no server) steps inline on the calling thread, which serves as the
//! reference path for that bitwise contract.
//!
//! # Durability: `EMSESS1` snapshots
//!
//! [`TrackerSession::snapshot`] serializes the stream's mutable state
//! (gain, frame count, temporal-filter coefficients) plus the identity of
//! the pinned artifact into a checksummed
//! [`SessionSnapshot`] record;
//! [`TrackerSession::resume`] / [`Server::resume_session`] re-resolve the
//! exact pinned `(name, version)` from the registry — refusing a shape or
//! identity mismatch with [`ServeError::SnapshotMismatch`] — and continue
//! the stream bitwise-identically to one that was never interrupted.
//!
//! [`Server::open_session`]: crate::Server::open_session
//! [`Server::resume_session`]: crate::Server::resume_session
//! [`ServeError::SnapshotMismatch`]: crate::ServeError::SnapshotMismatch

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use eigenmaps_core::codec::{fnv1a64, SessionSnapshot};
use eigenmaps_core::{Deployment, ThermalMap, TrackingReconstructor};

use crate::batch::{BatchPolicy, BatcherMsg, QueuedStep, Responder, ResponseSlot};
use crate::error::{Result, ServeError};
use crate::metrics::ServeMetrics;
use crate::registry::DeploymentRegistry;
use crate::scheduler::StreamId;
use crate::trace::{FlightRecorder, RejectReason, Stage};

/// A pending session-step response handle returned by
/// [`TrackerSession::submit_step`] — the single-map analogue of
/// [`Ticket`](crate::Ticket), consumable exactly once in any of the same
/// three styles (block / poll / readiness callback).
///
/// Dropping a step ticket abandons the response but never the step: the
/// tracker state still advances in submission order, so a fire-and-forget
/// monitor loop may submit steps and only poll the occasional one.
pub struct StepTicket {
    version: u32,
    slot: Arc<ResponseSlot<ThermalMap>>,
}

impl StepTicket {
    /// The deployment version the session is pinned to.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Whether the step was served degraded. Always `false` today:
    /// session steps track against the session's pinned full-fidelity
    /// deployment and never substitute a truncated one (a stream's
    /// temporal filter must stay bitwise-continuous across brownout).
    /// Mirrors [`Ticket::is_degraded`] so transports can report the flag
    /// uniformly for both workload classes.
    ///
    /// [`Ticket::is_degraded`]: crate::Ticket::is_degraded
    pub fn is_degraded(&self) -> bool {
        false
    }

    /// Whether the map is ready — [`StepTicket::try_wait`] would return it.
    pub fn is_ready(&self) -> bool {
        self.slot.is_ready()
    }

    /// Nonblocking poll: the tracked map if it is ready (returned exactly
    /// once), `None` while it is still pending or after it was already
    /// consumed.
    pub fn try_wait(&mut self) -> Option<Result<ThermalMap>> {
        self.slot.try_take()
    }

    /// Registers `callback` to run as soon as the map is ready — invoked
    /// on whichever thread completes the step: a shard worker for
    /// scheduled sessions (callbacks of different sessions can therefore
    /// fire concurrently), the calling thread for standalone sessions, or
    /// the batcher during shutdown drain. Runs immediately if the map is
    /// already ready. A second registration replaces the first. Must not
    /// block.
    pub fn on_ready(&self, callback: impl FnOnce() + Send + 'static) {
        self.slot.on_ready(callback);
    }

    /// Blocks until the step has executed on the worker pool.
    ///
    /// # Errors
    ///
    /// * The step's own failure ([`ServeError::Core`]), or
    /// * [`ServeError::Terminated`] if the server shut down before
    ///   responding, or if the response was already consumed by
    ///   [`StepTicket::try_wait`].
    pub fn wait(self) -> Result<ThermalMap> {
        self.slot.wait()
    }
}

impl std::fmt::Debug for StepTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepTicket")
            .field("version", &self.version)
            .field("ready", &self.is_ready())
            .finish()
    }
}

/// The stream-lane wiring a [`Server`](crate::Server)-opened session uses
/// to reach the batcher: its lane id, a clone of the batcher queue and a
/// live view of the server's per-tenant policy overrides, so a
/// [`set_tenant_policy`](crate::Server::set_tenant_policy) call re-tiers
/// the admission bound of already-open sessions too.
#[derive(Debug)]
pub(crate) struct SessionDoor {
    pub(crate) stream: StreamId,
    pub(crate) queue: Sender<BatcherMsg>,
    pub(crate) overrides: Arc<RwLock<HashMap<String, BatchPolicy>>>,
    pub(crate) fallback: BatchPolicy,
    pub(crate) recorder: FlightRecorder,
}

impl SessionDoor {
    /// The admission bound currently in force for tenant `name`.
    fn max_pending(&self, name: &str) -> u64 {
        self.overrides
            .read()
            .expect("policy overrides lock poisoned")
            .get(name)
            .unwrap_or(&self.fallback)
            .max_pending_per_tenant as u64
    }
}

/// A stateful streaming session over one pinned deployment version.
///
/// Open one per sensor-telemetry feed via
/// [`Server::open_session`](crate::Server::open_session) (scheduled: steps
/// run through the fair scheduler on the worker pool) or directly with
/// [`TrackerSession::open`] (standalone: steps run inline); feed each
/// interval's readings to [`TrackerSession::step`] or — for the
/// nonblocking, event-loop shape — [`TrackerSession::submit_step`].
#[derive(Debug)]
pub struct TrackerSession {
    deployment: Arc<Deployment>,
    tracker: Arc<Mutex<TrackingReconstructor>>,
    name: String,
    version: u32,
    gain: f64,
    /// [`fnv1a64`] of the pinned artifact's `EMDEPLOY` bytes, computed
    /// once at open — stamped into every snapshot so resume can prove it
    /// reattached to the *same* artifact, not merely a same-shape one.
    artifact_digest: u64,
    frames: Arc<AtomicU64>,
    /// Steps admitted but not yet completed (admission-control gauge,
    /// drained by each step's responder).
    pending: Arc<AtomicU64>,
    /// Durable id assigned by the server's snapshot store (0 = not
    /// enrolled for background checkpointing). Stable across restarts —
    /// the handle a client re-attaches by after a crash.
    durable: u64,
    metrics: Option<Arc<ServeMetrics>>,
    door: Option<SessionDoor>,
}

impl TrackerSession {
    /// Opens a standalone session against the current version of `name`
    /// in `registry`, with temporal gain `g ∈ (0, 1]` (`g = 1` is the
    /// memoryless paper behavior). Steps execute inline on the calling
    /// thread; sessions opened through a [`Server`](crate::Server) are
    /// scheduled instead.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownDeployment`]
    ///   for an unresolved name.
    /// * [`ServeError::Core`] for a gain outside
    ///   `(0, 1]`.
    pub fn open(registry: &DeploymentRegistry, name: &str, gain: f64) -> Result<Self> {
        Self::build(registry, name, None, gain, None, None)
    }

    /// [`TrackerSession::open`] pinned to an explicit registry `version`
    /// instead of the latest.
    ///
    /// # Errors
    ///
    /// Adds [`ServeError::UnknownVersion`]
    /// for a retired or never-published version.
    pub fn open_at(
        registry: &DeploymentRegistry,
        name: &str,
        version: u32,
        gain: f64,
    ) -> Result<Self> {
        Self::build(registry, name, Some(version), gain, None, None)
    }

    /// Warm-starts a standalone session from `EMSESS1` snapshot bytes
    /// previously produced by [`TrackerSession::snapshot`]: the exact
    /// pinned `(name, version)` is re-resolved from `registry`, the shape
    /// is verified, and the temporal-filter state and frame count are
    /// imported — the resumed stream continues bitwise-identically to an
    /// uninterrupted one.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] for malformed
    ///   bytes (bad magic/version/checksum, truncation, trailing bytes).
    /// * [`ServeError::UnknownDeployment`]
    ///   / [`ServeError::UnknownVersion`]
    ///   if the pinned artifact is no longer published under that name.
    /// * [`ServeError::SnapshotMismatch`]
    ///   if the resolved deployment's `K`/`M` shape disagrees with the
    ///   snapshot (the registry re-used the version number for a
    ///   different artifact — e.g. a fresh process re-published in a
    ///   different order).
    pub fn resume(registry: &DeploymentRegistry, bytes: &[u8]) -> Result<Self> {
        let record = Self::decode(bytes)?;
        Self::build_resumed(registry, record, None, None)
    }

    /// Internal constructor for [`Server`](crate::Server)-opened sessions.
    pub(crate) fn open_scheduled(
        registry: &DeploymentRegistry,
        name: &str,
        gain: f64,
        metrics: Arc<ServeMetrics>,
        door: SessionDoor,
    ) -> Result<Self> {
        Self::build(registry, name, None, gain, Some(metrics), Some(door))
    }

    /// Internal resume for [`Server::resume_session`](crate::Server::resume_session).
    pub(crate) fn resume_scheduled(
        registry: &DeploymentRegistry,
        bytes: &[u8],
        metrics: Arc<ServeMetrics>,
        door: SessionDoor,
    ) -> Result<Self> {
        let record = Self::decode(bytes)?;
        Self::build_resumed(registry, record, Some(metrics), Some(door))
    }

    fn decode(bytes: &[u8]) -> Result<SessionSnapshot> {
        SessionSnapshot::from_bytes(bytes)
            .map_err(|e| ServeError::Core(eigenmaps_core::CoreError::from(e)))
    }

    fn build(
        registry: &DeploymentRegistry,
        name: &str,
        version: Option<u32>,
        gain: f64,
        metrics: Option<Arc<ServeMetrics>>,
        door: Option<SessionDoor>,
    ) -> Result<Self> {
        let (version, deployment) = match version {
            None => registry.latest_versioned(name)?,
            Some(v) => (v, registry.version(name, v)?),
        };
        let tracker = deployment.tracker(gain)?;
        let artifact_digest = fnv1a64(&deployment.to_bytes());
        if let Some(metrics) = &metrics {
            metrics.record_session_opened();
        }
        Ok(TrackerSession {
            deployment,
            tracker: Arc::new(Mutex::new(tracker)),
            name: name.to_string(),
            version,
            gain,
            artifact_digest,
            frames: Arc::new(AtomicU64::new(0)),
            pending: Arc::new(AtomicU64::new(0)),
            durable: 0,
            metrics,
            door,
        })
    }

    fn build_resumed(
        registry: &DeploymentRegistry,
        record: SessionSnapshot,
        metrics: Option<Arc<ServeMetrics>>,
        door: Option<SessionDoor>,
    ) -> Result<Self> {
        let session = Self::build(
            registry,
            &record.deployment,
            Some(record.version),
            record.gain,
            metrics,
            door,
        )?;
        // The version number proves identity only within one registry
        // lifetime; across processes the same number can name a different
        // artifact, so the snapshot's shape fields (cheap, specific
        // errors) and the artifact digest (catches even a same-shape
        // retrain, whose coefficient state would decode to plausible but
        // wrong maps) are the guards.
        if session.deployment.k() != record.k {
            return Err(ServeError::SnapshotMismatch {
                context: "deployment basis dimension K changed",
            });
        }
        if session.deployment.m() != record.m {
            return Err(ServeError::SnapshotMismatch {
                context: "deployment sensor count M changed",
            });
        }
        if session.artifact_digest != record.artifact_digest {
            return Err(ServeError::SnapshotMismatch {
                context: "deployment artifact bytes changed",
            });
        }
        {
            let mut tracker = session.tracker.lock().expect("fresh tracker lock");
            tracker.import_state(record.state)?;
            // Mirror the frame count into the tracker so a checkpoint
            // capturing (state, frames) under its lock sees a consistent
            // pair from the first post-resume step on.
            tracker.set_frames(record.frames);
        }
        session.frames.store(record.frames, Ordering::Release);
        Ok(session)
    }

    /// Serializes the session's durable state to `EMSESS1` bytes — the
    /// warm-restart record [`TrackerSession::resume`] /
    /// [`Server::resume_session`](crate::Server::resume_session) consume.
    /// Snapshot with no steps in flight (await outstanding
    /// [`StepTicket`]s first) so the captured state is a well-defined
    /// point in the stream.
    pub fn snapshot(&self) -> Vec<u8> {
        // Capture (state, frames) under one tracker lock so the pair is
        // consistent even if another thread steps concurrently.
        let (state, frames) = {
            let tracker = self.tracker.lock().expect("session tracker lock poisoned");
            (tracker.export_state(), tracker.frames())
        };
        SessionSnapshot {
            deployment: self.name.clone(),
            version: self.version,
            gain: self.gain,
            frames,
            k: self.deployment.k(),
            m: self.deployment.m(),
            artifact_digest: self.artifact_digest,
            state,
        }
        .to_bytes()
    }

    /// Submits one interval's `M` sensor readings as a scheduled step,
    /// returning a pollable [`StepTicket`] — the nonblocking door a
    /// monitor event loop uses. The step joins the session's stream lane
    /// in the server's fairness rotation and executes on the sharded
    /// worker pool; steps of one session always execute in submission
    /// order. On a standalone session (no server) the step executes
    /// inline and the returned ticket is already ready.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] for a wrong-length
    ///   readings vector (checked up front — a malformed step is refused,
    ///   not enqueued) or, standalone, for a failed step.
    /// * [`ServeError::Saturated`] when this
    ///   session already has `max_pending_per_tenant` steps in flight.
    /// * [`ServeError::Terminated`] if the
    ///   server shut down.
    pub fn submit_step(&self, readings: &[f64]) -> Result<StepTicket> {
        let m = self.deployment.m();
        if readings.len() != m {
            return Err(ServeError::Core(eigenmaps_core::CoreError::ShapeMismatch {
                context: "session step readings",
                expected: m,
                found: readings.len(),
            }));
        }
        let Some(door) = &self.door else {
            // Standalone: execute inline (the bitwise reference path) and
            // hand back an already-completed ticket.
            let map = self.step_inline(readings)?;
            let slot = ResponseSlot::new();
            slot.complete(Ok(map));
            return Ok(StepTicket {
                version: self.version,
                slot,
            });
        };
        // Admission control: reserve a pending slot or refuse, exactly
        // like `try_submit` (a stream lane is its own admission domain,
        // bounded by the tenant's policy in force right now).
        let max_pending = door.max_pending(&self.name);
        let mut pending = self.pending.load(Ordering::Acquire);
        loop {
            if pending >= max_pending {
                // A refused step still leaves a terminal-only ring event.
                door.recorder.event(
                    door.recorder.allocate(&self.name),
                    Stage::Rejected(RejectReason::Saturated),
                    door.recorder.now(),
                );
                return Err(ServeError::Saturated {
                    name: self.name.clone(),
                    pending,
                });
            }
            match self.pending.compare_exchange_weak(
                pending,
                pending + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(observed) => pending = observed,
            }
        }
        let slot = ResponseSlot::new();
        let ticket = StepTicket {
            version: self.version,
            slot: Arc::clone(&slot),
        };
        let step = QueuedStep {
            stream: door.stream,
            name: self.name.clone(),
            tracker: Arc::clone(&self.tracker),
            readings: readings.to_vec(),
            enqueued: Instant::now(),
            frames: Arc::clone(&self.frames),
            trace: door.recorder.begin(&self.name),
            // The responder owns the reserved pending slot: completing —
            // or being dropped on a dead channel / teardown — releases it.
            responder: Responder::with_gauge(slot, Arc::clone(&self.pending)),
        };
        self.queue_step(step)?;
        Ok(ticket)
    }

    fn queue_step(&self, step: QueuedStep) -> Result<()> {
        let door = self.door.as_ref().expect("scheduled session has a door");
        // On failure the message (and its responder) is dropped here: the
        // slot completes `Terminated` and the pending gauge is released.
        door.queue
            .send(BatcherMsg::Step(step))
            .map_err(|_| ServeError::Terminated {
                context: "request queue closed",
            })
    }

    fn step_inline(&self, readings: &[f64]) -> Result<ThermalMap> {
        let map = self
            .tracker
            .lock()
            .expect("session tracker lock poisoned")
            .step(readings)?;
        self.frames.fetch_add(1, Ordering::Release);
        if let Some(metrics) = &self.metrics {
            metrics.record_session_step(&self.name);
        }
        Ok(map)
    }

    /// Feeds one interval's `M` sensor readings, returning the temporally
    /// filtered full-map estimate — the blocking convenience over
    /// [`TrackerSession::submit_step`]. On a server-opened session this
    /// is a scheduled round trip through the fairness rotation and the
    /// worker pool; standalone it executes inline. Both produce
    /// bitwise-identical maps.
    ///
    /// # Errors
    ///
    /// Union of [`TrackerSession::submit_step`] and
    /// [`StepTicket::wait`].
    pub fn step(&mut self, readings: &[f64]) -> Result<ThermalMap> {
        if self.door.is_none() {
            // Skip the ticket machinery on the inline path.
            self.step_inline(readings)
        } else {
            self.submit_step(readings)?.wait()
        }
    }

    /// Forgets the temporal state (e.g. after a telemetry gap), keeping
    /// the pinned deployment. Call with no steps in flight.
    pub fn reset(&mut self) {
        self.tracker
            .lock()
            .expect("session tracker lock poisoned")
            .reset();
    }

    /// The deployment artifact this session is pinned to.
    pub fn deployment(&self) -> &Arc<Deployment> {
        &self.deployment
    }

    /// The registry name the session was opened under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pinned deployment version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The temporal blending gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Frames served so far (scheduled steps count on completion).
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Acquire)
    }

    /// Steps admitted but not yet completed.
    pub fn pending_steps(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// The session's stream-lane id, if it is scheduled through a server.
    pub fn stream_id(&self) -> Option<StreamId> {
        self.door.as_ref().map(|door| door.stream)
    }

    /// The durable id the server's snapshot store checkpoints this
    /// session under, or 0 if the session is not enrolled for background
    /// checkpointing. Stable across restarts: after a crash, a client
    /// re-attaches to the hydrated session by this id.
    pub fn durable_id(&self) -> u64 {
        self.durable
    }

    pub(crate) fn set_durable(&mut self, id: u64) {
        self.durable = id;
    }

    /// The shared tracker cell (the durability hub holds a weak handle
    /// to checkpoint live sessions without owning them).
    pub(crate) fn tracker(&self) -> &Arc<Mutex<TrackingReconstructor>> {
        &self.tracker
    }

    /// [`fnv1a64`] digest of the pinned artifact's `EMDEPLOY` bytes.
    pub(crate) fn artifact_digest(&self) -> u64 {
        self.artifact_digest
    }
}

impl Drop for TrackerSession {
    fn drop(&mut self) {
        if let Some(metrics) = &self.metrics {
            metrics.record_session_closed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;
    use eigenmaps_core::prelude::*;

    fn fixture() -> (Arc<DeploymentRegistry>, MapEnsemble) {
        let (d, ens) = crate::testutil::two_mode_deployment(6, 6, 2, 4);
        let registry = Arc::new(DeploymentRegistry::new());
        registry.publish("chip", d);
        (registry, ens)
    }

    #[test]
    fn unit_gain_matches_memoryless_reconstruction() {
        let (registry, ens) = fixture();
        let mut session = TrackerSession::open(&registry, "chip", 1.0).unwrap();
        let deployment = registry.latest("chip").unwrap();
        for t in [0, 7, 21] {
            let readings = deployment.sensors().sample(&ens.map(t));
            let tracked = session.step(&readings).unwrap();
            let memoryless = deployment.reconstruct(&readings).unwrap();
            assert_eq!(tracked.as_slice(), memoryless.as_slice());
        }
        assert_eq!(session.frames(), 3);
        assert_eq!(session.version(), 1);
        assert_eq!(session.name(), "chip");
        assert_eq!(session.gain(), 1.0);
        assert_eq!(session.stream_id(), None, "standalone session");
    }

    #[test]
    fn session_survives_hot_swap() {
        let (registry, ens) = fixture();
        let mut session = TrackerSession::open(&registry, "chip", 0.5).unwrap();
        let readings = session.deployment().sensors().sample(&ens.map(3)).to_vec();
        session.step(&readings).unwrap();
        // Swap + retire the version the session is pinned to.
        let retrained = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 3 })
            .sensors(6)
            .design()
            .unwrap();
        registry.publish("chip", retrained);
        registry.retire("chip", 1).unwrap();
        // The live feed keeps serving with its pinned artifact.
        session.step(&readings).unwrap();
        assert_eq!(session.version(), 1);
        assert_eq!(session.frames(), 2);
        session.reset();
        assert_eq!(session.frames(), 2);
    }

    #[test]
    fn invalid_gain_rejected() {
        let (registry, _) = fixture();
        assert!(matches!(
            TrackerSession::open(&registry, "chip", 0.0),
            Err(ServeError::Core(_))
        ));
        assert!(matches!(
            TrackerSession::open(&registry, "ghost", 1.0),
            Err(ServeError::UnknownDeployment { .. })
        ));
    }

    #[test]
    fn open_at_pins_a_non_latest_version() {
        let (registry, ens) = fixture();
        let retrained = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 3 })
            .sensors(6)
            .design()
            .unwrap();
        registry.publish("chip", retrained);
        let session = TrackerSession::open_at(&registry, "chip", 1, 0.5).unwrap();
        assert_eq!(session.version(), 1);
        assert_eq!(session.deployment().m(), 4, "v1 artifact, not v2");
        assert!(matches!(
            TrackerSession::open_at(&registry, "chip", 9, 0.5),
            Err(ServeError::UnknownVersion { version: 9, .. })
        ));
    }

    #[test]
    fn standalone_snapshot_resume_continues_bitwise() {
        let (registry, ens) = fixture();
        let deployment = registry.latest("chip").unwrap();
        let readings: Vec<Vec<f64>> = (0..20)
            .map(|t| deployment.sensors().sample(&ens.map(t)))
            .collect();
        // The uninterrupted reference stream.
        let mut reference = TrackerSession::open(&registry, "chip", 0.3).unwrap();
        // The interrupted stream: step, snapshot, "restart", resume.
        let mut live = TrackerSession::open(&registry, "chip", 0.3).unwrap();
        for r in &readings[..8] {
            reference.step(r).unwrap();
            live.step(r).unwrap();
        }
        let bytes = live.snapshot();
        drop(live); // monitor restart
        let mut resumed = TrackerSession::resume(&registry, bytes.as_slice()).unwrap();
        assert_eq!(resumed.frames(), 8);
        assert_eq!(resumed.version(), 1);
        assert_eq!(resumed.gain(), 0.3);
        for (t, r) in readings[8..].iter().enumerate() {
            let a = reference.step(r).unwrap();
            let b = resumed.step(r).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "post-resume step {t}");
        }
    }

    #[test]
    fn resume_refuses_mismatched_artifacts() {
        let (registry, ens) = fixture();
        let mut session = TrackerSession::open(&registry, "chip", 0.5).unwrap();
        let readings = session.deployment().sensors().sample(&ens.map(0));
        session.step(&readings).unwrap();
        let bytes = session.snapshot();

        // Retiring the pinned version makes the snapshot unresumable.
        let retrained = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 3 })
            .sensors(6)
            .design()
            .unwrap();
        registry.publish("chip", retrained.clone());
        registry.retire("chip", 1).unwrap();
        assert!(matches!(
            TrackerSession::resume(&registry, &bytes),
            Err(ServeError::UnknownVersion { version: 1, .. })
        ));

        // A fresh registry whose version numbering re-assigns v1 to a
        // different-shaped artifact: identity check must refuse.
        let fresh = DeploymentRegistry::new();
        fresh.publish("chip", retrained); // k=3, m=6 at version 1
        assert!(matches!(
            TrackerSession::resume(&fresh, &bytes),
            Err(ServeError::SnapshotMismatch { .. })
        ));

        // The hard case: a SAME-shape retrain (identical k and m, a
        // different basis) re-published as v1 — resuming the old
        // coefficient state against it would produce plausible but wrong
        // maps, so the artifact digest must refuse it.
        let same_shape = {
            let maps: Vec<ThermalMap> = (0..60)
                .map(|t| {
                    let a = (t as f64 / 4.7).sin();
                    let b = (t as f64 / 2.9).cos();
                    ThermalMap::from_fn(6, 6, |r, c| 51.0 + a * (r * r) as f64 + b * c as f64)
                })
                .collect();
            Pipeline::new(&MapEnsemble::from_maps(&maps).unwrap())
                .basis(BasisSpec::EigenExact { k: 2 })
                .sensors(4)
                .design()
                .unwrap()
        };
        let sneaky = DeploymentRegistry::new();
        sneaky.publish("chip", same_shape);
        assert!(matches!(
            TrackerSession::resume(&sneaky, &bytes),
            Err(ServeError::SnapshotMismatch {
                context: "deployment artifact bytes changed"
            })
        ));

        // Corrupt bytes are refused by the codec.
        let mut bad = bytes.clone();
        bad[10] ^= 0x01;
        assert!(matches!(
            TrackerSession::resume(&registry, &bad),
            Err(ServeError::Core(_))
        ));
    }

    #[test]
    fn malformed_readings_rejected_up_front() {
        let (registry, _) = fixture();
        let session = TrackerSession::open(&registry, "chip", 0.5).unwrap();
        assert!(matches!(
            session.submit_step(&[1.0, 2.0]),
            Err(ServeError::Core(CoreError::ShapeMismatch { .. }))
        ));
        assert_eq!(session.frames(), 0);
    }

    #[test]
    fn standalone_submit_step_returns_ready_ticket() {
        let (registry, ens) = fixture();
        let session = TrackerSession::open(&registry, "chip", 1.0).unwrap();
        let readings = session.deployment().sensors().sample(&ens.map(5));
        let mut ticket = session.submit_step(&readings).unwrap();
        assert!(ticket.is_ready());
        assert_eq!(ticket.version(), 1);
        let map = ticket.try_wait().unwrap().unwrap();
        let memoryless = session.deployment().reconstruct(&readings).unwrap();
        assert_eq!(map.as_slice(), memoryless.as_slice());
        assert!(ticket.try_wait().is_none(), "consumed exactly once");
        assert_eq!(session.pending_steps(), 0);
    }
}
