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
//! Every session comes from a [`Server`] ([`Server::open_session`],
//! [`Server::resume_session`] or [`Server::hydrate`]) and owns a **stream
//! lane** in the server's scheduler ([`StreamId`]):
//! [`TrackerSession::submit_step`] passes admission control (the tenant's
//! [`max_pending_per_tenant`](crate::BatchPolicy::max_pending_per_tenant)
//! bound, like `try_submit`), enqueues the readings, and returns a
//! pollable [`Ticket`]; the batcher grants the step in its fairness
//! rotation — interleaved with batch flushes, neither starving the other —
//! and runs the tracker arithmetic to completion on its own thread, with
//! the deployment's dispatched SIMD kernel, never on the caller's thread.
//! The result is bitwise-identical to stepping the deployment's
//! [`tracker`](eigenmaps_core::Deployment::tracker) directly: the
//! scheduling layer moves *where and when* the arithmetic runs, not what
//! it computes.
//!
//! # Durability: `EMSESS1` snapshots
//!
//! [`TrackerSession::snapshot`] serializes the stream's mutable state
//! (gain, frame count, temporal-filter coefficients) plus the identity of
//! the pinned artifact into a checksummed
//! [`SessionSnapshot`] record;
//! [`Server::resume_session`] re-resolves the
//! exact pinned `(name, version)` from the registry — refusing a shape or
//! identity mismatch with [`ServeError::SnapshotMismatch`] — and continues
//! the stream bitwise-identically to one that was never interrupted.
//!
//! [`Server`]: crate::Server
//! [`Server::open_session`]: crate::Server::open_session
//! [`Server::resume_session`]: crate::Server::resume_session
//! [`Server::hydrate`]: crate::Server::hydrate
//! [`ServeError::SnapshotMismatch`]: crate::ServeError::SnapshotMismatch

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use eigenmaps_core::codec::{fnv1a64, SessionSnapshot};
use eigenmaps_core::{Deployment, ThermalMap, TrackingReconstructor};

use crate::batch::{BatchPolicy, BatcherMsg, QueuedStep, Responder, ResponseSlot, Server, Ticket};
use crate::error::{Result, ServeError};
use crate::metrics::ServeMetrics;
use crate::scheduler::StreamId;
use crate::trace::FlightRecorder;

/// A stateful streaming session over one pinned deployment version.
///
/// Open one per sensor-telemetry feed via
/// [`Server::open_session`](crate::Server::open_session); feed each
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
    metrics: Arc<ServeMetrics>,
    /// The session's lane in the server's scheduler.
    stream: StreamId,
    /// The batcher queue the session's steps travel.
    queue: Sender<BatcherMsg>,
    /// A live view of the server's per-tenant policy overrides, so a
    /// [`set_tenant_policy`](crate::Server::set_tenant_policy) call
    /// re-tiers the admission bound of already-open sessions too.
    overrides: Arc<RwLock<HashMap<String, BatchPolicy>>>,
    /// The server's global policy, in force while no override is.
    fallback: BatchPolicy,
    recorder: FlightRecorder,
}

impl TrackerSession {
    /// A session on `server` warm-started from `EMSESS1` snapshot bytes;
    /// see [`Server::resume_session`](crate::Server::resume_session).
    pub(crate) fn resume_scheduled(server: &Server, bytes: &[u8]) -> Result<Self> {
        let record = SessionSnapshot::from_bytes(bytes)
            .map_err(|e| ServeError::Core(eigenmaps_core::CoreError::from(e)))?;
        let session = Self::open_scheduled(
            server,
            &record.deployment,
            Some(record.version),
            record.gain,
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

    /// A session on `server` against `version` of `name` (its current
    /// version if `None`), with temporal gain `g ∈ (0, 1]`; see
    /// [`Server::open_session`](crate::Server::open_session).
    pub(crate) fn open_scheduled(
        server: &Server,
        name: &str,
        version: Option<u32>,
        gain: f64,
    ) -> Result<Self> {
        let registry = server.registry();
        let (version, deployment) = match version {
            None => registry.latest_versioned(name)?,
            Some(v) => (v, registry.version(name, v)?),
        };
        let tracker = deployment.tracker(gain)?;
        let artifact_digest = fnv1a64(&deployment.to_bytes());
        let metrics = Arc::clone(server.metrics_hub());
        metrics.record_session_opened();
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
            stream: StreamId(server.next_stream.fetch_add(1, Ordering::Relaxed)),
            queue: server.queue.clone(),
            overrides: Arc::clone(&server.overrides),
            fallback: *server.policy(),
            recorder: server.recorder().clone(),
        })
    }

    /// Serializes the session's durable state to `EMSESS1` bytes — the
    /// warm-restart record
    /// [`Server::resume_session`](crate::Server::resume_session) consumes.
    /// Snapshot with no steps in flight (await outstanding
    /// [`Ticket`]s first) so the captured state is a well-defined
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
    /// returning a pollable [`Ticket`] — the nonblocking door a
    /// monitor event loop uses. The step joins the session's stream lane
    /// in the server's fairness rotation and the batcher executes it in
    /// grant order, so steps of one session always execute in submission
    /// order.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] for a wrong-length
    ///   readings vector (checked up front — a malformed step is refused,
    ///   not enqueued).
    /// * [`ServeError::Saturated`] when this
    ///   session already has `max_pending_per_tenant` steps in flight.
    /// * [`ServeError::Terminated`] if the
    ///   server shut down.
    pub fn submit_step(&self, readings: &[f64]) -> Result<Ticket<ThermalMap>> {
        let m = self.deployment.m();
        if readings.len() != m {
            return Err(ServeError::Core(eigenmaps_core::CoreError::ShapeMismatch {
                context: "session step readings",
                expected: m,
                found: readings.len(),
            }));
        }
        // Admission control: reserve a pending slot or refuse, exactly
        // like `try_submit` (a stream lane is its own admission domain,
        // bounded by the tenant's policy in force right now).
        let max_pending = self
            .overrides
            .read()
            .expect("policy overrides lock poisoned")
            .get(&self.name)
            .unwrap_or(&self.fallback)
            .max_pending_per_tenant as u64;
        let mut pending = self.pending.load(Ordering::Acquire);
        loop {
            if pending >= max_pending {
                self.recorder.record_saturated(&self.name);
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
        let ticket = Ticket::new(self.version, Arc::clone(&slot), None);
        let step = QueuedStep {
            stream: self.stream,
            name: self.name.clone(),
            tracker: Arc::clone(&self.tracker),
            readings: readings.to_vec(),
            enqueued: Instant::now(),
            frames: Arc::clone(&self.frames),
            trace: self.recorder.begin(&self.name),
            // The responder owns the reserved pending slot: completing —
            // or being dropped on a dead channel / teardown — releases it.
            responder: Responder::with_gauge(slot, Arc::clone(&self.pending)),
        };
        // On failure the message (and its responder) is dropped here: the
        // slot completes `Terminated` and the pending gauge is released.
        self.queue
            .send(BatcherMsg::Step(step))
            .map_err(|_| ServeError::Terminated {
                context: "request queue closed",
            })?;
        Ok(ticket)
    }

    /// Feeds one interval's `M` sensor readings, returning the temporally
    /// filtered full-map estimate — the blocking convenience over
    /// [`TrackerSession::submit_step`]: a scheduled round trip through
    /// the fairness rotation and the batcher.
    ///
    /// # Errors
    ///
    /// Union of [`TrackerSession::submit_step`] and
    /// [`Ticket::wait`].
    pub fn step(&mut self, readings: &[f64]) -> Result<ThermalMap> {
        self.submit_step(readings)?.wait()
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

    /// Frames served so far (steps count on completion).
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Acquire)
    }

    /// Steps admitted but not yet completed.
    pub fn pending_steps(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// The session's stream-lane id in its server's scheduler.
    pub fn stream_id(&self) -> StreamId {
        self.stream
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
        self.metrics.record_session_closed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;
    use crate::registry::DeploymentRegistry;
    use eigenmaps_core::prelude::*;

    fn fixture() -> (Server, MapEnsemble) {
        let (d, ens) = crate::testutil::two_mode_deployment(6, 6, 2, 4);
        let registry = Arc::new(DeploymentRegistry::new());
        registry.publish("chip", d);
        (Server::new(registry, 1), ens)
    }

    #[test]
    fn unit_gain_matches_memoryless_reconstruction() {
        let (server, ens) = fixture();
        let mut session = server.open_session("chip", 1.0).unwrap();
        let deployment = server.registry().latest("chip").unwrap();
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
        assert_eq!(session.stream_id(), StreamId(1), "first lane of the server");
    }

    #[test]
    fn session_survives_hot_swap() {
        let (server, ens) = fixture();
        let registry = server.registry();
        let mut session = server.open_session("chip", 0.5).unwrap();
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
    }

    #[test]
    fn invalid_gain_rejected() {
        let (server, _) = fixture();
        assert!(matches!(
            server.open_session("chip", 0.0),
            Err(ServeError::Core(_))
        ));
        assert!(matches!(
            server.open_session("ghost", 1.0),
            Err(ServeError::UnknownDeployment { .. })
        ));
    }

    #[test]
    fn snapshot_resume_continues_bitwise() {
        let (server, ens) = fixture();
        let deployment = server.registry().latest("chip").unwrap();
        let readings: Vec<Vec<f64>> = (0..20)
            .map(|t| deployment.sensors().sample(&ens.map(t)))
            .collect();
        // The uninterrupted reference stream: the tracker a session runs.
        let mut reference = deployment.tracker(0.3).unwrap();
        // The interrupted stream: step, snapshot, "restart", resume.
        let mut live = server.open_session("chip", 0.3).unwrap();
        for r in &readings[..8] {
            let a = reference.step(r).unwrap();
            let b = live.step(r).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "pre-snapshot step");
        }
        let bytes = live.snapshot();
        drop(live); // monitor restart
        let mut resumed = server.resume_session(bytes.as_slice()).unwrap();
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
        let (server, ens) = fixture();
        let registry = server.registry();
        let mut session = server.open_session("chip", 0.5).unwrap();
        let readings = session.deployment().sensors().sample(&ens.map(0));
        session.step(&readings).unwrap();
        let bytes = session.snapshot();
        // A server over its own registry: the restarted process.
        let resume_on = |registry: DeploymentRegistry, bytes: &[u8]| {
            Server::new(Arc::new(registry), 1)
                .resume_session(bytes)
                .map(|_| ())
        };

        // Retiring the pinned version makes the snapshot unresumable.
        let retrained = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 3 })
            .sensors(6)
            .design()
            .unwrap();
        registry.publish("chip", retrained.clone());
        registry.retire("chip", 1).unwrap();
        assert!(matches!(
            server.resume_session(&bytes),
            Err(ServeError::UnknownVersion { version: 1, .. })
        ));

        // A fresh registry whose version numbering re-assigns v1 to a
        // different-shaped artifact: identity check must refuse.
        let fresh = DeploymentRegistry::new();
        fresh.publish("chip", retrained); // k=3, m=6 at version 1
        assert!(matches!(
            resume_on(fresh, &bytes),
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
            resume_on(sneaky, &bytes),
            Err(ServeError::SnapshotMismatch {
                context: "deployment artifact bytes changed"
            })
        ));

        // Corrupt bytes are refused by the codec.
        let mut bad = bytes.clone();
        bad[10] ^= 0x01;
        assert!(matches!(
            server.resume_session(&bad),
            Err(ServeError::Core(_))
        ));
    }

    #[test]
    fn malformed_readings_rejected_up_front() {
        let (server, _) = fixture();
        let session = server.open_session("chip", 0.5).unwrap();
        assert!(matches!(
            session.submit_step(&[1.0, 2.0]),
            Err(ServeError::Core(CoreError::ShapeMismatch { .. }))
        ));
        assert_eq!(session.frames(), 0);
        assert_eq!(
            session.pending_steps(),
            0,
            "a refused step reserves nothing"
        );
    }

    #[test]
    fn submit_step_ticket_is_consumed_exactly_once() {
        let (server, ens) = fixture();
        let session = server.open_session("chip", 1.0).unwrap();
        let readings = session.deployment().sensors().sample(&ens.map(5));
        let mut ticket = session.submit_step(&readings).unwrap();
        assert_eq!(ticket.version(), 1);
        while !ticket.is_ready() {
            std::thread::yield_now();
        }
        let map = ticket.try_wait().unwrap().unwrap();
        let memoryless = session.deployment().reconstruct(&readings).unwrap();
        assert_eq!(map.as_slice(), memoryless.as_slice());
        assert!(ticket.try_wait().is_none(), "consumed exactly once");
        assert_eq!(session.pending_steps(), 0);
        assert_eq!(session.frames(), 1);
    }
}
