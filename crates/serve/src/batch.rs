//! The request/batching front end: [`ServeRequest`] → per-tenant pending
//! queues → [`Scheduler`] → [`ShardedExecutor`].
//!
//! Real monitoring traffic arrives as many small requests (a handful of
//! telemetry frames per chip per interval), but the execution engine is at
//! its best on large batches. The [`Server`] bridges the two: a request
//! pins its deployment version at submit time, is queued under its
//! [`TenantKey`] `(name, version)`, and a batcher thread drives the pure
//! [`Scheduler`] state machine, which coalesces each tenant's requests
//! independently and flushes a tenant when *its own* frame budget, request
//! budget or latency budget ([`BatchPolicy`]) fills — so interleaved
//! multi-tenant traffic no longer degrades to one-request batches, and a
//! hot swap mid-queue never mixes artifacts (the new version is simply a
//! new tenant key).
//!
//! When several tenants are ready at once, flushes are decided round-robin
//! (the scheduler's fairness rotation): a backlogged tenant's next batch
//! is decided only after every other ready tenant got one, so it cannot
//! starve the others, while per-tenant deadlines — anchored at the
//! client's submit time — bound every request's queueing latency
//! regardless of foreign traffic.
//!
//! The front door is nonblocking end to end: [`Server::submit`] and
//! [`Server::try_submit`] enqueue without waiting, and the returned
//! [`Ticket`] can be consumed three ways — block ([`Ticket::wait`]), poll
//! ([`Ticket::try_wait`]), or register a readiness callback
//! ([`Ticket::on_ready`]) to bridge an event loop without a thread per
//! request. Dropping a ticket abandons the response but never the request:
//! the batch still executes and the batcher never wedges.
//!
//! Streaming sessions go through the **same** front door: a session opened
//! with [`Server::open_session`] (or warm-started with
//! [`Server::resume_session`]) owns a stream lane in the scheduler's
//! fairness rotation, its `submit_step` is admission-controlled like
//! `try_submit`, and the batcher runs each granted step to completion
//! itself, in grant order, interleaved fairly with batch flushes — there
//! is no unscheduled serving path left. Per-tenant [`BatchPolicy`] overrides
//! ([`Server::set_tenant_policy`]) tier both workload classes by SKU.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eigenmaps_core::{CoreError, Deployment, ThermalMap, TrackingReconstructor};

use crate::error::{Result, ServeError};
use crate::metrics::ServeMetrics;
use crate::registry::DeploymentRegistry;
use crate::scheduler::{
    BrownoutPolicy, Decision, FlushDecision, Scheduler, ShedDecision, StepDecision, StreamId,
    TenantKey,
};
use crate::session::TrackerSession;
use crate::shard::{MapBatch, ShardedExecutor};
use crate::store::{DurabilityHub, Hydration, HydrationReport, SnapshotStore, DEFAULT_KEEP};
use crate::trace::{FlightRecorder, RejectReason, Stage, TraceCard, DEFAULT_RING_CAPACITY};

pub use crate::scheduler::BatchPolicy;

/// One reconstruction request: a named deployment and the sensor-reading
/// frames to reconstruct.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Registry name of the deployment to serve against.
    pub deployment: String,
    /// Sensor readings, one `M`-length vector per frame.
    pub frames: Vec<Vec<f64>>,
}

impl ServeRequest {
    /// A request against the named deployment.
    pub fn new(deployment: impl Into<String>, frames: Vec<Vec<f64>>) -> Self {
        ServeRequest {
            deployment: deployment.into(),
            frames,
        }
    }
}

/// Where a response of type `R` lands: shared between a ticket handle and
/// the batcher. One machinery for both response shapes — batch requests
/// (`R = MapBatch`) and session steps (`R = ThermalMap`).
pub(crate) struct ResponseSlot<R> {
    state: Mutex<SlotState<R>>,
    ready: Condvar,
}

enum SlotState<R> {
    /// Response not produced yet; an optional readiness callback waits.
    Pending {
        callback: Option<Box<dyn FnOnce() + Send>>,
    },
    /// Response produced, not yet consumed.
    Ready(Result<R>),
    /// Response consumed (by `wait` or `try_wait`).
    Taken,
}

impl<R> ResponseSlot<R> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ResponseSlot {
            state: Mutex::new(SlotState::Pending { callback: None }),
            ready: Condvar::new(),
        })
    }

    /// Stores the response, fires the readiness callback (outside the
    /// lock), then wakes blocked waiters. Idempotent: only the first
    /// completion wins.
    pub(crate) fn complete(&self, result: Result<R>) {
        let callback = {
            let mut state = self.state.lock().expect("ticket lock poisoned");
            match &mut *state {
                SlotState::Pending { callback } => {
                    let callback = callback.take();
                    *state = SlotState::Ready(result);
                    callback
                }
                _ => return,
            }
        };
        if let Some(callback) = callback {
            callback();
        }
        self.ready.notify_all();
    }

    /// Whether a response is ready (a `try_take` would return it).
    pub(crate) fn is_ready(&self) -> bool {
        matches!(
            *self.state.lock().expect("ticket lock poisoned"),
            SlotState::Ready(_)
        )
    }

    /// Nonblocking poll: the response if ready (returned exactly once),
    /// `None` while pending or after it was already consumed.
    pub(crate) fn try_take(&self) -> Option<Result<R>> {
        let mut state = self.state.lock().expect("ticket lock poisoned");
        match &*state {
            SlotState::Ready(_) => match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(result) => Some(result),
                _ => unreachable!("state was Ready under the lock"),
            },
            _ => None,
        }
    }

    /// Registers `callback` to run as soon as the response is ready; runs
    /// it immediately (on the calling thread) if it already is. A second
    /// registration replaces the first.
    pub(crate) fn on_ready(&self, callback: impl FnOnce() + Send + 'static) {
        {
            let mut state = self.state.lock().expect("ticket lock poisoned");
            if let SlotState::Pending { callback: slot } = &mut *state {
                *slot = Some(Box::new(callback));
                return;
            }
        }
        callback();
    }

    /// Blocks until completed; [`ServeError::Terminated`] if the response
    /// was already consumed.
    pub(crate) fn wait(&self) -> Result<R> {
        let mut state = self.state.lock().expect("ticket lock poisoned");
        loop {
            match &*state {
                SlotState::Pending { .. } => {
                    state = self.ready.wait(state).expect("ticket lock poisoned");
                }
                SlotState::Ready(_) => match std::mem::replace(&mut *state, SlotState::Taken) {
                    SlotState::Ready(result) => return result,
                    _ => unreachable!("state was Ready under the lock"),
                },
                SlotState::Taken => {
                    return Err(ServeError::Terminated {
                        context: "response already consumed by try_wait",
                    })
                }
            }
        }
    }
}

/// Completes its [`ResponseSlot`] exactly once — on the happy path with
/// the result, or with [`ServeError::Terminated`] if dropped unfulfilled
/// (batcher teardown), so a ticket `wait` can never hang. Optionally
/// drains one slot from a pending gauge on completion (the per-session
/// admission counter), so abandoned or terminated steps never leak
/// admission slots.
pub(crate) struct Responder<R> {
    slot: Arc<ResponseSlot<R>>,
    gauge: Option<Arc<AtomicU64>>,
    fulfilled: bool,
}

impl<R> Responder<R> {
    pub(crate) fn new(slot: Arc<ResponseSlot<R>>) -> Self {
        Responder {
            slot,
            gauge: None,
            fulfilled: false,
        }
    }

    /// A responder that also decrements `gauge` (saturating) exactly once
    /// when it completes — fulfilled or dropped.
    pub(crate) fn with_gauge(slot: Arc<ResponseSlot<R>>, gauge: Arc<AtomicU64>) -> Self {
        Responder {
            slot,
            gauge: Some(gauge),
            fulfilled: false,
        }
    }

    fn release_gauge(&mut self) {
        if let Some(gauge) = self.gauge.take() {
            let _ = gauge.fetch_update(Ordering::AcqRel, Ordering::Acquire, |pending| {
                Some(pending.saturating_sub(1))
            });
        }
    }

    pub(crate) fn send(mut self, result: Result<R>) {
        self.fulfilled = true;
        self.release_gauge();
        self.slot.complete(result);
    }
}

impl<R> Drop for Responder<R> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.release_gauge();
            self.slot.complete(Err(ServeError::Terminated {
                context: "server dropped before responding",
            }));
        }
    }
}

impl<R> std::fmt::Debug for Responder<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Responder")
            .field("fulfilled", &self.fulfilled)
            .finish()
    }
}

/// A pending response handle: `Ticket` (a batch request's maps, as a
/// [`MapBatch`] over the executor's slabs) from
/// [`Server::submit`] / [`Server::try_submit`], `Ticket<ThermalMap>` (one
/// filtered map) from [`TrackerSession::submit_step`].
///
/// A ticket can be consumed exactly once, in any of three styles:
///
/// * **block** — [`Ticket::wait`];
/// * **poll** — [`Ticket::try_wait`] from an event loop;
/// * **callback** — [`Ticket::on_ready`] to get woken without a thread.
///
/// Dropping a ticket without consuming it is safe: the request (or step)
/// still executes — a batch request in its coalesced batch, its tenant's
/// queue slot released exactly as if it had been awaited; a step in
/// submission order, advancing the session's tracker — and the response
/// is discarded.
pub struct Ticket<R = MapBatch> {
    version: u32,
    slot: Arc<ResponseSlot<R>>,
    /// The batch request's degraded flag; `None` for session steps, which
    /// are never served degraded.
    degraded: Option<Arc<AtomicBool>>,
}

impl<R> Ticket<R> {
    pub(crate) fn new(
        version: u32,
        slot: Arc<ResponseSlot<R>>,
        degraded: Option<Arc<AtomicBool>>,
    ) -> Self {
        Ticket {
            version,
            slot,
            degraded,
        }
    }

    /// The deployment version the request (or session) is pinned to.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Whether the response was served **degraded**: the server was in
    /// brownout (or the request blew a `Degrade`-tier deadline) and the
    /// maps were reconstructed against a truncated low-K deployment
    /// instead of the full basis. Meaningful once the response is ready;
    /// `false` while pending and for full-fidelity responses. Always
    /// `false` for session steps: a stream's temporal filter must stay
    /// bitwise-continuous across brownout, so steps never substitute a
    /// truncated deployment.
    pub fn is_degraded(&self) -> bool {
        self.degraded
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Acquire))
    }

    /// Whether a response is ready — [`Ticket::try_wait`] would return it.
    pub fn is_ready(&self) -> bool {
        self.slot.is_ready()
    }

    /// Nonblocking poll: the response if it is ready (returned exactly
    /// once), `None` while it is still pending or after it was already
    /// consumed.
    pub fn try_wait(&mut self) -> Option<Result<R>> {
        self.slot.try_take()
    }

    /// Registers `callback` to run as soon as the response is ready —
    /// invoked on whichever thread completes it: the batcher, for batch
    /// requests and session steps alike. If the response is already
    /// ready, runs it immediately on the calling thread. A second
    /// registration replaces the first. The callback must not block — it is the readiness hook
    /// an event loop uses to schedule a [`Ticket::try_wait`].
    pub fn on_ready(&self, callback: impl FnOnce() + Send + 'static) {
        self.slot.on_ready(callback);
    }

    /// Blocks until the request (or step) is served.
    ///
    /// # Errors
    ///
    /// * The request's own failure ([`ServeError::Core`]), or
    /// * [`ServeError::DeadlineShed`] (retryable) if the request blew its
    ///   tenant's deadline budget while queued and the tenant's overrun
    ///   action is `Shed`, or
    /// * [`ServeError::Terminated`] if the server shut down before
    ///   responding, or if the response was already consumed by
    ///   [`Ticket::try_wait`].
    pub fn wait(self) -> Result<R> {
        self.slot.wait()
    }
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("version", &self.version)
            .field("ready", &self.is_ready())
            .field("degraded", &self.is_degraded())
            .finish()
    }
}

/// A queued request with its artifact pinned and its response slot.
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    key: TenantKey,
    deployment: Arc<Deployment>,
    frames: Vec<Vec<f64>>,
    enqueued: Instant,
    trace: TraceCard,
    /// Shared with the [`Ticket`]: raised before the response completes
    /// when the batch was reconstructed against a truncated deployment.
    degraded: Arc<AtomicBool>,
    responder: Responder<MapBatch>,
}

/// A queued session step: one interval's readings for one stream lane,
/// sharing the session's tracker (and bookkeeping counters) with the
/// [`TrackerSession`] handle that submitted it.
#[derive(Debug)]
pub(crate) struct QueuedStep {
    pub(crate) stream: StreamId,
    pub(crate) name: String,
    pub(crate) tracker: Arc<Mutex<TrackingReconstructor>>,
    pub(crate) readings: Vec<f64>,
    pub(crate) enqueued: Instant,
    pub(crate) frames: Arc<AtomicU64>,
    pub(crate) trace: TraceCard,
    pub(crate) responder: Responder<ThermalMap>,
}

/// Everything the front door can feed the batcher thread. Requests and
/// steps land in the scheduler's lanes; policy updates reconfigure it;
/// `Shutdown` (sent by [`Server::drop`]) makes it drain and exit even
/// though open sessions still hold `Sender` clones.
#[derive(Debug)]
pub(crate) enum BatcherMsg {
    Request(QueuedRequest),
    Step(QueuedStep),
    Policy {
        name: String,
        policy: Option<BatchPolicy>,
    },
    /// Installs (`Some`) or clears (`None`) the scheduler's brownout
    /// hysteresis watermarks — see [`Server::set_brownout`].
    Brownout(Option<BrownoutPolicy>),
    /// Installs the durability hub in the batcher: from here on the loop
    /// folds the hub's checkpoint deadline into its wait and throws
    /// `checkpoint_now` jobs onto the executor's fire-and-forget lane
    /// when the cadence elapses.
    Durability(Arc<DurabilityHub>),
    Shutdown,
}

/// The serving front end: registry + per-tenant micro-batching scheduler +
/// sharded execution engine + metrics, one per fleet process.
///
/// `Server` is `Send + Sync`; submit from any thread. Dropping it flushes
/// queued requests and joins the batcher and worker threads (outstanding
/// [`TrackerSession`] handles survive, but their scheduled steps complete
/// with [`ServeError::Terminated`] from then on).
#[derive(Debug)]
pub struct Server {
    registry: Arc<DeploymentRegistry>,
    executor: Arc<ShardedExecutor>,
    metrics: Arc<ServeMetrics>,
    policy: BatchPolicy,
    /// Front-door mirror of the scheduler's per-tenant overrides (the
    /// admission-control bound is enforced here, before the batcher).
    /// Shared with every open session, so a policy change reaches live
    /// streams too.
    pub(crate) overrides: Arc<RwLock<HashMap<String, BatchPolicy>>>,
    pub(crate) queue: Sender<BatcherMsg>,
    /// The flight recorder every request, step and rejection reports its
    /// lifecycle stages to (see [`crate::trace`]).
    recorder: FlightRecorder,
    /// Stream-lane id allocator for sessions opened through this server.
    pub(crate) next_stream: AtomicU64,
    /// The crash-safe snapshot service, once attached via
    /// [`Server::hydrate`] / [`Server::hydrate_with`]. Sessions opened
    /// while it is installed enroll for background checkpointing.
    durability: Mutex<Option<Arc<DurabilityHub>>>,
    batcher: Option<JoinHandle<()>>,
}

impl Server {
    /// A server over `registry` with `shards` execution workers and the
    /// default [`BatchPolicy`].
    pub fn new(registry: Arc<DeploymentRegistry>, shards: usize) -> Self {
        Self::with_policy(registry, shards, BatchPolicy::default())
    }

    /// A server with an explicit batching policy.
    pub fn with_policy(
        registry: Arc<DeploymentRegistry>,
        shards: usize,
        policy: BatchPolicy,
    ) -> Self {
        let shards = shards.max(1);
        let metrics = Arc::new(ServeMetrics::new(shards));
        let executor = Arc::new(ShardedExecutor::with_metrics(shards, Arc::clone(&metrics)));
        let (queue, rx) = mpsc::channel();
        // The recorder's clock epoch predates every possible submit, so
        // request timestamps always convert to a valid `Duration`; the
        // batcher, the scheduler and the trace ring all share it.
        let recorder = FlightRecorder::with_metrics(DEFAULT_RING_CAPACITY, Arc::clone(&metrics));
        let batcher = {
            let executor = Arc::clone(&executor);
            let metrics = Arc::clone(&metrics);
            let recorder = recorder.clone();
            std::thread::Builder::new()
                .name("eigenmaps-batcher".into())
                .spawn(move || batcher_loop(&rx, &executor, &metrics, policy, recorder))
                .expect("spawn batcher")
        };
        Server {
            registry,
            executor,
            metrics,
            policy,
            overrides: Arc::new(RwLock::new(HashMap::new())),
            queue,
            recorder,
            next_stream: AtomicU64::new(1),
            durability: Mutex::new(None),
            batcher: Some(batcher),
        }
    }

    /// The deployment registry this server resolves names against.
    pub fn registry(&self) -> &Arc<DeploymentRegistry> {
        &self.registry
    }

    /// The execution engine (e.g. for direct, unbatched batches).
    pub fn executor(&self) -> &Arc<ShardedExecutor> {
        &self.executor
    }

    /// The global (fallback) batching policy this server's scheduler
    /// enforces.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// The policy in force for deployment `name`: its per-tenant override
    /// if one is installed, else the global policy.
    pub fn tenant_policy(&self, name: &str) -> BatchPolicy {
        self.overrides
            .read()
            .expect("policy overrides lock poisoned")
            .get(name)
            .copied()
            .unwrap_or(self.policy)
    }

    /// Installs (`Some`) or clears (`None`) a per-tenant [`BatchPolicy`]
    /// override for every version of deployment `name` — latency-tiered
    /// SKUs: a premium tenant gets a tight `max_delay` and small batches,
    /// a bulk tenant big coalescing budgets. The override governs both
    /// the scheduler's readiness/sizing budgets and the nonblocking
    /// door's `max_pending_per_tenant` admission bound; it applies to
    /// requests admitted from now on (already-queued requests are
    /// re-judged under the new budgets on the scheduler's next tick) and
    /// survives hot swaps (keyed by name, not version).
    ///
    /// # Errors
    ///
    /// [`ServeError::Terminated`] if the server is shutting down.
    pub fn set_tenant_policy(&self, name: &str, policy: Option<BatchPolicy>) -> Result<()> {
        {
            let mut overrides = self
                .overrides
                .write()
                .expect("policy overrides lock poisoned");
            match policy {
                Some(policy) => {
                    overrides.insert(name.to_string(), policy);
                }
                None => {
                    overrides.remove(name);
                }
            }
        }
        self.queue
            .send(BatcherMsg::Policy {
                name: name.to_string(),
                policy,
            })
            .map_err(|_| ServeError::Terminated {
                context: "request queue closed",
            })
    }

    /// Installs (`Some`) or clears (`None`) the brownout policy: pending-
    /// frame watermarks with hysteresis (see [`BrownoutPolicy`]). While
    /// the scheduler is in brownout, every flush for a tenant whose
    /// [`OverrunAction`] is `Degrade { keep_k }` is reconstructed against
    /// a truncated `keep_k`-mode deployment — coarser maps, on time —
    /// and the response's [`Ticket::is_degraded`] flag is raised.
    /// Clearing the policy also exits any active brownout.
    ///
    /// [`OverrunAction`]: crate::OverrunAction
    ///
    /// # Errors
    ///
    /// [`ServeError::Terminated`] if the server is shutting down.
    pub fn set_brownout(&self, policy: Option<BrownoutPolicy>) -> Result<()> {
        self.queue
            .send(BatcherMsg::Brownout(policy))
            .map_err(|_| ServeError::Terminated {
                context: "request queue closed",
            })
    }

    /// A point-in-time copy of the serving metrics.
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live metrics hub this server (and its executor) records into —
    /// for transports such as a network front door that add their own
    /// connection/wire gauges to the same snapshot.
    pub fn metrics_hub(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The flight recorder tracing every request's lifecycle through this
    /// server: read its ring with [`FlightRecorder::snapshot`], its
    /// slowest full traces with [`FlightRecorder::exemplars`], or switch
    /// tracing off with [`FlightRecorder::set_enabled`]. Transports (e.g.
    /// the network door) clone it to stamp their own wire stages onto the
    /// same timeline.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Enqueues a request, returning a [`Ticket`] for the response. The
    /// deployment name is resolved (and its current version pinned) now;
    /// frame lengths and reading values are validated now so malformed
    /// requests fail fast instead of poisoning a coalesced batch.
    ///
    /// The request joins **its tenant's own pending queue** (keyed by the
    /// pinned `(name, version)`): it coalesces only with other requests
    /// for the same artifact, and flushes when that queue's frame count,
    /// request count or oldest-request age crosses the [`BatchPolicy`]
    /// budgets — interleaved traffic from other tenants neither flushes
    /// nor delays it. This path never blocks and never rejects on load
    /// (the queue is unbounded); use [`Server::try_submit`] for
    /// admission-controlled submission.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use eigenmaps_core::prelude::*;
    /// use eigenmaps_serve::{DeploymentRegistry, ServeRequest, Server};
    ///
    /// # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    /// let maps: Vec<ThermalMap> = (0..30)
    ///     .map(|t| {
    ///         let w = (t as f64 / 4.0).sin();
    ///         ThermalMap::from_fn(6, 6, |r, c| 40.0 + w * (r + 2 * c) as f64)
    ///     })
    ///     .collect();
    /// let ensemble = MapEnsemble::from_maps(&maps)?;
    /// let registry = Arc::new(DeploymentRegistry::new());
    /// registry.publish(
    ///     "chip",
    ///     Pipeline::new(&ensemble)
    ///         .basis(BasisSpec::EigenExact { k: 2 })
    ///         .sensors(4)
    ///         .design()?,
    /// );
    /// let server = Server::new(Arc::clone(&registry), 2);
    ///
    /// let frames = vec![registry.latest("chip")?.sensors().sample(&ensemble.map(0))];
    /// let ticket = server.submit(ServeRequest::new("chip", frames))?;
    /// assert_eq!(ticket.version(), 1); // pinned at submit
    /// assert_eq!(ticket.wait()?.len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownDeployment`] for an unresolved name.
    /// * [`ServeError::Core`] for frames with the wrong reading count or
    ///   a NaN or ±∞ reading ([`CoreError::NonFiniteReading`]).
    /// * [`ServeError::Terminated`] if the server is shutting down.
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket> {
        self.enqueue(request, false)
    }

    /// The nonblocking, admission-controlled front door: like
    /// [`Server::submit`], but refuses with [`ServeError::Saturated`]
    /// (instead of queueing without bound) when the tenant already has
    /// [`BatchPolicy::max_pending_per_tenant`] requests pending. Combined
    /// with [`Ticket::try_wait`] / [`Ticket::on_ready`], a single event
    /// loop can front many connections with zero blocked threads: submit,
    /// register readiness, poll when woken.
    ///
    /// ```
    /// use std::sync::atomic::{AtomicBool, Ordering};
    /// use std::sync::Arc;
    /// use eigenmaps_core::prelude::*;
    /// use eigenmaps_serve::{DeploymentRegistry, ServeRequest, Server};
    ///
    /// # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    /// let maps: Vec<ThermalMap> = (0..30)
    ///     .map(|t| {
    ///         let w = (t as f64 / 4.0).sin();
    ///         ThermalMap::from_fn(6, 6, |r, c| 40.0 + w * (r + 2 * c) as f64)
    ///     })
    ///     .collect();
    /// let ensemble = MapEnsemble::from_maps(&maps)?;
    /// let registry = Arc::new(DeploymentRegistry::new());
    /// registry.publish(
    ///     "chip",
    ///     Pipeline::new(&ensemble)
    ///         .basis(BasisSpec::EigenExact { k: 2 })
    ///         .sensors(4)
    ///         .design()?,
    /// );
    /// let server = Server::new(Arc::clone(&registry), 2);
    ///
    /// let frames = vec![registry.latest("chip")?.sensors().sample(&ensemble.map(1))];
    /// let mut ticket = server.try_submit(ServeRequest::new("chip", frames))?;
    /// // Event-loop style: a readiness hook instead of a blocked thread.
    /// let woken = Arc::new(AtomicBool::new(false));
    /// let flag = Arc::clone(&woken);
    /// ticket.on_ready(move || flag.store(true, Ordering::Release));
    /// // Poll until the callback has fired (a real loop would sleep on
    /// // its I/O selector and re-poll when woken).
    /// while !woken.load(Ordering::Acquire) {
    ///     std::thread::yield_now();
    /// }
    /// assert_eq!(ticket.try_wait().unwrap()?.len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Union of [`Server::submit`] and [`ServeError::Saturated`] when the
    /// tenant's pending queue is full.
    pub fn try_submit(&self, request: ServeRequest) -> Result<Ticket> {
        self.enqueue(request, true)
    }

    fn enqueue(&self, request: ServeRequest, admission_control: bool) -> Result<Ticket> {
        let (version, deployment) = self.registry.latest_versioned(&request.deployment)?;
        let m = deployment.m();
        for (frame, readings) in request.frames.iter().enumerate() {
            if readings.len() != m {
                return Err(ServeError::Core(CoreError::ShapeMismatch {
                    context: "serve request readings",
                    expected: m,
                    found: readings.len(),
                }));
            }
            // A non-finite reading would fail every request coalesced
            // with this one; refuse it here, alone.
            if let Some(sensor) = readings.iter().position(|x| !x.is_finite()) {
                return Err(ServeError::Core(CoreError::NonFiniteReading {
                    frame,
                    sensor,
                }));
            }
        }
        // Gauge up before handing the request to the batcher: the flush
        // path decrements, and decrement-before-increment would wedge the
        // gauge above zero forever. The nonblocking door reserves its
        // gauge slot atomically, so concurrent admitters cannot overshoot
        // the per-tenant bound.
        if admission_control {
            if let Err(pending) = self.metrics.try_record_tenant_enqueued(
                &request.deployment,
                self.tenant_policy(&request.deployment)
                    .max_pending_per_tenant as u64,
            ) {
                self.recorder.record_saturated(&request.deployment);
                return Err(ServeError::Saturated {
                    name: request.deployment,
                    pending,
                });
            }
        } else {
            self.metrics.record_tenant_enqueued(&request.deployment);
        }
        let trace = self.recorder.begin(&request.deployment);
        let slot = ResponseSlot::new();
        let degraded = Arc::new(AtomicBool::new(false));
        let ticket = Ticket::new(version, Arc::clone(&slot), Some(Arc::clone(&degraded)));
        let frames = request.frames.len();
        let queued = QueuedRequest {
            key: TenantKey::new(&request.deployment, version),
            deployment,
            frames: request.frames,
            enqueued: Instant::now(),
            trace,
            degraded,
            responder: Responder::new(slot),
        };
        if let Err(mpsc::SendError(dead)) = self.queue.send(BatcherMsg::Request(queued)) {
            if let BatcherMsg::Request(dead) = dead {
                self.metrics.record_tenant_dequeued(&dead.key.name, 1);
                dead.trace.record(Stage::Rejected(RejectReason::Terminated));
            }
            return Err(ServeError::Terminated {
                context: "request queue closed",
            });
        }
        self.metrics.record_request(frames);
        Ok(ticket)
    }

    /// Submits and blocks for the response — the synchronous convenience
    /// path.
    ///
    /// # Errors
    ///
    /// Union of [`Server::submit`] and [`Ticket::wait`].
    pub fn serve(&self, deployment: &str, frames: Vec<Vec<f64>>) -> Result<MapBatch> {
        self.submit(ServeRequest::new(deployment, frames))?.wait()
    }

    /// Opens a streaming tracker session against the named deployment's
    /// current version (pinned for the session's lifetime). The session
    /// is a **scheduled workload**: each [`TrackerSession::submit_step`]
    /// (and the blocking [`TrackerSession::step`] convenience) goes
    /// through admission control into the session's own stream lane in
    /// the batcher's fairness rotation, and the batcher thread runs the
    /// tracker arithmetic — never the caller's thread. See
    /// [`TrackerSession`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownDeployment`] for an unresolved name.
    /// * [`ServeError::Core`] for a gain outside `(0, 1]`.
    pub fn open_session(&self, deployment: &str, gain: f64) -> Result<TrackerSession> {
        let mut session = TrackerSession::open_scheduled(self, deployment, None, gain)?;
        self.enroll(&mut session);
        Ok(session)
    }

    /// Warm-starts a stream from an `EMSESS1` snapshot (see
    /// [`TrackerSession::snapshot`]): re-resolves the exact pinned
    /// `(deployment, version)` from this server's registry, refuses a
    /// shape or identity mismatch, imports the temporal-filter state and
    /// returns a scheduled session that continues the stream
    /// bitwise-identically to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] for malformed snapshot bytes.
    /// * [`ServeError::UnknownDeployment`] / [`ServeError::UnknownVersion`]
    ///   if the pinned artifact is no longer published.
    /// * [`ServeError::SnapshotMismatch`] if the resolved deployment's
    ///   shape disagrees with the snapshot.
    pub fn resume_session(&self, bytes: &[u8]) -> Result<TrackerSession> {
        let mut session = TrackerSession::resume_scheduled(self, bytes)?;
        self.enroll(&mut session);
        Ok(session)
    }

    /// Enrolls a freshly opened session for background checkpointing, if
    /// a durability hub is installed.
    fn enroll(&self, session: &mut TrackerSession) {
        let hub = self.durability.lock().expect("durability slot poisoned");
        if let Some(hub) = hub.as_ref() {
            let id = hub.register(session);
            session.set_durable(id);
        }
    }

    /// The installed durability hub, if [`Server::hydrate`] /
    /// [`Server::hydrate_with`] attached one — tests and operators use
    /// it to force a checkpoint ([`DurabilityHub::checkpoint_now`]).
    pub fn durability(&self) -> Option<Arc<DurabilityHub>> {
        self.durability
            .lock()
            .expect("durability slot poisoned")
            .clone()
    }

    /// Attaches a crash-safe snapshot store rooted at `dir` (created if
    /// missing) and hydrates whatever a previous process checkpointed
    /// there: persisted deployments are republished under their exact
    /// `(name, version)` pairs, every recoverable session is resumed
    /// (bitwise-continuing its stream) and re-enrolled under its
    /// preserved durable id, and corrupt or torn entries are skipped and
    /// metered — never a failed boot. From then on the batcher commits a
    /// whole-fleet checkpoint every `cadence` through the executor's
    /// fire-and-forget job lane, and every session opened through this
    /// server is checkpointed too.
    ///
    /// The returned [`Hydration`] carries the recovered sessions; keep
    /// them alive (e.g. hand them to a network front door for `Attach`)
    /// or drop them to discard the recovered streams.
    ///
    /// # Errors
    ///
    /// * [`ServeError::StoreVersionAhead`] if the directory's manifest
    ///   was written by a newer format version — refused, not clobbered.
    /// * [`ServeError::Terminated`] for an unusable store directory, or
    ///   if a durability store is already attached.
    pub fn hydrate(&self, dir: impl AsRef<Path>, cadence: Duration) -> Result<Hydration> {
        let store = SnapshotStore::open(dir, DEFAULT_KEEP).map_err(|_| ServeError::Terminated {
            context: "durability store directory is unusable",
        })?;
        self.hydrate_with(store, cadence)
    }

    /// [`Server::hydrate`] over an explicit [`SnapshotStore`] — the
    /// fault-injection door ([`crate::store::MemIo`]) and the way to
    /// choose a non-default rotation depth.
    ///
    /// # Errors
    ///
    /// See [`Server::hydrate`].
    pub fn hydrate_with(&self, store: SnapshotStore, cadence: Duration) -> Result<Hydration> {
        {
            let installed = self.durability.lock().expect("durability slot poisoned");
            if installed.is_some() {
                return Err(ServeError::Terminated {
                    context: "a durability store is already attached",
                });
            }
        }
        let contents = store.load()?;
        let mut report = HydrationReport {
            skipped: contents.skipped,
            ..HydrationReport::default()
        };
        for artifact in &contents.catalog {
            match Deployment::from_bytes(&artifact.bytes)
                .map_err(ServeError::from)
                .and_then(|d| {
                    self.registry
                        .publish_at(&artifact.name, artifact.version, d)
                }) {
                Ok(()) => {
                    report.deployments += 1;
                    self.metrics.record_hydrated_deployment();
                }
                Err(_) => report.skipped += 1,
            }
        }
        let hub = Arc::new(DurabilityHub::new(
            store,
            Arc::clone(&self.registry),
            Arc::clone(&self.metrics),
            cadence,
        ));
        let mut sessions = Vec::with_capacity(contents.sessions.len());
        for (id, bytes) in &contents.sessions {
            // resume_session would double-enroll once the hub is
            // installed, so sessions are resumed first and adopted under
            // their preserved ids by hand.
            match TrackerSession::resume_scheduled(self, bytes) {
                Ok(mut session) => {
                    hub.adopt(*id, &session);
                    session.set_durable(*id);
                    report.sessions += 1;
                    self.metrics.record_hydrated_session();
                    sessions.push((*id, session));
                }
                Err(_) => report.skipped += 1,
            }
        }
        self.metrics.record_hydration_skipped(report.skipped);
        *self.durability.lock().expect("durability slot poisoned") = Some(Arc::clone(&hub));
        let _ = self.queue.send(BatcherMsg::Durability(hub));
        Ok(Hydration { report, sessions })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Sessions hold `Sender` clones, so closing our end cannot hang
        // up the channel; an explicit shutdown message (FIFO-ordered
        // after everything already submitted) tells the batcher to drain
        // what's pending and exit, then we reap it before the executor is
        // torn down.
        let _ = self.queue.send(BatcherMsg::Shutdown);
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        // A final checkpoint after the drain, so a graceful shutdown
        // persists every session's last-served frame. Runs inline — the
        // pool may already be gone — and best-effort: a failed write
        // leaves the previous checkpoint recoverable.
        let hub = self
            .durability
            .lock()
            .expect("durability slot poisoned")
            .take();
        if let Some(hub) = hub {
            let _ = hub.checkpoint_now();
        }
    }
}

/// The batcher thread: feeds arrivals into the pure [`Scheduler`] and
/// executes its decisions one by one, in the scheduler's fairness order.
/// Batch flushes fan out across the pool and block until stitched;
/// session steps — a few microseconds of solve and synthesis — run to
/// completion right here. Executing in grant order is the whole
/// per-session ordering rule: one stream's steps can never overlap. All
/// timing runs on a `Duration` clock anchored at the recorder's epoch,
/// matching what the scheduler's mock-clock tests exercise. Runs until a
/// `Shutdown` message arrives (or every sender hangs up), then drains.
fn batcher_loop(
    rx: &Receiver<BatcherMsg>,
    executor: &ShardedExecutor,
    metrics: &ServeMetrics,
    policy: BatchPolicy,
    recorder: FlightRecorder,
) {
    let epoch = recorder.epoch();
    let mut scheduler: Scheduler<QueuedRequest, QueuedStep> = Scheduler::new(policy);
    // The durability hub, once the server installs it. Its checkpoint
    // deadline is folded into the wait below, so the cadence needs no
    // extra thread and runs entirely on this loop's injected clock.
    let mut durability: Option<Arc<DurabilityHub>> = None;
    // Truncated deployments for brownout serving, keyed by the exact
    // pinned artifact and the degraded mode count: each `(tenant, keep)`
    // pair pays the truncation copy once, then every degraded flush for
    // it reuses the same Arc. A hot swap is a new TenantKey, so a stale
    // truncation can never serve a new version's traffic.
    let mut truncated: HashMap<(TenantKey, usize), Arc<Deployment>> = HashMap::new();
    'serve: loop {
        let sched_deadline = if scheduler.is_idle() {
            None
        } else {
            // `None` here means "flush by size only" — no representable
            // scheduler deadline.
            scheduler.next_deadline()
        };
        let hub_deadline = durability.as_ref().map(|hub| hub.deadline());
        let deadline = match (sched_deadline, hub_deadline) {
            (Some(s), Some(h)) => Some(s.min(h)),
            (Some(s), None) => Some(s),
            (None, Some(h)) => Some(h),
            (None, None) => None,
        };
        // With no hub installed this reproduces the original wait
        // exactly: idle or deadline-less → block on recv.
        let arrival = match deadline {
            None => match rx.recv() {
                Ok(msg) => Some(msg),
                Err(_) => break,
            },
            Some(deadline) => {
                let remaining = deadline.saturating_sub(epoch.elapsed());
                if remaining.is_zero() {
                    None
                } else {
                    match rx.recv_timeout(remaining) {
                        Ok(msg) => Some(msg),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
        };
        let now = epoch.elapsed();
        if let Some(msg) = arrival {
            if !admit(msg, &mut scheduler, &mut durability, metrics, epoch, now) {
                break 'serve;
            }
        }
        if let Some(hub) = &durability {
            if hub.due(now) {
                // Re-arm first so a slow checkpoint cannot pile up wakes,
                // then run it on the fire-and-forget job lane — serving
                // never waits on fsync. Overlap collapses inside the hub.
                hub.arm(now);
                let job = Arc::clone(hub);
                // A dead pool (shutdown race) just drops the job; the
                // final checkpoint in `Server::drop` still runs inline.
                let _ = executor.spawn(move |_| {
                    let _ = job.checkpoint_now();
                });
            }
        }
        let decisions = scheduler.tick(now);
        // The tick is where brownout transitions happen; mirror the
        // scheduler's state into the gauge right after it.
        metrics.set_brownout(scheduler.in_brownout());
        for decision in decisions {
            execute(decision, executor, metrics, now, &mut truncated);
        }
    }
    // Shutdown drain: every decision ran to completion above, so nothing
    // is in flight — flush everything still scheduled, steps included.
    let drain_now = epoch.elapsed();
    for decision in scheduler.drain() {
        execute(decision, executor, metrics, drain_now, &mut truncated);
    }
}

/// Executes one scheduler decision on the batcher thread — the one
/// execution path of the serving loop and the shutdown drain alike. The
/// drain never sheds, but stays total over the decision type.
fn execute(
    decision: Decision<QueuedRequest, QueuedStep>,
    executor: &ShardedExecutor,
    metrics: &ServeMetrics,
    now: Duration,
    truncated: &mut HashMap<(TenantKey, usize), Arc<Deployment>>,
) {
    match decision {
        Decision::Batch(flush) => execute_flush(flush, executor, metrics, now, truncated),
        Decision::Step(StepDecision { job, .. }) => execute_step(job, metrics),
        Decision::Shed(shed) => execute_shed(shed, metrics, now),
    }
}

/// Feeds one message into the scheduler or the loop's own state — the
/// one admission path of the serving loop and the shutdown drain alike.
/// Returns `false` on `Shutdown`.
fn admit(
    msg: BatcherMsg,
    scheduler: &mut Scheduler<QueuedRequest, QueuedStep>,
    durability: &mut Option<Arc<DurabilityHub>>,
    metrics: &ServeMetrics,
    epoch: Instant,
    now: Duration,
) -> bool {
    match msg {
        BatcherMsg::Request(request) => {
            // Anchor the latency budget at the client's submit time, not
            // at batcher receipt: time spent waiting in the channel (e.g.
            // behind a long executor run) counts toward `max_delay`, so
            // an already-overdue request flushes on the very next tick.
            let enqueued_at = request.enqueued.saturating_duration_since(epoch);
            request.trace.record_at(Stage::Enqueued, enqueued_at);
            scheduler.submit(
                enqueued_at,
                request.key.clone(),
                request.frames.len(),
                request,
            );
        }
        BatcherMsg::Step(step) => {
            step.trace.record(Stage::Enqueued);
            scheduler.submit_stream(step.stream, step);
        }
        BatcherMsg::Policy { name, policy } => scheduler.set_tenant_policy(name, policy),
        BatcherMsg::Brownout(policy) => {
            scheduler.set_brownout(policy);
            metrics.set_brownout(scheduler.in_brownout());
        }
        BatcherMsg::Durability(hub) => {
            // Arm at install so the first background checkpoint waits a
            // full cadence — hydration just read the store, so there is
            // nothing new to persist yet, and tests driving checkpoints
            // explicitly stay deterministic.
            hub.arm(now);
            *durability = Some(hub);
        }
        BatcherMsg::Shutdown => return false,
    }
    true
}

/// Executes one granted session step on the batcher thread and completes
/// its ticket: per-class latency, frame and step accounting, then the
/// response.
fn execute_step(step: QueuedStep, metrics: &ServeMetrics) {
    let QueuedStep {
        name,
        tracker,
        readings,
        enqueued,
        frames,
        trace,
        responder,
        ..
    } = step;
    trace.record(Stage::ShardDispatched);
    let outcome = match tracker.lock() {
        Ok(mut tracker) => tracker.step(&readings).map_err(ServeError::Core),
        // A panicked session poisoned its tracker; fail the step, not
        // the batcher.
        Err(_) => Err(ServeError::Core(CoreError::InvalidArgument {
            context: "session tracker poisoned",
        })),
    };
    trace.record(Stage::KernelDone);
    metrics.record_session_latency(enqueued.elapsed());
    match outcome {
        Ok(map) => {
            frames.fetch_add(1, Ordering::Release);
            metrics.record_session_step(&name);
            trace.record(Stage::Responded);
            responder.send(Ok(map));
        }
        Err(e) => {
            metrics.record_error();
            trace.record(Stage::Rejected(RejectReason::Failed));
            responder.send(Err(e));
        }
    }
}

/// Completes one shed decision: every blown job's ticket finishes with
/// the typed retryable [`ServeError::DeadlineShed`] — sheds complete
/// tickets, they never lose them — and the work is drained from the
/// tenant's queue gauge and counted per tenant. Each trace ends with
/// `Rejected(DeadlineShed)` at the shedding tick's instant.
fn execute_shed(shed: ShedDecision<QueuedRequest>, metrics: &ServeMetrics, now: Duration) {
    let ShedDecision {
        tenant,
        deadline,
        frames,
        jobs,
    } = shed;
    if jobs.is_empty() {
        return;
    }
    metrics.record_shed(&tenant.name, jobs.len() as u64, frames as u64);
    for req in jobs {
        req.trace
            .record_at(Stage::Rejected(RejectReason::DeadlineShed), now);
        req.responder.send(Err(ServeError::DeadlineShed {
            name: tenant.name.clone(),
            deadline,
            waited: req.enqueued.elapsed(),
        }));
    }
}

/// The truncated deployment serving `(tenant, keep)` brownout flushes,
/// created from `exact` and cached on first use. `None` when `keep` is
/// not a valid truncation of this artifact (e.g. larger than its K) —
/// the caller falls back to full-fidelity serving.
fn truncated_for(
    cache: &mut HashMap<(TenantKey, usize), Arc<Deployment>>,
    tenant: &TenantKey,
    keep: usize,
    exact: &Deployment,
) -> Option<Arc<Deployment>> {
    if let Some(cached) = cache.get(&(tenant.clone(), keep)) {
        return Some(Arc::clone(cached));
    }
    let low = Arc::new(exact.truncated(keep).ok()?);
    cache.insert((tenant.clone(), keep), Arc::clone(&low));
    Some(low)
}

/// Executes one flush decision and distributes results (or the shared
/// error) back through each request's responder. A flush carrying the
/// scheduler's `degraded` marker is reconstructed against the cached
/// truncated deployment instead of the pinned one.
fn execute_flush(
    decision: FlushDecision<QueuedRequest>,
    executor: &ShardedExecutor,
    metrics: &ServeMetrics,
    now: std::time::Duration,
    truncated: &mut HashMap<(TenantKey, usize), Arc<Deployment>>,
) {
    let FlushDecision {
        tenant,
        frames: total_frames,
        mut jobs,
        degraded,
        ..
    } = decision;
    if jobs.is_empty() {
        return;
    }
    metrics.record_batch();
    metrics.record_tenant_batch(&tenant.name, jobs.len() as u64, total_frames as u64);
    // The batch formed at the tick instant; then the shard hand-off.
    let coalesced = Stage::Coalesced {
        requests: jobs.len() as u32,
    };
    for req in &jobs {
        req.trace.record_at(coalesced, now);
        req.trace.record(Stage::ShardDispatched);
    }
    // Every job in a decision pinned the same registry artifact (same
    // (name, version) ⇒ same Arc handed out by the registry). Under a
    // degraded flush the truncated artifact substitutes for it; an
    // invalid keep (≥ the artifact's own K, or zero) falls back to
    // full-fidelity serving and the response is not flagged degraded.
    let exact = Arc::clone(&jobs[0].deployment);
    let (deployment, degraded) = match degraded {
        Some(keep) => match truncated_for(truncated, &tenant, keep, &exact) {
            Some(low) => (low, Some(keep)),
            None => (exact, None),
        },
        None => (exact, None),
    };
    if let Some(keep) = degraded {
        metrics.record_degraded_batch(&tenant.name, jobs.len() as u64);
        let stage = Stage::Degraded {
            keep_k: keep as u32,
        };
        for req in &jobs {
            req.degraded.store(true, Ordering::Release);
            req.trace.record(stage);
        }
    }
    let mut combined: Vec<Vec<f64>> = Vec::with_capacity(total_frames);
    let mut counts = Vec::with_capacity(jobs.len());
    for req in jobs.iter_mut() {
        counts.push(req.frames.len());
        combined.append(&mut req.frames); // moves the inner Vecs, no copy
    }
    let combined = Arc::new(combined);
    let outcomes: Vec<Result<MapBatch>> = match executor.execute(&deployment, &combined) {
        Ok(maps) => {
            let mut start = 0;
            counts
                .iter()
                .map(|&count| {
                    start += count;
                    Ok(maps.slice(start - count..start))
                })
                .collect()
        }
        // Overflow is a property of one request's readings: serve each
        // request alone so only the offender fails. Bitwise the same,
        // since a batch equals its frames reconstructed one by one.
        Err(ServeError::Core(CoreError::ReconstructionOverflow { .. })) if jobs.len() > 1 => {
            let mut start = 0;
            counts
                .iter()
                .map(|&count| {
                    let frames = Arc::new(combined[start..start + count].to_vec());
                    start += count;
                    executor.execute(&deployment, &frames)
                })
                .collect()
        }
        Err(e) => jobs.iter().map(|_| Err(e.clone())).collect(),
    };
    for req in &jobs {
        req.trace.record(Stage::KernelDone);
    }
    for (req, outcome) in jobs.into_iter().zip(outcomes) {
        metrics.record_latency(req.enqueued.elapsed());
        match outcome {
            Ok(maps) => {
                req.trace.record(Stage::Responded);
                req.responder.send(Ok(maps));
            }
            Err(e) => {
                metrics.record_error();
                req.trace.record(Stage::Rejected(RejectReason::Failed));
                req.responder.send(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eigenmaps_core::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn fixture(frames: usize) -> (Arc<DeploymentRegistry>, MapEnsemble, Vec<Vec<f64>>) {
        let (d, ens) = crate::testutil::two_mode_deployment(8, 8, 2, 5);
        let frames: Vec<Vec<f64>> = (0..frames)
            .map(|t| d.sensors().sample(&ens.map(t % ens.len())))
            .collect();
        let registry = Arc::new(DeploymentRegistry::new());
        registry.publish("chip", d);
        (registry, ens, frames)
    }

    #[test]
    fn serve_matches_direct_reconstruction() {
        let (registry, _, frames) = fixture(12);
        let server = Server::new(Arc::clone(&registry), 2);
        let maps = server.serve("chip", frames.clone()).unwrap();
        let deployment = registry.latest("chip").unwrap();
        let direct = deployment.reconstruct_batch(&frames).unwrap();
        assert_eq!(maps.len(), direct.len());
        for (a, b) in direct.iter().zip(maps.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn many_small_requests_coalesce_into_fewer_batches() {
        let (registry, _, frames) = fixture(40);
        let policy = BatchPolicy {
            max_batch_frames: 64,
            max_batch_requests: 64,
            max_delay: Duration::from_millis(50),
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(registry, 2, policy);
        let tickets: Vec<Ticket> = frames
            .chunks(2)
            .map(|chunk| {
                server
                    .submit(ServeRequest::new("chip", chunk.to_vec()))
                    .unwrap()
            })
            .collect();
        for (ticket, chunk) in tickets.into_iter().zip(frames.chunks(2)) {
            assert_eq!(ticket.version(), 1);
            let maps = ticket.wait().unwrap();
            assert_eq!(maps.len(), chunk.len());
        }
        let snap = server.metrics();
        assert_eq!(snap.requests, 20);
        assert_eq!(snap.frames, 40);
        assert!(
            snap.batches < 20,
            "coalescing produced {} batches for 20 requests",
            snap.batches
        );
        assert!(snap.latency_p50 > Duration::ZERO);
        // The per-tenant gauges saw the same traffic and drained fully.
        let tenant = &snap.tenants["chip"];
        assert_eq!(tenant.batch_requests, 20);
        assert_eq!(tenant.batch_frames, 40);
        assert_eq!(tenant.queue_depth, 0);
        assert!(tenant.max_queue_depth >= 1);
    }

    #[test]
    fn unknown_deployment_rejected_at_submit() {
        let (registry, _, frames) = fixture(1);
        let server = Server::new(registry, 1);
        assert!(matches!(
            server.serve("nope", frames),
            Err(ServeError::UnknownDeployment { .. })
        ));
    }

    #[test]
    fn malformed_frames_rejected_at_submit() {
        let (registry, _, _) = fixture(0);
        let server = Server::new(registry, 1);
        assert!(matches!(
            server.serve("chip", vec![vec![1.0, 2.0]]),
            Err(ServeError::Core(CoreError::ShapeMismatch { .. }))
        ));
        // The rejected request never entered the queue.
        assert_eq!(server.metrics().requests, 0);
    }

    #[test]
    fn non_finite_request_fails_alone_and_its_neighbours_coalesce() {
        let (registry, _, frames) = fixture(2);
        let direct = registry
            .latest("chip")
            .unwrap()
            .reconstruct_batch(&frames)
            .unwrap();
        // Two requests fill a batch; the 10 s delay never fires.
        let policy = BatchPolicy {
            max_batch_requests: 2,
            max_delay: Duration::from_secs(10),
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(registry, 1, policy);
        let first = server
            .submit(ServeRequest::new("chip", vec![frames[0].clone()]))
            .unwrap();
        for bad_value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = frames[1].clone();
            bad[4] = bad_value;
            let refused = server.submit(ServeRequest::new("chip", vec![frames[0].clone(), bad]));
            assert!(matches!(
                refused,
                Err(ServeError::Core(CoreError::NonFiniteReading {
                    frame: 1,
                    sensor: 4
                }))
            ));
        }
        let second = server
            .submit(ServeRequest::new("chip", vec![frames[1].clone()]))
            .unwrap();
        // The clean neighbours coalesced into one batch and were served
        // bitwise as a direct reconstruction.
        for (ticket, want) in [first, second].into_iter().zip(&direct) {
            let got = ticket.wait().unwrap();
            assert_eq!(got.iter().next().unwrap().as_slice(), want.as_slice());
        }
        let snap = server.metrics();
        assert_eq!((snap.requests, snap.batches, snap.errors), (2, 1, 0));
    }

    #[test]
    fn overflowing_request_fails_alone_and_its_coalesced_neighbour_is_served() {
        let (registry, _, frames) = fixture(2);
        let direct = registry
            .latest("chip")
            .unwrap()
            .reconstruct_batch(&frames)
            .unwrap();
        // Two requests fill a batch; the 10 s delay never fires.
        let policy = BatchPolicy {
            max_batch_requests: 2,
            max_delay: Duration::from_secs(10),
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(registry, 2, policy);
        // Finite readings pass admission; the solve reveals the overflow.
        let huge = vec![1.7e308; frames[0].len()];
        let bad = server
            .submit(ServeRequest::new("chip", vec![frames[0].clone(), huge]))
            .unwrap();
        let good = server
            .submit(ServeRequest::new("chip", frames.clone()))
            .unwrap();
        assert!(matches!(
            bad.wait(),
            Err(ServeError::Core(CoreError::ReconstructionOverflow {
                frame: 1
            }))
        ));
        let got = good.wait().unwrap();
        for (got, want) in got.iter().zip(&direct) {
            assert_eq!(got.as_slice(), want.as_slice());
        }
        let snap = server.metrics();
        assert_eq!((snap.requests, snap.batches, snap.errors), (2, 1, 1));
    }

    #[test]
    fn empty_request_serves_empty() {
        let (registry, _, _) = fixture(0);
        let server = Server::new(registry, 2);
        assert!(server.serve("chip", Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn hot_swap_mid_queue_pins_versions() {
        let (registry, ens, frames) = fixture(6);
        // A long flush delay so both requests sit in the same queue window.
        let policy = BatchPolicy {
            max_batch_frames: 1 << 20,
            max_batch_requests: 1 << 10,
            max_delay: Duration::from_millis(40),
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(Arc::clone(&registry), 2, policy);
        let before = server
            .submit(ServeRequest::new("chip", frames.clone()))
            .unwrap();
        // Hot-swap to a different artifact (more sensors) mid-queue.
        let retrained = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 3 })
            .sensors(7)
            .design()
            .unwrap();
        registry.publish("chip", retrained);
        let after_frames: Vec<Vec<f64>> = (0..4)
            .map(|t| {
                registry
                    .latest("chip")
                    .unwrap()
                    .sensors()
                    .sample(&ens.map(t))
            })
            .collect();
        let after = server
            .submit(ServeRequest::new("chip", after_frames))
            .unwrap();
        assert_eq!(before.version(), 1);
        assert_eq!(after.version(), 2);
        assert_eq!(before.wait().unwrap().len(), 6);
        assert_eq!(after.wait().unwrap().len(), 4);
        // The two versions are distinct tenants: they can never share a
        // batch, so at least two ran.
        assert!(server.metrics().batches >= 2);
    }

    #[test]
    fn unbounded_delay_flushes_by_size_only() {
        let (registry, _, frames) = fixture(8);
        // `Duration::MAX` makes the deadline unrepresentable: the batcher
        // must fall back to blocking recv (no panic) and flush on the
        // frame budget alone.
        let policy = BatchPolicy {
            max_batch_frames: 4,
            max_batch_requests: 1 << 10,
            max_delay: Duration::MAX,
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(registry, 2, policy);
        let tickets: Vec<Ticket> = frames
            .chunks(2)
            .map(|c| {
                server
                    .submit(ServeRequest::new("chip", c.to_vec()))
                    .unwrap()
            })
            .collect();
        for (ticket, chunk) in tickets.into_iter().zip(frames.chunks(2)) {
            assert_eq!(ticket.wait().unwrap().len(), chunk.len());
        }
        assert_eq!(server.metrics().batches, 2);
    }

    #[test]
    fn drop_flushes_pending_requests() {
        let (registry, _, frames) = fixture(5);
        let policy = BatchPolicy {
            max_batch_frames: 1 << 20,
            max_batch_requests: 1 << 10,
            max_delay: Duration::from_secs(30), // would wait half a minute
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(registry, 2, policy);
        let ticket = server.submit(ServeRequest::new("chip", frames)).unwrap();
        drop(server); // shutdown must flush, not abandon
        assert_eq!(ticket.wait().unwrap().len(), 5);
    }

    #[test]
    fn try_wait_polls_without_blocking() {
        let (registry, _, frames) = fixture(3);
        let server = Server::new(registry, 1);
        let mut ticket = server.submit(ServeRequest::new("chip", frames)).unwrap();
        // Poll until ready — never blocks, bounded by the 2 ms deadline.
        let maps = loop {
            if let Some(result) = ticket.try_wait() {
                break result.unwrap();
            }
            std::thread::yield_now();
        };
        assert_eq!(maps.len(), 3);
        // The response was consumed: further polls yield nothing, and a
        // late `wait` reports it instead of hanging.
        assert!(ticket.try_wait().is_none());
        assert!(matches!(ticket.wait(), Err(ServeError::Terminated { .. })));
    }

    #[test]
    fn on_ready_fires_before_wait_returns() {
        let (registry, _, frames) = fixture(2);
        let server = Server::new(registry, 1);
        let ticket = server.submit(ServeRequest::new("chip", frames)).unwrap();
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        ticket.on_ready(move || flag.store(true, Ordering::Release));
        assert_eq!(ticket.wait().unwrap().len(), 2);
        assert!(fired.load(Ordering::Acquire));
    }

    #[test]
    fn on_ready_after_completion_fires_immediately() {
        let (registry, _, frames) = fixture(1);
        let server = Server::new(registry, 1);
        let mut ticket = server.submit(ServeRequest::new("chip", frames)).unwrap();
        while !ticket.is_ready() {
            std::thread::yield_now();
        }
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        ticket.on_ready(move || flag.store(true, Ordering::Release));
        assert!(
            fired.load(Ordering::Acquire),
            "late registration runs inline"
        );
        assert!(ticket.try_wait().unwrap().is_ok());
    }

    #[test]
    fn try_submit_saturates_instead_of_queueing() {
        let (registry, _, frames) = fixture(4);
        // Nothing ever flushes (huge budgets, long delay): the pending
        // queue fills deterministically.
        let policy = BatchPolicy {
            max_batch_frames: 1 << 20,
            max_batch_requests: 1 << 10,
            max_delay: Duration::from_secs(60),
            max_pending_per_tenant: 3,
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(registry, 1, policy);
        let mut tickets = Vec::new();
        for chunk in frames.chunks(1).take(3) {
            tickets.push(
                server
                    .try_submit(ServeRequest::new("chip", chunk.to_vec()))
                    .unwrap(),
            );
        }
        let err = server
            .try_submit(ServeRequest::new("chip", vec![frames[3].clone()]))
            .unwrap_err();
        assert!(matches!(err, ServeError::Saturated { pending: 3, .. }));
        // The blocking path stays unbounded for back-compat.
        tickets.push(
            server
                .submit(ServeRequest::new("chip", vec![frames[3].clone()]))
                .unwrap(),
        );
        drop(server); // drain
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().len(), 1);
        }
    }

    #[test]
    fn shed_tickets_complete_with_the_typed_retryable_error() {
        use crate::scheduler::OverrunAction;
        let (registry, _, frames) = fixture(4);
        // A zero deadline is blown the instant the batcher sees the
        // request, and nothing else can flush it first (huge budgets,
        // long delay): the shed path is the only exit, deterministically.
        let policy = BatchPolicy {
            max_batch_frames: 1 << 20,
            max_batch_requests: 1 << 10,
            max_delay: Duration::from_secs(60),
            deadline: Some(Duration::ZERO),
            overrun: OverrunAction::Shed,
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(registry, 1, policy);
        let ticket = server.submit(ServeRequest::new("chip", frames)).unwrap();
        let err = ticket.wait().unwrap_err();
        assert!(err.is_retryable());
        assert!(
            matches!(&err, ServeError::DeadlineShed { name, deadline, .. }
                if name == "chip" && *deadline == Duration::ZERO),
            "unexpected error: {err:?}"
        );
        let snap = server.metrics();
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.errors, 1);
        let chip = &snap.tenants["chip"];
        assert_eq!(chip.shed_requests, 1);
        assert_eq!(chip.shed_frames, 4);
        // The shed drained the admission gauge: no leaked queue slot.
        assert_eq!(chip.queue_depth, 0);
        assert_eq!(chip.batches, 0);
    }

    #[test]
    fn brownout_serves_degraded_maps_bitwise_equal_to_truncated() {
        use crate::scheduler::{BrownoutPolicy, OverrunAction};
        let (registry, _, frames) = fixture(6);
        let policy = BatchPolicy {
            max_batch_frames: 1 << 20,
            max_batch_requests: 1, // flush each request immediately
            max_delay: Duration::from_secs(60),
            overrun: OverrunAction::Degrade { keep_k: 1 },
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(Arc::clone(&registry), 2, policy);
        // One pending frame is enough to enter brownout: every flush
        // below is degraded, with no timing dependence. The policy
        // message is FIFO-ordered ahead of the requests.
        server
            .set_brownout(Some(BrownoutPolicy {
                enter_above: 1,
                exit_below: 0,
            }))
            .unwrap();
        let mut ticket = server
            .submit(ServeRequest::new("chip", frames.clone()))
            .unwrap();
        let maps = loop {
            if let Some(result) = ticket.try_wait() {
                break result.unwrap();
            }
            std::thread::yield_now();
        };
        assert!(ticket.is_degraded());
        // Degraded responses are exactly the truncated deployment's
        // reconstruction — coarser, but deterministic and honest.
        let truncated = registry.latest("chip").unwrap().truncated(1).unwrap();
        let expected = truncated.reconstruct_batch(&frames).unwrap();
        assert_eq!(maps.len(), expected.len());
        for (a, b) in expected.iter().zip(maps.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let snap = server.metrics();
        assert_eq!(snap.degraded, 1);
        assert!(snap.brownout_entries >= 1);
        let chip = &snap.tenants["chip"];
        assert_eq!(chip.degraded_batches, 1);
        assert_eq!(chip.degraded_requests, 1);
        // Degraded work is served work, not an error.
        assert_eq!(snap.errors, 0);
        assert_eq!(chip.batches, 1);
    }

    #[test]
    fn invalid_degrade_keep_falls_back_to_full_fidelity() {
        use crate::scheduler::{BrownoutPolicy, OverrunAction};
        let (registry, _, frames) = fixture(3);
        // keep_k beyond the artifact's K cannot be truncated to: the
        // flush silently serves the exact deployment and the response is
        // not flagged degraded.
        let policy = BatchPolicy {
            max_batch_requests: 1,
            overrun: OverrunAction::Degrade { keep_k: 64 },
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(Arc::clone(&registry), 1, policy);
        server
            .set_brownout(Some(BrownoutPolicy {
                enter_above: 1,
                exit_below: 0,
            }))
            .unwrap();
        let mut ticket = server
            .submit(ServeRequest::new("chip", frames.clone()))
            .unwrap();
        let maps = loop {
            if let Some(result) = ticket.try_wait() {
                break result.unwrap();
            }
            std::thread::yield_now();
        };
        assert!(!ticket.is_degraded());
        let exact = registry
            .latest("chip")
            .unwrap()
            .reconstruct_batch(&frames)
            .unwrap();
        for (a, b) in exact.iter().zip(maps.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert_eq!(server.metrics().degraded, 0);
    }
}
