//! The pure micro-batching scheduler: per-tenant pending queues, per-session
//! stream lanes, a fairness rotation and size/latency budgets as a
//! clock-injected state machine.
//!
//! [`Scheduler`] makes every coalesce/flush decision for the [`Server`]
//! front end, but holds no threads, no channels and no real clock: time is
//! a plain [`Duration`] since an epoch the caller picks, injected into
//! [`Scheduler::submit`] and [`Scheduler::tick`]. The thread that drives
//! it (the batcher inside [`Server`]) merely feeds arrivals in and
//! executes the returned [`Decision`]s — which means every scheduling
//! property (fairness under interleaved tenants, fairness between streams
//! and batches, latency-budget expiry, version pinning across hot swap) is
//! testable deterministically with a mock clock and zero sleeps. See
//! `crates/serve/tests/scheduler.rs`.
//!
//! # Why per-tenant queues
//!
//! Coalescing is only valid within one pinned artifact, so a FIFO batcher
//! must flush whenever consecutive requests pin different deployments —
//! interleaved multi-tenant traffic degrades to one-request batches. The
//! scheduler instead keeps **one pending queue per [`TenantKey`]** (a
//! deployment name at a pinned version): a tenant's requests coalesce
//! across the gaps other tenants' traffic punches into the arrival order,
//! and each queue enforces its own size and latency budgets.
//!
//! # Stream lanes
//!
//! A streaming session ([`TrackerSession`]) is *stateful*: its steps must
//! execute one at a time, in order, against its private temporal-filter
//! state, so steps can never coalesce the way batch requests do. Rather
//! than a side channel that bypasses scheduling, each session gets a
//! **stream lane** — keyed by [`StreamId`] — in the *same* fairness
//! rotation as the batch queues. A queued step is always ready (a monitor
//! control loop is latency-critical; there is nothing to coalesce it
//! with), and a lane hands out its steps in FIFO order, so the driver
//! keeps a session's temporal filter well-ordered simply by executing the
//! decisions in the order they are returned. [`Scheduler::tick`]
//! interleaves the steps with the batch flushes in one rotation: a
//! backlogged stream's next step comes only after every other ready lane
//! got a grant, so it cannot starve batch tenants, and heavy batch
//! traffic cannot starve a stream.
//!
//! # Fairness rotation
//!
//! Ready lanes are granted round-robin: [`Scheduler::tick`] scans the
//! rotation in order, and **every granted lane moves to the rotation's
//! back**, so a lane with a deep backlog cannot starve the others — its
//! second grant is decided only after every other ready lane got one —
//! and a lane that is never ready costs one inspection per tick.
//! Latency is bounded tenant-locally: each queue's oldest request expires
//! the queue's own [`BatchPolicy::max_delay`] deadline regardless of what
//! other tenants do. Per-tenant [`BatchPolicy::weight`] scales the grant:
//! a weight-`w` tenant takes up to `w` budget-capped batches each time the
//! rotation reaches it, so contended throughput is proportional to weight
//! while every other ready lane still gets its turn every pass.
//!
//! # Per-tenant policy overrides
//!
//! The global [`BatchPolicy`] can be overridden per deployment name with
//! [`Scheduler::set_tenant_policy`] (latency-tiered SKUs: a premium
//! tenant gets a tight `max_delay`, a bulk tenant big batches). Readiness,
//! batch sizing and deadline computation all consult the override, falling
//! back to the global policy; overrides are keyed by name, so they follow
//! the tenant across hot-swap version bumps.
//!
//! # Deadline QoS and brownout
//!
//! Two overload mechanisms ride on the same policy, both judged at the
//! start of every tick, before the fairness scan:
//!
//! - **Load shedding.** A tenant with [`BatchPolicy::deadline`]`: Some`
//!   and [`OverrunAction::Shed`] has every queued job whose budget is
//!   already blown popped into a [`Decision::Shed`] — at the exact
//!   deadline instant (`enqueued + deadline <= now`), never earlier. A
//!   blown job is never served; the driver completes it with a typed
//!   retryable error.
//! - **Brownout.** [`Scheduler::set_brownout`] installs pending-frame
//!   watermarks with hysteresis: reaching [`BrownoutPolicy::enter_above`]
//!   total pending frames enters brownout, falling back to
//!   [`BrownoutPolicy::exit_below`] exits it, and the band between the
//!   two holds the current state so the mode cannot flap. While in
//!   brownout (and whenever one of its jobs overran its deadline), an
//!   [`OverrunAction::Degrade`]` { keep_k }` tenant's flushes carry
//!   [`FlushDecision::degraded`]` = Some(keep_k)`: the driver serves
//!   them against a `keep_k`-mode truncated deployment — a coarse map on
//!   time instead of an exact one late, per the EigenMaps low-rank
//!   tradeoff.
//!
//! # Example (mock clock)
//!
//! ```
//! use std::time::Duration;
//! use eigenmaps_serve::{BatchPolicy, FlushReason, Scheduler, StreamId, TenantKey};
//!
//! let policy = BatchPolicy {
//!     max_batch_frames: 256,
//!     max_batch_requests: 3,
//!     max_delay: Duration::from_millis(1),
//!     ..BatchPolicy::default()
//! };
//! let mut sched: Scheduler<&'static str> = Scheduler::new(policy);
//! let (a, b) = (TenantKey::new("alpha", 1), TenantKey::new("beta", 1));
//!
//! // Interleaved sub-budget traffic: nothing flushes yet.
//! sched.submit(Duration::ZERO, a.clone(), 4, "a0");
//! sched.submit(Duration::ZERO, b.clone(), 4, "b0");
//! sched.submit(Duration::from_micros(10), a.clone(), 4, "a1");
//! assert!(sched.tick(Duration::from_micros(10)).is_empty());
//!
//! // A third request fills alpha's request budget: alpha flushes as one
//! // three-request batch; beta keeps waiting on its own deadline. The
//! // queued steps of a stream are granted in the same tick, in order.
//! sched.submit(Duration::from_micros(20), a.clone(), 4, "a2");
//! sched.submit_stream(StreamId(9), "step0");
//! sched.submit_stream(StreamId(9), "step1");
//! let decisions = sched.tick(Duration::from_micros(20));
//! assert_eq!(decisions.len(), 3);
//! let batch = decisions[0].as_batch().unwrap();
//! assert_eq!(batch.tenant, a);
//! assert_eq!(batch.reason, FlushReason::RequestBudget);
//! assert_eq!(batch.jobs, vec!["a0", "a1", "a2"]);
//! let steps: Vec<_> = decisions[1..].iter().map(|d| d.as_step().unwrap()).collect();
//! assert_eq!((steps[0].stream, steps[0].job), (StreamId(9), "step0"));
//! assert_eq!((steps[1].stream, steps[1].job), (StreamId(9), "step1"));
//!
//! // Beta's latency budget expires exactly at its deadline.
//! assert_eq!(sched.next_deadline(), Some(Duration::from_millis(1)));
//! assert!(sched.tick(Duration::from_micros(999)).is_empty());
//! let expired = sched.tick(Duration::from_millis(1));
//! let batch = expired[0].as_batch().unwrap();
//! assert_eq!(batch.reason, FlushReason::DeadlineExpired);
//! assert_eq!(batch.jobs, vec!["b0"]);
//! assert!(sched.is_idle());
//! ```
//!
//! [`Server`]: crate::Server
//! [`TrackerSession`]: crate::TrackerSession

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::Duration;

/// When the micro-batcher flushes a coalesced batch, enforced **per
/// tenant** (per pinned `(name, version)` queue).
///
/// Each tenant's pending queue flushes as soon as it alone holds
/// [`max_batch_frames`](BatchPolicy::max_batch_frames) frames or
/// [`max_batch_requests`](BatchPolicy::max_batch_requests) requests, or
/// when its own oldest request has waited
/// [`max_delay`](BatchPolicy::max_delay) — other tenants' traffic never
/// advances or postpones these budgets. A batch may exceed
/// `max_batch_frames` by at most one request's frames (requests are
/// atomic, never split across batches).
///
/// ```
/// use std::time::Duration;
/// use eigenmaps_serve::{BatchPolicy, Scheduler, TenantKey};
///
/// // Per-tenant budgets: two tenants fill independently.
/// let policy = BatchPolicy {
///     max_batch_frames: 8,
///     ..BatchPolicy::default()
/// };
/// let mut sched: Scheduler<u32> = Scheduler::new(policy);
/// sched.submit(Duration::ZERO, TenantKey::new("a", 1), 5, 0);
/// sched.submit(Duration::ZERO, TenantKey::new("b", 1), 5, 1);
/// // Ten frames are pending overall, but neither tenant reached its own
/// // 8-frame budget, so nothing flushes.
/// assert!(sched.tick(Duration::ZERO).is_empty());
/// sched.submit(Duration::ZERO, TenantKey::new("a", 1), 3, 2);
/// assert_eq!(sched.tick(Duration::ZERO).len(), 1); // only tenant a
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush a tenant once its pending queue holds at least this many
    /// frames.
    pub max_batch_frames: usize,
    /// Flush a tenant once this many of its requests are pending.
    pub max_batch_requests: usize,
    /// Flush a tenant once its oldest pending request has waited this
    /// long — the latency budget a small lone request pays at worst. An
    /// unrepresentable deadline (`enqueue + max_delay` overflows
    /// `Duration`, e.g. [`Duration::MAX`]) disables the latency budget:
    /// that tenant flushes by size only.
    pub max_delay: Duration,
    /// Admission-control bound used by [`Server::try_submit`]: the
    /// nonblocking front door reports saturation instead of queueing once
    /// a tenant already has this many requests pending. The blocking
    /// [`Server::submit`] path ignores it (back-compat, unbounded).
    ///
    /// [`Server::try_submit`]: crate::Server::try_submit
    /// [`Server::submit`]: crate::Server::submit
    pub max_pending_per_tenant: usize,
    /// Fairness weight: how many batch grants this tenant may take per
    /// rotation pass of [`Scheduler::tick`]. A weight-3 tenant flushes up
    /// to three budget-capped batches each time the rotation reaches it,
    /// where a weight-1 tenant flushes one — proportional throughput under
    /// contention with no starvation (every other ready lane is still
    /// granted once per pass). `0` is treated as `1`; the weight has no
    /// effect while the tenant is alone or under budget (nothing ready to
    /// flush is never flushed early). Set per tenant via
    /// [`Server::set_tenant_policy`].
    ///
    /// [`Server::set_tenant_policy`]: crate::Server::set_tenant_policy
    pub weight: u32,
    /// End-to-end latency budget for this tenant's requests, measured
    /// from their enqueue stamp. `None` (the default) disables deadline
    /// judging. A request still queued once the budget elapses is
    /// *overrun* and handled per [`BatchPolicy::overrun`]: shed at the
    /// next [`Scheduler::tick`], or served degraded. The budget should be
    /// at least [`max_delay`](BatchPolicy::max_delay) — below it, a
    /// `Shed` tenant's requests expire before the coalescing deadline
    /// ever flushes them.
    pub deadline: Option<Duration>,
    /// What to do with this tenant's overrun work (and, for
    /// [`OverrunAction::Degrade`], with its batches while the scheduler
    /// is in brownout). See [`OverrunAction`].
    pub overrun: OverrunAction,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch_frames: 256,
            max_batch_requests: 64,
            max_delay: Duration::from_millis(2),
            max_pending_per_tenant: 1024,
            weight: 1,
            deadline: None,
            overrun: OverrunAction::Shed,
        }
    }
}

/// The batching policy in force per tenant: a global policy plus
/// per-deployment-name overrides, keyed by name so they follow a tenant
/// across hot-swap version bumps. The one place the fallback rule —
/// a tenant's override if one is set, else the global policy — lives:
/// the [`Scheduler`] owns one table, and the [`Server`](crate::Server)
/// shares another with its sessions for admission control.
#[derive(Debug)]
pub(crate) struct PolicyTable {
    global: BatchPolicy,
    overrides: HashMap<String, BatchPolicy>,
}

impl PolicyTable {
    /// A table with no overrides.
    pub(crate) fn new(global: BatchPolicy) -> Self {
        PolicyTable {
            global,
            overrides: HashMap::new(),
        }
    }

    /// The global (fallback) policy.
    pub(crate) fn global(&self) -> &BatchPolicy {
        &self.global
    }

    /// The policy in force for deployment `name`.
    pub(crate) fn get(&self, name: &str) -> &BatchPolicy {
        self.overrides.get(name).unwrap_or(&self.global)
    }

    /// Installs (`Some`) or clears (`None`) `name`'s override.
    pub(crate) fn set(&mut self, name: impl Into<String>, policy: Option<BatchPolicy>) {
        let name = name.into();
        match policy {
            Some(policy) => self.overrides.insert(name, policy),
            None => self.overrides.remove(&name),
        };
    }
}

/// How a tenant's work is handled once its [`BatchPolicy::deadline`] is
/// blown — the QoS half of the policy.
///
/// `Shed` is the premium-tier choice: a control loop that missed its
/// window wants the typed refusal *now* (and will retry with fresh
/// readings) rather than a stale answer late. `Degrade` is the bulk-tier
/// choice: serve the request anyway, but against a
/// [`truncated`](eigenmaps_core::Deployment::truncated) `keep_k`-mode
/// deployment — a coarse map on time instead of an exact one late.
/// `Degrade` tenants are also the ones brownout downgrades: while the
/// scheduler is in brownout (see [`BrownoutPolicy`]), *every* flush of a
/// `Degrade` tenant carries the degrade marker, deadline blown or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverrunAction {
    /// Drop overrun requests at tick time: the scheduler emits
    /// [`Decision::Shed`] and the driver completes them with a typed
    /// retryable error.
    Shed,
    /// Serve overrun (and in-brownout) batches against a deployment
    /// truncated to its `keep_k` strongest modes.
    Degrade {
        /// How many eigenmode coefficients the degraded deployment
        /// keeps (clamped by the driver to the deployment's own `k`).
        keep_k: usize,
    },
}

/// Brownout hysteresis on the scheduler's total pending frames.
///
/// At the start of every [`Scheduler::tick`], the scheduler compares its
/// pending-frame total against this band: **enter** brownout when the
/// total reaches `enter_above`, **exit** once it falls back to
/// `exit_below` or less. The gap between the two watermarks is what
/// keeps the mode from flapping — between them the current state holds.
/// While in brownout, every flush of an [`OverrunAction::Degrade`]
/// tenant carries [`FlushDecision::degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutPolicy {
    /// Enter brownout when pending frames reach this high watermark.
    pub enter_above: usize,
    /// Exit brownout once pending frames fall to this low watermark or
    /// below. Must be below `enter_above` for the hysteresis band to
    /// exist; an inverted band degenerates to judging `enter_above`
    /// alone.
    pub exit_below: usize,
}

/// Identity of one pending queue: a deployment name at the version pinned
/// when the request was admitted.
///
/// Hot-swapping a tenant's deployment changes the version and therefore
/// the key, so requests pinned to the old artifact keep coalescing among
/// themselves (and are never mixed with new-version requests) while both
/// drain — version pinning falls out of the queue identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantKey {
    /// Registry name of the deployment.
    pub name: String,
    /// Pinned registry version.
    pub version: u32,
}

impl TenantKey {
    /// A key for `name` pinned at `version`.
    pub fn new(name: impl Into<String>, version: u32) -> Self {
        TenantKey {
            name: name.into(),
            version,
        }
    }
}

impl fmt::Display for TenantKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@v{}", self.name, self.version)
    }
}

/// Identity of one stream lane: a streaming session whose steps are
/// scheduled in submission order through the fairness rotation.
///
/// Allocated by the [`Server`](crate::Server) front end (one per open
/// [`TrackerSession`](crate::TrackerSession)); the scheduler treats it as
/// an opaque lane id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// One lane in the fairness rotation: a batch tenant queue or a session
/// stream lane.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LaneKey {
    Tenant(TenantKey),
    Stream(StreamId),
}

/// Why a [`FlushDecision`] was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The tenant's pending frames reached
    /// [`BatchPolicy::max_batch_frames`].
    FrameBudget,
    /// The tenant's pending requests reached
    /// [`BatchPolicy::max_batch_requests`].
    RequestBudget,
    /// The tenant's oldest pending request waited
    /// [`BatchPolicy::max_delay`].
    DeadlineExpired,
    /// The scheduler was drained (shutdown).
    Drain,
}

/// One coalesced batch the driver must now execute: a tenant's oldest
/// pending jobs, in submission order, with the frame total precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushDecision<B> {
    /// Which pending queue flushed.
    pub tenant: TenantKey,
    /// Which budget triggered the flush.
    pub reason: FlushReason,
    /// Total frames across `jobs`.
    pub frames: usize,
    /// The job payloads, oldest first — for the serving driver these are
    /// the queued requests; tests use plain markers.
    pub jobs: Vec<B>,
    /// `Some(keep_k)` when this batch must be served degraded against a
    /// deployment truncated to `keep_k` modes: the tenant's
    /// [`OverrunAction::Degrade`] fired, either because the scheduler is
    /// in brownout or because a job in the batch overran its
    /// [`BatchPolicy::deadline`]. `None` serves exact.
    pub degraded: Option<usize>,
}

/// Requests the scheduler refused at tick time because their
/// [`BatchPolicy::deadline`] was already blown and the tenant's overrun
/// action is [`OverrunAction::Shed`]. The driver must still complete
/// every job — with a typed retryable error, not silence (no lost
/// tickets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedDecision<B> {
    /// Which pending queue the jobs were shed from.
    pub tenant: TenantKey,
    /// The deadline budget the jobs overran.
    pub deadline: Duration,
    /// Total frames across `jobs`.
    pub frames: usize,
    /// The shed job payloads, oldest first.
    pub jobs: Vec<B>,
}

/// One granted stream step: the session lane it belongs to and its job
/// payload. Steps are granted in FIFO order within a lane, so a driver
/// that executes decisions in the order returned keeps a stateful
/// session's temporal filter well-ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepDecision<S> {
    /// Which stream lane the step came from.
    pub stream: StreamId,
    /// The step payload (for the serving driver, the queued readings).
    pub job: S,
}

/// One unit of work the driver must now execute, in fairness order: a
/// coalesced tenant batch (of batch-lane payloads `B`) or a single
/// session stream step (a stream-lane payload `S`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision<B, S = B> {
    /// Flush a tenant's coalesced batch.
    Batch(FlushDecision<B>),
    /// Execute one stream step.
    Step(StepDecision<S>),
    /// Complete these deadline-blown jobs with a typed retryable error.
    Shed(ShedDecision<B>),
}

impl<B, S> Decision<B, S> {
    /// The batch decision, if this is one.
    pub fn as_batch(&self) -> Option<&FlushDecision<B>> {
        match self {
            Decision::Batch(d) => Some(d),
            _ => None,
        }
    }

    /// The step decision, if this is one.
    pub fn as_step(&self) -> Option<&StepDecision<S>> {
        match self {
            Decision::Step(d) => Some(d),
            _ => None,
        }
    }

    /// The shed decision, if this is one.
    pub fn as_shed(&self) -> Option<&ShedDecision<B>> {
        match self {
            Decision::Shed(d) => Some(d),
            _ => None,
        }
    }

    /// Consumes into the batch decision, if this is one.
    pub fn into_batch(self) -> Option<FlushDecision<B>> {
        match self {
            Decision::Batch(d) => Some(d),
            _ => None,
        }
    }
}

/// One queued job: its frame count, arrival time and opaque payload.
#[derive(Debug)]
struct Job<T> {
    frames: usize,
    enqueued_at: Duration,
    payload: T,
}

/// One tenant's pending queue with its frame total maintained inline.
#[derive(Debug)]
struct TenantQueue<T> {
    jobs: VecDeque<Job<T>>,
    frames: usize,
}

impl<T> Default for TenantQueue<T> {
    fn default() -> Self {
        TenantQueue {
            jobs: VecDeque::new(),
            frames: 0,
        }
    }
}

/// The pure coalesce/flush state machine. See the [module docs](self) for
/// the design and a worked example.
///
/// Batch lanes hold payloads of type `B` and stream lanes payloads of
/// type `S` (by default the same type), so a driver gets each kind back
/// from the lane kind it queued it in.
///
/// Invariant: a lane (tenant queue or stream lane) appears in the rotation
/// iff it has a non-empty queue, and the rotation order is the fairness
/// order (front = served next among ready lanes).
#[derive(Debug)]
pub struct Scheduler<B, S = B> {
    /// The global policy and the per-tenant overrides (latency-tiered
    /// SKUs).
    policies: PolicyTable,
    tenants: HashMap<TenantKey, TenantQueue<B>>,
    /// Stream lanes with queued steps, each in FIFO order.
    streams: HashMap<StreamId, VecDeque<S>>,
    rotation: VecDeque<LaneKey>,
    /// Brownout watermarks; `None` disables brownout entirely.
    brownout: Option<BrownoutPolicy>,
    /// Whether the scheduler is currently in brownout. Re-judged at the
    /// start of every tick under the hysteresis band.
    in_brownout: bool,
}

impl<B, S> Scheduler<B, S> {
    /// A scheduler enforcing `policy` per tenant.
    pub fn new(policy: BatchPolicy) -> Self {
        Scheduler {
            policies: PolicyTable::new(policy),
            tenants: HashMap::new(),
            streams: HashMap::new(),
            rotation: VecDeque::new(),
            brownout: None,
            in_brownout: false,
        }
    }

    /// The global (fallback) policy this scheduler enforces.
    pub fn policy(&self) -> &BatchPolicy {
        self.policies.global()
    }

    /// Installs (`Some`) or clears (`None`) a per-tenant policy override
    /// for every version of deployment `name`. Takes effect from the next
    /// readiness inspection: already-queued requests are re-judged under
    /// the new budgets on the following [`Scheduler::tick`].
    pub fn set_tenant_policy(&mut self, name: impl Into<String>, policy: Option<BatchPolicy>) {
        self.policies.set(name, policy);
    }

    /// The policy in force for deployment `name` — its override if one is
    /// installed, else the global policy.
    pub fn tenant_policy(&self, name: &str) -> BatchPolicy {
        *self.policies.get(name)
    }

    /// Installs (`Some`) or disables (`None`) brownout watermarks. State
    /// is re-judged at the start of the next [`Scheduler::tick`];
    /// disabling while in brownout exits immediately.
    pub fn set_brownout(&mut self, policy: Option<BrownoutPolicy>) {
        self.brownout = policy;
        if policy.is_none() {
            self.in_brownout = false;
        }
    }

    /// Whether the scheduler is currently in brownout (as of the last
    /// tick's judgment).
    pub fn in_brownout(&self) -> bool {
        self.in_brownout
    }

    /// Enqueues a job of `frames` frames for `tenant`, stamped `now` for
    /// its latency budget. Decisions are made only by [`Scheduler::tick`]
    /// — call it after submitting. The stamp may lag the tick clock (the
    /// serving driver passes the client's submit time, so waiting to be
    /// fed into the scheduler already counts against the budget); a stamp
    /// whose deadline is already past simply flushes on the next tick.
    pub fn submit(&mut self, now: Duration, tenant: TenantKey, frames: usize, payload: B) {
        if !self.tenants.contains_key(&tenant) {
            self.rotation.push_back(LaneKey::Tenant(tenant.clone()));
        }
        let queue = self.tenants.entry(tenant).or_default();
        queue.frames += frames;
        queue.jobs.push_back(Job {
            frames,
            enqueued_at: now,
            payload,
        });
    }

    /// Enqueues one session step at the back of `stream`'s lane. Steps
    /// carry no coalescing budgets or latency stamp: a queued step is
    /// always ready, and [`Scheduler::tick`] grants it in the rotation,
    /// interleaved fairly with batch flushes.
    pub fn submit_stream(&mut self, stream: StreamId, payload: S) {
        let lane = self.streams.entry(stream).or_default();
        if lane.is_empty() {
            self.rotation.push_back(LaneKey::Stream(stream));
        }
        lane.push_back(payload);
    }

    /// Decides every unit of work due at time `now`, in fairness order:
    /// the rotation is scanned in place, every granted lane (a flushed
    /// tenant or a stepped stream) moves to the rotation's back, and the
    /// scan ends once a full rotation's worth of consecutive lanes was
    /// inspected without a grant — so a backlogged lane's next grant is
    /// decided only after every other ready lane got one. Batch and step
    /// decisions interleave in the returned vec exactly as granted; the
    /// driver executes them in order. Returns an empty vec when nothing is
    /// due. Queued steps are always ready, so a tick grants every one of
    /// them — a stream's steps in FIFO order, one per pass of the
    /// rotation.
    ///
    /// The common no-op tick (nothing ready) inspects each lane once and
    /// allocates nothing; a tenant key is cloned only when it actually
    /// flushes. Readiness is monotone within a tick (fixed `now`, no
    /// submits, queues only shrink), so one inspection per non-ready lane
    /// is sufficient.
    ///
    /// QoS runs first, before the fairness scan: brownout state is
    /// re-judged once against the pending-frame watermarks
    /// ([`Scheduler::set_brownout`]), then every `Shed`-tenant job whose
    /// [`BatchPolicy::deadline`] is blown at `now` is popped into a
    /// [`Decision::Shed`] — a blown job is never served. Shedding fires
    /// at the exact deadline instant: a job enqueued at `t` with budget
    /// `d` is shed by `tick(t + d)` and untouched by any earlier tick.
    pub fn tick(&mut self, now: Duration) -> Vec<Decision<B, S>> {
        let mut decisions = Vec::new();
        self.judge_brownout();
        self.shed_expired(now, &mut decisions);
        let mut idx = 0usize;
        let mut since_grant = 0usize;
        while since_grant < self.rotation.len() {
            if idx >= self.rotation.len() {
                idx = 0;
            }
            // Granting removes the lane at `idx` (re-appending it at the
            // back while backlogged), shifting the next candidate into
            // `idx` — don't advance after a grant. The one exception is a
            // granted lane that was already at the rotation's back:
            // re-appending leaves it at `idx`, so wrap the scan to the
            // front instead of re-inspecting it — the documented order
            // visits every other lane before a granted lane's next turn.
            let granted = match &self.rotation[idx] {
                LaneKey::Tenant(key) => match self.readiness(key, now) {
                    Some(reason) => {
                        let key = key.clone();
                        // Weighted grant: the tenant's policy buys it up to
                        // `weight` budget-capped batches in this pass — each
                        // re-judged for readiness, so the extra grants stop
                        // the moment the queue drops under budget.
                        let weight = self.policies.get(&key.name).weight.max(1);
                        decisions.push(Decision::Batch(self.take_batch(&key, reason, Some(now))));
                        for _ in 1..weight {
                            match self.readiness(&key, now) {
                                Some(reason) => {
                                    decisions.push(Decision::Batch(self.take_batch(
                                        &key,
                                        reason,
                                        Some(now),
                                    )));
                                }
                                None => break,
                            }
                        }
                        Some(LaneKey::Tenant(key))
                    }
                    None => None,
                },
                LaneKey::Stream(id) => {
                    let id = *id;
                    decisions.push(Decision::Step(self.take_step(id)));
                    Some(LaneKey::Stream(id))
                }
            };
            match granted {
                Some(lane) => {
                    since_grant = 0;
                    if self.rotation.get(idx) == Some(&lane) {
                        idx = 0;
                    }
                }
                None => {
                    idx += 1;
                    since_grant += 1;
                }
            }
        }
        decisions
    }

    /// Re-judges brownout state against the pending-frame watermarks,
    /// with hysteresis: enter at `enter_above`, exit at `exit_below`,
    /// hold in between.
    fn judge_brownout(&mut self) {
        let Some(policy) = self.brownout else {
            return;
        };
        let pending = self.pending_frames();
        if self.in_brownout {
            if pending <= policy.exit_below {
                self.in_brownout = false;
            }
        } else if pending >= policy.enter_above {
            self.in_brownout = true;
        }
    }

    /// Pops every deadline-blown job belonging to a `Shed` tenant into
    /// one [`ShedDecision`] per tenant, in rotation order. Blown jobs
    /// are a queue prefix under a monotone submit clock, so the pop
    /// stops at the first job still within budget.
    fn shed_expired(&mut self, now: Duration, decisions: &mut Vec<Decision<B, S>>) {
        let lanes: Vec<TenantKey> = self
            .rotation
            .iter()
            .filter_map(|lane| match lane {
                LaneKey::Tenant(key) => {
                    let policy = self.policies.get(&key.name);
                    (policy.deadline.is_some() && policy.overrun == OverrunAction::Shed)
                        .then(|| key.clone())
                }
                LaneKey::Stream(_) => None,
            })
            .collect();
        for key in lanes {
            let budget = self
                .policies
                .get(&key.name)
                .deadline
                .expect("lane filtered on deadline");
            let Some(queue) = self.tenants.get_mut(&key) else {
                continue;
            };
            let mut jobs = Vec::new();
            let mut frames = 0usize;
            while let Some(job) = queue.jobs.front() {
                let blown = job
                    .enqueued_at
                    .checked_add(budget)
                    .is_some_and(|deadline| deadline <= now);
                if !blown {
                    break;
                }
                let job = queue.jobs.pop_front().expect("front exists");
                queue.frames -= job.frames;
                frames += job.frames;
                jobs.push(job.payload);
            }
            if jobs.is_empty() {
                continue;
            }
            if queue.jobs.is_empty() {
                self.tenants.remove(&key);
                let lane = LaneKey::Tenant(key.clone());
                if let Some(pos) = self.rotation.iter().position(|k| k == &lane) {
                    self.rotation.remove(pos);
                }
            }
            decisions.push(Decision::Shed(ShedDecision {
                tenant: key,
                deadline: budget,
                frames,
                jobs,
            }));
        }
    }

    /// Flushes everything still pending (shutdown), round-robin across
    /// lanes, still respecting the size budgets per batch. Drain takes no
    /// clock, so it judges no deadline: a drained batch is degraded only
    /// while the scheduler is in brownout. Every queued step is granted,
    /// each stream's in FIFO order.
    pub fn drain(&mut self) -> Vec<Decision<B, S>> {
        let mut decisions = Vec::new();
        while let Some(lane) = self.rotation.front().cloned() {
            match lane {
                LaneKey::Tenant(key) => decisions.push(Decision::Batch(self.take_batch(
                    &key,
                    FlushReason::Drain,
                    None,
                ))),
                LaneKey::Stream(id) => decisions.push(Decision::Step(self.take_step(id))),
            }
        }
        decisions
    }

    /// The earliest latency-budget deadline across all tenants (each under
    /// the policy in force for it) — when the next [`Scheduler::tick`] is
    /// due absent new submissions. `None` when idle or when every pending
    /// tenant's deadline is unrepresentable (flush-by-size-only). Stream
    /// steps never appear here: a step is ready as soon as it is
    /// submitted, so the driver ticks right after the submit.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.tenants
            .iter()
            .filter_map(|(key, q)| {
                let job = q.jobs.front()?;
                let policy = self.policies.get(&key.name);
                let flush = job.enqueued_at.checked_add(policy.max_delay);
                // A `Shed` tenant's request deadline is a tick instant
                // too: the driver must wake to shed it on time even when
                // the budget is tighter than the coalescing delay.
                let shed = match (policy.deadline, policy.overrun) {
                    (Some(budget), OverrunAction::Shed) => job.enqueued_at.checked_add(budget),
                    _ => None,
                };
                match (flush, shed) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            })
            .min()
    }

    /// Whether no job is pending anywhere — no batch request and no
    /// queued stream step.
    pub fn is_idle(&self) -> bool {
        self.rotation.is_empty()
    }

    /// Total pending requests across all tenants.
    pub fn pending_requests(&self) -> usize {
        self.tenants.values().map(|q| q.jobs.len()).sum()
    }

    /// Total pending frames across all tenants.
    pub fn pending_frames(&self) -> usize {
        self.tenants.values().map(|q| q.frames).sum()
    }

    /// Number of tenants with a non-empty queue.
    pub fn pending_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Pending requests queued for one tenant (0 if none).
    pub fn tenant_depth(&self, tenant: &TenantKey) -> usize {
        self.tenants.get(tenant).map_or(0, |q| q.jobs.len())
    }

    /// Total queued (not yet granted) stream steps across all lanes.
    pub fn pending_steps(&self) -> usize {
        self.streams.values().map(VecDeque::len).sum()
    }

    /// Queued (not yet granted) steps of one stream lane (0 if none).
    pub fn stream_depth(&self, stream: StreamId) -> usize {
        self.streams.get(&stream).map_or(0, VecDeque::len)
    }

    /// Which budget (if any) makes `key` flushable at `now`, under the
    /// policy in force for that tenant.
    fn readiness(&self, key: &TenantKey, now: Duration) -> Option<FlushReason> {
        let policy = self.policies.get(&key.name);
        let queue = self.tenants.get(key)?;
        if queue.frames >= policy.max_batch_frames {
            return Some(FlushReason::FrameBudget);
        }
        if queue.jobs.len() >= policy.max_batch_requests {
            return Some(FlushReason::RequestBudget);
        }
        let oldest = queue.jobs.front()?;
        match oldest.enqueued_at.checked_add(policy.max_delay) {
            Some(deadline) if deadline <= now => Some(FlushReason::DeadlineExpired),
            _ => None,
        }
    }

    /// Pops one batch off `key`'s queue (oldest first, until a size budget
    /// of the tenant's policy fills or the queue empties) and rotates the
    /// tenant to the back. `now` is the instant deadline overruns are
    /// judged at (`None`: not judged).
    fn take_batch(
        &mut self,
        key: &TenantKey,
        reason: FlushReason,
        now: Option<Duration>,
    ) -> FlushDecision<B> {
        let policy = *self.policies.get(&key.name);
        // A `Degrade` tenant's batch is marked degraded while the
        // scheduler is in brownout, or when any job folded into it has
        // already overrun the tenant's deadline (serve coarse on time
        // rather than exact late).
        let degrade_keep = match policy.overrun {
            OverrunAction::Degrade { keep_k } => Some(keep_k),
            OverrunAction::Shed => None,
        };
        let mut degraded = degrade_keep.filter(|_| self.in_brownout);
        let queue = self.tenants.get_mut(key).expect("flushed tenant exists");
        let mut jobs = Vec::new();
        let mut frames = 0usize;
        while let Some(job) = queue.jobs.pop_front() {
            frames += job.frames;
            queue.frames -= job.frames;
            if degraded.is_none() {
                if let (Some(keep), Some(budget), Some(now)) = (degrade_keep, policy.deadline, now)
                {
                    let blown = job
                        .enqueued_at
                        .checked_add(budget)
                        .is_some_and(|deadline| deadline <= now);
                    if blown {
                        degraded = Some(keep);
                    }
                }
            }
            jobs.push(job.payload);
            if frames >= policy.max_batch_frames || jobs.len() >= policy.max_batch_requests {
                break;
            }
        }
        let emptied = queue.jobs.is_empty();
        if emptied {
            self.tenants.remove(key);
        }
        let lane = LaneKey::Tenant(key.clone());
        if let Some(pos) = self.rotation.iter().position(|k| k == &lane) {
            self.rotation.remove(pos);
        }
        if !emptied {
            self.rotation.push_back(lane);
        }
        FlushDecision {
            tenant: key.clone(),
            reason,
            frames,
            jobs,
            degraded,
        }
    }

    /// Pops one step off `id`'s lane (FIFO) and rotates the lane to the
    /// back (or out of the rotation, and the lane away, when its queue
    /// emptied).
    fn take_step(&mut self, id: StreamId) -> StepDecision<S> {
        let lane = self.streams.get_mut(&id).expect("granted stream exists");
        let job = lane.pop_front().expect("granted stream is non-empty");
        let emptied = lane.is_empty();
        if emptied {
            self.streams.remove(&id);
        }
        let key = LaneKey::Stream(id);
        if let Some(pos) = self.rotation.iter().position(|k| k == &key) {
            self.rotation.remove(pos);
        }
        if !emptied {
            self.rotation.push_back(key);
        }
        StepDecision { stream: id, job }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(frames: usize, requests: usize, delay_us: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch_frames: frames,
            max_batch_requests: requests,
            max_delay: Duration::from_micros(delay_us),
            ..BatchPolicy::default()
        }
    }

    fn us(micros: u64) -> Duration {
        Duration::from_micros(micros)
    }

    #[test]
    fn empty_scheduler_is_idle() {
        let sched: Scheduler<u8> = Scheduler::new(BatchPolicy::default());
        assert!(sched.is_idle());
        assert_eq!(sched.next_deadline(), None);
        assert_eq!(sched.pending_requests(), 0);
        assert_eq!(sched.pending_frames(), 0);
    }

    #[test]
    fn frame_budget_beats_request_budget_in_reason() {
        let mut sched: Scheduler<u8> = Scheduler::new(policy(4, 1, 1000));
        sched.submit(Duration::ZERO, TenantKey::new("t", 1), 8, 0);
        let d = sched.tick(Duration::ZERO);
        assert_eq!(d.len(), 1);
        let batch = d[0].as_batch().unwrap();
        assert_eq!(batch.reason, FlushReason::FrameBudget);
        assert_eq!(batch.frames, 8);
        assert!(sched.is_idle());
    }

    #[test]
    fn batch_exceeds_frame_budget_by_at_most_one_request() {
        let mut sched: Scheduler<u8> = Scheduler::new(policy(8, 100, 1000));
        let key = TenantKey::new("t", 1);
        for i in 0..4 {
            sched.submit(Duration::ZERO, key.clone(), 3, i);
        }
        let d = sched.tick(Duration::ZERO);
        // 3+3+3 = 9 >= 8 flushes as one batch; the 4th job (3 frames,
        // below every budget) stays queued for its deadline.
        assert_eq!(d.len(), 1);
        let batch = d[0].as_batch().unwrap();
        assert_eq!(batch.frames, 9);
        assert_eq!(batch.jobs, vec![0, 1, 2]);
        assert_eq!(sched.tenant_depth(&key), 1);
    }

    #[test]
    fn drain_respects_size_budgets_and_round_robins() {
        let mut sched: Scheduler<(char, u8)> = Scheduler::new(policy(100, 2, 1_000_000));
        for i in 0..3 {
            sched.submit(Duration::ZERO, TenantKey::new("a", 1), 1, ('a', i));
            sched.submit(Duration::ZERO, TenantKey::new("b", 1), 1, ('b', i));
        }
        // Below the 2-request readiness threshold? No: 3 >= 2, but drain
        // is exercised directly without tick here.
        let d = sched.drain();
        assert!(sched.is_idle());
        let order: Vec<(String, usize)> = d
            .iter()
            .map(|f| {
                let f = f.as_batch().unwrap();
                (f.tenant.name.clone(), f.jobs.len())
            })
            .collect();
        // a:2, b:2, a:1, b:1 — budget-capped batches, round-robin.
        assert_eq!(
            order,
            vec![
                ("a".to_string(), 2),
                ("b".to_string(), 2),
                ("a".to_string(), 1),
                ("b".to_string(), 1)
            ]
        );
        assert!(d
            .iter()
            .all(|f| f.as_batch().unwrap().reason == FlushReason::Drain));
    }

    #[test]
    fn stream_steps_are_granted_fifo_and_drain_each_tick() {
        let mut sched: Scheduler<u8> = Scheduler::new(policy(100, 100, 1000));
        let s = StreamId(3);
        assert_eq!(sched.stream_depth(s), 0);
        for i in 0..3 {
            sched.submit_stream(s, i);
        }
        assert_eq!(sched.pending_steps(), 3);
        assert!(!sched.is_idle());
        assert_eq!(sched.next_deadline(), None, "steps carry no deadline");
        // A lone lane drains within one tick, in FIFO order.
        let jobs: Vec<u8> = sched
            .tick(Duration::ZERO)
            .iter()
            .map(|d| d.as_step().unwrap().job)
            .collect();
        assert_eq!(jobs, vec![0, 1, 2], "steps grant in FIFO order");
        assert!(sched.is_idle());
        assert_eq!(sched.stream_depth(s), 0);
        assert!(sched.tick(Duration::ZERO).is_empty());
        assert_eq!(format!("{s}"), "stream#3");
    }

    #[test]
    fn streams_and_batches_interleave_round_robin() {
        // One ready tenant with two request-budget batches + two streams
        // with two steps each: grants alternate lanes, so each lane's
        // second grant comes only after every other lane got its first.
        let mut sched: Scheduler<(char, u8)> = Scheduler::new(policy(1 << 20, 2, 1000));
        let t = TenantKey::new("bulk", 1);
        for i in 0..4 {
            sched.submit(Duration::ZERO, t.clone(), 1, ('t', i));
        }
        for i in 0..2 {
            sched.submit_stream(StreamId(1), ('x', i));
            sched.submit_stream(StreamId(2), ('y', i));
        }
        let lanes = |decisions: Vec<Decision<(char, u8)>>| -> Vec<String> {
            decisions
                .iter()
                .map(|d| match d {
                    Decision::Batch(b) => b.tenant.name.clone(),
                    Decision::Step(s) => format!("{}", s.stream),
                    Decision::Shed(s) => format!("shed:{}", s.tenant.name),
                })
                .collect()
        };
        assert_eq!(
            lanes(sched.tick(Duration::ZERO)),
            vec!["bulk", "stream#1", "stream#2", "bulk", "stream#1", "stream#2"]
        );
        assert!(sched.is_idle());
    }

    #[test]
    fn tenant_policy_override_changes_readiness_and_deadline() {
        // Global: flush at 4 requests. Premium tenant: flush every
        // request (request budget 1) with a 10x tighter deadline.
        let mut sched: Scheduler<u8> = Scheduler::new(policy(1 << 20, 4, 1000));
        sched.set_tenant_policy("premium", Some(policy(1 << 20, 1, 100)));
        assert_eq!(sched.tenant_policy("premium").max_batch_requests, 1);
        assert_eq!(sched.tenant_policy("bulk").max_batch_requests, 4);

        let p = TenantKey::new("premium", 1);
        let b = TenantKey::new("bulk", 1);
        sched.submit(Duration::ZERO, p.clone(), 1, 0);
        sched.submit(Duration::ZERO, b.clone(), 1, 1);
        // The premium tenant's deadline (100 µs) wins the global 1 ms.
        assert_eq!(sched.next_deadline(), Some(us(100)));
        let d = sched.tick(Duration::ZERO);
        assert_eq!(d.len(), 1, "only premium is ready at one request");
        assert_eq!(d[0].as_batch().unwrap().tenant, p);
        assert_eq!(sched.tenant_depth(&b), 1);

        // Clearing the override restores the global budgets.
        sched.set_tenant_policy("premium", None);
        sched.submit(us(10), p.clone(), 1, 2);
        assert!(sched.tick(us(10)).is_empty());
        assert_eq!(sched.next_deadline(), Some(us(1000)), "global max_delay");
    }

    #[test]
    fn unrepresentable_deadline_disables_latency_budget() {
        let mut sched: Scheduler<u8> = Scheduler::new(BatchPolicy {
            max_delay: Duration::MAX,
            ..policy(100, 100, 0)
        });
        sched.submit(Duration::from_secs(1), TenantKey::new("t", 1), 1, 0);
        assert_eq!(sched.next_deadline(), None);
        assert!(sched.tick(Duration::from_secs(1 << 30)).is_empty());
        assert_eq!(sched.drain().len(), 1);
    }

    #[test]
    fn weighted_tenant_takes_multiple_grants_per_pass() {
        // Both tenants ready with deep backlogs; "heavy" carries weight 3.
        let mut sched: Scheduler<u8> = Scheduler::new(policy(1 << 20, 1, 1000));
        sched.set_tenant_policy(
            "heavy",
            Some(BatchPolicy {
                weight: 3,
                ..policy(1 << 20, 1, 1000)
            }),
        );
        let h = TenantKey::new("heavy", 1);
        let l = TenantKey::new("light", 1);
        for i in 0..6 {
            sched.submit(Duration::ZERO, h.clone(), 1, i);
        }
        for i in 0..2 {
            sched.submit(Duration::ZERO, l.clone(), 1, 10 + i);
        }
        let order: Vec<String> = sched
            .tick(Duration::ZERO)
            .iter()
            .map(|d| d.as_batch().unwrap().tenant.name.clone())
            .collect();
        // Per pass: heavy ×3, then light ×1 — never light starved out.
        assert_eq!(
            order,
            vec!["heavy", "heavy", "heavy", "light", "heavy", "heavy", "heavy", "light"]
        );
        assert!(sched.is_idle());
    }

    #[test]
    fn zero_weight_is_treated_as_one() {
        let mut sched: Scheduler<u8> = Scheduler::new(BatchPolicy {
            weight: 0,
            ..policy(1 << 20, 1, 1000)
        });
        let t = TenantKey::new("t", 1);
        sched.submit(Duration::ZERO, t.clone(), 1, 0);
        sched.submit(Duration::ZERO, t.clone(), 1, 1);
        assert_eq!(sched.tick(Duration::ZERO).len(), 2);
        assert!(sched.is_idle());
    }

    #[test]
    fn weighted_grants_stop_when_budget_runs_out() {
        // Weight 5, but only two request-budget batches are ready: the
        // extra grants must not flush an under-budget remainder early.
        let mut sched: Scheduler<u8> = Scheduler::new(BatchPolicy {
            weight: 5,
            ..policy(1 << 20, 2, 1_000_000)
        });
        let t = TenantKey::new("t", 1);
        for i in 0..5 {
            sched.submit(Duration::ZERO, t.clone(), 1, i);
        }
        let d = sched.tick(Duration::ZERO);
        assert_eq!(d.len(), 2, "two full batches, fifth job under budget");
        assert_eq!(sched.tenant_depth(&t), 1);
    }

    #[test]
    fn shed_fires_at_the_exact_deadline_instant() {
        // Deadline tighter than the coalescing delay: the job expires
        // before it would ever flush.
        let mut sched: Scheduler<u8> = Scheduler::new(BatchPolicy {
            deadline: Some(us(500)),
            overrun: OverrunAction::Shed,
            ..policy(1 << 20, 100, 1000)
        });
        let t = TenantKey::new("ctl", 1);
        sched.submit(Duration::ZERO, t.clone(), 4, 7);
        // The shed instant is a wake-up deadline.
        assert_eq!(sched.next_deadline(), Some(us(500)));
        // One nanosecond early: untouched.
        assert!(sched.tick(us(500) - Duration::from_nanos(1)).is_empty());
        assert_eq!(sched.tenant_depth(&t), 1);
        // Exactly at the instant: shed, never served.
        let d = sched.tick(us(500));
        assert_eq!(d.len(), 1);
        let shed = d[0].as_shed().unwrap();
        assert_eq!(shed.tenant, t);
        assert_eq!(shed.deadline, us(500));
        assert_eq!(shed.frames, 4);
        assert_eq!(shed.jobs, vec![7]);
        assert!(sched.is_idle());
    }

    #[test]
    fn shed_pops_only_the_blown_prefix() {
        let mut sched: Scheduler<u8> = Scheduler::new(BatchPolicy {
            deadline: Some(us(100)),
            overrun: OverrunAction::Shed,
            ..policy(1 << 20, 100, 1_000_000)
        });
        let t = TenantKey::new("ctl", 1);
        sched.submit(Duration::ZERO, t.clone(), 1, 0);
        sched.submit(us(50), t.clone(), 1, 1);
        sched.submit(us(90), t.clone(), 1, 2);
        // At 160 µs the 0 µs and 50 µs arrivals have blown their 100 µs
        // budget; the 90 µs arrival (due at 190 µs) has not.
        let d = sched.tick(us(160));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].as_shed().unwrap().jobs, vec![0, 1]);
        assert_eq!(sched.tenant_depth(&t), 1, "in-budget job stays queued");
        assert_eq!(sched.pending_frames(), 1);
    }

    #[test]
    fn degrade_tenant_marks_overrun_batches_instead_of_shedding() {
        let mut sched: Scheduler<u8> = Scheduler::new(BatchPolicy {
            deadline: Some(us(100)),
            overrun: OverrunAction::Degrade { keep_k: 3 },
            ..policy(1 << 20, 100, 200)
        });
        let t = TenantKey::new("bulk", 1);
        sched.submit(Duration::ZERO, t.clone(), 2, 0);
        // Past both the flush delay and the request deadline: the job is
        // served (not shed), but degraded.
        let d = sched.tick(us(300));
        assert_eq!(d.len(), 1);
        let batch = d[0].as_batch().unwrap();
        assert_eq!(batch.reason, FlushReason::DeadlineExpired);
        assert_eq!(batch.degraded, Some(3));
        assert!(sched.is_idle());
    }

    #[test]
    fn brownout_enters_and_exits_by_hysteresis() {
        let mut sched: Scheduler<u8> = Scheduler::new(BatchPolicy {
            overrun: OverrunAction::Degrade { keep_k: 2 },
            ..policy(1 << 20, 4, 1_000_000)
        });
        sched.set_brownout(Some(BrownoutPolicy {
            enter_above: 10,
            exit_below: 2,
        }));
        let t = TenantKey::new("bulk", 1);
        // 9 pending frames: under the high watermark, exact service.
        for i in 0..3 {
            sched.submit(Duration::ZERO, t.clone(), 3, i);
        }
        assert!(sched.tick(Duration::ZERO).is_empty());
        assert!(!sched.in_brownout());
        // A 4th submit crosses the 10-frame watermark AND the 4-request
        // budget: the flush this tick is degraded.
        sched.submit(Duration::ZERO, t.clone(), 3, 3);
        let d = sched.tick(Duration::ZERO);
        assert!(sched.in_brownout());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].as_batch().unwrap().degraded, Some(2));
        assert!(sched.is_idle());
        // Pending fell to 0 <= exit_below: the next tick exits brownout,
        // and a fresh sub-watermark burst is served exact again.
        assert!(sched.tick(us(5)).is_empty());
        assert!(!sched.in_brownout());
        for i in 0..4 {
            sched.submit(us(10), t.clone(), 1, 10 + i);
        }
        let d = sched.tick(us(10));
        assert!(!sched.in_brownout());
        assert_eq!(d[0].as_batch().unwrap().degraded, None);
    }

    #[test]
    fn brownout_holds_state_between_the_watermarks() {
        let mut sched: Scheduler<u8> = Scheduler::new(policy(1 << 20, 100, 1_000_000));
        sched.set_brownout(Some(BrownoutPolicy {
            enter_above: 10,
            exit_below: 2,
        }));
        let t = TenantKey::new("bulk", 1);
        // 5 frames sits inside the band: out stays out.
        sched.submit(Duration::ZERO, t.clone(), 5, 0);
        sched.tick(Duration::ZERO);
        assert!(!sched.in_brownout());
        // Cross the high watermark: in.
        sched.submit(Duration::ZERO, t.clone(), 6, 1);
        sched.tick(Duration::ZERO);
        assert!(sched.in_brownout());
        // Back inside the band (5 frames after a drain to below 10 but
        // above 2): in stays in — no flapping.
        let mut sched2: Scheduler<u8> = Scheduler::new(policy(1 << 20, 100, 1_000_000));
        sched2.set_brownout(Some(BrownoutPolicy {
            enter_above: 10,
            exit_below: 2,
        }));
        sched2.submit(Duration::ZERO, t.clone(), 11, 0);
        sched2.tick(Duration::ZERO);
        assert!(sched2.in_brownout());
        // Disabling exits immediately.
        sched.set_brownout(None);
        assert!(!sched.in_brownout());
    }

    #[test]
    fn granting_the_back_lane_wraps_the_scan_to_the_front() {
        // Regression for the rotation-index bug: lane order [idle, deep]
        // puts the deep-backlog lane at the rotation's back. Granting it
        // re-appends it at the same index; the scan must wrap past the
        // front lane before re-inspecting it, per the documented "every
        // granted lane moves to the rotation's back" order.
        let mut sched: Scheduler<u8> = Scheduler::new(policy(1 << 20, 100, 1_000_000));
        sched.set_tenant_policy("deep", Some(policy(1 << 20, 1, 1_000_000)));
        let idle = TenantKey::new("idle", 1);
        let deep = TenantKey::new("deep", 1);
        // idle enters the rotation first (front) but is never ready; deep
        // sits at the back with a 4-job backlog, ready every inspection.
        sched.submit(Duration::ZERO, idle.clone(), 1, 0);
        for i in 0..4 {
            sched.submit(Duration::ZERO, deep.clone(), 1, 10 + i);
        }
        let order: Vec<String> = sched
            .tick(Duration::ZERO)
            .iter()
            .map(|d| d.as_batch().unwrap().tenant.name.clone())
            .collect();
        assert_eq!(order, vec!["deep", "deep", "deep", "deep"]);
        assert_eq!(sched.tenant_depth(&idle), 1, "idle lane never granted");
        // The rotation still holds idle at the front: a now-ready idle
        // lane is granted before deep's next turn.
        sched.submit(Duration::ZERO, deep.clone(), 1, 20);
        sched.set_tenant_policy("idle", Some(policy(1 << 20, 1, 1_000_000)));
        let order: Vec<String> = sched
            .tick(Duration::ZERO)
            .iter()
            .map(|d| d.as_batch().unwrap().tenant.name.clone())
            .collect();
        assert_eq!(order, vec!["idle", "deep"]);
    }

    #[test]
    fn tenant_depth_tracks_queue() {
        let mut sched: Scheduler<u8> = Scheduler::new(policy(100, 100, 1000));
        let key = TenantKey::new("t", 3);
        assert_eq!(sched.tenant_depth(&key), 0);
        sched.submit(Duration::ZERO, key.clone(), 2, 0);
        sched.submit(Duration::ZERO, key.clone(), 2, 1);
        assert_eq!(sched.tenant_depth(&key), 2);
        assert_eq!(sched.pending_frames(), 4);
        assert_eq!(format!("{key}"), "t@v3");
    }
}
