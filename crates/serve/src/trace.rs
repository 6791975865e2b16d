//! The flight recorder: per-request stage tracing through the whole
//! serving lifecycle, recorded into a fixed-capacity lock-free ring.
//!
//! `ServeMetrics` answers "how is the fleet doing" with aggregate
//! counters and histograms; this module answers "what happened to *that*
//! request". Every batch request, session step and wire frame gets a
//! [`TraceId`] at admission and emits typed [`Stage`] events as it moves
//! through the stack:
//!
//! ```text
//! Admitted → Enqueued → Coalesced(N) → ShardDispatched → KernelDone → Responded
//!     │                                                └→ Degraded(k') ─┘
//!     └────────────────────────────────────────────────→ Rejected(reason)
//! ```
//!
//! `Degraded(k')` is the brownout marker: the response was served, but
//! against a deployment truncated to `k'` modes. `Rejected` with the
//! `DeadlineShed` reason is the load-shedding terminal.
//!
//! Timestamps are [`Duration`]s on the server's injected monotonic clock
//! ([`MonotonicClock`]) — the same seam the scheduler's deadline
//! arithmetic uses — so a mock-clock test drives `*_at` entry points
//! with explicit durations and asserts the **exact** event sequence a
//! given arrival timeline produces.
//!
//! # The ring
//!
//! Events land in a fixed-capacity ring of seqlock-style slots:
//!
//! * **No allocation, no locks on the hot path** — a writer claims a
//!   ticket with one `fetch_add`, publishes the slot's payload between
//!   two sequence-counter transitions, and never blocks. Every slot
//!   field is an atomic; there is no `unsafe` anywhere.
//! * **Overwrite-oldest** — the ring always holds the newest `capacity`
//!   events; history older than that is dropped, and
//!   [`FlightRecorder::dropped`] counts exactly how much.
//! * **Torn-proof reads** — [`FlightRecorder::snapshot`] revalidates
//!   each slot's sequence counter after reading its payload and skips
//!   slots that were concurrently overwritten, so a snapshot never
//!   contains a half-written event.
//!
//! # On top of the ring
//!
//! A finished trace is folded into per-tenant **stage histograms** in
//! [`ServeMetrics`] (queue-wait vs execute vs respond — see
//! [`StageLatency`]), and offered to the **slow-request exemplar
//! store**, which keeps the [`EXEMPLARS_PER_TENANT`] worst full traces
//! per tenant ([`FlightRecorder::exemplars`]) so the outlier behind a
//! bad p99 can be read stage by stage. The `eigenmaps-net` crate serves
//! both — plus the raw ring — over the wire as the `EMWIRE2` `Trace`
//! reply.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use eigenmaps_core::clock::MonotonicClock;

use crate::metrics::{ServeMetrics, StageLatency};

/// Default event capacity of the recorder's ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// How many worst-case (slowest) full traces the exemplar store keeps
/// per tenant.
pub const EXEMPLARS_PER_TENANT: usize = 4;

/// Identifier of one traced request, session step or wire frame, unique
/// within a recorder's lifetime. Id `0` is reserved for "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Why a traced request ended without a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Refused at admission: the tenant's pending queue was full.
    Saturated,
    /// The server shut down before the request could be served.
    Terminated,
    /// Execution failed (the error went back to the client).
    Failed,
    /// The request overran its tenant's QoS deadline while queued and
    /// was load-shed by the scheduler (typed retryable error to the
    /// client).
    DeadlineShed,
}

impl RejectReason {
    /// Stable wire code (1–4) for this reason.
    pub fn code(&self) -> u64 {
        match self {
            RejectReason::Saturated => 1,
            RejectReason::Terminated => 2,
            RejectReason::Failed => 3,
            RejectReason::DeadlineShed => 4,
        }
    }

    /// Decodes a wire code produced by [`RejectReason::code`].
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(RejectReason::Saturated),
            2 => Some(RejectReason::Terminated),
            3 => Some(RejectReason::Failed),
            4 => Some(RejectReason::DeadlineShed),
            _ => None,
        }
    }
}

/// One typed lifecycle stage of a traced request. The stage taxonomy is
/// documented in ARCHITECTURE.md's observability section; codes and args
/// are stable wire values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Passed admission control at the front door.
    Admitted,
    /// Entered its tenant's pending lane in the scheduler.
    Enqueued,
    /// Granted by the scheduler into a flush of `requests` coalesced
    /// requests.
    Coalesced {
        /// How many requests share the flushed batch.
        requests: u32,
    },
    /// Handed to the sharded executor.
    ShardDispatched,
    /// The synthesis kernel finished.
    KernelDone,
    /// The response was delivered to the waiter.
    Responded,
    /// The request ended without a response.
    Rejected(RejectReason),
    /// The response was served **degraded**: reconstructed against a
    /// deployment truncated to `keep_k` modes because the tenant's QoS
    /// action is `Degrade` and the server was in brownout (or the
    /// request overran its deadline). Emitted just before
    /// [`Stage::Responded`]; non-terminal.
    Degraded {
        /// How many eigenmode coefficients the serving deployment kept.
        keep_k: u32,
    },
}

impl Stage {
    /// Stable wire code (0–7) for this stage.
    pub fn code(&self) -> u8 {
        match self {
            Stage::Admitted => 0,
            Stage::Enqueued => 1,
            Stage::Coalesced { .. } => 2,
            Stage::ShardDispatched => 3,
            Stage::KernelDone => 4,
            Stage::Responded => 5,
            Stage::Rejected(_) => 6,
            Stage::Degraded { .. } => 7,
        }
    }

    /// The stage's argument: coalesced request count for
    /// [`Stage::Coalesced`], the [`RejectReason::code`] for
    /// [`Stage::Rejected`], the kept mode count for [`Stage::Degraded`],
    /// `0` otherwise.
    pub fn arg(&self) -> u64 {
        match self {
            Stage::Coalesced { requests } => *requests as u64,
            Stage::Rejected(reason) => reason.code(),
            Stage::Degraded { keep_k } => *keep_k as u64,
            _ => 0,
        }
    }

    /// Decodes a `(code, arg)` pair produced by [`Stage::code`] /
    /// [`Stage::arg`].
    pub fn from_wire(code: u8, arg: u64) -> Option<Self> {
        match code {
            0 => Some(Stage::Admitted),
            1 => Some(Stage::Enqueued),
            2 => Some(Stage::Coalesced {
                requests: u32::try_from(arg).ok()?,
            }),
            3 => Some(Stage::ShardDispatched),
            4 => Some(Stage::KernelDone),
            5 => Some(Stage::Responded),
            6 => Some(Stage::Rejected(RejectReason::from_code(arg)?)),
            7 => Some(Stage::Degraded {
                keep_k: u32::try_from(arg).ok()?,
            }),
            _ => None,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Admitted => write!(f, "admitted"),
            Stage::Enqueued => write!(f, "enqueued"),
            Stage::Coalesced { requests } => write!(f, "coalesced({requests})"),
            Stage::ShardDispatched => write!(f, "shard-dispatched"),
            Stage::KernelDone => write!(f, "kernel-done"),
            Stage::Responded => write!(f, "responded"),
            Stage::Rejected(reason) => write!(f, "rejected({reason:?})"),
            Stage::Degraded { keep_k } => write!(f, "degraded({keep_k})"),
        }
    }
}

/// One decoded event out of the ring: which trace, which tenant, which
/// stage, when (duration since the recorder's epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The trace this event belongs to.
    pub trace: TraceId,
    /// The tenant (deployment name) the trace was admitted under.
    pub tenant: String,
    /// The lifecycle stage.
    pub stage: Stage,
    /// When it happened, on the recorder's monotonic clock.
    pub at: Duration,
}

/// A torn-proof copy of the ring: the events still resident (oldest
/// first), how many were ever written, and how many are gone — either
/// overwritten by newer traffic or skipped because a concurrent writer
/// held the slot mid-publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSnapshot {
    /// Decoded events, in write order (oldest surviving first).
    pub events: Vec<TraceEvent>,
    /// Events ever written to the ring.
    pub written: u64,
    /// Events no longer readable: overwritten by newer events, plus
    /// writes abandoned to a lapping writer (counted once each).
    pub dropped: u64,
}

/// One kept worst-case trace: the stages the request went through with
/// their timestamps, and the total admitted-to-terminal latency it is
/// ranked by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceExemplar {
    /// The trace id.
    pub trace: TraceId,
    /// Total latency from admission to the terminal stage.
    pub total: Duration,
    /// The stages observed, in lifecycle order, with their timestamps.
    pub stages: Vec<(Stage, Duration)>,
}

/// Stage-slot indices on a [`TraceCard`] (== [`Stage::code`]).
const STAGE_SLOTS: usize = 8;
const SLOT_ADMITTED: usize = 0;
const SLOT_COALESCED: usize = 2;
const SLOT_DISPATCHED: usize = 3;
const SLOT_KERNEL: usize = 4;
const SLOT_RESPONDED: usize = 5;
const SLOT_REJECTED: usize = 6;
const SLOT_DEGRADED: usize = 7;

/// Slot indices in lifecycle order — what exemplar timelines iterate.
/// `Degraded` (slot 7, a late wire addition) happens between the kernel
/// finishing and the response going out, so it sorts before the
/// terminals despite its higher wire code.
const LIFECYCLE_ORDER: [usize; STAGE_SLOTS] = [0, 1, 2, 3, 4, 7, 5, 6];

/// One seqlock-style ring slot. `seq` advances `2·turn → 2·turn+1`
/// (writer in progress) `→ 2·turn+2` (turn's payload published); readers
/// accept a slot only when they observe the same even value before and
/// after the payload loads.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    /// Interned tenant id (high 32 bits) | stage code (low 8 bits).
    tenant_stage: AtomicU64,
    arg: AtomicU64,
    at_ns: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            tenant_stage: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            at_ns: AtomicU64::new(0),
        }
    }
}

/// Interned tenant names: the ring stores a `u32` per event instead of a
/// heap string, so the hot path never allocates. Read-mostly, like the
/// metrics tenant registry.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

#[derive(Debug)]
struct Shared {
    clock: MonotonicClock,
    enabled: AtomicBool,
    next_trace: AtomicU64,
    slots: Vec<Slot>,
    /// Ring write tickets ever claimed (== events written or abandoned).
    head: AtomicU64,
    /// Writes abandoned because a lapping writer already held the slot.
    contended: AtomicU64,
    interner: RwLock<Interner>,
    exemplars: Mutex<HashMap<u32, Vec<TraceExemplar>>>,
    metrics: Arc<ServeMetrics>,
}

impl Shared {
    /// Interns `tenant`, returning its stable id.
    fn tenant_id(&self, tenant: &str) -> u32 {
        if let Some(&id) = self
            .interner
            .read()
            .expect("trace interner lock poisoned")
            .ids
            .get(tenant)
        {
            return id;
        }
        let mut interner = self.interner.write().expect("trace interner lock poisoned");
        if let Some(&id) = interner.ids.get(tenant) {
            return id;
        }
        let id = interner.names.len() as u32;
        interner.names.push(tenant.to_string());
        interner.ids.insert(tenant.to_string(), id);
        id
    }

    fn tenant_name(&self, id: u32) -> String {
        self.interner
            .read()
            .expect("trace interner lock poisoned")
            .names
            .get(id as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// The lock-free ring write: claim a ticket, publish the payload
    /// between the slot's two seq transitions. If the slot's CAS fails
    /// the writer was lapped while stalled — the write is abandoned (not
    /// torn) and counted in `contended`.
    fn write(&self, trace: u64, tenant: u32, stage: Stage, at: Duration) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(ticket % cap) as usize];
        let turn = ticket / cap;
        if slot
            .seq
            .compare_exchange(2 * turn, 2 * turn + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // A faster writer lapped the ring and took this slot's next
            // turn while we were stalled; give the event up cleanly.
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ns = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.tenant_stage.store(
            ((tenant as u64) << 8) | stage.code() as u64,
            Ordering::Relaxed,
        );
        slot.arg.store(stage.arg(), Ordering::Relaxed);
        slot.at_ns.store(ns, Ordering::Relaxed);
        slot.seq.store(2 * turn + 2, Ordering::Release);
    }

    /// Folds a finished card into the per-tenant stage histograms and
    /// offers it to the exemplar store.
    fn finalize(&self, card: &CardState) {
        let stamps: [Option<u64>; STAGE_SLOTS] = std::array::from_fn(|i| {
            let raw = card.stages[i].load(Ordering::Acquire);
            if raw == 0 {
                None
            } else {
                Some(raw - 1)
            }
        });
        let terminal = stamps[SLOT_RESPONDED].or(stamps[SLOT_REJECTED]);
        {
            // Borrow the interned name rather than cloning it: this runs
            // once per finished request. The scope releases the interner
            // before the exemplar lock below is taken.
            let interner = self.interner.read().expect("trace interner lock poisoned");
            let name = interner
                .names
                .get(card.tenant as usize)
                .map_or("", String::as_str);
            let span = |a: Option<u64>, b: Option<u64>| match (a, b) {
                (Some(a), Some(b)) => Some(Duration::from_nanos(b.saturating_sub(a))),
                _ => None,
            };
            if let Some(wait) = span(stamps[SLOT_ADMITTED], stamps[SLOT_DISPATCHED]) {
                self.metrics
                    .record_stage_latency(name, StageLatency::QueueWait, wait);
            }
            if let Some(execute) = span(stamps[SLOT_DISPATCHED], stamps[SLOT_KERNEL]) {
                self.metrics
                    .record_stage_latency(name, StageLatency::Execute, execute);
            }
            if let Some(respond) = span(stamps[SLOT_KERNEL], terminal) {
                self.metrics
                    .record_stage_latency(name, StageLatency::Respond, respond);
            }
        }
        let (Some(admitted), Some(terminal)) = (stamps[SLOT_ADMITTED], terminal) else {
            return; // no admission or no terminal stage: nothing to rank
        };
        let total = Duration::from_nanos(terminal.saturating_sub(admitted));
        let mut store = self.exemplars.lock().expect("trace exemplar lock poisoned");
        let kept = store.entry(card.tenant).or_default();
        // Hot path: once the store is full, a trace that is not slower
        // than the slowest kept exemplar is dropped before its timeline
        // is even materialised — no allocation, no sort.
        if kept.len() >= EXEMPLARS_PER_TENANT
            && kept.last().is_some_and(|mildest| total <= mildest.total)
        {
            return;
        }
        let stages: Vec<(Stage, Duration)> = LIFECYCLE_ORDER
            .iter()
            .filter_map(|&i| {
                let ns = stamps[i]?;
                let stage = match i {
                    SLOT_REJECTED => Stage::Rejected(RejectReason::from_code(card.reject_arg())?),
                    SLOT_COALESCED => Stage::Coalesced {
                        requests: card.coalesce_arg() as u32,
                    },
                    SLOT_DEGRADED => Stage::Degraded {
                        keep_k: card.degrade_arg() as u32,
                    },
                    _ => Stage::from_wire(i as u8, 0)?,
                };
                Some((stage, Duration::from_nanos(ns)))
            })
            .collect();
        kept.push(TraceExemplar {
            trace: TraceId(card.id),
            total,
            stages,
        });
        kept.sort_by(|a, b| b.total.cmp(&a.total).then(a.trace.cmp(&b.trace)));
        kept.truncate(EXEMPLARS_PER_TENANT);
    }
}

/// The live state behind a [`TraceCard`]: the per-stage timestamp slots
/// (nanoseconds + 1; zero = unset) a finished trace is folded from.
#[derive(Debug)]
struct CardState {
    shared: Arc<Shared>,
    id: u64,
    tenant: u32,
    stages: [AtomicU64; STAGE_SLOTS],
    args: [AtomicU64; 3],
    finished: AtomicBool,
}

impl CardState {
    fn coalesce_arg(&self) -> u64 {
        self.args[0].load(Ordering::Acquire)
    }

    fn reject_arg(&self) -> u64 {
        self.args[1].load(Ordering::Acquire)
    }

    fn degrade_arg(&self) -> u64 {
        self.args[2].load(Ordering::Acquire)
    }

    /// Stamps `stage` at `at` on the card (slot only, no ring event) and
    /// runs finalization exactly once when a terminal stage lands.
    fn stamp(&self, stage: Stage, at: Duration) {
        let ns = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX - 1);
        let idx = stage.code() as usize;
        self.stages[idx].store(ns + 1, Ordering::Release);
        match stage {
            Stage::Coalesced { requests } => {
                self.args[0].store(requests as u64, Ordering::Release);
            }
            Stage::Rejected(reason) => {
                self.args[1].store(reason.code(), Ordering::Release);
            }
            Stage::Degraded { keep_k } => {
                self.args[2].store(keep_k as u64, Ordering::Release);
            }
            _ => {}
        }
        let terminal = matches!(stage, Stage::Responded | Stage::Rejected(_));
        if terminal && !self.finished.swap(true, Ordering::AcqRel) {
            self.shared.finalize(self);
        }
    }
}

/// The tracing handle that travels with one request (or session step,
/// or wire frame) through the stack. Cloning shares the same trace.
///
/// A card from a disabled recorder is inert: every method is a cheap
/// no-op, which is what the ≤5% overhead bench compares against.
#[derive(Debug, Clone, Default)]
pub struct TraceCard(Option<Arc<CardState>>);

impl TraceCard {
    /// The untraced card — what a disabled recorder hands out.
    pub fn none() -> Self {
        TraceCard(None)
    }

    /// The trace id (zero when untraced).
    pub fn id(&self) -> TraceId {
        TraceId(self.0.as_ref().map_or(0, |c| c.id))
    }

    /// Records `stage` now (on the recorder's clock): one ring event
    /// plus the card's stage stamp. A terminal stage
    /// ([`Stage::Responded`] / [`Stage::Rejected`]) folds the trace into
    /// the stage histograms and the exemplar store, exactly once.
    pub fn record(&self, stage: Stage) {
        if let Some(card) = &self.0 {
            let at = card.shared.clock.now();
            self.record_at(stage, at);
        }
    }

    /// [`TraceCard::record`] at an explicit timestamp — the mock-clock
    /// entry point, and what converts foreign `Instant` stamps.
    pub fn record_at(&self, stage: Stage, at: Duration) {
        if let Some(card) = &self.0 {
            card.shared.write(card.id, card.tenant, stage, at);
            card.stamp(stage, at);
        }
    }
}

/// The per-server flight recorder: trace-id allocator, event ring,
/// exemplar store, and the [`ServeMetrics`] hub stage latencies are
/// folded into. Clones share state; handing one to every
/// layer of the stack is one `Arc` bump.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    shared: Arc<Shared>,
}

impl FlightRecorder {
    /// A recorder with an event ring of `capacity` (min 1) that folds
    /// finished traces into `metrics`' per-tenant stage histograms.
    pub fn with_metrics(capacity: usize, metrics: Arc<ServeMetrics>) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            shared: Arc::new(Shared {
                clock: MonotonicClock::new(),
                enabled: AtomicBool::new(true),
                next_trace: AtomicU64::new(1),
                slots: (0..capacity).map(|_| Slot::new()).collect(),
                head: AtomicU64::new(0),
                contended: AtomicU64::new(0),
                interner: RwLock::new(Interner::default()),
                exemplars: Mutex::new(HashMap::new()),
                metrics,
            }),
        }
    }

    /// The ring's event capacity.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// The recorder's monotonic clock epoch — foreign `Instant` stamps
    /// convert onto the trace timeline with
    /// `stamp.saturating_duration_since(recorder.epoch())`.
    pub fn epoch(&self) -> Instant {
        self.shared.clock.epoch()
    }

    /// The current timestamp on the recorder's clock.
    pub fn now(&self) -> Duration {
        self.shared.clock.now()
    }

    /// Turns recording on or off. Off, [`FlightRecorder::begin`] hands
    /// out inert cards and [`FlightRecorder::record_saturated`] is a
    /// no-op — the cost of a disabled recorder is one relaxed load per
    /// call site.
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.enabled.store(enabled, Ordering::Release);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Acquire)
    }

    /// Starts a trace for `tenant`, recording [`Stage::Admitted`] now.
    /// Returns an inert card when disabled.
    pub fn begin(&self, tenant: &str) -> TraceCard {
        if !self.is_enabled() {
            return TraceCard::none();
        }
        self.begin_at(tenant, self.now())
    }

    /// [`FlightRecorder::begin`] at an explicit admission timestamp —
    /// the mock-clock entry point.
    pub fn begin_at(&self, tenant: &str, at: Duration) -> TraceCard {
        if !self.is_enabled() {
            return TraceCard::none();
        }
        let id = self.shared.next_trace.fetch_add(1, Ordering::Relaxed);
        let tenant = self.shared.tenant_id(tenant);
        let card = TraceCard(Some(Arc::new(CardState {
            shared: Arc::clone(&self.shared),
            id,
            tenant,
            stages: std::array::from_fn(|_| AtomicU64::new(0)),
            args: std::array::from_fn(|_| AtomicU64::new(0)),
            finished: AtomicBool::new(false),
        })));
        card.record_at(Stage::Admitted, at);
        card
    }

    /// Records a request refused at admission ([`RejectReason::Saturated`])
    /// as a terminal-only trace: one `Rejected` ring event under a fresh
    /// trace id, with no card and no `Admitted` stage. No-op when
    /// disabled.
    pub fn record_saturated(&self, tenant: &str) {
        if !self.is_enabled() {
            return;
        }
        let id = self.shared.next_trace.fetch_add(1, Ordering::Relaxed);
        let tenant = self.shared.tenant_id(tenant);
        let stage = Stage::Rejected(RejectReason::Saturated);
        self.shared.write(id, tenant, stage, self.now());
    }

    /// Events ever written to the ring (excluding contended writes that
    /// were abandoned).
    pub fn written(&self) -> u64 {
        let claimed = self.shared.head.load(Ordering::Acquire);
        claimed.saturating_sub(self.shared.contended.load(Ordering::Acquire))
    }

    /// Events no longer readable from the ring: everything older than
    /// the newest `capacity` events (overwrite-oldest), plus writes
    /// abandoned to a lapping writer.
    pub fn dropped(&self) -> u64 {
        let claimed = self.shared.head.load(Ordering::Acquire);
        let contended = self.shared.contended.load(Ordering::Acquire);
        let written = claimed.saturating_sub(contended);
        written.saturating_sub(self.capacity() as u64) + contended
    }

    /// A torn-proof copy of the ring's resident events (oldest first)
    /// with write/drop accounting. Concurrent writers may overwrite
    /// slots mid-snapshot; such slots are skipped, never torn.
    pub fn snapshot(&self) -> RingSnapshot {
        let end = self.shared.head.load(Ordering::Acquire);
        let cap = self.shared.slots.len() as u64;
        let start = end.saturating_sub(cap);
        let mut events = Vec::with_capacity((end - start) as usize);
        for ticket in start..end {
            let slot = &self.shared.slots[(ticket % cap) as usize];
            let turn = ticket / cap;
            let want = 2 * turn + 2;
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != want {
                continue; // not yet published, or already overwritten
            }
            let trace = slot.trace.load(Ordering::Relaxed);
            let tenant_stage = slot.tenant_stage.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            let at_ns = slot.at_ns.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten while we read: skip, never tear
            }
            let Some(stage) = Stage::from_wire((tenant_stage & 0xFF) as u8, arg) else {
                continue;
            };
            events.push(TraceEvent {
                trace: TraceId(trace),
                tenant: self.shared.tenant_name((tenant_stage >> 8) as u32),
                stage,
                at: Duration::from_nanos(at_ns),
            });
        }
        RingSnapshot {
            events,
            written: self.written(),
            dropped: self.dropped(),
        }
    }

    /// The kept worst-case traces, keyed by tenant name (sorted), each
    /// tenant's slowest first.
    pub fn exemplars(&self) -> BTreeMap<String, Vec<TraceExemplar>> {
        self.shared
            .exemplars
            .lock()
            .expect("trace exemplar lock poisoned")
            .iter()
            .map(|(&tenant, kept)| (self.shared.tenant_name(tenant), kept.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(micros: u64) -> Duration {
        Duration::from_micros(micros)
    }

    /// A recorder over a fresh, private metrics hub.
    fn recorder(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_metrics(capacity, Arc::new(ServeMetrics::new(1)))
    }

    #[test]
    fn stage_codes_round_trip() {
        let stages = [
            Stage::Admitted,
            Stage::Enqueued,
            Stage::Coalesced { requests: 17 },
            Stage::ShardDispatched,
            Stage::KernelDone,
            Stage::Responded,
            Stage::Rejected(RejectReason::Saturated),
            Stage::Rejected(RejectReason::Terminated),
            Stage::Rejected(RejectReason::Failed),
            Stage::Rejected(RejectReason::DeadlineShed),
            Stage::Degraded { keep_k: 3 },
        ];
        for stage in stages {
            assert_eq!(Stage::from_wire(stage.code(), stage.arg()), Some(stage));
        }
        assert_eq!(Stage::from_wire(8, 0), None);
        assert_eq!(Stage::from_wire(6, 9), None, "unknown reject reason");
    }

    #[test]
    fn degraded_stage_slots_before_the_terminal_in_exemplars() {
        let recorder = recorder(64);
        let card = recorder.begin_at("bulk", us(0));
        card.record_at(Stage::ShardDispatched, us(10));
        card.record_at(Stage::KernelDone, us(20));
        card.record_at(Stage::Degraded { keep_k: 2 }, us(21));
        card.record_at(Stage::Responded, us(25));
        let kept = &recorder.exemplars()["bulk"];
        let stages: Vec<Stage> = kept[0].stages.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            stages,
            vec![
                Stage::Admitted,
                Stage::ShardDispatched,
                Stage::KernelDone,
                Stage::Degraded { keep_k: 2 },
                Stage::Responded,
            ],
            "degraded sits between kernel-done and the terminal"
        );
        // Degraded is non-terminal: the trace finalized on Responded.
        assert_eq!(kept[0].total, us(25));
    }

    #[test]
    fn card_lifecycle_lands_in_ring_and_exemplars() {
        let recorder = recorder(64);
        let card = recorder.begin_at("alpha", us(10));
        card.record_at(Stage::Enqueued, us(12));
        card.record_at(Stage::Coalesced { requests: 3 }, us(40));
        card.record_at(Stage::ShardDispatched, us(41));
        card.record_at(Stage::KernelDone, us(90));
        card.record_at(Stage::Responded, us(95));
        let snap = recorder.snapshot();
        assert_eq!(snap.written, 6);
        assert_eq!(snap.dropped, 0);
        let stages: Vec<Stage> = snap.events.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::Admitted,
                Stage::Enqueued,
                Stage::Coalesced { requests: 3 },
                Stage::ShardDispatched,
                Stage::KernelDone,
                Stage::Responded,
            ]
        );
        for event in &snap.events {
            assert_eq!(event.trace, card.id());
            assert_eq!(event.tenant, "alpha");
        }
        // Timestamps are exactly what the mock clock injected, monotone.
        let ats: Vec<Duration> = snap.events.iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![us(10), us(12), us(40), us(41), us(90), us(95)]);
        // The finished trace became an exemplar with the full stage list.
        let exemplars = recorder.exemplars();
        let kept = &exemplars["alpha"];
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].trace, card.id());
        assert_eq!(kept[0].total, us(85));
        assert_eq!(kept[0].stages.len(), 6);
    }

    #[test]
    fn exemplar_store_keeps_the_k_worst() {
        let recorder = recorder(256);
        for i in 0..10u64 {
            let card = recorder.begin_at("alpha", us(0));
            // Totals 0, 10, 20, … — the slowest are the last begun.
            card.record_at(Stage::Responded, us(10 * i));
        }
        let kept = &recorder.exemplars()["alpha"];
        assert_eq!(kept.len(), EXEMPLARS_PER_TENANT);
        let totals: Vec<u64> = kept.iter().map(|e| e.total.as_micros() as u64).collect();
        assert_eq!(totals, vec![90, 80, 70, 60], "slowest first");
    }

    #[test]
    fn overwrite_oldest_keeps_the_newest_capacity_events() {
        let recorder = recorder(4);
        let card = recorder.begin_at("alpha", us(0));
        for i in 1..=9u64 {
            card.record_at(Stage::Enqueued, us(i));
        }
        // 10 events through a 4-slot ring: 6 dropped, newest 4 resident.
        assert_eq!(recorder.written(), 10);
        assert_eq!(recorder.dropped(), 6);
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), 4);
        let ats: Vec<u64> = snap
            .events
            .iter()
            .map(|e| e.at.as_micros() as u64)
            .collect();
        assert_eq!(ats, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = recorder(16);
        recorder.set_enabled(false);
        let card = recorder.begin("alpha");
        assert_eq!(card.id(), TraceId(0));
        card.record(Stage::Responded);
        card.record_at(Stage::Enqueued, us(1));
        recorder.record_saturated("alpha");
        assert_eq!(recorder.written(), 0);
        assert!(recorder.snapshot().events.is_empty());
        assert!(recorder.exemplars().is_empty());
        // Re-enabling resumes recording with fresh ids.
        recorder.set_enabled(true);
        let card = recorder.begin("alpha");
        assert_ne!(card.id(), TraceId(0));
        assert_eq!(recorder.written(), 1);
    }

    #[test]
    fn saturated_rejection_is_one_terminal_only_event() {
        let recorder = recorder(16);
        let admitted = recorder.begin_at("alpha", us(0));
        recorder.record_saturated("alpha");
        let ring = recorder.snapshot();
        assert_eq!(ring.written, 2);
        let refused = &ring.events[1];
        assert_eq!(refused.stage, Stage::Rejected(RejectReason::Saturated));
        assert_eq!(refused.tenant, "alpha");
        assert_ne!(refused.trace, admitted.id(), "a fresh trace id");
        // No card, so nothing to finalize: no exemplar.
        assert!(recorder.exemplars().is_empty());
    }

    #[test]
    fn rejected_trace_records_reason_and_finalizes_once() {
        let metrics = Arc::new(ServeMetrics::new(1));
        let recorder = FlightRecorder::with_metrics(64, Arc::clone(&metrics));
        let card = recorder.begin_at("alpha", us(5));
        card.record_at(Stage::Rejected(RejectReason::Terminated), us(25));
        // A late duplicate terminal must not double-finalize.
        card.record_at(Stage::Rejected(RejectReason::Terminated), us(30));
        let kept = &recorder.exemplars()["alpha"];
        assert_eq!(kept.len(), 1);
        assert_eq!(
            kept[0].stages.last().unwrap().0,
            Stage::Rejected(RejectReason::Terminated)
        );
        // No dispatch/kernel stamps → no stage histograms recorded (the
        // tenant never even appears in the metrics hub).
        let snap = metrics.snapshot();
        assert!(snap
            .tenants
            .get("alpha")
            .is_none_or(|t| t.queue_wait.count == 0 && t.execute.count == 0));
    }

    #[test]
    fn finished_trace_feeds_stage_histograms() {
        let metrics = Arc::new(ServeMetrics::new(1));
        let recorder = FlightRecorder::with_metrics(64, Arc::clone(&metrics));
        let card = recorder.begin_at("alpha", us(0));
        card.record_at(Stage::Enqueued, us(1));
        card.record_at(Stage::Coalesced { requests: 2 }, us(30));
        card.record_at(Stage::ShardDispatched, us(40));
        card.record_at(Stage::KernelDone, us(240));
        card.record_at(Stage::Responded, us(243));
        let snap = metrics.snapshot();
        let alpha = &snap.tenants["alpha"];
        assert_eq!(alpha.queue_wait.count, 1);
        assert_eq!(alpha.execute.count, 1);
        assert_eq!(alpha.respond.count, 1);
        // 40 µs wait → 50 µs bound; 200 µs execute → 200 µs bound
        // (exact ladder edge); 3 µs respond → 5 µs bound.
        assert_eq!(alpha.queue_wait.quantile(0.5), us(50));
        assert_eq!(alpha.execute.quantile(0.5), us(200));
        assert_eq!(alpha.respond.quantile(0.5), us(5));
        // One ring event per stage, and the exemplar shows the complete
        // lifecycle.
        assert_eq!(recorder.written(), 6);
        let kept = &recorder.exemplars()["alpha"];
        assert_eq!(kept[0].stages.len(), 6);
        assert_eq!(kept[0].stages[2].0, Stage::Coalesced { requests: 2 });
    }
}
