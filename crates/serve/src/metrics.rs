//! Lightweight serving metrics: request/frame counters, a fixed-bucket
//! latency histogram, per-shard utilization counters, per-tenant batching
//! gauges and connection/wire gauges for a network front door.
//!
//! Everything is a relaxed atomic — recording from worker threads and the
//! batcher costs a handful of uncontended atomic increments per request.
//! The only lock is the read-mostly registry of per-tenant counter blocks,
//! write-locked once per tenant lifetime (first sight of the name).
//! [`ServeMetrics::snapshot`] folds the counters into a plain
//! [`MetricsSnapshot`] for reporting.
//!
//! The per-tenant block ([`TenantSnapshot`]) carries flushed batch/request/
//! frame counters plus a live queue-depth gauge with a high-water mark:
//! mean coalesced batch size per tenant is derivable directly from a
//! snapshot ([`TenantSnapshot::mean_batch_requests`]), which is what the
//! interleaved-tenant bench asserts batch-size recovery on, and what
//! [`Server::try_submit`] admission control reads.
//!
//! [`Server::try_submit`]: crate::Server::try_submit
//!
//! # Histogram semantics
//!
//! The latency histogram uses **fixed bucket edges** — a 1-2-5
//! logarithmic ladder from 1 µs to 10 s (22 bounds plus one overflow
//! bucket), identical in every process, so histograms from different
//! serving replicas can be merged bucket-by-bucket without resampling.
//! Quantiles (the `latency_p50` / `latency_p99` snapshot fields) are
//! resolved to the **upper edge of the containing bucket**, not
//! interpolated within it: a reported p99 of 5 ms means "99% of requests
//! completed in at most 5 ms". Estimates are therefore conservative
//! (never under-report) and within one 1-2-5 ladder step of the true
//! quantile. See [`HistogramSnapshot::quantile`] for the exact rule,
//! including the overflow clamp.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Upper bounds (nanoseconds) of the latency histogram buckets — a 1-2-5
/// log ladder from 1 µs to 10 s. Latencies above the last bound land in a
/// final overflow bucket.
const BUCKET_BOUNDS_NS: [u64; 22] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// The fixed bucket upper bounds (nanoseconds) every
/// [`LatencyHistogram`] in this crate uses — 22 bounds of a 1-2-5 log
/// ladder from 1 µs to 10 s; the final bucket of a
/// [`HistogramSnapshot`] (index 22) counts overflow samples beyond the
/// last bound. Identical in every process, so external scrapers can
/// merge raw bucket counts from different replicas bucket-by-bucket.
pub fn bucket_bounds_ns() -> &'static [u64] {
    &BUCKET_BOUNDS_NS
}

/// A point-in-time copy of one [`LatencyHistogram`]'s raw state: the
/// per-bucket counts (aligned with [`bucket_bounds_ns`], plus one final
/// overflow bucket), the sample count and the summed nanoseconds.
///
/// This is what external scrapers should aggregate — derived quantiles
/// (`latency_p50` / `latency_p99` in [`MetricsSnapshot`]) resolve to
/// bucket upper bounds and cannot be merged across processes, while raw
/// bucket counts can.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts: `buckets[i]` counts samples at or below
    /// `bucket_bounds_ns()[i]`; the final element counts overflow.
    pub buckets: Vec<u64>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded samples, in nanoseconds.
    pub total_ns: u64,
}

impl HistogramSnapshot {
    /// Mean recorded latency, rounded to the nearest nanosecond
    /// ([`Duration::ZERO`] when empty). Widening to `u128` keeps the
    /// half-count rounding bias from overflowing near `u64::MAX` totals.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let count = u128::from(self.count);
        let rounded = (u128::from(self.total_ns) + count / 2) / count;
        Duration::from_nanos(rounded as u64)
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// containing it; [`Duration::ZERO`] when empty. Values in the
    /// overflow bucket report the last bound (10 s).
    ///
    /// The rank is `ceil(q · count)` over the cumulative bucket counts
    /// (so `q = 0.5` with two samples resolves to the first), and the
    /// result is always one of the fixed bucket edges — no within-bucket
    /// interpolation; see the [module docs](self) for why. Quantiles are
    /// monotone in `q` and never below any recorded sample's bucket.
    /// A NaN `q` is a caller bug, not a rank: it reports
    /// [`Duration::ZERO`] explicitly instead of silently resolving to the
    /// minimum bucket as `NaN.clamp(..).ceil() as u64` would.
    pub fn quantile(&self, q: f64) -> Duration {
        if q.is_nan() {
            return Duration::ZERO;
        }
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= target {
                let bound = BUCKET_BOUNDS_NS
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1]);
                return Duration::from_nanos(bound);
            }
        }
        Duration::from_nanos(BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1])
    }
}

/// Fixed-bucket latency histogram with lock-free recording. Read it
/// through [`LatencyHistogram::snapshot`]: the mean and quantiles are
/// derived from the [`HistogramSnapshot`].
///
/// Quantile estimates are upper bounds of the containing bucket: for
/// samples within the bucket ladder they are conservative (never
/// under-report) and within one 1-2-5 step of the true quantile. Samples
/// beyond the last bound land in an overflow bucket and are clamped to
/// the 10 s bound — a serving latency that far out is an outage, not a
/// percentile to resolve.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let idx = BUCKET_BOUNDS_NS.partition_point(|&bound| bound < ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the raw bucket counts, sample count and
    /// summed nanoseconds — the mergeable form external scrapers want.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
        }
    }
}

/// One phase of a traced request's lifecycle, as attributed by the
/// flight recorder ([`crate::trace::FlightRecorder`]) into per-tenant
/// stage histograms: where did the time go — waiting for a grant,
/// executing on a shard, or delivering the response?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageLatency {
    /// Admission to shard dispatch: time spent queued and coalescing.
    QueueWait,
    /// Shard dispatch to kernel completion: time spent computing.
    Execute,
    /// Kernel completion to response delivery.
    Respond,
}

/// Per-tenant batching counters and queue-depth gauge, keyed by
/// deployment name. Recorded by the front end (enqueue) and the batcher
/// (flush); the scheduler's fairness and batch-size behavior is observable
/// here without scraping logs.
#[derive(Debug, Default)]
struct TenantCounters {
    /// Micro-batches flushed for this tenant.
    batches: AtomicU64,
    /// Requests across all flushed batches.
    batch_requests: AtomicU64,
    /// Frames across all flushed batches.
    batch_frames: AtomicU64,
    /// Requests currently pending in the tenant's queue (gauge).
    queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    max_queue_depth: AtomicU64,
    /// Streaming session steps served against this tenant's deployments.
    session_steps: AtomicU64,
    /// Requests shed for blowing their deadline (overrun action `Shed`).
    shed_requests: AtomicU64,
    /// Frames across all shed requests.
    shed_frames: AtomicU64,
    /// Micro-batches served degraded (truncated reconstruction).
    degraded_batches: AtomicU64,
    /// Requests across all degraded micro-batches.
    degraded_requests: AtomicU64,
    /// Stage attribution from the flight recorder: admission → dispatch.
    queue_wait: LatencyHistogram,
    /// Stage attribution: dispatch → kernel done.
    execute: LatencyHistogram,
    /// Stage attribution: kernel done → response delivered.
    respond: LatencyHistogram,
}

/// Kind tag for one recorded wire-level error — how a network front door
/// classified a frame or request it had to reject. Indexes the fixed
/// per-kind counters behind [`WireSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// A frame's length prefix exceeded the transport's max-frame-size
    /// bound; its payload was skipped unread.
    Oversized,
    /// A complete frame failed integrity validation (bad magic, wrong
    /// protocol version, checksum mismatch, impossible length).
    Corrupt,
    /// The frame envelope was sound but its body failed to decode.
    Malformed,
    /// The frame carried a message kind this endpoint does not handle.
    UnknownKind,
    /// A well-formed request was refused with a typed error status
    /// (unknown deployment, saturation, bad shapes, …).
    Rejected,
}

/// Why a network front door reaped (force-closed) a connection — kept as
/// separate counters so an operator can tell dead peers from overwhelmed
/// ones from ordinary shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReapReason {
    /// No readable traffic and nothing pending to write for longer than
    /// the idle timeout: the peer went away.
    Idle,
    /// The connection made no progress while responses were backed up
    /// toward it: the peer stopped reading (slow client).
    SlowClient,
    /// The door was asked to shut down and closed the connection during
    /// drain.
    Drain,
}

/// Connection/wire gauges recorded by a network front door (see the
/// `eigenmaps-net` crate): connection gauge with high-water mark, frames
/// decoded/encoded, raw bytes in/out and per-kind error counters.
#[derive(Debug, Default)]
struct WireCounters {
    /// Connections currently open (gauge).
    connections_open: AtomicU64,
    /// High-water mark of `connections_open`.
    max_connections_open: AtomicU64,
    /// Wire frames successfully decoded from clients.
    frames_in: AtomicU64,
    /// Wire frames encoded and queued toward clients.
    frames_out: AtomicU64,
    /// Raw bytes read off sockets.
    bytes_in: AtomicU64,
    /// Raw bytes written to sockets.
    bytes_out: AtomicU64,
    /// Error counters indexed by [`WireErrorKind`] discriminant order.
    errors: [AtomicU64; 5],
    /// Reap counters indexed by [`ReapReason`] discriminant order.
    reaps: [AtomicU64; 3],
    /// Durability checkpoints committed to the snapshot store.
    checkpoints: AtomicU64,
    /// Session snapshots referenced across committed checkpoints.
    checkpoint_sessions: AtomicU64,
    /// Deployments republished from the persisted catalog at hydration.
    hydrated_deployments: AtomicU64,
    /// Sessions rehydrated from the snapshot store at hydration.
    hydrated_sessions: AtomicU64,
    /// Corrupt/torn/mismatched store entries skipped during hydration.
    hydration_skipped: AtomicU64,
}

/// Counter hub shared by the front end, the execution engine and any
/// sessions. Cheap to record into from any thread.
#[derive(Debug)]
pub struct ServeMetrics {
    requests: AtomicU64,
    frames: AtomicU64,
    batches: AtomicU64,
    errors: AtomicU64,
    /// Requests shed for blowing their deadline, across all tenants.
    shed: AtomicU64,
    /// Requests answered with a degraded (truncated) reconstruction,
    /// across all tenants.
    degraded: AtomicU64,
    /// Whether the scheduler is currently in brownout (gauge, 0 or 1).
    brownout: AtomicU64,
    /// Inactive→active brownout transitions observed.
    brownout_entries: AtomicU64,
    session_steps: AtomicU64,
    /// Streaming sessions currently open (gauge).
    sessions_open: AtomicU64,
    /// High-water mark of `sessions_open`.
    max_sessions_open: AtomicU64,
    latency: LatencyHistogram,
    /// Queue-to-response latency of scheduled session steps — kept
    /// separate from the batch-request histogram so mixed workloads can
    /// be attributed per class (the mixed-workload bench reads both).
    session_latency: LatencyHistogram,
    shard_frames: Vec<AtomicU64>,
    shard_batches: Vec<AtomicU64>,
    /// Lazily created per-tenant counters. The hot path takes the read
    /// lock and bumps relaxed atomics; the write lock is held only the
    /// first time a tenant name is seen.
    tenants: RwLock<HashMap<String, Arc<TenantCounters>>>,
    /// Connection/wire gauges recorded by a network front door.
    wire: WireCounters,
}

impl ServeMetrics {
    /// Metrics for a runtime with `shards` execution shards.
    pub fn new(shards: usize) -> Self {
        ServeMetrics {
            requests: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            brownout: AtomicU64::new(0),
            brownout_entries: AtomicU64::new(0),
            session_steps: AtomicU64::new(0),
            sessions_open: AtomicU64::new(0),
            max_sessions_open: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            session_latency: LatencyHistogram::new(),
            shard_frames: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_batches: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            tenants: RwLock::new(HashMap::new()),
            wire: WireCounters::default(),
        }
    }

    /// Records one network connection opening (gauge up, high-water mark
    /// maintained).
    pub fn record_connection_opened(&self) {
        let open = self.wire.connections_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.wire
            .max_connections_open
            .fetch_max(open, Ordering::Relaxed);
    }

    /// Records one network connection closing. Saturates at zero.
    pub fn record_connection_closed(&self) {
        let _ =
            self.wire
                .connections_open
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |open| {
                    Some(open.saturating_sub(1))
                });
    }

    /// Records one wire frame decoded from a client.
    pub fn record_wire_frame_in(&self) {
        self.wire.frames_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one wire frame encoded toward a client.
    pub fn record_wire_frame_out(&self) {
        self.wire.frames_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` raw bytes read off a socket.
    pub fn record_wire_bytes_in(&self, bytes: u64) {
        self.wire.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` raw bytes written to a socket.
    pub fn record_wire_bytes_out(&self, bytes: u64) {
        self.wire.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one wire-level error of `kind`.
    pub fn record_wire_error(&self, kind: WireErrorKind) {
        let idx = match kind {
            WireErrorKind::Oversized => 0,
            WireErrorKind::Corrupt => 1,
            WireErrorKind::Malformed => 2,
            WireErrorKind::UnknownKind => 3,
            WireErrorKind::Rejected => 4,
        };
        self.wire.errors[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection reaped by a network front door for
    /// `reason`.
    pub fn record_reap(&self, reason: ReapReason) {
        let idx = match reason {
            ReapReason::Idle => 0,
            ReapReason::SlowClient => 1,
            ReapReason::Drain => 2,
        };
        self.wire.reaps[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one committed durability checkpoint covering `sessions`
    /// session snapshots.
    pub fn record_checkpoint(&self, sessions: u64) {
        self.wire.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.wire
            .checkpoint_sessions
            .fetch_add(sessions, Ordering::Relaxed);
    }

    /// Records one deployment republished from the persisted catalog
    /// during hydration.
    pub fn record_hydrated_deployment(&self) {
        self.wire
            .hydrated_deployments
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one session rehydrated from the snapshot store.
    pub fn record_hydrated_session(&self) {
        self.wire.hydrated_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `skipped` corrupt/torn/mismatched store entries skipped
    /// (rather than failing the boot) during hydration.
    pub fn record_hydration_skipped(&self, skipped: u64) {
        self.wire
            .hydration_skipped
            .fetch_add(skipped, Ordering::Relaxed);
    }

    /// Records one stage latency for tenant `name` — the flight
    /// recorder's per-tenant attribution of where a finished request's
    /// time went.
    pub fn record_stage_latency(&self, name: &str, stage: StageLatency, latency: Duration) {
        let tenant = self.tenant(name);
        match stage {
            StageLatency::QueueWait => tenant.queue_wait.record(latency),
            StageLatency::Execute => tenant.execute.record(latency),
            StageLatency::Respond => tenant.respond.record(latency),
        }
    }

    /// The counter block for `name`, created on first use.
    fn tenant(&self, name: &str) -> Arc<TenantCounters> {
        if let Some(counters) = self
            .tenants
            .read()
            .expect("tenant metrics lock poisoned")
            .get(name)
        {
            return Arc::clone(counters);
        }
        let mut tenants = self.tenants.write().expect("tenant metrics lock poisoned");
        Arc::clone(tenants.entry(name.to_string()).or_default())
    }

    /// Records one request entering tenant `name`'s pending queue
    /// (queue-depth gauge up, high-water mark maintained).
    pub fn record_tenant_enqueued(&self, name: &str) {
        let tenant = self.tenant(name);
        let depth = tenant.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        tenant.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Atomically admits one request for tenant `name` iff its queue
    /// depth is below `bound`: on success the gauge is incremented and
    /// `Ok(())` returned; at or above the bound nothing changes and the
    /// observed depth comes back as `Err`. The reserve-or-refuse step is
    /// a single compare-exchange loop, so concurrent admitters can never
    /// overshoot `bound` — the hard guarantee behind
    /// [`Server::try_submit`].
    ///
    /// [`Server::try_submit`]: crate::Server::try_submit
    pub fn try_record_tenant_enqueued(
        &self,
        name: &str,
        bound: u64,
    ) -> std::result::Result<(), u64> {
        let tenant = self.tenant(name);
        let mut depth = tenant.queue_depth.load(Ordering::Relaxed);
        loop {
            if depth >= bound {
                return Err(depth);
            }
            match tenant.queue_depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    tenant
                        .max_queue_depth
                        .fetch_max(depth + 1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(observed) => depth = observed,
            }
        }
    }

    /// Removes `requests` requests from tenant `name`'s queue-depth gauge
    /// without recording a batch (an admitted request that could not be
    /// handed to the batcher). Saturates at zero.
    pub fn record_tenant_dequeued(&self, name: &str, requests: u64) {
        let tenant = self.tenant(name);
        let _ = tenant
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                Some(depth.saturating_sub(requests))
            });
    }

    /// Records one flushed micro-batch of `requests` requests / `frames`
    /// frames for tenant `name`, draining the same count from its
    /// queue-depth gauge.
    pub fn record_tenant_batch(&self, name: &str, requests: u64, frames: u64) {
        let tenant = self.tenant(name);
        tenant.batches.fetch_add(1, Ordering::Relaxed);
        tenant.batch_requests.fetch_add(requests, Ordering::Relaxed);
        tenant.batch_frames.fetch_add(frames, Ordering::Relaxed);
        let _ = tenant
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                Some(depth.saturating_sub(requests))
            });
    }

    /// Records `requests` requests / `frames` frames shed for tenant
    /// `name` because their deadline budget was blown
    /// ([`crate::OverrunAction::Shed`]). Drains the same request count
    /// from the tenant's queue-depth gauge and counts each shed request
    /// as a request that completed with an error (every shed ticket
    /// completes with the typed [`crate::ServeError::DeadlineShed`]), so
    /// `requests == served + errors` accounting stays exact.
    pub fn record_shed(&self, name: &str, requests: u64, frames: u64) {
        self.shed.fetch_add(requests, Ordering::Relaxed);
        self.errors.fetch_add(requests, Ordering::Relaxed);
        let tenant = self.tenant(name);
        tenant.shed_requests.fetch_add(requests, Ordering::Relaxed);
        tenant.shed_frames.fetch_add(frames, Ordering::Relaxed);
        let _ = tenant
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                Some(depth.saturating_sub(requests))
            });
    }

    /// Records one micro-batch of `requests` requests served degraded
    /// (reconstructed against a truncated deployment) for tenant `name`.
    /// Flush accounting — batch counters and the queue-depth drain — is
    /// still [`ServeMetrics::record_tenant_batch`]'s job; this only adds
    /// the degraded attribution on top.
    pub fn record_degraded_batch(&self, name: &str, requests: u64) {
        self.degraded.fetch_add(requests, Ordering::Relaxed);
        let tenant = self.tenant(name);
        tenant.degraded_batches.fetch_add(1, Ordering::Relaxed);
        tenant
            .degraded_requests
            .fetch_add(requests, Ordering::Relaxed);
    }

    /// Sets the brownout gauge, counting inactive→active transitions in
    /// `brownout_entries` so flap frequency is observable even between
    /// snapshots.
    pub fn set_brownout(&self, active: bool) {
        let prev = self.brownout.swap(active as u64, Ordering::Relaxed);
        if active && prev == 0 {
            self.brownout_entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the brownout gauge is currently raised.
    pub fn in_brownout(&self) -> bool {
        self.brownout.load(Ordering::Relaxed) != 0
    }

    /// Tenant `name`'s current pending-queue depth (0 for an unseen
    /// tenant) — what [`Server::try_submit`] admission control reads.
    ///
    /// [`Server::try_submit`]: crate::Server::try_submit
    pub fn tenant_queue_depth(&self, name: &str) -> u64 {
        self.tenants
            .read()
            .expect("tenant metrics lock poisoned")
            .get(name)
            .map_or(0, |t| t.queue_depth.load(Ordering::Relaxed))
    }

    /// Records a request entering the front end with `frames` frames.
    pub fn record_request(&self, frames: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.frames.fetch_add(frames as u64, Ordering::Relaxed);
    }

    /// Records one flushed micro-batch.
    pub fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request that completed with an error.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one streaming tracker-session step against tenant `name`.
    pub fn record_session_step(&self, name: &str) {
        self.session_steps.fetch_add(1, Ordering::Relaxed);
        self.tenant(name)
            .session_steps
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one streaming session opening (gauge up, high-water mark
    /// maintained).
    pub fn record_session_opened(&self) {
        let open = self.sessions_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_sessions_open.fetch_max(open, Ordering::Relaxed);
    }

    /// Records one streaming session closing. Saturates at zero.
    pub fn record_session_closed(&self) {
        let _ = self
            .sessions_open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |open| {
                Some(open.saturating_sub(1))
            });
    }

    /// Records one scheduled session step's submit-to-response latency.
    pub fn record_session_latency(&self, latency: Duration) {
        self.session_latency.record(latency);
    }

    /// Records one request's queue-to-response latency.
    pub fn record_latency(&self, latency: Duration) {
        self.latency.record(latency);
    }

    /// Records `frames` frames executed by shard `shard` (ignored for
    /// out-of-range shard indices).
    pub fn record_shard(&self, shard: usize, frames: usize) {
        if let Some(counter) = self.shard_frames.get(shard) {
            counter.fetch_add(frames as u64, Ordering::Relaxed);
        }
        if let Some(counter) = self.shard_batches.get(shard) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds all counters into a plain snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latency = self.latency.snapshot();
        let session_latency = self.session_latency.snapshot();
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            brownout: self.brownout.load(Ordering::Relaxed) != 0,
            brownout_entries: self.brownout_entries.load(Ordering::Relaxed),
            session_steps: self.session_steps.load(Ordering::Relaxed),
            sessions_open: self.sessions_open.load(Ordering::Relaxed),
            max_sessions_open: self.max_sessions_open.load(Ordering::Relaxed),
            latency_mean: latency.mean(),
            latency_p50: latency.quantile(0.50),
            latency_p99: latency.quantile(0.99),
            session_latency_p50: session_latency.quantile(0.50),
            session_latency_p99: session_latency.quantile(0.99),
            latency_buckets: latency,
            session_latency_buckets: session_latency,
            shard_frames: self
                .shard_frames
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            shard_batches: self
                .shard_batches
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            tenants: self
                .tenants
                .read()
                .expect("tenant metrics lock poisoned")
                .iter()
                .map(|(name, t)| {
                    (
                        name.clone(),
                        TenantSnapshot {
                            batches: t.batches.load(Ordering::Relaxed),
                            batch_requests: t.batch_requests.load(Ordering::Relaxed),
                            batch_frames: t.batch_frames.load(Ordering::Relaxed),
                            queue_depth: t.queue_depth.load(Ordering::Relaxed),
                            max_queue_depth: t.max_queue_depth.load(Ordering::Relaxed),
                            session_steps: t.session_steps.load(Ordering::Relaxed),
                            shed_requests: t.shed_requests.load(Ordering::Relaxed),
                            shed_frames: t.shed_frames.load(Ordering::Relaxed),
                            degraded_batches: t.degraded_batches.load(Ordering::Relaxed),
                            degraded_requests: t.degraded_requests.load(Ordering::Relaxed),
                            queue_wait: t.queue_wait.snapshot(),
                            execute: t.execute.snapshot(),
                            respond: t.respond.snapshot(),
                        },
                    )
                })
                .collect(),
            wire: WireSnapshot {
                connections_open: self.wire.connections_open.load(Ordering::Relaxed),
                max_connections_open: self.wire.max_connections_open.load(Ordering::Relaxed),
                frames_in: self.wire.frames_in.load(Ordering::Relaxed),
                frames_out: self.wire.frames_out.load(Ordering::Relaxed),
                bytes_in: self.wire.bytes_in.load(Ordering::Relaxed),
                bytes_out: self.wire.bytes_out.load(Ordering::Relaxed),
                errors_oversized: self.wire.errors[0].load(Ordering::Relaxed),
                errors_corrupt: self.wire.errors[1].load(Ordering::Relaxed),
                errors_malformed: self.wire.errors[2].load(Ordering::Relaxed),
                errors_unknown_kind: self.wire.errors[3].load(Ordering::Relaxed),
                errors_rejected: self.wire.errors[4].load(Ordering::Relaxed),
                reaped_idle: self.wire.reaps[0].load(Ordering::Relaxed),
                reaped_slow_client: self.wire.reaps[1].load(Ordering::Relaxed),
                reaped_drain: self.wire.reaps[2].load(Ordering::Relaxed),
                checkpoints: self.wire.checkpoints.load(Ordering::Relaxed),
                checkpoint_sessions: self.wire.checkpoint_sessions.load(Ordering::Relaxed),
                hydrated_deployments: self.wire.hydrated_deployments.load(Ordering::Relaxed),
                hydrated_sessions: self.wire.hydrated_sessions.load(Ordering::Relaxed),
                hydration_skipped: self.wire.hydration_skipped.load(Ordering::Relaxed),
            },
        }
    }
}

/// A point-in-time copy of the connection/wire gauges a network front
/// door records into [`ServeMetrics`]. All zero for a server that has no
/// network edge attached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Connections open when the snapshot was taken.
    pub connections_open: u64,
    /// High-water mark of concurrently open connections.
    pub max_connections_open: u64,
    /// Wire frames successfully decoded from clients.
    pub frames_in: u64,
    /// Wire frames encoded toward clients.
    pub frames_out: u64,
    /// Raw bytes read off sockets.
    pub bytes_in: u64,
    /// Raw bytes written to sockets.
    pub bytes_out: u64,
    /// Frames skipped because their length prefix exceeded the max-frame
    /// bound ([`WireErrorKind::Oversized`]).
    pub errors_oversized: u64,
    /// Frames that failed integrity validation
    /// ([`WireErrorKind::Corrupt`]).
    pub errors_corrupt: u64,
    /// Frames whose body failed to decode ([`WireErrorKind::Malformed`]).
    pub errors_malformed: u64,
    /// Frames carrying an unhandled message kind
    /// ([`WireErrorKind::UnknownKind`]).
    pub errors_unknown_kind: u64,
    /// Well-formed requests refused with a typed error status
    /// ([`WireErrorKind::Rejected`]).
    pub errors_rejected: u64,
    /// Connections reaped for inactivity ([`ReapReason::Idle`]).
    pub reaped_idle: u64,
    /// Connections reaped because they stopped reading while responses
    /// backed up ([`ReapReason::SlowClient`]).
    pub reaped_slow_client: u64,
    /// Connections closed during shutdown drain ([`ReapReason::Drain`]).
    pub reaped_drain: u64,
    /// Durability checkpoints committed to the snapshot store.
    pub checkpoints: u64,
    /// Session snapshots referenced across committed checkpoints.
    pub checkpoint_sessions: u64,
    /// Deployments republished from the persisted catalog at hydration.
    pub hydrated_deployments: u64,
    /// Sessions rehydrated from the snapshot store at hydration.
    pub hydrated_sessions: u64,
    /// Corrupt/torn/mismatched store entries skipped (and survived)
    /// during hydration.
    pub hydration_skipped: u64,
}

impl WireSnapshot {
    /// Total wire-level errors across every kind.
    pub fn errors_total(&self) -> u64 {
        self.errors_oversized
            + self.errors_corrupt
            + self.errors_malformed
            + self.errors_unknown_kind
            + self.errors_rejected
    }

    /// Total connections reaped across every reason.
    pub fn reaped_total(&self) -> u64 {
        self.reaped_idle + self.reaped_slow_client + self.reaped_drain
    }
}

/// A point-in-time copy of one tenant's batching counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Micro-batches flushed for this tenant.
    pub batches: u64,
    /// Requests across all flushed batches.
    pub batch_requests: u64,
    /// Frames across all flushed batches.
    pub batch_frames: u64,
    /// Requests pending in the tenant's queue when the snapshot was taken.
    pub queue_depth: u64,
    /// High-water mark of the pending-queue depth.
    pub max_queue_depth: u64,
    /// Streaming session steps served against this tenant's deployments.
    pub session_steps: u64,
    /// Requests shed for blowing their deadline (each completed with the
    /// retryable [`crate::ServeError::DeadlineShed`]).
    pub shed_requests: u64,
    /// Frames across all shed requests.
    pub shed_frames: u64,
    /// Micro-batches served degraded (truncated reconstruction).
    pub degraded_batches: u64,
    /// Requests across all degraded micro-batches.
    pub degraded_requests: u64,
    /// Raw bucket counts of the admission→dispatch stage latency (from
    /// the flight recorder; empty histogram without one).
    pub queue_wait: HistogramSnapshot,
    /// Raw bucket counts of the dispatch→kernel-done stage latency.
    pub execute: HistogramSnapshot,
    /// Raw bucket counts of the kernel-done→responded stage latency.
    pub respond: HistogramSnapshot,
}

impl TenantSnapshot {
    /// Mean requests coalesced per flushed batch (0 when no batch ran) —
    /// the batch-size-recovery figure the interleaved-tenant bench
    /// asserts on.
    pub fn mean_batch_requests(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_requests as f64 / self.batches as f64
    }

    /// Mean frames per flushed batch (0 when no batch ran).
    pub fn mean_batch_frames(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_frames as f64 / self.batches as f64
    }
}

/// A point-in-time copy of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted by the front end.
    pub requests: u64,
    /// Frames across all accepted requests.
    pub frames: u64,
    /// Micro-batches flushed to the execution engine.
    pub batches: u64,
    /// Requests that completed with an error.
    pub errors: u64,
    /// Requests shed for blowing their deadline, across all tenants
    /// (also counted in `errors`).
    pub shed: u64,
    /// Requests answered with a degraded (truncated) reconstruction,
    /// across all tenants.
    pub degraded: u64,
    /// Whether the scheduler was in brownout when the snapshot was taken.
    pub brownout: bool,
    /// Inactive→active brownout transitions observed so far.
    pub brownout_entries: u64,
    /// Streaming tracker-session steps served.
    pub session_steps: u64,
    /// Streaming sessions open when the snapshot was taken.
    pub sessions_open: u64,
    /// High-water mark of concurrently open sessions.
    pub max_sessions_open: u64,
    /// Mean queue-to-response latency of batch requests.
    pub latency_mean: Duration,
    /// Median queue-to-response latency of batch requests (bucket upper
    /// bound).
    pub latency_p50: Duration,
    /// 99th-percentile queue-to-response latency of batch requests
    /// (bucket upper bound).
    pub latency_p99: Duration,
    /// Median submit-to-response latency of scheduled session steps
    /// (bucket upper bound; zero when no step was scheduled).
    pub session_latency_p50: Duration,
    /// 99th-percentile submit-to-response latency of scheduled session
    /// steps (bucket upper bound).
    pub session_latency_p99: Duration,
    /// Raw bucket counts behind `latency_p50`/`latency_p99` — the
    /// mergeable form external scrapers aggregate (see
    /// [`bucket_bounds_ns`]).
    pub latency_buckets: HistogramSnapshot,
    /// Raw bucket counts behind the session-step latency quantiles.
    pub session_latency_buckets: HistogramSnapshot,
    /// Batch frames executed per shard. Counts batch shards only:
    /// session steps run on the batcher and are counted by
    /// [`MetricsSnapshot::session_steps`].
    pub shard_frames: Vec<u64>,
    /// Batch shards executed per shard (session steps are not counted
    /// here either).
    pub shard_batches: Vec<u64>,
    /// Per-tenant batching counters and queue-depth gauges, keyed by
    /// deployment name (sorted).
    pub tenants: BTreeMap<String, TenantSnapshot>,
    /// Connection/wire gauges recorded by a network front door (all zero
    /// without one).
    pub wire: WireSnapshot,
}

impl MetricsSnapshot {
    /// Each shard's share of all executed frames (empty when no frames
    /// have been executed) — the shard-utilization figure.
    pub fn shard_utilization(&self) -> Vec<f64> {
        let total: u64 = self.shard_frames.iter().sum();
        if total == 0 {
            return vec![0.0; self.shard_frames.len()];
        }
        self.shard_frames
            .iter()
            .map(|&f| f as f64 / total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A live histogram holding `samples`, read through its snapshot.
    fn snapshot_of(samples: &[Duration]) -> HistogramSnapshot {
        let h = LatencyHistogram::new();
        for &sample in samples {
            h.record(sample);
        }
        h.snapshot()
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        assert_eq!(snapshot_of(&[]).quantile(0.5), Duration::ZERO);
        let us = [3u64, 30, 300, 3_000].map(Duration::from_micros);
        let h = snapshot_of(&us);
        assert_eq!(h.count, 4);
        // p50 falls in the 2nd sample's bucket (30 µs → 50 µs bound).
        assert_eq!(h.quantile(0.5), Duration::from_micros(50));
        // p99 falls in the last sample's bucket (3 ms → 5 ms bound).
        assert_eq!(h.quantile(0.99), Duration::from_millis(5));
        // Quantiles are monotone in q.
        assert!(h.quantile(0.25) <= h.quantile(0.75));
        assert!(h.mean() > Duration::ZERO);
    }

    #[test]
    fn nan_quantile_is_zero() {
        let h = snapshot_of(&[3u64, 30, 300].map(Duration::from_micros));
        // A NaN rank is a caller bug: report Duration::ZERO instead of
        // silently resolving to the minimum bucket.
        assert_eq!(h.quantile(f64::NAN), Duration::ZERO);
        // Infinities still clamp to the [0, 1] rank range.
        assert_eq!(h.quantile(f64::INFINITY), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NEG_INFINITY), h.quantile(0.0));
    }

    #[test]
    fn mean_rounds_to_nearest() {
        // 3 ns over 2 samples is 1.5 ns: round to 2 ns, not truncate to 1.
        let ns = [1u64, 2].map(Duration::from_nanos);
        assert_eq!(snapshot_of(&ns).mean(), Duration::from_nanos(2));
        // Exact halves round up; below-half fractions round down:
        // 4 ns over 3 samples = 1.33 ns → 1 ns.
        let ns = [1u64, 2, 1].map(Duration::from_nanos);
        assert_eq!(snapshot_of(&ns).mean(), Duration::from_nanos(1));
        // The rounding bias cannot overflow near a u64::MAX total.
        let h = HistogramSnapshot {
            buckets: Vec::new(),
            count: 2,
            total_ns: u64::MAX,
        };
        assert_eq!(h.mean(), Duration::from_nanos(u64::MAX / 2 + 1));
    }

    #[test]
    fn histogram_overflow_bucket_reports_last_bound() {
        let h = snapshot_of(&[Duration::from_secs(100)]);
        assert_eq!(h.quantile(1.0), Duration::from_secs(10));
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = ServeMetrics::new(2);
        m.record_request(10);
        m.record_request(6);
        m.record_batch();
        m.record_shard(0, 12);
        m.record_shard(1, 4);
        m.record_shard(9, 1); // out of range: ignored
        m.record_latency(Duration::from_micros(40));
        m.record_error();
        m.record_session_step("alpha");
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.frames, 16);
        assert_eq!(s.batches, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.session_steps, 1);
        assert_eq!(s.tenants["alpha"].session_steps, 1);
        assert_eq!(s.shard_frames, vec![12, 4]);
        assert_eq!(s.shard_batches, vec![1, 1]);
        let util = s.shard_utilization();
        assert!((util[0] - 0.75).abs() < 1e-12);
        assert!((util.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(s.latency_p50, Duration::from_micros(50));
    }

    #[test]
    fn zero_utilization_is_well_defined() {
        let s = ServeMetrics::new(3).snapshot();
        assert_eq!(s.shard_utilization(), vec![0.0; 3]);
        assert!(s.tenants.is_empty());
    }

    #[test]
    fn tenant_gauges_track_enqueue_and_flush() {
        let m = ServeMetrics::new(1);
        for _ in 0..3 {
            m.record_tenant_enqueued("alpha");
        }
        m.record_tenant_enqueued("beta");
        assert_eq!(m.tenant_queue_depth("alpha"), 3);
        assert_eq!(m.tenant_queue_depth("beta"), 1);
        assert_eq!(m.tenant_queue_depth("unseen"), 0);

        m.record_tenant_batch("alpha", 2, 16);
        m.record_tenant_batch("alpha", 1, 4);
        m.record_tenant_dequeued("beta", 1);
        let s = m.snapshot();
        let alpha = &s.tenants["alpha"];
        assert_eq!(alpha.batches, 2);
        assert_eq!(alpha.batch_requests, 3);
        assert_eq!(alpha.batch_frames, 20);
        assert_eq!(alpha.queue_depth, 0);
        assert_eq!(alpha.max_queue_depth, 3);
        assert!((alpha.mean_batch_requests() - 1.5).abs() < 1e-12);
        assert!((alpha.mean_batch_frames() - 10.0).abs() < 1e-12);
        let beta = &s.tenants["beta"];
        assert_eq!(beta.queue_depth, 0);
        assert_eq!(beta.batches, 0);
        assert_eq!(beta.mean_batch_requests(), 0.0);

        // Draining more than pending saturates at zero instead of
        // wrapping the gauge.
        m.record_tenant_batch("beta", 5, 5);
        assert_eq!(m.tenant_queue_depth("beta"), 0);
    }

    #[test]
    fn shed_and_degraded_work_is_accounted_per_tenant() {
        let m = ServeMetrics::new(1);
        for _ in 0..4 {
            m.record_tenant_enqueued("bulk");
        }
        // Three requests shed: drained from the gauge, attributed to the
        // tenant, counted globally both as sheds and as errors.
        m.record_shed("bulk", 3, 24);
        assert_eq!(m.tenant_queue_depth("bulk"), 1);
        // The surviving request flushes as a degraded batch.
        m.record_tenant_batch("bulk", 1, 8);
        m.record_degraded_batch("bulk", 1);
        m.set_brownout(true);
        let s = m.snapshot();
        assert_eq!(s.shed, 3);
        assert_eq!(s.errors, 3);
        assert_eq!(s.degraded, 1);
        assert!(s.brownout);
        assert_eq!(s.brownout_entries, 1);
        let bulk = &s.tenants["bulk"];
        assert_eq!(bulk.shed_requests, 3);
        assert_eq!(bulk.shed_frames, 24);
        assert_eq!(bulk.degraded_batches, 1);
        assert_eq!(bulk.degraded_requests, 1);
        assert_eq!(bulk.queue_depth, 0);
        // Re-asserting an active brownout is not a new entry; a full
        // exit/enter cycle is.
        m.set_brownout(true);
        m.set_brownout(false);
        m.set_brownout(true);
        let s = m.snapshot();
        assert_eq!(s.brownout_entries, 2);
        assert!(m.in_brownout());
    }

    #[test]
    fn wire_gauges_track_connections_frames_and_errors() {
        let m = ServeMetrics::new(1);
        assert_eq!(m.snapshot().wire, WireSnapshot::default());
        m.record_connection_opened();
        m.record_connection_opened();
        m.record_connection_closed();
        m.record_wire_frame_in();
        m.record_wire_frame_out();
        m.record_wire_frame_out();
        m.record_wire_bytes_in(128);
        m.record_wire_bytes_out(64);
        m.record_wire_error(WireErrorKind::Oversized);
        m.record_wire_error(WireErrorKind::Corrupt);
        m.record_wire_error(WireErrorKind::Corrupt);
        m.record_wire_error(WireErrorKind::Malformed);
        m.record_wire_error(WireErrorKind::UnknownKind);
        m.record_wire_error(WireErrorKind::Rejected);
        let w = m.snapshot().wire;
        assert_eq!(w.connections_open, 1);
        assert_eq!(w.max_connections_open, 2);
        assert_eq!(w.frames_in, 1);
        assert_eq!(w.frames_out, 2);
        assert_eq!(w.bytes_in, 128);
        assert_eq!(w.bytes_out, 64);
        assert_eq!(w.errors_oversized, 1);
        assert_eq!(w.errors_corrupt, 2);
        assert_eq!(w.errors_malformed, 1);
        assert_eq!(w.errors_unknown_kind, 1);
        assert_eq!(w.errors_rejected, 1);
        assert_eq!(w.errors_total(), 6);
        // Closing saturates at zero instead of wrapping.
        for _ in 0..5 {
            m.record_connection_closed();
        }
        assert_eq!(m.snapshot().wire.connections_open, 0);
    }

    #[test]
    fn histogram_snapshot_exposes_raw_buckets() {
        let h = LatencyHistogram::new();
        for us in [3u64, 30, 300, 3_000] {
            h.record(Duration::from_micros(us));
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets.len(), bucket_bounds_ns().len() + 1);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.total_ns, 3_333_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4);
        // Raw counts land exactly where the bounds say they should.
        for (i, &bound) in bucket_bounds_ns().iter().enumerate() {
            let expected = [3_000u64, 30_000, 300_000, 3_000_000]
                .iter()
                .filter(|&&ns| {
                    let lower = if i == 0 { 0 } else { bucket_bounds_ns()[i - 1] };
                    ns > lower && ns <= bound
                })
                .count() as u64;
            assert_eq!(snap.buckets[i], expected, "bucket {i}");
        }
        // An overflow sample lands in the final bucket of the copy too.
        h.record(Duration::from_secs(100));
        let snap = h.snapshot();
        assert_eq!(snap.buckets[bucket_bounds_ns().len()], 1);
        assert_eq!(snap.quantile(1.0), Duration::from_secs(10));
    }

    #[test]
    fn stage_latencies_attribute_per_tenant() {
        let m = ServeMetrics::new(1);
        m.record_stage_latency("alpha", StageLatency::QueueWait, Duration::from_micros(40));
        m.record_stage_latency("alpha", StageLatency::QueueWait, Duration::from_micros(45));
        m.record_stage_latency("alpha", StageLatency::Execute, Duration::from_micros(400));
        m.record_stage_latency("alpha", StageLatency::Respond, Duration::from_micros(4));
        let s = m.snapshot();
        let alpha = &s.tenants["alpha"];
        assert_eq!(alpha.queue_wait.count, 2);
        assert_eq!(alpha.execute.count, 1);
        assert_eq!(alpha.respond.count, 1);
        assert_eq!(alpha.queue_wait.quantile(0.5), Duration::from_micros(50));
        assert_eq!(alpha.execute.quantile(0.5), Duration::from_micros(500));
        assert_eq!(alpha.respond.quantile(0.5), Duration::from_micros(5));
        // Stage histograms never leak into the endpoint histograms.
        assert_eq!(s.latency_buckets.count, 0);
        assert_eq!(s.session_latency_buckets.count, 0);
    }

    #[test]
    fn reap_reasons_count_separately() {
        let m = ServeMetrics::new(1);
        m.record_reap(ReapReason::Idle);
        m.record_reap(ReapReason::SlowClient);
        m.record_reap(ReapReason::SlowClient);
        m.record_reap(ReapReason::Drain);
        let w = m.snapshot().wire;
        assert_eq!(w.reaped_idle, 1);
        assert_eq!(w.reaped_slow_client, 2);
        assert_eq!(w.reaped_drain, 1);
        assert_eq!(w.reaped_total(), 4);
        // Reaps are not wire errors.
        assert_eq!(w.errors_total(), 0);
    }

    #[test]
    fn durability_counters_flow_into_wire_snapshot() {
        let m = ServeMetrics::new(1);
        m.record_checkpoint(3);
        m.record_checkpoint(2);
        m.record_hydrated_deployment();
        m.record_hydrated_session();
        m.record_hydrated_session();
        m.record_hydration_skipped(4);
        let w = m.snapshot().wire;
        assert_eq!(w.checkpoints, 2);
        assert_eq!(w.checkpoint_sessions, 5);
        assert_eq!(w.hydrated_deployments, 1);
        assert_eq!(w.hydrated_sessions, 2);
        assert_eq!(w.hydration_skipped, 4);
        // Durability traffic is not a wire error or a reap.
        assert_eq!(w.errors_total(), 0);
        assert_eq!(w.reaped_total(), 0);
    }

    #[test]
    fn session_gauges_track_open_close_and_latency() {
        let m = ServeMetrics::new(1);
        m.record_session_opened();
        m.record_session_opened();
        m.record_session_closed();
        m.record_session_opened();
        m.record_session_latency(Duration::from_micros(40));
        let s = m.snapshot();
        assert_eq!(s.sessions_open, 2);
        assert_eq!(s.max_sessions_open, 2);
        assert_eq!(s.session_latency_p50, Duration::from_micros(50));
        // The batch-request histogram is untouched by session traffic.
        assert_eq!(s.latency_p99, Duration::ZERO);
        // Closing saturates at zero instead of wrapping.
        for _ in 0..5 {
            m.record_session_closed();
        }
        assert_eq!(m.snapshot().sessions_open, 0);
    }
}
