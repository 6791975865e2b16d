//! The `EMWIRE2` binary wire protocol: versioned, length-prefixed,
//! checksummed frames over the shared little-endian codec
//! ([`eigenmaps_core::codec`]), covering the full serving surface.
//!
//! `EMWIRE2` is the fourth binary format in the workspace, next to
//! `EMDEPLOY` (deployment artifacts), `EIGMAPS1` (ensemble caches) and
//! `EMSESS1` (session snapshots) — those three are specified in
//! [`eigenmaps_core::codec`]'s module docs; this one lives here because it
//! frames *conversations*, not files.
//!
//! # Frame layout
//!
//! Every message — request or response — travels as one frame:
//!
//! | offset | field      | type        | value |
//! |--------|------------|-------------|-------|
//! | 0      | `length`   | `u32`       | byte length of the record that follows (everything below) |
//! | 4      | `magic`    | 7 bytes     | `"EMWIRE2"` |
//! | 11     | `version`  | `u32`       | 2 |
//! | 15     | `id`       | `u64`       | request correlation id, echoed verbatim in the response |
//! | 23     | `kind`     | `u8`        | message kind tag (see below) |
//! | 24     | `body`     | kind-specific | see the per-kind tables |
//! | 24+n   | `checksum` | `u32`       | CRC-32C over `magic..body` ([`crc32c`]) |
//!
//! All integers are little-endian; lengths/counts are `u64` on the wire
//! ([`Encoder::put_len`]). The minimal record is 24 bytes (empty body).
//! Version 1 (`EMWIRE1`) carried a `u64` FNV-1a trailer in a 28-byte
//! minimal record; a version-2 endpoint rejects its records as corrupt,
//! naming the bad magic (see *Validation rules*).
//!
//! ## Kind tags
//!
//! | tag | message | direction | body |
//! |-----|---------|-----------|------|
//! | `0x01` | `SubmitBatch`  | → | `name: str`, `frames: u64`, then per frame `m: u64`, `f64 × m` |
//! | `0x02` | `OpenSession`  | → | `name: str`, `gain: f64` |
//! | `0x03` | `StepSession`  | → | `session: u64`, `m: u64`, `f64 × m` |
//! | `0x04` | `CloseSession` | → | `session: u64` |
//! | `0x05` | `Snapshot`     | → | `session: u64` |
//! | `0x06` | `Resume`       | → | `len: u64`, `EMSESS1 bytes × len` |
//! | `0x07` | `Catalog`      | → | empty |
//! | `0x08` | `Publish`      | → | `name: str`, `len: u64`, `EMDEPLOY bytes × len` |
//! | `0x09` | `Metrics`      | → | empty |
//! | `0x0A` | `Trace`        | → | empty |
//! | `0x0B` | `Attach`       | → | `durable: u64` |
//! | `0x81` | `Batch`         | ← | `version: u32`, `count: u64`, then per map `rows: u64`, `cols: u64`, `f64 × rows·cols`, then `degraded: u8` (0 or 1) |
//! | `0x82` | `SessionOpened` | ← | `session: u64`, `version: u32`, `frames: u64`, `durable: u64` |
//! | `0x83` | `Step`          | ← | `rows: u64`, `cols: u64`, `f64 × rows·cols`, `degraded: u8` (0 or 1) |
//! | `0x84` | `Closed`        | ← | empty |
//! | `0x85` | `Snapshot`      | ← | `len: u64`, `EMSESS1 bytes × len` |
//! | `0x86` | `Catalog`       | ← | `count: u64`, then per entry `name: str`, `versions: u64`, `u32 × versions` |
//! | `0x87` | `Published`     | ← | `version: u32` |
//! | `0x88` | `Metrics`       | ← | [`WireMetrics`]: the headline scalars — including the QoS counters `shed`, `degraded`, `brownout` (0/1 gauge) and `brownout_entries` — and wire gauges in declaration order (`u64` each, durations in ns), the per-reason reap counters, then the raw request- and session-latency histograms (each `count: u64`, `u64 × count` bucket counts, `samples: u64`, `total_ns: u64`) |
//! | `0x89` | `Trace`         | ← | [`WireTrace`]: `written: u64`, `dropped: u64`, ring events (`count`, then per event `trace: u64`, `tenant: str`, `stage: u8`, `arg: u64`, `at_ns: u64`), per-tenant stage quantiles and slow-request exemplars ([`WireTenantTrace`]) |
//! | `0xFF` | `Error`         | ← | `status: u8` ([`WireStatus`]), `message: str` |
//!
//! `str` means `len: u64` then UTF-8 bytes. Request tags occupy
//! `0x01..=0x7F`, response tags `0x80..=0xFF`, so a frame can never be
//! mistaken for the opposite direction.
//!
//! The `Trace` pair serves the flight recorder
//! ([`eigenmaps_serve::trace`]); the event taxonomy, the stage byte
//! values carried in `stage`/`arg`, and the ring-buffer semantics behind
//! `written`/`dropped` are specified in the repository's
//! `ARCHITECTURE.md`, section *Observability: the flight recorder*.
//!
//! # Validation rules
//!
//! * A `length` prefix larger than the transport's max-frame-size bound
//!   ([`MAX_FRAME_BYTES`] by default) is **oversized**: the receiver must
//!   not buffer (or allocate) the payload; [`FrameBuffer`] skips exactly
//!   `length` bytes as they arrive, so framing survives and the
//!   connection does not tear down.
//! * A complete record is **corrupt** when it is shorter than 24 bytes,
//!   carries the wrong magic or an unsupported version, or ends in a
//!   checksum that does not match `crc32c(magic..body)`. The envelope is
//!   classified in that order, **before** the checksum is verified, so a
//!   peer speaking another protocol version is told "bad magic" or
//!   "unsupported wire version", not "checksum mismatch". The record is
//!   consumed (its advertised length is trusted — the checksum says the
//!   *content* is bad, not the framing), the error is reported and the
//!   connection lives on. The correlation id of a corrupt record is
//!   untrusted and never echoed.
//! * A record whose envelope validates but whose body fails to decode —
//!   truncated body, trailing bytes, impossible counts, invalid UTF-8 —
//!   is **malformed**; an unassigned or wrong-direction `kind` is
//!   **unknown-kind**. Both keep the connection; the id *is* trustworthy
//!   (the checksum covered it) and is echoed in the error reply.
//! * A frame that has not fully arrived is simply incomplete — the
//!   receiver waits. A connection that closes mid-frame is a disconnect,
//!   not a protocol error.
//! * The bound is enforced on the **encode side too**: sealing a record
//!   longer than [`MAX_FRAME_BYTES`] fails with [`EncodeError`] instead
//!   of emitting a frame the peer is guaranteed to discard. This also
//!   keeps the `u32` length prefix exact — a record over `u32::MAX`
//!   bytes would otherwise wrap silently and desync the stream.
//!
//! Every decode is bounds-checked by [`Decoder`] before anything is
//! allocated, so a hostile length field inside a body cannot cause an
//! absurd allocation: the body's own take()s fail first (the whole record
//! is at most the frame bound).

use std::fmt;

use eigenmaps_core::codec::{crc32c, map_record_len, CodecError, Crc32c, Decoder, Encoder};
use eigenmaps_core::ThermalMap;
use eigenmaps_serve::{HistogramSnapshot, ServeError, WireSnapshot};

/// Magic bytes opening every `EMWIRE2` record.
pub const MAGIC: &[u8; 7] = b"EMWIRE2";
/// Wire protocol version encoded (and required) by this implementation.
pub const VERSION: u32 = 2;
/// Default max-frame-size bound: the largest record (length prefix
/// excluded) an endpoint will buffer. 16 MiB fits ~2M `f64` cells per
/// message — far beyond any realistic thermal-map batch.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;
/// Fixed bytes in every record besides the body: magic (7) + version (4)
/// + id (8) + kind (1) + checksum (4).
pub const RECORD_OVERHEAD: usize = 24;

const KIND_SUBMIT_BATCH: u8 = 0x01;
const KIND_OPEN_SESSION: u8 = 0x02;
const KIND_STEP_SESSION: u8 = 0x03;
const KIND_CLOSE_SESSION: u8 = 0x04;
const KIND_SNAPSHOT: u8 = 0x05;
const KIND_RESUME: u8 = 0x06;
const KIND_CATALOG: u8 = 0x07;
const KIND_PUBLISH: u8 = 0x08;
const KIND_METRICS: u8 = 0x09;
const KIND_TRACE: u8 = 0x0A;
const KIND_ATTACH: u8 = 0x0B;
const KIND_BATCH_REPLY: u8 = 0x81;
const KIND_SESSION_OPENED: u8 = 0x82;
const KIND_STEP_REPLY: u8 = 0x83;
const KIND_CLOSED: u8 = 0x84;
const KIND_SNAPSHOT_REPLY: u8 = 0x85;
const KIND_CATALOG_REPLY: u8 = 0x86;
const KIND_PUBLISHED: u8 = 0x87;
const KIND_METRICS_REPLY: u8 = 0x88;
const KIND_TRACE_REPLY: u8 = 0x89;
const KIND_ERROR: u8 = 0xFF;

/// How a received byte sequence failed `EMWIRE2` validation. Mirrors
/// [`eigenmaps_serve::WireErrorKind`] for the metrics gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeded the max-frame-size bound; the payload
    /// is skipped unread.
    Oversized {
        /// The advertised record length.
        len: usize,
        /// The bound it exceeded.
        max: usize,
    },
    /// The record failed integrity validation (too short, bad magic,
    /// unsupported version, checksum mismatch).
    Corrupt {
        /// Which check failed.
        context: &'static str,
    },
    /// The envelope was sound but the body did not decode.
    Malformed {
        /// Which field failed.
        context: &'static str,
    },
    /// The record carried a kind tag this endpoint does not handle.
    UnknownKind {
        /// The offending tag.
        kind: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {max}-byte bound"
                )
            }
            WireError::Corrupt { context } => write!(f, "corrupt frame: {context}"),
            WireError::Malformed { context } => write!(f, "malformed frame body: {context}"),
            WireError::UnknownKind { kind } => write!(f, "unknown frame kind 0x{kind:02X}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Malformed { context: e.context }
    }
}

/// An encoder refused to seal a record that would exceed the
/// max-frame-size bound — the encode-side mirror of
/// [`WireError::Oversized`]. Refusing here (rather than emitting the
/// frame) matters twice over: the peer would discard the payload unread
/// anyway, and a record longer than `u32::MAX` bytes would silently wrap
/// the length prefix and desync the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError {
    /// The record length (length prefix excluded) that was refused.
    pub len: usize,
    /// The bound it exceeded.
    pub max: usize,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refusing to encode a {len}-byte record: exceeds the {max}-byte frame bound",
            len = self.len,
            max = self.max
        )
    }
}

impl std::error::Error for EncodeError {}

/// A decode failure plus the correlation id, when it can be trusted: the
/// checksum covers the id, so ids survive malformed-body and unknown-kind
/// failures but never corrupt ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeFailure {
    /// The frame's correlation id, if the envelope validated.
    pub id: Option<u64>,
    /// What went wrong.
    pub error: WireError,
}

/// Typed error statuses carried by `Error` replies — [`ServeError`]
/// mirrored onto the wire, plus the statuses only a transport can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStatus {
    /// No deployment is published under the requested name.
    UnknownDeployment,
    /// The deployment exists but not at the requested version.
    UnknownVersion,
    /// The server is shutting down (or its runtime died).
    Terminated,
    /// Admission control refused the request — **retryable**: the queue
    /// drains on its own schedule.
    Saturated,
    /// A session snapshot disagrees with the published artifact.
    SnapshotMismatch,
    /// The request was well-framed but semantically invalid (bad shapes,
    /// unparseable artifact bytes, …).
    BadRequest,
    /// The frame itself failed validation (corrupt/malformed/oversized/
    /// unknown kind).
    BadFrame,
    /// The referenced session id is not open on this connection.
    UnknownSession,
    /// The session has steps in flight; a snapshot would not be a
    /// well-defined point in the stream — **retryable** once the steps
    /// complete.
    SessionBusy,
    /// The request blew its per-tenant deadline while queued and was shed
    /// by QoS admission control — **retryable** with fresh sensor
    /// readings once the overload passes.
    DeadlineShed,
}

impl WireStatus {
    /// Whether the client may retry the identical request and expect it
    /// to eventually succeed (transient backpressure, not a semantic
    /// refusal).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            WireStatus::Saturated | WireStatus::SessionBusy | WireStatus::DeadlineShed
        )
    }

    fn to_u8(self) -> u8 {
        match self {
            WireStatus::UnknownDeployment => 1,
            WireStatus::UnknownVersion => 2,
            WireStatus::Terminated => 3,
            WireStatus::Saturated => 4,
            WireStatus::SnapshotMismatch => 5,
            WireStatus::BadRequest => 6,
            WireStatus::BadFrame => 7,
            WireStatus::UnknownSession => 8,
            WireStatus::SessionBusy => 9,
            WireStatus::DeadlineShed => 10,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => WireStatus::UnknownDeployment,
            2 => WireStatus::UnknownVersion,
            3 => WireStatus::Terminated,
            4 => WireStatus::Saturated,
            5 => WireStatus::SnapshotMismatch,
            6 => WireStatus::BadRequest,
            7 => WireStatus::BadFrame,
            8 => WireStatus::UnknownSession,
            9 => WireStatus::SessionBusy,
            10 => WireStatus::DeadlineShed,
            _ => {
                return Err(WireError::Malformed {
                    context: "unknown error status",
                })
            }
        })
    }
}

impl fmt::Display for WireStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WireStatus::UnknownDeployment => "unknown-deployment",
            WireStatus::UnknownVersion => "unknown-version",
            WireStatus::Terminated => "terminated",
            WireStatus::Saturated => "saturated",
            WireStatus::SnapshotMismatch => "snapshot-mismatch",
            WireStatus::BadRequest => "bad-request",
            WireStatus::BadFrame => "bad-frame",
            WireStatus::UnknownSession => "unknown-session",
            WireStatus::SessionBusy => "session-busy",
            WireStatus::DeadlineShed => "deadline-shed",
        };
        f.write_str(name)
    }
}

/// Maps a [`ServeError`] onto its wire status and human-readable message.
pub fn status_of(error: &ServeError) -> (WireStatus, String) {
    let status = match error {
        ServeError::UnknownDeployment { .. } => WireStatus::UnknownDeployment,
        ServeError::UnknownVersion { .. } => WireStatus::UnknownVersion,
        ServeError::Terminated { .. } => WireStatus::Terminated,
        ServeError::Saturated { .. } => WireStatus::Saturated,
        ServeError::SnapshotMismatch { .. } => WireStatus::SnapshotMismatch,
        ServeError::DeadlineShed { .. } => WireStatus::DeadlineShed,
        _ => WireStatus::BadRequest,
    };
    (status, error.to_string())
}

/// One client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Reconstruct a batch of sensor-reading frames against the latest
    /// version of a named deployment.
    SubmitBatch {
        /// Registry name to resolve.
        deployment: String,
        /// Sensor readings, one inner vec per frame.
        frames: Vec<Vec<f64>>,
    },
    /// Open a streaming tracker session against a named deployment.
    OpenSession {
        /// Registry name to resolve.
        deployment: String,
        /// Temporal-filter gain in `[0, 1]`.
        gain: f64,
    },
    /// Step an open session with one frame of readings.
    StepSession {
        /// Session id from `SessionOpened`.
        session: u64,
        /// One frame of sensor readings.
        readings: Vec<f64>,
    },
    /// Close an open session.
    CloseSession {
        /// Session id from `SessionOpened`.
        session: u64,
    },
    /// Snapshot an open session to durable `EMSESS1` bytes.
    Snapshot {
        /// Session id from `SessionOpened`.
        session: u64,
    },
    /// Resume a session from `EMSESS1` bytes (possibly on a different
    /// server process than the one that snapshotted it).
    Resume {
        /// The `EMSESS1` record.
        snapshot: Vec<u8>,
    },
    /// List the registry's deployments and live versions.
    Catalog,
    /// Publish `EMDEPLOY` artifact bytes under a name.
    Publish {
        /// Registry name to publish under.
        name: String,
        /// The `EMDEPLOY` record.
        artifact: Vec<u8>,
    },
    /// Fetch a metrics snapshot (including the wire gauges).
    Metrics,
    /// Fetch a flight-recorder snapshot: the event ring, per-tenant stage
    /// quantiles and slow-request exemplars.
    Trace,
    /// Attach to a hydrated (checkpoint-recovered) session by its durable
    /// id, claiming it for this connection. The durable ids of recovered
    /// sessions come from the `EMSTORE1` manifest the server booted from;
    /// each can be claimed exactly once per restart.
    Attach {
        /// Durable session id assigned by the server's checkpoint store.
        durable: u64,
    },
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reconstructed maps for a `SubmitBatch`, with the pinned version.
    Batch {
        /// Registry version the batch was served against.
        version: u32,
        /// One reconstructed map per submitted frame, in order.
        maps: Vec<WireMap>,
        /// Whether the maps were synthesized at reduced (truncated-basis)
        /// fidelity under brownout; exact answers require a resubmit
        /// after the overload passes.
        degraded: bool,
    },
    /// A session was opened (or resumed).
    SessionOpened {
        /// Server-assigned session id, scoped to this connection.
        session: u64,
        /// Registry version the session is pinned to.
        version: u32,
        /// Frames already served (nonzero after a resume).
        frames: u64,
        /// Durable id under which the server's checkpoint store tracks
        /// this session, or `0` when no durability store is attached.
        /// Clients present this id to `Attach` after a server restart.
        durable: u64,
    },
    /// The filtered estimate for one `StepSession`.
    Step {
        /// The reconstructed, temporally filtered map.
        map: WireMap,
        /// Always `false` today — session steps are never degraded (the
        /// stream's temporal filter must stay bitwise-continuous) — but
        /// carried positionally so batch and step replies report fidelity
        /// uniformly.
        degraded: bool,
    },
    /// A `CloseSession` completed.
    Closed,
    /// The session's durable `EMSESS1` snapshot.
    Snapshot {
        /// The `EMSESS1` record.
        snapshot: Vec<u8>,
    },
    /// The registry catalog.
    Catalog {
        /// `(name, live versions)` pairs, sorted by name.
        entries: Vec<(String, Vec<u32>)>,
    },
    /// A `Publish` completed.
    Published {
        /// The version the artifact was published at.
        version: u32,
    },
    /// A metrics snapshot (boxed: it dwarfs every other reply variant).
    Metrics(Box<WireMetrics>),
    /// A flight-recorder snapshot.
    Trace(WireTrace),
    /// The request failed (or a frame was rejected).
    Error {
        /// Typed status; check [`WireStatus::is_retryable`].
        status: WireStatus,
        /// Human-readable detail.
        message: String,
    },
}

/// A thermal map in wire form: dimensions plus row-major cells. Converts
/// losslessly to/from [`ThermalMap`] — `f64` bits pass through untouched,
/// which is what keeps reconstruction over TCP bitwise-identical to the
/// in-process path.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMap {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Row-major cell temperatures, `rows * cols` long.
    pub cells: Vec<f64>,
}

impl From<&ThermalMap> for WireMap {
    fn from(map: &ThermalMap) -> Self {
        WireMap {
            rows: map.rows(),
            cols: map.cols(),
            cells: map.as_slice().to_vec(),
        }
    }
}

impl WireMap {
    /// Rebuilds the [`ThermalMap`].
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] if `rows * cols != cells.len()` or a
    /// dimension is zero.
    pub fn into_map(self) -> Result<ThermalMap, WireError> {
        ThermalMap::new(self.rows, self.cols, self.cells).map_err(|_| WireError::Malformed {
            context: "map dimensions disagree with cell count",
        })
    }

    fn encode(&self, enc: &mut Encoder) {
        enc.map_record(self.rows, self.cols, &self.cells);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let (rows, cols, cells) = dec.map_record()?;
        Ok(WireMap { rows, cols, cells })
    }
}

/// The metrics scalars served over the wire: the headline serving
/// counters plus the connection/wire gauges ([`WireSnapshot`]).
/// Durations travel as nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Requests accepted by the serving front end.
    pub requests: u64,
    /// Frames across all accepted requests.
    pub frames: u64,
    /// Micro-batches flushed.
    pub batches: u64,
    /// Requests that completed with an error.
    pub errors: u64,
    /// Streaming session steps served.
    pub session_steps: u64,
    /// Streaming sessions open at snapshot time.
    pub sessions_open: u64,
    /// High-water mark of concurrently open sessions.
    pub max_sessions_open: u64,
    /// Median batch-request latency, in nanoseconds.
    pub latency_p50_ns: u64,
    /// 99th-percentile batch-request latency, in nanoseconds.
    pub latency_p99_ns: u64,
    /// Requests shed at their deadline by QoS admission control.
    pub shed: u64,
    /// Requests answered at degraded (truncated-basis) fidelity.
    pub degraded: u64,
    /// Whether the server was in brownout at snapshot time (0 or 1).
    pub brownout: u64,
    /// Times the server has entered brownout (false → true edges).
    pub brownout_entries: u64,
    /// The connection/wire gauges (including the per-reason reap
    /// counters).
    pub wire: WireSnapshot,
    /// Raw batch-request latency histogram — the mergeable form of
    /// `latency_p50_ns`/`latency_p99_ns`, bucketed over
    /// [`eigenmaps_serve::bucket_bounds_ns`].
    pub latency_buckets: HistogramSnapshot,
    /// Raw session-step latency histogram, same buckets.
    pub session_latency_buckets: HistogramSnapshot,
}

fn encode_histogram(enc: &mut Encoder, h: &HistogramSnapshot) {
    enc.put_len(h.buckets.len());
    for &count in &h.buckets {
        enc.u64(count);
    }
    enc.u64(h.count).u64(h.total_ns);
}

fn decode_histogram(dec: &mut Decoder<'_>) -> Result<HistogramSnapshot, WireError> {
    let n = dec.take_len()?;
    let mut buckets = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        buckets.push(dec.u64()?);
    }
    Ok(HistogramSnapshot {
        buckets,
        count: dec.u64()?,
        total_ns: dec.u64()?,
    })
}

impl WireMetrics {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.requests)
            .u64(self.frames)
            .u64(self.batches)
            .u64(self.errors)
            .u64(self.session_steps)
            .u64(self.sessions_open)
            .u64(self.max_sessions_open)
            .u64(self.latency_p50_ns)
            .u64(self.latency_p99_ns)
            .u64(self.shed)
            .u64(self.degraded)
            .u64(self.brownout)
            .u64(self.brownout_entries)
            .u64(self.wire.connections_open)
            .u64(self.wire.max_connections_open)
            .u64(self.wire.frames_in)
            .u64(self.wire.frames_out)
            .u64(self.wire.bytes_in)
            .u64(self.wire.bytes_out)
            .u64(self.wire.errors_oversized)
            .u64(self.wire.errors_corrupt)
            .u64(self.wire.errors_malformed)
            .u64(self.wire.errors_unknown_kind)
            .u64(self.wire.errors_rejected)
            .u64(self.wire.reaped_idle)
            .u64(self.wire.reaped_slow_client)
            .u64(self.wire.reaped_drain)
            .u64(self.wire.checkpoints)
            .u64(self.wire.checkpoint_sessions)
            .u64(self.wire.hydrated_deployments)
            .u64(self.wire.hydrated_sessions)
            .u64(self.wire.hydration_skipped);
        encode_histogram(enc, &self.latency_buckets);
        encode_histogram(enc, &self.session_latency_buckets);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(WireMetrics {
            requests: dec.u64()?,
            frames: dec.u64()?,
            batches: dec.u64()?,
            errors: dec.u64()?,
            session_steps: dec.u64()?,
            sessions_open: dec.u64()?,
            max_sessions_open: dec.u64()?,
            latency_p50_ns: dec.u64()?,
            latency_p99_ns: dec.u64()?,
            shed: dec.u64()?,
            degraded: dec.u64()?,
            brownout: dec.u64()?,
            brownout_entries: dec.u64()?,
            wire: WireSnapshot {
                connections_open: dec.u64()?,
                max_connections_open: dec.u64()?,
                frames_in: dec.u64()?,
                frames_out: dec.u64()?,
                bytes_in: dec.u64()?,
                bytes_out: dec.u64()?,
                errors_oversized: dec.u64()?,
                errors_corrupt: dec.u64()?,
                errors_malformed: dec.u64()?,
                errors_unknown_kind: dec.u64()?,
                errors_rejected: dec.u64()?,
                reaped_idle: dec.u64()?,
                reaped_slow_client: dec.u64()?,
                reaped_drain: dec.u64()?,
                checkpoints: dec.u64()?,
                checkpoint_sessions: dec.u64()?,
                hydrated_deployments: dec.u64()?,
                hydrated_sessions: dec.u64()?,
                hydration_skipped: dec.u64()?,
            },
            latency_buckets: decode_histogram(dec)?,
            session_latency_buckets: decode_histogram(dec)?,
        })
    }
}

/// A flight-recorder snapshot in wire form: the event ring's recent
/// history plus per-tenant stage-latency quantiles and slow-request
/// exemplars. Stage codes/args follow [`eigenmaps_serve::Stage`]
/// (`code()`/`arg()`/`from_wire`); see `ARCHITECTURE.md`, section
/// *Observability: the flight recorder*, for the taxonomy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireTrace {
    /// Events ever written to the ring.
    pub written: u64,
    /// Events lost to overwrite or writer contention.
    pub dropped: u64,
    /// The surviving ring events, oldest first.
    pub events: Vec<WireTraceEvent>,
    /// Per-tenant stage quantiles and exemplars, sorted by tenant name.
    pub tenants: Vec<WireTenantTrace>,
}

/// One ring event on the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireTraceEvent {
    /// The trace id the event belongs to.
    pub trace: u64,
    /// Tenant (deployment name) the trace was opened for.
    pub tenant: String,
    /// Stage code ([`eigenmaps_serve::Stage::code`]).
    pub stage: u8,
    /// Stage argument (coalesced request count or rejection reason).
    pub arg: u64,
    /// Timestamp on the recorder's clock, in nanoseconds since its epoch.
    pub at_ns: u64,
}

/// One tenant's stage-latency quantiles and worst full traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireTenantTrace {
    /// Tenant (deployment name).
    pub tenant: String,
    /// Median queue wait (admitted → shard-dispatched), ns.
    pub queue_wait_p50_ns: u64,
    /// p99 queue wait, ns.
    pub queue_wait_p99_ns: u64,
    /// Median execute (shard-dispatched → kernel-done), ns.
    pub execute_p50_ns: u64,
    /// p99 execute, ns.
    pub execute_p99_ns: u64,
    /// Median respond (kernel-done → responded/rejected), ns.
    pub respond_p50_ns: u64,
    /// p99 respond, ns.
    pub respond_p99_ns: u64,
    /// The K worst (slowest admitted → terminal) full traces.
    pub exemplars: Vec<WireExemplar>,
}

/// One slow-request exemplar: a full stage timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireExemplar {
    /// The trace id.
    pub trace: u64,
    /// Admitted → terminal-stage wall time, ns.
    pub total_ns: u64,
    /// The recorded stages in timeline order.
    pub stages: Vec<WireStage>,
}

/// One stage stamp inside an exemplar.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStage {
    /// Stage code ([`eigenmaps_serve::Stage::code`]).
    pub stage: u8,
    /// Stage argument (coalesced request count or rejection reason).
    pub arg: u64,
    /// Timestamp in nanoseconds since the recorder's epoch.
    pub at_ns: u64,
}

impl WireTrace {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.written).u64(self.dropped);
        enc.put_len(self.events.len());
        for event in &self.events {
            enc.u64(event.trace);
            encode_str(enc, &event.tenant);
            enc.u8(event.stage).u64(event.arg).u64(event.at_ns);
        }
        enc.put_len(self.tenants.len());
        for tenant in &self.tenants {
            encode_str(enc, &tenant.tenant);
            enc.u64(tenant.queue_wait_p50_ns)
                .u64(tenant.queue_wait_p99_ns)
                .u64(tenant.execute_p50_ns)
                .u64(tenant.execute_p99_ns)
                .u64(tenant.respond_p50_ns)
                .u64(tenant.respond_p99_ns);
            enc.put_len(tenant.exemplars.len());
            for exemplar in &tenant.exemplars {
                enc.u64(exemplar.trace).u64(exemplar.total_ns);
                enc.put_len(exemplar.stages.len());
                for stage in &exemplar.stages {
                    enc.u8(stage.stage).u64(stage.arg).u64(stage.at_ns);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let written = dec.u64()?;
        let dropped = dec.u64()?;
        let count = dec.take_len()?;
        let mut events = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            events.push(WireTraceEvent {
                trace: dec.u64()?,
                tenant: decode_str(dec)?,
                stage: dec.u8()?,
                arg: dec.u64()?,
                at_ns: dec.u64()?,
            });
        }
        let count = dec.take_len()?;
        let mut tenants = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let tenant = decode_str(dec)?;
            let queue_wait_p50_ns = dec.u64()?;
            let queue_wait_p99_ns = dec.u64()?;
            let execute_p50_ns = dec.u64()?;
            let execute_p99_ns = dec.u64()?;
            let respond_p50_ns = dec.u64()?;
            let respond_p99_ns = dec.u64()?;
            let exemplar_count = dec.take_len()?;
            let mut exemplars = Vec::with_capacity(exemplar_count.min(1024));
            for _ in 0..exemplar_count {
                let trace = dec.u64()?;
                let total_ns = dec.u64()?;
                let stage_count = dec.take_len()?;
                let mut stages = Vec::with_capacity(stage_count.min(1024));
                for _ in 0..stage_count {
                    stages.push(WireStage {
                        stage: dec.u8()?,
                        arg: dec.u64()?,
                        at_ns: dec.u64()?,
                    });
                }
                exemplars.push(WireExemplar {
                    trace,
                    total_ns,
                    stages,
                });
            }
            tenants.push(WireTenantTrace {
                tenant,
                queue_wait_p50_ns,
                queue_wait_p99_ns,
                execute_p50_ns,
                execute_p99_ns,
                respond_p50_ns,
                respond_p99_ns,
                exemplars,
            });
        }
        Ok(WireTrace {
            written,
            dropped,
            events,
            tenants,
        })
    }
}

fn encode_str(enc: &mut Encoder, s: &str) {
    enc.put_len(s.len());
    enc.bytes(s.as_bytes());
}

fn decode_str(dec: &mut Decoder<'_>) -> Result<String, WireError> {
    let len = dec.take_len()?;
    let raw = dec.take(len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::Malformed {
        context: "invalid UTF-8 string",
    })
}

fn encode_blob(enc: &mut Encoder, bytes: &[u8]) {
    enc.put_len(bytes.len());
    enc.bytes(bytes);
}

fn decode_blob(dec: &mut Decoder<'_>) -> Result<Vec<u8>, WireError> {
    let len = dec.take_len()?;
    Ok(dec.take(len)?.to_vec())
}

fn decode_bool(dec: &mut Decoder<'_>) -> Result<bool, WireError> {
    match dec.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Malformed {
            context: "boolean flag out of range",
        }),
    }
}

fn encode_readings(enc: &mut Encoder, readings: &[f64]) {
    enc.put_len(readings.len());
    enc.f64_slice(readings);
}

fn decode_readings(dec: &mut Decoder<'_>) -> Result<Vec<f64>, WireError> {
    let m = dec.take_len()?;
    Ok(dec.f64_vec(m)?)
}

/// Seals `kind` + `body` into a complete wire frame (length prefix
/// included) under correlation id `id`, in one buffer: the length prefix
/// starts as a placeholder, and the checksum and prefix are patched in
/// once the body is written.
///
/// # Errors
///
/// [`EncodeError`] when the record exceeds [`MAX_FRAME_BYTES`] — the
/// encode-side mirror of the receiver's oversized check. The bound also
/// keeps the `u32` length prefix exact: without it, `record_len as u32`
/// would silently truncate any record over `u32::MAX` bytes.
fn seal_frame(id: u64, kind: u8, body: impl FnOnce(&mut Encoder)) -> Result<Vec<u8>, EncodeError> {
    let mut enc = Encoder::with_capacity(4 + RECORD_OVERHEAD);
    enc.u32(0).bytes(MAGIC).u32(VERSION).u64(id).u8(kind);
    body(&mut enc);
    let mut frame = enc.finish();
    // The record excludes the 4-byte prefix and includes the 4-byte
    // trailer still to come.
    let record_len = frame.len();
    if record_len > MAX_FRAME_BYTES {
        return Err(EncodeError {
            len: record_len,
            max: MAX_FRAME_BYTES,
        });
    }
    let checksum = crc32c(&frame[4..]);
    frame.extend_from_slice(&checksum.to_le_bytes());
    let prefix = u32::try_from(record_len).expect("bound fits in u32");
    frame[..4].copy_from_slice(&prefix.to_le_bytes());
    Ok(frame)
}

/// The two replies that carry maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MapReply {
    /// A `StepSession` reply: one map record.
    Step,
    /// A `SubmitBatch` reply: the deployment `version`, the map count,
    /// then the map records.
    Batch { version: u32 },
}

/// The bytes of a map reply frame ahead of its map records: the length
/// prefix and the envelope, then for a batch reply its version and the
/// map `count` (a step reply holds one map and writes neither).
/// `records_len` is the byte length of the map records that follow.
///
/// A map reply is built in three parts so that a server can send the
/// records from wherever they already sit: this head, the records, then
/// [`map_reply_trailer`]. [`Response::encode`] builds its `Step` and
/// `Batch` frames from the same two functions.
///
/// # Errors
///
/// [`EncodeError`] when the record would exceed [`MAX_FRAME_BYTES`].
pub(crate) fn map_reply_head(
    id: u64,
    reply: MapReply,
    count: usize,
    records_len: usize,
) -> Result<Vec<u8>, EncodeError> {
    let mut enc = Encoder::with_capacity(4 + RECORD_OVERHEAD + 12);
    enc.u32(0).bytes(MAGIC).u32(VERSION).u64(id);
    match reply {
        MapReply::Step => enc.u8(KIND_STEP_REPLY),
        MapReply::Batch { version } => enc.u8(KIND_BATCH_REPLY).u32(version).put_len(count),
    };
    let mut head = enc.finish();
    // Past the prefix: the head, the records, `degraded` and the checksum.
    let record_len = head.len() + records_len + 1;
    if record_len > MAX_FRAME_BYTES {
        return Err(EncodeError {
            len: record_len,
            max: MAX_FRAME_BYTES,
        });
    }
    let prefix = u32::try_from(record_len).expect("bound fits in u32");
    head[..4].copy_from_slice(&prefix.to_le_bytes());
    Ok(head)
}

/// The bytes that close a map reply frame: the `degraded` byte, then
/// the CRC-32C over the frame from the magic on, that byte included.
/// `crc` has been fed the frame from the magic up to the last map
/// record, in any number of runs.
pub(crate) fn map_reply_trailer(mut crc: Crc32c, degraded: bool) -> [u8; 5] {
    let flag = u8::from(degraded);
    let [a, b, c, d] = crc.update(&[flag]).finish().to_le_bytes();
    [flag, a, b, c, d]
}

/// A map reply as one frame: [`map_reply_head`], the maps' records and
/// [`map_reply_trailer`].
fn encode_map_reply(
    id: u64,
    reply: MapReply,
    maps: &[WireMap],
    degraded: bool,
) -> Result<Vec<u8>, EncodeError> {
    let records_len = maps.iter().map(|map| map_record_len(map.cells.len())).sum();
    let head = map_reply_head(id, reply, maps.len(), records_len)?;
    let mut enc = Encoder::with_capacity(head.len() + records_len + 5);
    enc.bytes(&head);
    for map in maps {
        map.encode(&mut enc);
    }
    let mut frame = enc.finish();
    let trailer = map_reply_trailer(*Crc32c::new().update(&frame[4..]), degraded);
    frame.extend_from_slice(&trailer);
    Ok(frame)
}

/// Validates a complete record's envelope and hands back a decoder
/// positioned at `id`. Length, magic and version are classified before
/// the checksum is verified, so version skew reads as what it is.
fn open_record(record: &[u8]) -> Result<Decoder<'_>, WireError> {
    if record.len() < RECORD_OVERHEAD {
        return Err(WireError::Corrupt {
            context: "record shorter than the fixed envelope",
        });
    }
    let (payload, trailer) = record.split_at(record.len() - 4);
    let mut dec = Decoder::new(payload);
    dec.magic(MAGIC).map_err(|_| WireError::Corrupt {
        context: "bad magic (not an EMWIRE2 record)",
    })?;
    dec.version(VERSION).map_err(|_| WireError::Corrupt {
        context: "unsupported wire version",
    })?;
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    if crc32c(payload) != stored {
        return Err(WireError::Corrupt {
            context: "checksum mismatch",
        });
    }
    Ok(dec)
}

impl Request {
    /// Encodes this request as a complete wire frame under `id`.
    ///
    /// # Errors
    ///
    /// [`EncodeError`] when the record would exceed [`MAX_FRAME_BYTES`]
    /// (e.g. a `Publish` artifact or batch too large for one frame).
    pub fn encode(&self, id: u64) -> Result<Vec<u8>, EncodeError> {
        match self {
            Request::SubmitBatch { deployment, frames } => {
                seal_frame(id, KIND_SUBMIT_BATCH, |enc| {
                    encode_str(enc, deployment);
                    enc.put_len(frames.len());
                    for frame in frames {
                        encode_readings(enc, frame);
                    }
                })
            }
            Request::OpenSession { deployment, gain } => seal_frame(id, KIND_OPEN_SESSION, |enc| {
                encode_str(enc, deployment);
                enc.f64(*gain);
            }),
            Request::StepSession { session, readings } => {
                seal_frame(id, KIND_STEP_SESSION, |enc| {
                    enc.u64(*session);
                    encode_readings(enc, readings);
                })
            }
            Request::CloseSession { session } => seal_frame(id, KIND_CLOSE_SESSION, |enc| {
                enc.u64(*session);
            }),
            Request::Snapshot { session } => seal_frame(id, KIND_SNAPSHOT, |enc| {
                enc.u64(*session);
            }),
            Request::Resume { snapshot } => seal_frame(id, KIND_RESUME, |enc| {
                encode_blob(enc, snapshot);
            }),
            Request::Catalog => seal_frame(id, KIND_CATALOG, |_| {}),
            Request::Publish { name, artifact } => seal_frame(id, KIND_PUBLISH, |enc| {
                encode_str(enc, name);
                encode_blob(enc, artifact);
            }),
            Request::Metrics => seal_frame(id, KIND_METRICS, |_| {}),
            Request::Trace => seal_frame(id, KIND_TRACE, |_| {}),
            Request::Attach { durable } => seal_frame(id, KIND_ATTACH, |enc| {
                enc.u64(*durable);
            }),
        }
    }

    /// Decodes a complete record (length prefix stripped) as a request.
    ///
    /// # Errors
    ///
    /// [`DecodeFailure`] carrying the [`WireError`] kind, plus the
    /// correlation id whenever the envelope validated.
    pub fn decode(record: &[u8]) -> Result<(u64, Request), DecodeFailure> {
        let mut dec = open_record(record).map_err(|error| DecodeFailure { id: None, error })?;
        let id = dec.u64().map_err(|e| DecodeFailure {
            id: None,
            error: e.into(),
        })?;
        let fail = |error: WireError| DecodeFailure {
            id: Some(id),
            error,
        };
        let kind = dec.u8().map_err(|e| fail(e.into()))?;
        let request = match kind {
            KIND_SUBMIT_BATCH => {
                let deployment = decode_str(&mut dec).map_err(fail)?;
                let count = dec.take_len().map_err(|e| fail(e.into()))?;
                let mut frames = Vec::new();
                for _ in 0..count {
                    frames.push(decode_readings(&mut dec).map_err(fail)?);
                }
                Request::SubmitBatch { deployment, frames }
            }
            KIND_OPEN_SESSION => Request::OpenSession {
                deployment: decode_str(&mut dec).map_err(fail)?,
                gain: dec.f64().map_err(|e| fail(e.into()))?,
            },
            KIND_STEP_SESSION => Request::StepSession {
                session: dec.u64().map_err(|e| fail(e.into()))?,
                readings: decode_readings(&mut dec).map_err(fail)?,
            },
            KIND_CLOSE_SESSION => Request::CloseSession {
                session: dec.u64().map_err(|e| fail(e.into()))?,
            },
            KIND_SNAPSHOT => Request::Snapshot {
                session: dec.u64().map_err(|e| fail(e.into()))?,
            },
            KIND_RESUME => Request::Resume {
                snapshot: decode_blob(&mut dec).map_err(fail)?,
            },
            KIND_CATALOG => Request::Catalog,
            KIND_PUBLISH => Request::Publish {
                name: decode_str(&mut dec).map_err(fail)?,
                artifact: decode_blob(&mut dec).map_err(fail)?,
            },
            KIND_METRICS => Request::Metrics,
            KIND_TRACE => Request::Trace,
            KIND_ATTACH => Request::Attach {
                durable: dec.u64().map_err(|e| fail(e.into()))?,
            },
            kind => return Err(fail(WireError::UnknownKind { kind })),
        };
        dec.finish().map_err(|_| {
            fail(WireError::Malformed {
                context: "trailing bytes after body",
            })
        })?;
        Ok((id, request))
    }
}

impl Response {
    /// Encodes this response as a complete wire frame under `id`.
    ///
    /// # Errors
    ///
    /// [`EncodeError`] when the record would exceed [`MAX_FRAME_BYTES`]
    /// (e.g. a `Batch` reply whose reconstructed maps dwarf the frames
    /// that requested them).
    pub fn encode(&self, id: u64) -> Result<Vec<u8>, EncodeError> {
        match self {
            Response::Batch {
                version,
                maps,
                degraded,
            } => {
                let reply = MapReply::Batch { version: *version };
                encode_map_reply(id, reply, maps, *degraded)
            }
            Response::SessionOpened {
                session,
                version,
                frames,
                durable,
            } => seal_frame(id, KIND_SESSION_OPENED, |enc| {
                enc.u64(*session).u32(*version).u64(*frames).u64(*durable);
            }),
            Response::Step { map, degraded } => {
                encode_map_reply(id, MapReply::Step, std::slice::from_ref(map), *degraded)
            }
            Response::Closed => seal_frame(id, KIND_CLOSED, |_| {}),
            Response::Snapshot { snapshot } => seal_frame(id, KIND_SNAPSHOT_REPLY, |enc| {
                encode_blob(enc, snapshot);
            }),
            Response::Catalog { entries } => seal_frame(id, KIND_CATALOG_REPLY, |enc| {
                enc.put_len(entries.len());
                for (name, versions) in entries {
                    encode_str(enc, name);
                    enc.put_len(versions.len());
                    for &v in versions {
                        enc.u32(v);
                    }
                }
            }),
            Response::Published { version } => seal_frame(id, KIND_PUBLISHED, |enc| {
                enc.u32(*version);
            }),
            Response::Metrics(metrics) => seal_frame(id, KIND_METRICS_REPLY, |enc| {
                metrics.encode(enc);
            }),
            Response::Trace(trace) => seal_frame(id, KIND_TRACE_REPLY, |enc| {
                trace.encode(enc);
            }),
            Response::Error { status, message } => seal_frame(id, KIND_ERROR, |enc| {
                enc.u8(status.to_u8());
                encode_str(enc, message);
            }),
        }
    }

    /// Decodes a complete record (length prefix stripped) as a response.
    ///
    /// # Errors
    ///
    /// [`DecodeFailure`] carrying the [`WireError`] kind, plus the
    /// correlation id whenever the envelope validated.
    pub fn decode(record: &[u8]) -> Result<(u64, Response), DecodeFailure> {
        let mut dec = open_record(record).map_err(|error| DecodeFailure { id: None, error })?;
        let id = dec.u64().map_err(|e| DecodeFailure {
            id: None,
            error: e.into(),
        })?;
        let fail = |error: WireError| DecodeFailure {
            id: Some(id),
            error,
        };
        let kind = dec.u8().map_err(|e| fail(e.into()))?;
        let response = match kind {
            KIND_BATCH_REPLY => {
                let version = dec.u32().map_err(|e| fail(e.into()))?;
                let count = dec.take_len().map_err(|e| fail(e.into()))?;
                let mut maps = Vec::new();
                for _ in 0..count {
                    maps.push(WireMap::decode(&mut dec).map_err(fail)?);
                }
                Response::Batch {
                    version,
                    maps,
                    degraded: decode_bool(&mut dec).map_err(fail)?,
                }
            }
            KIND_SESSION_OPENED => Response::SessionOpened {
                session: dec.u64().map_err(|e| fail(e.into()))?,
                version: dec.u32().map_err(|e| fail(e.into()))?,
                frames: dec.u64().map_err(|e| fail(e.into()))?,
                durable: dec.u64().map_err(|e| fail(e.into()))?,
            },
            KIND_STEP_REPLY => Response::Step {
                map: WireMap::decode(&mut dec).map_err(fail)?,
                degraded: decode_bool(&mut dec).map_err(fail)?,
            },
            KIND_CLOSED => Response::Closed,
            KIND_SNAPSHOT_REPLY => Response::Snapshot {
                snapshot: decode_blob(&mut dec).map_err(fail)?,
            },
            KIND_CATALOG_REPLY => {
                let count = dec.take_len().map_err(|e| fail(e.into()))?;
                let mut entries = Vec::new();
                for _ in 0..count {
                    let name = decode_str(&mut dec).map_err(fail)?;
                    let versions = dec.take_len().map_err(|e| fail(e.into()))?;
                    let mut vs = Vec::new();
                    for _ in 0..versions {
                        vs.push(dec.u32().map_err(|e| fail(e.into()))?);
                    }
                    entries.push((name, vs));
                }
                Response::Catalog { entries }
            }
            KIND_PUBLISHED => Response::Published {
                version: dec.u32().map_err(|e| fail(e.into()))?,
            },
            KIND_METRICS_REPLY => {
                Response::Metrics(Box::new(WireMetrics::decode(&mut dec).map_err(fail)?))
            }
            KIND_TRACE_REPLY => Response::Trace(WireTrace::decode(&mut dec).map_err(fail)?),
            KIND_ERROR => Response::Error {
                status: WireStatus::from_u8(dec.u8().map_err(|e| fail(e.into()))?).map_err(fail)?,
                message: decode_str(&mut dec).map_err(fail)?,
            },
            kind => return Err(fail(WireError::UnknownKind { kind })),
        };
        dec.finish().map_err(|_| {
            fail(WireError::Malformed {
                context: "trailing bytes after body",
            })
        })?;
        Ok((id, response))
    }
}

/// Incremental frame reassembly over a byte stream: feed raw reads in
/// with [`FrameBuffer::extend`], pop complete records (or validation
/// events) with [`FrameBuffer::next_record`].
///
/// A record already whole when its length prefix is read (a request or
/// a step reply) is copied out of the buffer into its own `Vec`. A record
/// still incomplete then (a batch reply arriving over many reads) moves
/// what has arrived into a record `Vec` sized from the prefix; later
/// reads append straight to it and `next_record` hands that `Vec` out
/// without a second copy. The
/// record is reserved with `try_reserve_exact`, and grows as bytes arrive
/// if the reservation fails, so a hostile prefix can neither abort the
/// process nor make a connection hold more than the bytes it has sent
/// (at most the frame bound): pages are only touched as bytes arrive.
///
/// Oversized frames are never buffered: the moment a length prefix
/// exceeds the bound, the buffer reports [`WireError::Oversized`] once
/// and silently discards exactly that many payload bytes as they arrive,
/// so the stream stays framed and the connection survives.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`. Popping a record only
    /// advances it and the next `extend` compacts, so draining a buffer
    /// of many small records costs linear, not quadratic, time.
    start: usize,
    /// A record whose prefix was read while its body was incomplete, and
    /// its full length. Until it fills, `buf` is empty; bytes past its
    /// end queue in `buf` behind it.
    partial: Option<(Vec<u8>, usize)>,
    /// Bytes of an oversized frame still to discard.
    discard: u64,
    max_frame: usize,
}

impl FrameBuffer {
    /// A buffer enforcing `max_frame` as the record-size bound.
    pub fn new(max_frame: usize) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            partial: None,
            discard: 0,
            max_frame,
        }
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, mut bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        if self.discard > 0 {
            let skip = (self.discard).min(bytes.len() as u64) as usize;
            self.discard -= skip as u64;
            bytes = &bytes[skip..];
        }
        if let Some((record, len)) = &mut self.partial {
            let take = (*len - record.len()).min(bytes.len());
            record.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
        }
        self.buf.extend_from_slice(bytes);
        self.hold_incomplete_head();
    }

    /// Moves an incomplete frame at the head of `buf` (its prefix read
    /// and within the bound) into `partial`, so the rest of its body is
    /// written straight into the record.
    fn hold_incomplete_head(&mut self) {
        let pending = &self.buf[self.start..];
        if self.partial.is_some() || pending.len() < 4 {
            return;
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len > self.max_frame || pending.len() - 4 >= len {
            return;
        }
        let mut record = Vec::new();
        // On failure the record grows as bytes arrive instead.
        let _ = record.try_reserve_exact(len);
        record.extend_from_slice(&pending[4..]);
        self.partial = Some((record, len));
        self.buf.clear();
        self.start = 0;
    }

    /// Bytes currently buffered, including the arrived part of an
    /// incomplete record (excluding discarded oversized payload).
    pub fn buffered(&self) -> usize {
        let partial = self.partial.as_ref().map_or(0, |(record, _)| record.len());
        self.buf.len() - self.start + partial
    }

    /// Pops the next complete record, `Some(Err(_))` for an oversized
    /// length prefix (reported once; the payload is discarded as it
    /// arrives), or `None` while the next frame is incomplete.
    pub fn next_record(&mut self) -> Option<Result<Vec<u8>, WireError>> {
        self.hold_incomplete_head();
        if let Some((record, len)) = &self.partial {
            if record.len() < *len {
                return None;
            }
            return self.partial.take().map(|(record, _)| Ok(record));
        }
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len > self.max_frame {
            // Consume the prefix, arm discard mode for the payload; any
            // already-buffered payload bytes are dropped right here.
            let eat = (pending.len() - 4).min(len);
            self.start += 4 + eat;
            self.discard = (len - eat) as u64;
            return Some(Err(WireError::Oversized {
                len,
                max: self.max_frame,
            }));
        }
        // An incomplete frame was moved into `partial` above, so this one
        // is whole.
        let record = pending[4..4 + len].to_vec();
        self.start += 4 + len;
        Some(Ok(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eigenmaps_core::codec::fnv1a64;

    /// Appends the `EMWIRE2` trailer to a hand-built `magic..body`,
    /// giving a record (no length prefix).
    fn seal_by_hand(enc: Encoder) -> Vec<u8> {
        let mut record = enc.finish();
        let checksum = crc32c(&record);
        record.extend_from_slice(&checksum.to_le_bytes());
        record
    }

    /// One request of every kind, on fixed small inputs.
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::SubmitBatch {
                deployment: "sku-a".into(),
                frames: vec![vec![1.0, -2.5, f64::MIN_POSITIVE], vec![0.0]],
            },
            Request::OpenSession {
                deployment: "sku-b".into(),
                gain: 0.85,
            },
            Request::StepSession {
                session: 3,
                readings: vec![21.0, 22.5],
            },
            Request::CloseSession { session: 3 },
            Request::Snapshot { session: 9 },
            Request::Resume {
                snapshot: vec![1, 2, 3, 255],
            },
            Request::Catalog,
            Request::Publish {
                name: "sku-c".into(),
                artifact: vec![0; 64],
            },
            Request::Metrics,
            Request::Trace,
            Request::Attach { durable: u64::MAX },
        ]
    }

    /// One response of every kind (two batches, two traces), on fixed
    /// small inputs: non-empty histograms, events and exemplars included.
    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Batch {
                version: 2,
                maps: vec![WireMap {
                    rows: 2,
                    cols: 3,
                    cells: vec![1.0; 6],
                }],
                degraded: false,
            },
            Response::Batch {
                version: 2,
                maps: vec![WireMap {
                    rows: 1,
                    cols: 1,
                    cells: vec![0.5],
                }],
                degraded: true,
            },
            Response::SessionOpened {
                session: 11,
                version: 1,
                frames: 40,
                durable: 6,
            },
            Response::Step {
                map: WireMap {
                    rows: 1,
                    cols: 2,
                    cells: vec![50.0, 51.0],
                },
                degraded: false,
            },
            Response::Closed,
            Response::Snapshot {
                snapshot: vec![9; 33],
            },
            Response::Catalog {
                entries: vec![("a".into(), vec![1, 3]), ("b".into(), vec![])],
            },
            Response::Published { version: 5 },
            Response::Metrics(Box::new(WireMetrics {
                requests: 10,
                shed: 3,
                degraded: 2,
                brownout: 1,
                brownout_entries: 4,
                wire: WireSnapshot {
                    frames_in: 12,
                    reaped_idle: 2,
                    reaped_slow_client: 1,
                    reaped_drain: 3,
                    checkpoints: 4,
                    checkpoint_sessions: 8,
                    hydrated_deployments: 2,
                    hydrated_sessions: 5,
                    hydration_skipped: 1,
                    ..WireSnapshot::default()
                },
                latency_buckets: HistogramSnapshot {
                    buckets: vec![0, 4, 9, 0, 1],
                    count: 14,
                    total_ns: 123_456,
                },
                session_latency_buckets: HistogramSnapshot {
                    buckets: vec![2; 23],
                    count: 46,
                    total_ns: 9_000,
                },
                ..WireMetrics::default()
            })),
            Response::Trace(WireTrace {
                written: 100,
                dropped: 3,
                events: vec![
                    WireTraceEvent {
                        trace: 7,
                        tenant: "sku-a".into(),
                        stage: 2,
                        arg: 16,
                        at_ns: 1_000,
                    },
                    WireTraceEvent {
                        trace: 8,
                        tenant: "sku-b".into(),
                        stage: 6,
                        arg: 1,
                        at_ns: 2_000,
                    },
                ],
                tenants: vec![WireTenantTrace {
                    tenant: "sku-a".into(),
                    queue_wait_p50_ns: 10,
                    queue_wait_p99_ns: 20,
                    execute_p50_ns: 30,
                    execute_p99_ns: 40,
                    respond_p50_ns: 50,
                    respond_p99_ns: 60,
                    exemplars: vec![WireExemplar {
                        trace: 7,
                        total_ns: 5_500,
                        stages: vec![
                            WireStage {
                                stage: 0,
                                arg: 0,
                                at_ns: 100,
                            },
                            WireStage {
                                stage: 5,
                                arg: 0,
                                at_ns: 5_600,
                            },
                        ],
                    }],
                }],
            }),
            Response::Trace(WireTrace::default()),
            Response::Error {
                status: WireStatus::Saturated,
                message: "tenant full".into(),
            },
        ]
    }

    #[test]
    fn every_request_kind_roundtrips() {
        for req in sample_requests() {
            let frame = req.encode(42).expect("encodes");
            let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
            fb.extend(&frame);
            let record = fb.next_record().expect("complete").expect("valid");
            let (id, back) = Request::decode(&record).expect("decodes");
            assert_eq!(id, 42);
            assert_eq!(back, req);
            assert_eq!(fb.buffered(), 0);
        }
    }

    #[test]
    fn every_response_kind_roundtrips() {
        for resp in sample_responses() {
            let frame = resp.encode(7).expect("encodes");
            let (id, back) = Response::decode(&frame[4..]).expect("decodes");
            assert_eq!(id, 7);
            assert_eq!(back, resp);
        }
    }

    /// `(kind tag, fnv1a64 of the whole frame)` for every sample request
    /// (id 42) and response (id 7), in fixture order.
    const GOLDEN_FRAMES: [(u8, u64); 23] = [
        (0x01, 0xA561C4B29F889751),
        (0x02, 0xE0CECA00578B7B99),
        (0x03, 0x7E1198448EFB1DAF),
        (0x04, 0x03ECAD7A68D57826),
        (0x05, 0x9F42264EA2EFF296),
        (0x06, 0x68E8121732593367),
        (0x07, 0x2DB07F18FE784735),
        (0x08, 0x1D6FB2E51C885145),
        (0x09, 0x5D3DAF7104DAAF95),
        (0x0A, 0xCD88B3174F3AA55C),
        (0x0B, 0xCC5F3F5FD48DF0D3),
        (0x81, 0xF77D7BB68983AF0A),
        (0x81, 0x8B368F757EADBA71),
        (0x82, 0xE412FE215867D785),
        (0x83, 0x81A513A8F01DE224),
        (0x84, 0x52F4C45114AFA50E),
        (0x85, 0x0DDC06FB315FF307),
        (0x86, 0xDFB1749C110EB276),
        (0x87, 0xF2A5676840B754BA),
        (0x88, 0xAFD3159E619F2960),
        (0x89, 0x2DC0276C3086F329),
        (0x89, 0x6D3FC99C6CF1052E),
        (0xFF, 0x2C7218B45DF4C1E8),
    ];

    /// A roundtrip cannot see an encoder and decoder that change in step;
    /// these digests pin every kind's frame to its recorded bytes.
    #[test]
    fn every_kind_encodes_to_the_recorded_bytes() {
        let tagged = |frame: Vec<u8>| (frame[4 + 7 + 4 + 8], fnv1a64(&frame));
        let frames: Vec<(u8, u64)> = sample_requests()
            .iter()
            .map(|req| tagged(req.encode(42).expect("encodes")))
            .chain(
                sample_responses()
                    .iter()
                    .map(|resp| tagged(resp.encode(7).expect("encodes"))),
            )
            .collect();
        assert_eq!(frames, GOLDEN_FRAMES);
    }

    #[test]
    fn corrupt_frames_are_rejected_without_an_id() {
        let mut frame = Request::Catalog.encode(1).expect("encodes");
        // Flip one payload bit: checksum mismatch, id untrusted.
        frame[10] ^= 0x40;
        let failure = Request::decode(&frame[4..]).unwrap_err();
        assert_eq!(failure.id, None);
        assert!(matches!(failure.error, WireError::Corrupt { .. }));

        // Too-short record.
        let failure = Request::decode(&[0u8; 8]).unwrap_err();
        assert!(matches!(failure.error, WireError::Corrupt { .. }));
    }

    #[test]
    fn wrong_direction_kind_is_unknown_with_a_trusted_id() {
        let frame = Response::Closed.encode(77).expect("encodes");
        let failure = Request::decode(&frame[4..]).unwrap_err();
        assert_eq!(failure.id, Some(77));
        assert!(matches!(
            failure.error,
            WireError::UnknownKind { kind: KIND_CLOSED }
        ));
    }

    #[test]
    fn oversized_frames_are_skipped_and_framing_survives() {
        let mut fb = FrameBuffer::new(64);
        // An oversized frame (length 1000) delivered in two chunks, then a
        // valid frame on the same stream.
        let mut stream = 1000u32.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0xAB; 1000]);
        let valid = Request::Metrics.encode(5).expect("encodes");
        stream.extend_from_slice(&valid);

        fb.extend(&stream[..300]);
        match fb.next_record() {
            Some(Err(WireError::Oversized { len: 1000, max: 64 })) => {}
            other => panic!("expected oversized, got {other:?}"),
        }
        assert_eq!(fb.next_record(), None, "payload still draining");
        fb.extend(&stream[300..]);
        let record = fb.next_record().expect("framed").expect("valid");
        let (id, req) = Request::decode(&record).expect("decodes");
        assert_eq!((id, req), (5, Request::Metrics));
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        let frame = Request::Snapshot { session: 1 }.encode(9).expect("encodes");
        let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
        for &b in &frame[..frame.len() - 1] {
            fb.extend(&[b]);
            assert_eq!(fb.next_record(), None);
        }
        fb.extend(&frame[frame.len() - 1..]);
        assert!(fb.next_record().unwrap().is_ok());
    }

    /// What a [`FrameBuffer`] hands out, in order.
    type Event = Result<Vec<u8>, WireError>;

    /// Feeds `stream` to a fresh buffer in chunks of `chunk()` bytes (the
    /// last one takes whatever is left), popping after every chunk;
    /// returns the events and the bytes still held at the end.
    fn reassemble(
        stream: &[u8],
        max_frame: usize,
        mut chunk: impl FnMut() -> usize,
    ) -> (Vec<Event>, usize) {
        let mut fb = FrameBuffer::new(max_frame);
        let mut events = Vec::new();
        let mut rest = stream;
        while !rest.is_empty() {
            let (bytes, tail) = rest.split_at(chunk().min(rest.len()));
            fb.extend(bytes);
            rest = tail;
            events.extend(std::iter::from_fn(|| fb.next_record()));
        }
        (events, fb.buffered())
    }

    #[test]
    fn every_chunking_yields_the_same_records() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Step-sized replies around a batch-sized one, an oversized frame,
        // more step replies, then a frame cut off 1000 bytes short.
        let max_frame = 1_800_000;
        let mut rng = StdRng::seed_from_u64(0x00F4_A3E5);
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for len in [
            6_749,
            6_749,
            24,
            1_724_453,
            6_749,
            max_frame + 1,
            6_749,
            0,
            6_749,
        ] {
            let body: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
            stream.extend_from_slice(&(len as u32).to_le_bytes());
            stream.extend_from_slice(&body);
            expected.push(if len > max_frame {
                Err(WireError::Oversized {
                    len,
                    max: max_frame,
                })
            } else {
                Ok(body)
            });
        }
        let tail = 6_749 - 1_000;
        stream.extend_from_slice(&6_749u32.to_le_bytes());
        stream.extend((0..tail).map(|_| rng.gen::<u32>() as u8));

        let check = |name: &str, (events, held): (Vec<Event>, usize)| {
            assert!(events == expected, "{name}: records differ");
            // The cut-off frame's body is held, its prefix consumed.
            assert_eq!(held, tail, "{name}: bytes held at the end");
        };
        for (name, len) in [
            ("whole stream", usize::MAX),
            ("1 byte", 1),
            ("16 KiB", 16 * 1024),
            ("256 KiB", 256 * 1024),
        ] {
            check(name, reassemble(&stream, max_frame, || len));
        }
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let chunk = || rng.gen_range(1..70_000usize);
            check("seeded random", reassemble(&stream, max_frame, chunk));
        }
    }

    #[test]
    fn buffered_counts_a_partial_record() {
        let frame = Request::Snapshot { session: 1 }.encode(9).expect("encodes");
        let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
        fb.extend(&frame[..3]);
        assert_eq!(fb.buffered(), 3, "a partial length prefix");
        fb.extend(&frame[3..10]);
        assert_eq!(fb.next_record(), None);
        assert_eq!(fb.buffered(), 6, "the record body so far");
        // The rest of the frame plus the first bytes of the next one.
        fb.extend(&frame[10..]);
        fb.extend(&frame[..2]);
        assert_eq!(fb.buffered(), frame.len() - 4 + 2);
        assert!(fb.next_record().expect("complete").is_ok());
        assert_eq!(fb.buffered(), 2);
    }

    #[test]
    fn a_huge_prefix_then_silence_holds_only_what_arrived() {
        for max_frame in [MAX_FRAME_BYTES, u32::MAX as usize] {
            let mut fb = FrameBuffer::new(max_frame);
            fb.extend(&(max_frame as u32).to_le_bytes());
            fb.extend(&[0x5A; 100]);
            assert_eq!(fb.next_record(), None, "the body never completes");
            assert_eq!(fb.buffered(), 100);
            fb.extend(&[0xA5; 28]);
            assert_eq!(fb.next_record(), None);
            assert_eq!(fb.buffered(), 128);
        }
    }

    #[test]
    fn statuses_mirror_serve_errors_and_flag_retryability() {
        let (status, msg) = status_of(&ServeError::Saturated {
            name: "sku".into(),
            pending: 12,
        });
        assert_eq!(status, WireStatus::Saturated);
        assert!(status.is_retryable());
        assert!(msg.contains("12"));
        let (status, _) = status_of(&ServeError::UnknownDeployment { name: "x".into() });
        assert_eq!(status, WireStatus::UnknownDeployment);
        assert!(!status.is_retryable());
        assert!(WireStatus::SessionBusy.is_retryable());
        assert!(!WireStatus::BadFrame.is_retryable());
        // A shed request is transient backpressure: retry with fresh
        // readings, exactly like Saturated.
        let (status, msg) = status_of(&ServeError::DeadlineShed {
            name: "sku".into(),
            deadline: std::time::Duration::from_millis(5),
            waited: std::time::Duration::from_millis(9),
        });
        assert_eq!(status, WireStatus::DeadlineShed);
        assert!(status.is_retryable());
        assert!(msg.contains("shed"));
        // Status bytes roundtrip.
        for s in [
            WireStatus::UnknownDeployment,
            WireStatus::UnknownVersion,
            WireStatus::Terminated,
            WireStatus::Saturated,
            WireStatus::SnapshotMismatch,
            WireStatus::BadRequest,
            WireStatus::BadFrame,
            WireStatus::UnknownSession,
            WireStatus::SessionBusy,
            WireStatus::DeadlineShed,
        ] {
            assert_eq!(WireStatus::from_u8(s.to_u8()).unwrap(), s);
        }
        assert!(WireStatus::from_u8(0).is_err());
        assert!(WireStatus::from_u8(11).is_err());
    }

    #[test]
    fn oversized_records_are_refused_at_encode_time() {
        // A record one byte over the frame bound must fail to seal rather
        // than ship a frame the peer is guaranteed to discard (and, past
        // u32::MAX, silently wrap the length prefix).
        let artifact = vec![0u8; MAX_FRAME_BYTES + 1];
        let err = Request::Publish {
            name: "huge".into(),
            artifact,
        }
        .encode(1)
        .unwrap_err();
        assert!(err.len > MAX_FRAME_BYTES);
        assert_eq!(err.max, MAX_FRAME_BYTES);
        assert!(err.to_string().contains("refusing to encode"));

        // Responses hit the same wall: a batch reply whose maps exceed
        // the bound is refused, not wrapped.
        let cells_per_map = 1 << 18;
        let maps = (0..(MAX_FRAME_BYTES / (8 * cells_per_map)) + 1)
            .map(|_| WireMap {
                rows: cells_per_map,
                cols: 1,
                cells: vec![0.0; cells_per_map],
            })
            .collect();
        let err = Response::Batch {
            version: 1,
            maps,
            degraded: false,
        }
        .encode(2)
        .unwrap_err();
        assert_eq!(err.max, MAX_FRAME_BYTES);
    }

    #[test]
    fn out_of_range_degraded_flag_is_malformed() {
        // Rebuild a Step reply whose trailing degraded byte is 2.
        let mut enc = Encoder::with_capacity(64);
        enc.bytes(MAGIC).u32(VERSION).u64(4).u8(KIND_STEP_REPLY);
        enc.put_len(1).put_len(1);
        enc.f64_slice(&[42.0]);
        enc.u8(2);
        let record = seal_by_hand(enc);
        let failure = Response::decode(&record).unwrap_err();
        assert_eq!(failure.id, Some(4));
        assert!(matches!(failure.error, WireError::Malformed { .. }));
    }

    #[test]
    fn trailing_garbage_inside_a_record_is_malformed() {
        // Rebuild a Catalog frame with an extra byte before the checksum.
        let mut enc = Encoder::with_capacity(64);
        enc.bytes(MAGIC)
            .u32(VERSION)
            .u64(3)
            .u8(KIND_CATALOG)
            .u8(0xEE);
        let record = seal_by_hand(enc);
        let failure = Request::decode(&record).unwrap_err();
        assert_eq!(failure.id, Some(3));
        assert!(matches!(failure.error, WireError::Malformed { .. }));
    }

    #[test]
    fn envelope_is_classified_before_the_checksum() {
        // A record sealed by a version-1 peer: "EMWIRE1", version 1 and an
        // 8-byte FNV-1a trailer. Its magic is named, not its checksum.
        let mut enc = Encoder::with_capacity(64);
        enc.bytes(b"EMWIRE1").u32(1).u64(5).u8(KIND_CATALOG);
        let mut old = enc.finish();
        let checksum = fnv1a64(&old);
        old.extend_from_slice(&checksum.to_le_bytes());
        let failure = Request::decode(&old).unwrap_err();
        assert_eq!(failure.id, None);
        assert_eq!(
            failure.error,
            WireError::Corrupt {
                context: "bad magic (not an EMWIRE2 record)"
            }
        );

        // Right magic, a future version, a valid CRC: the version is named.
        let mut enc = Encoder::with_capacity(64);
        enc.bytes(MAGIC).u32(VERSION + 1).u64(5).u8(KIND_CATALOG);
        let failure = Request::decode(&seal_by_hand(enc)).unwrap_err();
        assert_eq!(failure.id, None);
        assert_eq!(
            failure.error,
            WireError::Corrupt {
                context: "unsupported wire version"
            }
        );

        // A sound envelope with a flipped id bit fails only the checksum.
        let mut frame = Request::Catalog.encode(5).expect("encodes");
        frame[4 + 11] ^= 0x01;
        let failure = Request::decode(&frame[4..]).unwrap_err();
        assert_eq!(failure.id, None);
        assert_eq!(
            failure.error,
            WireError::Corrupt {
                context: "checksum mismatch"
            }
        );
    }

    #[test]
    fn sealing_owned_and_borrowed_maps_gives_the_reference_bytes() {
        let maps: Vec<ThermalMap> = (0..3)
            .map(|t| ThermalMap::from_fn(4, 5, |r, c| 40.0 + (t * 20 + r * 5 + c) as f64 * 0.37))
            .collect();
        let borrowed = Response::Batch {
            version: 9,
            maps: maps.iter().map(WireMap::from).collect(),
            degraded: true,
        }
        .encode(77)
        .expect("encodes");

        // An independent reference: encode the record, checksum it, then
        // prepend the length prefix.
        let mut enc = Encoder::with_capacity(64);
        enc.bytes(MAGIC).u32(VERSION).u64(77).u8(KIND_BATCH_REPLY);
        enc.u32(9).put_len(maps.len());
        for map in &maps {
            enc.put_len(map.rows()).put_len(map.cols());
            for &cell in map.as_slice() {
                enc.f64(cell);
            }
        }
        enc.u8(1);
        let record = seal_by_hand(enc);
        let mut reference = (record.len() as u32).to_le_bytes().to_vec();
        reference.extend_from_slice(&record);
        assert_eq!(
            borrowed, reference,
            "single-pass seal vs encode-then-prefix"
        );

        let step = Response::Step {
            map: WireMap::from(&maps[1]),
            degraded: false,
        }
        .encode(78)
        .expect("encodes");
        let mut enc = Encoder::with_capacity(64);
        enc.bytes(MAGIC).u32(VERSION).u64(78).u8(KIND_STEP_REPLY);
        enc.put_len(4)
            .put_len(5)
            .f64_slice(maps[1].as_slice())
            .u8(0);
        let record = seal_by_hand(enc);
        assert_eq!(step[..4], (record.len() as u32).to_le_bytes());
        assert_eq!(step[4..], record[..]);
    }
}
