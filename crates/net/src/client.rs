//! A blocking `EMWIRE2` client over [`std::net::TcpStream`]: one
//! request/response exchange at a time, typed helpers for every request
//! kind, and retryability surfaced on errors so callers can spin on
//! `Saturated`/`SessionBusy`/`DeadlineShed` backpressure.
//!
//! QoS travels both ways: a shed request surfaces as a retryable
//! [`NetError::Server`] with [`WireStatus::DeadlineShed`], and a batch
//! answered under brownout arrives with [`BatchReply::degraded`] set so
//! callers know the maps came from a truncated basis.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use eigenmaps_core::ThermalMap;

use crate::protocol::{
    EncodeError, FrameBuffer, Request, Response, WireError, WireMetrics, WireStatus, WireTrace,
    MAX_FRAME_BYTES,
};

/// Bytes a [`Client`] asks the socket for per `read(2)`.
const READ_CHUNK_BYTES: usize = 256 * 1024;

/// What a [`Client`] call can fail with.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed (including read timeouts).
    Io(std::io::Error),
    /// The request was too large to seal into one frame; nothing was
    /// sent. Split the batch (or artifact) and retry smaller.
    Encode(EncodeError),
    /// The server's reply failed `EMWIRE2` validation.
    Wire(WireError),
    /// The server answered with a typed `Error` reply.
    Server {
        /// The typed status; [`WireStatus::is_retryable`] distinguishes
        /// backpressure from semantic refusals.
        status: WireStatus,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The connection closed before a reply arrived.
    Disconnected,
    /// The server replied with a well-formed message of the wrong kind
    /// for the request.
    UnexpectedReply {
        /// What the exchange was waiting for.
        expected: &'static str,
    },
}

impl NetError {
    /// Whether retrying the identical call may succeed (transient
    /// backpressure such as `Saturated` or `SessionBusy`).
    pub fn is_retryable(&self) -> bool {
        matches!(self, NetError::Server { status, .. } if status.is_retryable())
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Encode(e) => write!(f, "request too large: {e}"),
            NetError::Wire(e) => write!(f, "protocol error: {e}"),
            NetError::Server { status, message } => write!(f, "server error ({status}): {message}"),
            NetError::Disconnected => f.write_str("connection closed before a reply arrived"),
            NetError::UnexpectedReply { expected } => {
                write!(
                    f,
                    "server replied with the wrong message kind (expected {expected})"
                )
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<EncodeError> for NetError {
    fn from(e: EncodeError) -> Self {
        NetError::Encode(e)
    }
}

/// A streaming session as seen from the client: the ids and counters the
/// server reported on open/resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// Server-assigned session id, scoped to this connection.
    pub session: u64,
    /// Registry version the session is pinned to.
    pub version: u32,
    /// Frames already served (nonzero after a resume).
    pub frames: u64,
    /// Durable id the server's checkpoint store tracks the session
    /// under (`0` when the server has no durability store). Present it
    /// to [`Client::attach`] to reclaim the session after a server
    /// restart.
    pub durable: u64,
}

/// The outcome of a successful batch submission.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReply {
    /// Registry version the batch was served against.
    pub version: u32,
    /// One reconstructed map per submitted frame, in order.
    pub maps: Vec<ThermalMap>,
    /// Whether the maps were synthesized at reduced (truncated-basis)
    /// fidelity under brownout; resubmit after the overload passes for
    /// exact answers.
    pub degraded: bool,
}

/// A blocking `EMWIRE2` client. Not thread-safe by design — one
/// in-flight exchange at a time, matched by correlation id.
pub struct Client {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Reused read buffer, big enough that a 1.7 MB batch reply takes
    /// a handful of `read(2)` calls, not a hundred.
    chunk: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connects with the default frame bound and a 30 s read timeout.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from connecting.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::connect_with(addr, MAX_FRAME_BYTES, Some(Duration::from_secs(30)))
    }

    /// Connects with an explicit frame bound and read timeout (`None`
    /// blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from connecting.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        max_frame: usize,
        read_timeout: Option<Duration>,
    ) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(read_timeout)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            frames: FrameBuffer::new(max_frame),
            chunk: vec![0; READ_CHUNK_BYTES],
            next_id: 1,
        })
    }

    /// Sends `request` and blocks for its reply. Replies are matched by
    /// correlation id; id `0` (the server's marker for an uncorrelatable
    /// frame-level error) is accepted too, so protocol rejections
    /// surface instead of deadlocking the exchange.
    ///
    /// # Errors
    ///
    /// Any [`NetError`]; `Error` replies become [`NetError::Server`].
    pub fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&request.encode(id)?)?;
        loop {
            while let Some(outcome) = self.frames.next_record() {
                let record = outcome?;
                let (got, response) = Response::decode(&record).map_err(|failure| failure.error)?;
                if got == id || got == 0 {
                    if let Response::Error { status, message } = response {
                        return Err(NetError::Server { status, message });
                    }
                    return Ok(response);
                }
                // A stale reply from an earlier abandoned exchange on
                // this stream — skip it and keep reading.
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.frames.extend(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reconstructs a batch of frames against `deployment`'s latest
    /// version; returns the pinned version, the maps (frame order
    /// preserved) and whether brownout degraded their fidelity.
    ///
    /// A shed request surfaces as a retryable [`NetError::Server`] with
    /// [`WireStatus::DeadlineShed`] — resubmit with fresh readings once
    /// the overload passes.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn submit_batch(
        &mut self,
        deployment: &str,
        frames: Vec<Vec<f64>>,
    ) -> Result<BatchReply, NetError> {
        let request = Request::SubmitBatch {
            deployment: deployment.to_string(),
            frames,
        };
        match self.call(&request)? {
            Response::Batch {
                version,
                maps,
                degraded,
            } => {
                let maps = maps
                    .into_iter()
                    .map(|m| m.into_map())
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(BatchReply {
                    version,
                    maps,
                    degraded,
                })
            }
            _ => Err(NetError::UnexpectedReply { expected: "Batch" }),
        }
    }

    /// Opens a streaming session against `deployment`.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn open_session(&mut self, deployment: &str, gain: f64) -> Result<SessionInfo, NetError> {
        let request = Request::OpenSession {
            deployment: deployment.to_string(),
            gain,
        };
        self.expect_session(&request)
    }

    /// Resumes a session from `EMSESS1` snapshot bytes — works against a
    /// different server process than the one that snapshotted, as long
    /// as the matching artifact is published there.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn resume(&mut self, snapshot: Vec<u8>) -> Result<SessionInfo, NetError> {
        self.expect_session(&Request::Resume { snapshot })
    }

    /// Attaches to a checkpoint-recovered session by the durable id a
    /// previous connection reported in [`SessionInfo::durable`]. Succeeds
    /// at most once per id per server restart; an id the server does not
    /// hold hydrated maps to an `UnknownSession` error.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn attach(&mut self, durable: u64) -> Result<SessionInfo, NetError> {
        self.expect_session(&Request::Attach { durable })
    }

    fn expect_session(&mut self, request: &Request) -> Result<SessionInfo, NetError> {
        match self.call(request)? {
            Response::SessionOpened {
                session,
                version,
                frames,
                durable,
            } => Ok(SessionInfo {
                session,
                version,
                frames,
                durable,
            }),
            _ => Err(NetError::UnexpectedReply {
                expected: "SessionOpened",
            }),
        }
    }

    /// Steps an open session with one frame of readings and blocks for
    /// the filtered estimate.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn step(&mut self, session: u64, readings: Vec<f64>) -> Result<ThermalMap, NetError> {
        let request = Request::StepSession { session, readings };
        match self.call(&request)? {
            // Steps are never degraded (the flag travels for protocol
            // uniformity only), so the estimate passes through as-is.
            Response::Step { map, .. } => Ok(map.into_map()?),
            _ => Err(NetError::UnexpectedReply { expected: "Step" }),
        }
    }

    /// Closes an open session.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn close_session(&mut self, session: u64) -> Result<(), NetError> {
        match self.call(&Request::CloseSession { session })? {
            Response::Closed => Ok(()),
            _ => Err(NetError::UnexpectedReply { expected: "Closed" }),
        }
    }

    /// Snapshots an open session to durable `EMSESS1` bytes. Retryable
    /// `SessionBusy` while steps are in flight.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn snapshot(&mut self, session: u64) -> Result<Vec<u8>, NetError> {
        match self.call(&Request::Snapshot { session })? {
            Response::Snapshot { snapshot } => Ok(snapshot),
            _ => Err(NetError::UnexpectedReply {
                expected: "Snapshot",
            }),
        }
    }

    /// Lists the server's deployments and live versions.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn catalog(&mut self) -> Result<Vec<(String, Vec<u32>)>, NetError> {
        match self.call(&Request::Catalog)? {
            Response::Catalog { entries } => Ok(entries),
            _ => Err(NetError::UnexpectedReply {
                expected: "Catalog",
            }),
        }
    }

    /// Publishes `EMDEPLOY` artifact bytes under `name`; returns the
    /// assigned version.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn publish(&mut self, name: &str, artifact: Vec<u8>) -> Result<u32, NetError> {
        let request = Request::Publish {
            name: name.to_string(),
            artifact,
        };
        match self.call(&request)? {
            Response::Published { version } => Ok(version),
            _ => Err(NetError::UnexpectedReply {
                expected: "Published",
            }),
        }
    }

    /// Fetches the server's metrics snapshot, wire gauges included.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn metrics(&mut self) -> Result<WireMetrics, NetError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(metrics) => Ok(*metrics),
            _ => Err(NetError::UnexpectedReply {
                expected: "Metrics",
            }),
        }
    }

    /// Fetches the server's flight-recorder snapshot: the stage-event
    /// ring plus per-tenant stage quantiles and slow-request exemplars.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn trace(&mut self) -> Result<WireTrace, NetError> {
        match self.call(&Request::Trace)? {
            Response::Trace(trace) => Ok(trace),
            _ => Err(NetError::UnexpectedReply { expected: "Trace" }),
        }
    }

    /// The underlying stream, e.g. to shut it down abruptly in tests.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}
