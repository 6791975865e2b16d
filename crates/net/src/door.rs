//! The TCP front door: a single-threaded, nonblocking, readiness-driven
//! event loop that speaks [`EMWIRE2`](crate::protocol) and bridges onto
//! the in-process [`Server`] front door.
//!
//! No async runtime: the loop multiplexes plain [`std::net`] sockets in
//! nonblocking mode and sleeps in one `poll(2)` call over the sockets it
//! can act on: the listener (until draining), each connection for
//! reading (unless draining or backpressured) and, while it has unflushed
//! bytes, for writing. Batch and step submissions go through
//! [`Server::try_submit`] / [`TrackerSession::submit_step`]; their
//! tickets park in one per-connection table, keyed by correlation id,
//! and each loop pass sweeps that table once, polling every ticket once
//! with `try_wait`. Completions happen on other threads, so the poll set
//! also holds the read end of a self-pipe: a ticket's `on_ready` callback
//! and [`DoorHandle::shutdown`] write one byte to it. The wait's only
//! timeout is the earliest idle-reap or drain deadline, so an idle door
//! costs no CPU and a request is served as soon as its bytes arrive.
//!
//! Every request kind is handled by one `dispatch` function, which returns
//! what to send: a reply, a refusal (the status and message of an `Error`
//! reply) or nothing, because it parked a ticket. One reply sink seals,
//! meters and queues each answer, from dispatch and from the completion
//! sweep alike; every refusal of a well-formed request ticks the
//! `Rejected` wire error exactly once there, including a reply too large
//! for one frame, which is refused on its own correlation id.
//!
//! Each connection's outbox is a queue of outgoing replies, flushed with
//! vectored writes that resume at any byte after a partial write. A
//! reply is either a sealed frame or a step or batch reply, which is
//! never encoded into a frame: its head, the [`MapBatch`]'s map records
//! where they were synthesized (one run per slab) and its trailer go to
//! `writev` as they are, with the CRC-32C computed over the runs in
//! place. The bytes are exactly [`Response::encode`]'s for the same maps,
//! and the slabs return to the executor's pool once the reply is written.
//!
//! Robustness contract (exercised by the crate's tests):
//!
//! * corrupt, malformed, truncated or oversized frames produce an
//!   `Error` reply and a metrics tick — never a panic, never a torn-down
//!   connection (oversized payloads are skipped unbuffered);
//! * a client disconnecting with responses in flight just drops its
//!   tickets and sessions — the serving runtime completes the abandoned
//!   responders through its `Terminated` path and the batcher never
//!   wedges;
//! * backpressure: a connection whose write backlog exceeds the
//!   configured bound stops being read until the backlog drains, letting
//!   TCP flow control push back on the client;
//! * idle and slow-client timeouts reap connections that make no
//!   progress; a graceful shutdown drains pending responses first.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::ffi::c_short;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eigenmaps_core::codec::{f64_le_bytes, Crc32c};
use eigenmaps_serve::{
    MapBatch, ReapReason, ServeError, ServeMetrics, ServeRequest, Server, Ticket, TraceExemplar,
    TrackerSession, WireErrorKind,
};

use crate::protocol::{
    map_reply_head, map_reply_trailer, status_of, DecodeFailure, EncodeError, FrameBuffer,
    MapReply, Request, Response, WireError, WireExemplar, WireMetrics, WireStage, WireStatus,
    WireTenantTrace, WireTrace, WireTraceEvent, MAX_FRAME_BYTES,
};
use crate::sys::{self, PollFd};

/// Tunables for the event loop. [`NetConfig::default`] is sized for
/// tests and small fleets; production deployments mostly raise
/// `idle_timeout`. There is no poll interval: the loop wakes on socket
/// readiness, ticket completion, shutdown, or its next deadline.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Largest record (length prefix excluded) the door will buffer;
    /// larger frames are skipped and answered with `BadFrame`.
    pub max_frame_bytes: usize,
    /// Connections with no read/write progress for this long are
    /// dropped — covers both idle clients and slow readers sitting on a
    /// full write backlog. The loop sleeps at most until the earliest
    /// such deadline.
    pub idle_timeout: Duration,
    /// Soft bound on a connection's unflushed response bytes; past it
    /// the door stops reading from (and polling for input on) that
    /// connection until the backlog drains.
    pub write_backlog_limit: usize,
    /// On shutdown, how long to keep flushing in-flight responses
    /// before dropping the remaining connections.
    pub drain_timeout: Duration,
}

/// How long the listener sits out of the poll set after an accept
/// failure that is not transient.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Most bytes one pass reads from a connection. The rest stays in the
/// socket (still poll-ready) for the next pass, after this pass's
/// replies have had their say in the backpressure check, and one
/// flooding client cannot hog a pass.
const READ_BUDGET: usize = 256 * 1024;

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_bytes: MAX_FRAME_BYTES,
            idle_timeout: Duration::from_secs(60),
            write_backlog_limit: 4 * 1024 * 1024,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Both ends of the loop's self-pipe in one allocation, so a [`Waker`]
/// that outlives the loop still writes into an open socket.
struct SelfPipe {
    rx: sys::Pipe,
    tx: sys::Pipe,
}

/// Wakes the event loop from any thread.
#[derive(Clone)]
struct Waker(Arc<SelfPipe>);

impl Waker {
    fn new() -> io::Result<Self> {
        let (rx, tx) = sys::pipe()?;
        Ok(Waker(Arc::new(SelfPipe { rx, tx })))
    }

    /// Writes one wake byte without blocking. A full pipe already holds
    /// a pending wake-up, so `WouldBlock` (like any failure) is dropped.
    fn wake(&self) {
        let _ = (&self.0.tx).write(&[1]);
    }

    /// The read end, watched for wake bytes.
    fn pollfd(&self) -> PollFd {
        sys::pollfd(&self.0.rx, sys::POLLIN)
    }

    /// Empties the pipe, so the next wait blocks until a fresh wake.
    fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.0.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// A cheap handle for stopping a running [`NetServer`] from another
/// thread.
#[derive(Clone)]
pub struct DoorHandle {
    stop: Arc<AtomicBool>,
    waker: Waker,
}

impl DoorHandle {
    /// Requests a graceful shutdown: the door stops accepting, drains
    /// pending responses (bounded by [`NetConfig::drain_timeout`]) and
    /// returns from [`NetServer::run`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
    }
}

/// Most buffers one `writev` is handed.
const MAX_IOV: usize = 16;

/// One reply waiting in a connection's outbox.
enum Outgoing {
    /// A sealed frame.
    Frame(Vec<u8>),
    /// A step or batch reply sent from the executor's slabs: the frame's
    /// head, the maps' records where they sit, then the trailer.
    Maps {
        head: Vec<u8>,
        maps: MapBatch,
        trailer: [u8; 5],
        /// Bytes of the whole frame.
        len: usize,
    },
}

impl Outgoing {
    /// A `reply` for `maps` under `id`: the CRC is computed over the
    /// records in place, and the bytes sent are exactly
    /// [`Response::encode`]'s for the same maps.
    fn maps(id: u64, reply: MapReply, maps: MapBatch, degraded: bool) -> Result<Self, EncodeError> {
        let records_len = maps.record_runs().map(|run| 8 * run.len()).sum::<usize>();
        let head = map_reply_head(id, reply, maps.len(), records_len)?;
        let mut crc = Crc32c::new();
        crc.update(&head[4..]);
        for run in maps.record_runs() {
            crc.update(&f64_le_bytes(run));
        }
        let trailer = map_reply_trailer(crc, degraded);
        Ok(Outgoing::Maps {
            len: head.len() + records_len + trailer.len(),
            head,
            maps,
            trailer,
        })
    }

    fn len(&self) -> usize {
        match self {
            Outgoing::Frame(frame) => frame.len(),
            Outgoing::Maps { len, .. } => *len,
        }
    }
}

/// A connection's unflushed replies, in order, written with vectored
/// writes that resume at any byte after a partial write.
#[derive(Default)]
struct Outbox {
    items: VecDeque<Outgoing>,
    /// Bytes of the front item already written.
    written: usize,
    /// Unwritten bytes across all items.
    backlog: usize,
}

impl Outbox {
    fn push(&mut self, item: Outgoing) {
        self.backlog += item.len();
        self.items.push_back(item);
    }

    /// The door's one reply sink: queues the answer to request `id` and
    /// meters the frame. A refusal is sent as an `Error` reply and ticks
    /// the `Rejected` wire error, once per refusal.
    fn send(&mut self, id: u64, answer: Result<Outgoing, Refusal>, metrics: &ServeMetrics) {
        let item = answer.unwrap_or_else(|refusal| {
            metrics.record_wire_error(WireErrorKind::Rejected);
            // A message echoing a long client-chosen name can overflow
            // the frame bound too; the encode error's own message cannot.
            seal(id, refusal.reply())
                .or_else(|overflow| seal(id, overflow.reply()))
                .expect("an encode error's reply fits the frame bound")
        });
        metrics.record_wire_frame_out();
        metrics.record_wire_bytes_out(item.len() as u64);
        self.push(item);
    }

    fn backlog(&self) -> usize {
        self.backlog
    }

    /// Writes as much of the queue as `out` takes, returning the bytes
    /// written once it would block or the queue is empty.
    ///
    /// # Errors
    ///
    /// Any write error but `WouldBlock` and `Interrupted`; a write of
    /// zero bytes is `WriteZero`.
    fn flush(&mut self, out: &mut impl Write) -> io::Result<usize> {
        let mut total = 0;
        while self.backlog > 0 {
            let mut pieces: [Cow<'_, [u8]>; MAX_IOV] =
                std::array::from_fn(|_| Cow::Borrowed(&[][..]));
            let count = self.gather(&mut pieces);
            let slices: [IoSlice<'_>; MAX_IOV] = std::array::from_fn(|i| IoSlice::new(&pieces[i]));
            let written = match out.write_vectored(&slices[..count]) {
                Ok(0) => return Err(io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(total),
                Err(e) => return Err(e),
            };
            total += written;
            self.advance(written);
        }
        Ok(total)
    }

    /// Fills `pieces` with the unwritten bytes from the front of the
    /// queue, in order and at most [`MAX_IOV`] buffers, and returns how
    /// many it filled.
    fn gather<'a>(&'a self, pieces: &mut [Cow<'a, [u8]>; MAX_IOV]) -> usize {
        let mut count = 0;
        let mut skip = self.written;
        let mut put = |piece: Cow<'a, [u8]>| -> bool {
            if skip >= piece.len() {
                skip -= piece.len();
                return true;
            }
            pieces[count] = match piece {
                Cow::Borrowed(bytes) => Cow::Borrowed(&bytes[skip..]),
                Cow::Owned(mut bytes) => {
                    bytes.drain(..skip);
                    Cow::Owned(bytes)
                }
            };
            skip = 0;
            count += 1;
            count < MAX_IOV
        };
        for item in &self.items {
            let more = match item {
                Outgoing::Frame(frame) => put(Cow::Borrowed(frame)),
                Outgoing::Maps {
                    head,
                    maps,
                    trailer,
                    ..
                } => std::iter::once(Cow::Borrowed(&head[..]))
                    .chain(maps.record_runs().map(f64_le_bytes))
                    .chain(std::iter::once(Cow::Borrowed(&trailer[..])))
                    .all(&mut put),
            };
            if !more {
                break;
            }
        }
        count
    }

    /// Consumes `n` written bytes, dropping every item written whole
    /// (which releases a map reply's slabs to the executor's pool).
    fn advance(&mut self, n: usize) {
        self.backlog -= n;
        let mut done = self.written + n;
        while let Some(front) = self.items.front() {
            let len = front.len();
            if done < len {
                break;
            }
            done -= len;
            self.items.pop_front();
        }
        self.written = done;
    }
}

/// Why the door refuses a well-formed request: the status and message of
/// its `Error` reply.
#[derive(Debug)]
struct Refusal {
    status: WireStatus,
    message: String,
}

impl Refusal {
    fn reply(self) -> Response {
        Response::Error {
            status: self.status,
            message: self.message,
        }
    }
}

impl From<ServeError> for Refusal {
    fn from(error: ServeError) -> Self {
        let (status, message) = status_of(&error);
        Refusal { status, message }
    }
}

/// A reply over the frame bound is refused on the same correlation id:
/// the peer would discard the oversized frame unread anyway.
impl From<EncodeError> for Refusal {
    fn from(error: EncodeError) -> Self {
        Refusal {
            status: WireStatus::BadRequest,
            message: error.to_string(),
        }
    }
}

fn unknown_session(session: u64) -> Refusal {
    Refusal {
        status: WireStatus::UnknownSession,
        message: format!("session {session} is not open on this connection"),
    }
}

/// Seals `reply` to request `id` into a frame.
fn seal(id: u64, reply: Response) -> Result<Outgoing, Refusal> {
    Ok(Outgoing::Frame(reply.encode(id)?))
}

/// A ticket parked until its response is ready, and the reply it gets.
struct Parked {
    ticket: Ticket,
    reply: MapReply,
}

impl Parked {
    /// The answer to request `id` once the response is ready, `None`
    /// while it is pending. Polls the ticket once.
    fn try_answer(&mut self, id: u64) -> Option<Result<Outgoing, Refusal>> {
        let Parked { ticket, reply } = self;
        let maps = ticket.try_wait()?;
        let degraded = ticket.is_degraded();
        Some(
            maps.map_err(Refusal::from)
                .and_then(|maps| Ok(Outgoing::maps(id, *reply, maps, degraded)?)),
        )
    }
}

/// One accepted connection and everything in flight on it.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Replies not yet written to the socket.
    outbox: Outbox,
    /// Tickets in flight, keyed by request correlation id.
    parked: HashMap<u64, Parked>,
    /// Open sessions keyed by the door-assigned session id.
    sessions: HashMap<u64, TrackerSession>,
    next_session: u64,
    /// Last moment this connection made read or write progress.
    last_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize, now: Instant) -> Self {
        Conn {
            stream,
            frames: FrameBuffer::new(max_frame),
            outbox: Outbox::default(),
            parked: HashMap::new(),
            sessions: HashMap::new(),
            next_session: 1,
            last_progress: now,
        }
    }

    fn backlog(&self) -> usize {
        self.outbox.backlog()
    }

    fn pending(&self) -> usize {
        self.parked.len()
    }

    /// Whether the loop reads from this connection: not while draining,
    /// and not while its backlog is over the bound (backpressure).
    fn reading(&self, config: &NetConfig, draining: bool) -> bool {
        !draining && self.backlog() <= config.write_backlog_limit
    }

    /// The readiness this connection waits for; `0` leaves it out of
    /// the poll set.
    fn interest(&self, config: &NetConfig, draining: bool) -> c_short {
        let mut events = 0;
        if self.reading(config, draining) {
            events |= sys::POLLIN;
        }
        if self.backlog() > 0 {
            events |= sys::POLLOUT;
        }
        events
    }

    fn session(&self, session: u64) -> Result<&TrackerSession, Refusal> {
        self.sessions
            .get(&session)
            .ok_or_else(|| unknown_session(session))
    }

    /// Registers a freshly opened, resumed or attached session under a
    /// door-assigned id and builds its `SessionOpened` reply.
    fn register(&mut self, session: TrackerSession) -> Response {
        let id = self.next_session;
        self.next_session += 1;
        let reply = Response::SessionOpened {
            session: id,
            version: session.version(),
            frames: session.frames(),
            durable: session.durable_id(),
        };
        self.sessions.insert(id, session);
        reply
    }
}

/// The `EMWIRE2` TCP front door. Bind with [`NetServer::bind`], grab a
/// [`DoorHandle`] for shutdown, then [`NetServer::run`] the loop (it
/// blocks the calling thread until shutdown).
pub struct NetServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    server: Arc<Server>,
    config: NetConfig,
    stop: Arc<AtomicBool>,
    waker: Waker,
    /// Hydrated sessions waiting for a client to `Attach` by durable id.
    orphans: Arc<Mutex<HashMap<u64, TrackerSession>>>,
}

impl NetServer {
    /// Binds a door for `server` on `addr` (use port 0 for an ephemeral
    /// port; read it back from [`NetServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(addr: impl ToSocketAddrs, server: Arc<Server>) -> std::io::Result<Self> {
        Self::bind_with(addr, server, NetConfig::default())
    }

    /// [`NetServer::bind`] with explicit tunables.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding or from opening the
    /// loop's self-pipe.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        server: Arc<Server>,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(NetServer {
            listener,
            local_addr,
            server,
            config,
            stop: Arc::new(AtomicBool::new(false)),
            waker: Waker::new()?,
            orphans: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Parks checkpoint-recovered sessions (from [`Server::hydrate`])
    /// until clients reclaim them with `Attach { durable }`. Each entry
    /// is keyed by its durable id and can be claimed exactly once; ids
    /// never attached stay parked (and keep being checkpointed) for the
    /// life of the door.
    pub fn adopt(&self, sessions: Vec<(u64, TrackerSession)>) {
        let mut orphans = self.orphans.lock().expect("orphan pool poisoned");
        for (durable, session) in sessions {
            orphans.insert(durable, session);
        }
    }

    /// The bound address — the port clients should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable shutdown handle, valid for the lifetime of the loop.
    pub fn handle(&self) -> DoorHandle {
        DoorHandle {
            stop: Arc::clone(&self.stop),
            waker: self.waker.clone(),
        }
    }

    /// Runs the event loop on the calling thread until a [`DoorHandle`]
    /// requests shutdown. Returns after the graceful drain completes.
    pub fn run(self) {
        let NetServer {
            listener,
            local_addr: _,
            server,
            config,
            stop,
            waker,
            orphans,
        } = self;
        let metrics = Arc::clone(server.metrics_hub());
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn: u64 = 1;
        let mut drain_deadline: Option<Instant> = None;
        // Set after an accept failure that is not transient (say, out of
        // descriptors): the listener would poll ready on every pass, so
        // it sits out of the poll set until this instant.
        let mut accept_paused_until: Option<Instant> = None;
        let mut fds: Vec<PollFd> = Vec::new();

        loop {
            // Wait phase: the poll set reflects the state going to
            // sleep; the stop flag is read again on waking.
            let draining = stop.load(Ordering::Acquire);
            accept_paused_until = accept_paused_until.filter(|&t| Instant::now() < t);
            let listening = !draining && accept_paused_until.is_none();
            fds.clear();
            fds.push(waker.pollfd());
            if listening {
                fds.push(sys::pollfd(&listener, sys::POLLIN));
            }
            for conn in conns.values() {
                let events = conn.interest(&config, draining);
                if events != 0 {
                    fds.push(sys::pollfd(&conn.stream, events));
                }
            }
            let deadline = conns
                .values()
                .map(|conn| conn.last_progress + config.idle_timeout)
                .chain(drain_deadline)
                .chain(accept_paused_until)
                .min();
            sys::wait_ready(
                &mut fds,
                deadline.map(|d| d.saturating_duration_since(Instant::now())),
            );
            // Drain before the completion sweep: a ticket finishing after
            // its sweep leaves a fresh byte behind for the next wait.
            if fds[0].is_ready() {
                waker.drain();
            }

            let draining = stop.load(Ordering::Acquire);
            let now = Instant::now();
            if draining && drain_deadline.is_none() {
                drain_deadline = Some(now + config.drain_timeout);
            }

            // Accept phase — skipped once draining.
            if listening && !draining && fds[1].is_ready() {
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            metrics.record_connection_opened();
                            conns.insert(next_conn, Conn::new(stream, config.max_frame_bytes, now));
                            next_conn += 1;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        // An aborted handshake; the next one may be fine.
                        Err(e)
                            if matches!(
                                e.kind(),
                                ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                            ) => {}
                        Err(_) => {
                            accept_paused_until = Some(now + ACCEPT_RETRY);
                            break;
                        }
                    }
                }
            }

            let mut dead: Vec<u64> = Vec::new();
            for (&id, conn) in conns.iter_mut() {
                let alive = service_conn(
                    conn, &server, &metrics, &waker, &orphans, &config, draining, now,
                );
                if !alive {
                    dead.push(id);
                }
            }
            for id in dead {
                conns.remove(&id);
                metrics.record_connection_closed();
            }

            if draining {
                let drained = conns.values().all(|c| c.backlog() == 0 && c.pending() == 0);
                let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
                if drained || expired {
                    break;
                }
            }
        }

        // Teardown: dropping each connection drops its parked tickets
        // and sessions — the runtime's `Terminated` path completes any
        // abandoned responders. Anything still open here is a drain reap.
        for (_, conn) in conns.drain() {
            metrics.record_reap(ReapReason::Drain);
            eprintln!(
                "eigenmaps-net: reaped {} at shutdown (drain; {} unflushed byte(s), {} ticket(s) in flight)",
                peer_label(&conn),
                conn.backlog(),
                conn.pending(),
            );
            metrics.record_connection_closed();
        }
    }
}

/// One service pass over a connection: read, decode, dispatch, complete
/// ready tickets, flush, and judge liveness. Returns `false` when the
/// connection should be reaped.
#[allow(clippy::too_many_arguments)]
fn service_conn(
    conn: &mut Conn,
    server: &Arc<Server>,
    metrics: &Arc<ServeMetrics>,
    waker: &Waker,
    orphans: &Mutex<HashMap<u64, TrackerSession>>,
    config: &NetConfig,
    draining: bool,
    now: Instant,
) -> bool {
    // Read phase — skipped while the write backlog is over the bound
    // (backpressure) or the door is draining.
    let mut peer_closed = false;
    if conn.reading(config, draining) {
        let mut chunk = [0u8; 16 * 1024];
        let mut budget = READ_BUDGET;
        while budget > 0 {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    peer_closed = true;
                    break;
                }
                Ok(n) => {
                    metrics.record_wire_bytes_in(n as u64);
                    conn.frames.extend(&chunk[..n]);
                    conn.last_progress = now;
                    budget = budget.saturating_sub(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    peer_closed = true;
                    break;
                }
            }
        }
    }

    // Frame phase: pop complete records, dispatch each. Never panics on
    // hostile bytes — every failure becomes an `Error` reply.
    while let Some(outcome) = conn.frames.next_record() {
        let decoded = outcome
            .map_err(|error| DecodeFailure { id: None, error })
            .and_then(|record| {
                metrics.record_wire_frame_in();
                Request::decode(&record)
            });
        let (id, answer) = match decoded {
            Ok((id, request)) => match dispatch(conn, server, waker, orphans, id, request) {
                Ok(None) => continue,
                Ok(Some(reply)) => (id, seal(id, reply)),
                Err(refusal) => (id, Err(refusal)),
            },
            Err(failure) => {
                record_wire_error(metrics, &failure.error);
                // A corrupt envelope has no trustworthy id; 0 marks the
                // reply uncorrelatable.
                let id = failure.id.unwrap_or(0);
                let reply = Response::Error {
                    status: WireStatus::BadFrame,
                    message: failure.error.to_string(),
                };
                (id, seal(id, reply))
            }
        };
        conn.outbox.send(id, answer, metrics);
    }

    // Completion phase: one sweep over the parked tickets.
    conn.parked
        .retain(|&id, parked| match parked.try_answer(id) {
            Some(answer) => {
                conn.outbox.send(id, answer, metrics);
                false
            }
            None => true,
        });

    // Write phase: flush as much of the outbox as the socket takes.
    match conn.outbox.flush(&mut conn.stream) {
        Ok(0) => {}
        Ok(_) => conn.last_progress = now,
        Err(_) => peer_closed = true,
    }

    if peer_closed {
        // Keep the connection only while unflushed responses might still
        // be deliverable; a read-side EOF with nothing to say is final.
        return false;
    }
    // Idle / slow-client reaping: no progress in either direction for
    // the whole timeout window. An unflushed backlog says the peer is
    // alive but not reading (slow client); an empty one says it simply
    // went quiet (idle).
    if now.duration_since(conn.last_progress) > config.idle_timeout {
        let reason = if conn.backlog() > 0 {
            metrics.record_reap(ReapReason::SlowClient);
            "slow client"
        } else {
            metrics.record_reap(ReapReason::Idle);
            "idle"
        };
        eprintln!(
            "eigenmaps-net: reaped {} after {:?} without progress ({reason}; {} unflushed byte(s))",
            peer_label(conn),
            config.idle_timeout,
            conn.backlog(),
        );
        return false;
    }
    true
}

/// Best-effort peer address for reap log lines; a socket that already
/// failed reports as `<unknown>`.
fn peer_label(conn: &Conn) -> String {
    conn.stream
        .peer_addr()
        .map_or_else(|_| String::from("<unknown>"), |addr| addr.to_string())
}

/// Handles one decoded request: returns the reply to send, the refusal,
/// or `None` once it parked a ticket whose readiness callback will wake
/// the loop.
fn dispatch(
    conn: &mut Conn,
    server: &Server,
    waker: &Waker,
    orphans: &Mutex<HashMap<u64, TrackerSession>>,
    id: u64,
    request: Request,
) -> Result<Option<Response>, Refusal> {
    let reply = match request {
        Request::SubmitBatch { deployment, frames } => {
            let ticket = server.try_submit(ServeRequest::new(deployment, frames))?;
            let waker = waker.clone();
            ticket.on_ready(move || waker.wake());
            let reply = MapReply::Batch {
                version: ticket.version(),
            };
            conn.parked.insert(id, Parked { ticket, reply });
            return Ok(None);
        }
        Request::StepSession { session, readings } => {
            let ticket = conn.session(session)?.submit_step(&readings)?;
            let waker = waker.clone();
            ticket.on_ready(move || waker.wake());
            let reply = MapReply::Step;
            conn.parked.insert(id, Parked { ticket, reply });
            return Ok(None);
        }
        Request::OpenSession { deployment, gain } => {
            conn.register(server.open_session(&deployment, gain)?)
        }
        Request::CloseSession { session } => {
            conn.sessions
                .remove(&session)
                .ok_or_else(|| unknown_session(session))?;
            Response::Closed
        }
        Request::Snapshot { session } => {
            let open = conn.session(session)?;
            let pending = open.pending_steps();
            if pending > 0 {
                return Err(Refusal {
                    status: WireStatus::SessionBusy,
                    message: format!(
                        "session {session} has {pending} step(s) in flight; retry once they land"
                    ),
                });
            }
            Response::Snapshot {
                snapshot: open.snapshot(),
            }
        }
        Request::Resume { snapshot } => conn.register(server.resume_session(&snapshot)?),
        Request::Catalog => Response::Catalog {
            entries: server.registry().catalog(),
        },
        Request::Publish { name, artifact } => Response::Published {
            version: server.registry().publish_bytes(&name, &artifact)?,
        },
        Request::Metrics => {
            let snap = server.metrics();
            Response::Metrics(Box::new(WireMetrics {
                requests: snap.requests,
                frames: snap.frames,
                batches: snap.batches,
                errors: snap.errors,
                session_steps: snap.session_steps,
                sessions_open: snap.sessions_open,
                max_sessions_open: snap.max_sessions_open,
                latency_p50_ns: snap.latency_p50.as_nanos() as u64,
                latency_p99_ns: snap.latency_p99.as_nanos() as u64,
                shed: snap.shed,
                degraded: snap.degraded,
                brownout: u64::from(snap.brownout),
                brownout_entries: snap.brownout_entries,
                wire: snap.wire,
                latency_buckets: snap.latency_buckets,
                session_latency_buckets: snap.session_latency_buckets,
            }))
        }
        Request::Trace => Response::Trace(flight_snapshot(server)),
        Request::Attach { durable } => {
            let claimed = orphans
                .lock()
                .expect("orphan pool poisoned")
                .remove(&durable)
                .ok_or_else(|| unknown_session(durable))?;
            conn.register(claimed)
        }
    };
    Ok(Some(reply))
}

/// Assembles the wire form of the flight recorder: the event ring plus
/// per-tenant stage quantiles (from [`ServeMetrics`]) and slow-request
/// exemplars (from the recorder's exemplar store).
fn flight_snapshot(server: &Server) -> WireTrace {
    let recorder = server.recorder();
    let ring = recorder.snapshot();
    let events = ring
        .events
        .iter()
        .map(|event| WireTraceEvent {
            trace: event.trace.0,
            tenant: event.tenant.clone(),
            stage: event.stage.code(),
            arg: event.stage.arg(),
            at_ns: event.at.as_nanos() as u64,
        })
        .collect();
    let mut exemplars = recorder.exemplars();
    let snap = server.metrics();
    let mut tenants: Vec<WireTenantTrace> = snap
        .tenants
        .iter()
        .map(|(name, tenant)| WireTenantTrace {
            tenant: name.clone(),
            queue_wait_p50_ns: tenant.queue_wait.quantile(0.5).as_nanos() as u64,
            queue_wait_p99_ns: tenant.queue_wait.quantile(0.99).as_nanos() as u64,
            execute_p50_ns: tenant.execute.quantile(0.5).as_nanos() as u64,
            execute_p99_ns: tenant.execute.quantile(0.99).as_nanos() as u64,
            respond_p50_ns: tenant.respond.quantile(0.5).as_nanos() as u64,
            respond_p99_ns: tenant.respond.quantile(0.99).as_nanos() as u64,
            exemplars: exemplars
                .remove(name)
                .unwrap_or_default()
                .into_iter()
                .map(wire_exemplar)
                .collect(),
        })
        .collect();
    // Tenants whose only footprint is an exemplar (no finished stage
    // histograms yet) still travel.
    for (name, rest) in exemplars {
        tenants.push(WireTenantTrace {
            tenant: name,
            exemplars: rest.into_iter().map(wire_exemplar).collect(),
            ..WireTenantTrace::default()
        });
    }
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    WireTrace {
        written: ring.written,
        dropped: ring.dropped,
        events,
        tenants,
    }
}

fn wire_exemplar(exemplar: TraceExemplar) -> WireExemplar {
    WireExemplar {
        trace: exemplar.trace.0,
        total_ns: exemplar.total.as_nanos() as u64,
        stages: exemplar
            .stages
            .iter()
            .map(|&(stage, at)| WireStage {
                stage: stage.code(),
                arg: stage.arg(),
                at_ns: at.as_nanos() as u64,
            })
            .collect(),
    }
}

fn record_wire_error(metrics: &ServeMetrics, error: &WireError) {
    let kind = match error {
        WireError::Oversized { .. } => WireErrorKind::Oversized,
        WireError::Corrupt { .. } => WireErrorKind::Corrupt,
        WireError::Malformed { .. } => WireErrorKind::Malformed,
        WireError::UnknownKind { .. } => WireErrorKind::UnknownKind,
    };
    metrics.record_wire_error(kind);
}

#[cfg(test)]
mod tests {
    use super::*;
    use eigenmaps_core::prelude::*;
    use eigenmaps_serve::ShardedExecutor;

    /// A socket stand-in that takes at most `max` bytes per call, across
    /// buffers, and refuses every other call with `WouldBlock` when
    /// `stall` is set.
    struct Trickle {
        bytes: Vec<u8>,
        max: usize,
        stall: bool,
        calls: usize,
    }

    impl Trickle {
        fn new(max: usize, stall: bool) -> Self {
            Trickle {
                bytes: Vec::new(),
                max,
                stall,
                calls: 0,
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.stall && self.calls % 2 == 1 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let mut room = self.max;
            for buf in bufs {
                let take = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..take]);
                room -= take;
            }
            Ok(self.max - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A 2-shard batch of 21 maps of 8 × 7 cells: spans 0..11 and 11..21.
    fn two_shard_batch() -> MapBatch {
        let maps: Vec<ThermalMap> = (0..40)
            .map(|t| {
                let a = (t as f64 / 4.0).sin();
                let b = (t as f64 / 3.3).cos();
                ThermalMap::from_fn(8, 7, |r, c| 48.0 + a * r as f64 - b * c as f64)
            })
            .collect();
        let ens = MapEnsemble::from_maps(&maps).unwrap();
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 })
            .sensors(5)
            .design()
            .unwrap();
        let frames: Vec<Vec<f64>> = (0..21)
            .map(|t| deployment.sensors().sample(&ens.map(t)))
            .collect();
        let batch = ShardedExecutor::new(2)
            .execute(&Arc::new(deployment), &Arc::new(frames))
            .unwrap();
        assert_eq!(batch.record_runs().count(), 2, "one run per shard");
        batch
    }

    /// `Response::encode` of the same maps: the reference bytes.
    fn encoded(id: u64, version: u32, maps: &MapBatch, degraded: bool) -> Vec<u8> {
        Response::Batch {
            version,
            maps: maps.to_maps().iter().map(Into::into).collect(),
            degraded,
        }
        .encode(id)
        .unwrap()
    }

    /// Flushes `outbox` into `sink` until it is empty.
    fn drain(outbox: &mut Outbox, sink: &mut Trickle) {
        let mut passes = 0;
        while outbox.backlog() > 0 {
            outbox.flush(sink).unwrap();
            passes += 1;
            assert!(passes < 10_000_000, "flush makes progress");
        }
        assert!(outbox.items.is_empty());
        assert_eq!(outbox.written, 0);
    }

    const LIMITS: [usize; 5] = [1, 7, 4096, 65_536, usize::MAX];

    #[test]
    fn batch_reply_bytes_equal_response_encode_under_any_write_size() {
        let batch = two_shard_batch();
        let cases = [
            ("2-shard batch", batch.clone(), false),
            ("range across the shard boundary", batch.slice(7..15), false),
            ("degraded", batch.slice(11..21), true),
            ("empty batch", MapBatch::empty(), false),
        ];
        for (what, maps, degraded) in cases {
            let want = encoded(42, 3, &maps, degraded);
            for max in LIMITS {
                for stall in [false, true] {
                    let mut outbox = Outbox::default();
                    let reply = MapReply::Batch { version: 3 };
                    outbox.push(Outgoing::maps(42, reply, maps.clone(), degraded).unwrap());
                    assert_eq!(outbox.backlog(), want.len(), "{what}");
                    let mut sink = Trickle::new(max, stall);
                    drain(&mut outbox, &mut sink);
                    assert!(sink.bytes == want, "{what}: max {max}, stall {stall}");
                }
            }
        }
    }

    #[test]
    fn step_reply_bytes_equal_response_encode_under_any_write_size() {
        let batch = two_shard_batch();
        for at in [0, 10, 11, 20] {
            let map = batch.slice(at..at + 1);
            let want = Response::Step {
                map: (&map.to_maps()[0]).into(),
                degraded: false,
            }
            .encode(9)
            .unwrap();
            for max in LIMITS {
                let mut outbox = Outbox::default();
                let reply = Outgoing::maps(9, MapReply::Step, map.clone(), false);
                outbox.push(reply.unwrap());
                assert_eq!(outbox.backlog(), want.len(), "map {at}");
                let mut sink = Trickle::new(max, true);
                drain(&mut outbox, &mut sink);
                assert!(sink.bytes == want, "map {at}: max {max}");
            }
        }
    }

    #[test]
    fn mixed_queue_is_written_in_order_and_releases_slabs() {
        let batch = two_shard_batch();
        let step = Response::Closed.encode(5).unwrap();
        let mut want = step.clone();
        want.extend(encoded(6, 1, &batch.slice(3..19), false));
        want.extend(&step);
        want.extend(encoded(7, 1, &batch.slice(0..2), true));
        let reply = MapReply::Batch { version: 1 };
        for max in LIMITS {
            let mut outbox = Outbox::default();
            outbox.push(Outgoing::Frame(step.clone()));
            outbox.push(Outgoing::maps(6, reply, batch.slice(3..19), false).unwrap());
            outbox.push(Outgoing::Frame(step.clone()));
            outbox.push(Outgoing::maps(7, reply, batch.slice(0..2), true).unwrap());
            let mut sink = Trickle::new(max, true);
            drain(&mut outbox, &mut sink);
            assert!(sink.bytes == want, "max {max}");
        }
    }

    #[test]
    fn a_zero_byte_write_is_an_error() {
        let mut outbox = Outbox::default();
        outbox.push(Outgoing::Frame(vec![1, 2, 3]));
        let mut sink = Trickle::new(0, false);
        let err = outbox.flush(&mut sink).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
        assert_eq!(outbox.backlog(), 3);
    }
}
