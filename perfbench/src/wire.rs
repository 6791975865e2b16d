//! A pipelining `EMWIRE1` connection for the load generator.
//!
//! `Client` runs one exchange at a time, which cannot drive an open loop:
//! a request due now must go out even while earlier replies are still in
//! flight. `WireConn` splits the exchange into `send` (encode + write) and
//! `recv` (read until a deadline + decode), built from the same public
//! protocol pieces `Client` uses, and matches replies by correlation id.
//!
//! One thread drives one connection, so waiting cannot block in `read`
//! until the next send is due: a socket read timeout is rounded up to the
//! kernel tick (up to 4 ms), which would make the open-loop sender late.
//! The socket is nonblocking instead, and `recv` polls it every `POLL`
//! while replies are outstanding, sleeping straight to the deadline
//! otherwise. `POLL` bounds how late a reply is timestamped.
//!
//! Blocking in `ppoll(2)` on the socket until it is readable or the next
//! send is due looks cheaper but is worse on a small VM: an idle vCPU
//! wakes late, and on a 2-vCPU host the open-loop send lag p99 rose from
//! 0.4 ms to 3 ms and the `telemetry_stream` step p99 from 1.5 to 2.8 ms.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use eigenmaps::net::{FrameBuffer, Request, Response, MAX_FRAME_BYTES};

const POLL: Duration = Duration::from_micros(20);

pub struct WireConn {
    stream: TcpStream,
    frames: FrameBuffer,
    chunk: Vec<u8>,
    next_id: u64,
}

impl WireConn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(WireConn {
            stream,
            frames: FrameBuffer::new(MAX_FRAME_BYTES),
            chunk: vec![0; 256 * 1024],
            next_id: 1,
        })
    }

    /// Encodes and writes one request; returns its correlation id.
    pub fn send(&mut self, request: &Request) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = request.encode(id).map_err(|e| e.to_string())?;
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => written += n,
                // The door stops reading while its write backlog is over
                // bound; keep draining replies so it can make progress.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.fill()?;
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(id)
    }

    /// Moves whatever the socket holds into the frame buffer; returns
    /// whether anything arrived.
    fn fill(&mut self) -> Result<bool, String> {
        let mut got = false;
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.frames.extend(&self.chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// The next complete reply, waiting at most until `deadline`.
    /// `Ok(None)` means the deadline passed first. With `expecting`
    /// false nothing is outstanding, so the wait is one sleep.
    pub fn recv(
        &mut self,
        deadline: Instant,
        expecting: bool,
    ) -> Result<Option<(u64, Response)>, String> {
        loop {
            if let Some(record) = self.frames.next_record() {
                let record = record.map_err(|e| e.to_string())?;
                let reply = Response::decode(&record).map_err(|f| f.error.to_string())?;
                return Ok(Some(reply));
            }
            if self.fill()? {
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            std::thread::sleep(if expecting { left.min(POLL) } else { left });
        }
    }

    /// One blocking exchange (set-up and probes only). `Error` replies are
    /// returned as `Err`.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let id = self.send(request)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.recv(deadline, true)? {
                Some((got, Response::Error { status, message })) if got == id || got == 0 => {
                    return Err(format!("server error ({status}): {message}"))
                }
                Some((got, reply)) if got == id => return Ok(reply),
                Some(_) => {}
                None => return Err("no reply within 30 s".into()),
            }
        }
    }
}
