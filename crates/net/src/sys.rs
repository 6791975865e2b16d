//! The crate's one foreign call: a readiness wait through `poll(2)`.
//!
//! Everything here is platform plumbing for the [door](crate::door): a
//! `#[repr(C)]` `pollfd`, the libc `poll` that std already links, the
//! door's self-pipe type, and [`wait_ready`], the safe wrapper the event
//! loop blocks in. Hosts without `poll(2)` keep a bounded 1 ms nap
//! behind the same signature, so the loop itself has one code path.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::io;
use std::time::Duration;

/// Readable (or, on a listener, a connection is waiting to be accepted).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

/// One watched descriptor: the kernel's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Whether the last [`wait_ready`] reported any event on this
    /// descriptor (including errors and hang-ups, which the next
    /// nonblocking read or write surfaces).
    pub(crate) fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

/// The door's self-pipe: a connected local socket pair whose read end
/// sits in the poll set and whose write end any thread can poke.
#[cfg(unix)]
pub(crate) type Pipe = std::os::unix::net::UnixStream;

/// Opens a nonblocking self-pipe as `(read end, write end)`.
#[cfg(unix)]
pub(crate) fn pipe() -> io::Result<(Pipe, Pipe)> {
    let (rx, tx) = Pipe::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((rx, tx))
}

/// Watches `source` for `events`.
#[cfg(unix)]
pub(crate) fn pollfd(source: &impl std::os::fd::AsRawFd, events: c_short) -> PollFd {
    PollFd {
        fd: source.as_raw_fd(),
        events,
        revents: 0,
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
type NfdsT = std::ffi::c_uint;

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits indefinitely), then leaves each entry's readiness for
/// [`PollFd::is_ready`]. The wait is rounded up to whole milliseconds,
/// so it never ends before `timeout`.
///
/// Never fails: an interrupted or failed wait reports every descriptor
/// as possibly ready. That is safe because all I/O on them is
/// nonblocking; a persistent failure naps 1 ms first so the caller's
/// loop cannot spin on it.
#[cfg(unix)]
pub(crate) fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) {
    let millis = timeout.map_or(-1, |t| {
        let ms = t.as_nanos().div_ceil(1_000_000);
        c_int::try_from(ms).unwrap_or(c_int::MAX)
    });
    // SAFETY: the pointer and length come from a live `&mut [PollFd]`,
    // and `PollFd` is `repr(C)` with the layout of `struct pollfd`, so
    // the kernel reads exactly `fds.len()` valid entries; it writes only
    // their `revents` fields, which any `c_short` value inhabits. The
    // borrow outlives the call, so nothing else touches `fds` meanwhile.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis) };
    if ready < 0 {
        if io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            std::thread::sleep(Duration::from_millis(1));
        }
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
    }
}

/// Self-pipe stand-in without Unix sockets: a loopback TCP pair.
#[cfg(not(unix))]
pub(crate) type Pipe = std::net::TcpStream;

/// Opens a nonblocking self-pipe as `(read end, write end)`.
#[cfg(not(unix))]
pub(crate) fn pipe() -> io::Result<(Pipe, Pipe)> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let tx = Pipe::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((rx, tx))
}

/// Watches `source` for `events` (recorded only; see [`wait_ready`]).
#[cfg(not(unix))]
pub(crate) fn pollfd<T>(_source: &T, events: c_short) -> PollFd {
    PollFd {
        fd: -1,
        events,
        revents: 0,
    }
}

/// Without `poll(2)`: a nap bounded by 1 ms and `timeout`, after which
/// every descriptor may be ready.
#[cfg(not(unix))]
pub(crate) fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) {
    let nap = Duration::from_millis(1);
    std::thread::sleep(timeout.map_or(nap, |t| t.min(nap)));
    for fd in fds.iter_mut() {
        fd.revents = fd.events;
    }
}
