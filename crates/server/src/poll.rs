//! Dependency-free readiness polling: the one thin shim between the
//! event loops and the kernel.
//!
//! The workspace builds with zero external crates, so instead of
//! `libc`/`mio` this module declares the two or three C symbols it
//! needs directly (they are part of the platform libc that `std`
//! already links) and wraps them in a safe, minimal API:
//!
//! * [`Poller`] — register/modify/deregister file descriptors with a
//!   readable/writable [`Interest`], then [`Poller::wait`] for
//!   [`Event`]s. Backed by **epoll** (level-triggered, O(1) per
//!   wakeup — the 10k-connections backend); the crate builds on Linux
//!   only.
//! * [`Waker`]/[`WakeRx`] — cross-thread wakeup for a blocked
//!   [`Poller::wait`], built on a nonblocking `UnixStream` pair from
//!   `std` (no extra syscall surface). Workers call [`Waker::wake`]
//!   when they route a completion back to a loop; a pending-flag
//!   collapses wake storms into at most one in-flight byte.
//!
//! All `unsafe` in the crate lives in the `sys` module below and
//! consists solely of FFI calls with checked return values; every
//! pointer passed is a stack or struct-owned buffer that outlives the
//! call.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
#[cfg(test)]
use std::time::Duration;

/// Which readiness classes a registration cares about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Self = Self {
        readable: true,
        writable: false,
    };
}

/// One readiness notification from [`Poller::wait`].
///
/// Errors and hangups are folded into `readable`/`writable` (the next
/// read/write on the fd surfaces the concrete error), mirroring how
/// epoll reports `EPOLLERR`/`EPOLLHUP` regardless of the registered
/// interest.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
}

pub(crate) use sys::Poller;

#[cfg(target_os = "linux")]
#[allow(unsafe_code)] // FFI shim: see the module docs above.
mod sys {
    use super::{Event, Interest};
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    // The kernel ABI for `struct epoll_event`: packed on x86-64 (the
    // kernel header carries `__attribute__((packed))` there so 32- and
    // 64-bit layouts agree), naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    /// `O_CLOEXEC`: the epoll fd must not leak into spawned processes.
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// How many events one `epoll_wait` call can return. Level
    /// triggering makes this a batching knob, not a correctness limit:
    /// anything left over is reported by the next call.
    const WAIT_BATCH: usize = 256;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.readable {
            // RDHUP turns a peer's half-close into a readiness event
            // instead of waiting for the idle-timeout sweep.
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// Level-triggered epoll instance owning its fd.
    pub(crate) struct Poller {
        epfd: c_int,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            // SAFETY: `ev` is a live stack value for the duration of
            // the call; the kernel copies it before returning.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            // The event argument is ignored for DEL on every kernel
            // this crate supports (>= 2.6.9), but must be non-null for
            // the oldest ones; pass a dummy either way.
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        /// Wait up to `timeout` and append ready events to `out`
        /// (which is cleared first). A timeout or `EINTR` is an empty
        /// result, not an error.
        pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Event>) -> io::Result<()> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
            let n = {
                // SAFETY: `buf` holds WAIT_BATCH elements and outlives
                // the call; the kernel writes at most `maxevents` of
                // them.
                unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), WAIT_BATCH as c_int, timeout_ms) }
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in buf.iter().take(n as usize) {
                // Copy fields out by value (the struct may be packed).
                let events = ev.events;
                let data = ev.data;
                out.push(Event {
                    token: data as usize,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing the fd we own exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
compile_error!(
    "seesaw-server's event loop needs epoll; \
     targets other than Linux are not supported"
);

/// The write half of a loop's wakeup channel, shared (via `Arc`) with
/// workers, the accepting loop and the server handle. [`Waker::wake`]
/// is safe from any thread and never blocks.
pub(crate) struct Waker {
    tx: UnixStream,
    /// Collapses bursts: only the first wake after a
    /// [`WakeRx::drain`]/[`Waker::clear_pending`] writes a byte.
    pending: AtomicBool,
}

impl Waker {
    /// Wake the owning loop if it is not already scheduled to wake.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // A full socket buffer means wakes are already pending —
            // the loop will drain; any other error means the loop is
            // gone and waking is moot.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Called by the owning loop each tick — after [`WakeRx::drain`],
    /// processing messages: wakes requested after this point write a
    /// fresh byte and re-trigger the poller.
    pub fn clear_pending(&self) {
        self.pending.store(false, Ordering::Release);
    }
}

use std::io::{Read as _, Write as _};

/// The read half of a wakeup channel, owned by its event loop and
/// registered with the loop's [`Poller`].
pub(crate) struct WakeRx {
    rx: UnixStream,
}

impl WakeRx {
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Discard all buffered wake bytes.
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.rx.read(&mut buf) {
                Ok(0) => return, // writer gone; nothing more will come
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }
}

/// Build a connected waker pair (both ends nonblocking).
pub(crate) fn waker_pair() -> io::Result<(Arc<Waker>, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Arc::new(Waker {
            tx,
            pending: AtomicBool::new(false),
        }),
        WakeRx { rx },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_wakes_a_blocked_poller_once_per_drain() {
        let (waker, mut rx) = waker_pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(rx.fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // No wake: the wait times out empty.
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty());

        // A burst of wakes collapses into one readiness event.
        waker.wake();
        waker.wake();
        waker.wake();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        waker.clear_pending();
        rx.drain();

        // Drained: quiet again until the next wake.
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty());
        waker.wake();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn socket_readability_and_writability_are_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(
                server.as_raw_fd(),
                1,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();

        // A fresh connected socket is writable but not yet readable.
        let mut events = Vec::new();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].writable);
        assert!(!events[0].readable);

        // Bytes from the peer make it readable.
        use std::io::Write as _;
        (&client).write_all(b"ping\n").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(Duration::from_millis(25), &mut events).unwrap();
            if events.iter().any(|e| e.token == 1 && e.readable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "never became readable"
            );
        }

        // Dropping read interest silences the readable report.
        poller
            .modify(
                server.as_raw_fd(),
                1,
                Interest {
                    readable: false,
                    writable: false,
                },
            )
            .unwrap();
        poller.wait(Duration::from_millis(25), &mut events).unwrap();
        assert!(
            events.iter().all(|e| e.token != 1),
            "deregistered interest still reported: {events:?}"
        );

        poller.deregister(server.as_raw_fd()).unwrap();
    }
}
