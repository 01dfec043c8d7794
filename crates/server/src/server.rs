//! The TCP front end: readiness-polled event loops, worker pool, and
//! graceful shutdown.
//!
//! Threading model (see the [crate docs](crate) for the full picture):
//! a small fixed set of event-loop threads ([`EventLoop`]) each
//! multiplex their share of the connections over nonblocking I/O. The
//! listener is one more fd in loop 0's poll set: loop 0 accepts and
//! deals sockets round-robin to every loop, itself included. CPU-bound
//! request dispatch stays on the bounded-queue worker pool, with
//! completions routed back to the owning loop.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use seesaw_core::protocol::{ErrorCode, Response};
use seesaw_core::SearchService;

use crate::event_loop::EventLoop;
use crate::poll::Waker;
use crate::queue::{Job, JobQueue};

/// Tuning knobs for a [`Server`]. The defaults suit tests and small
/// deployments; every limit exists so that load sheds visibly (an
/// `overloaded` protocol error) instead of queueing without bound.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests (default 4). Dispatch is
    /// CPU-bound (vector-store scans, alignment solves), so more
    /// workers than cores buys nothing.
    pub workers: usize,
    /// Event-loop threads multiplexing connection I/O (default 2).
    /// Each loop owns its share of the connections outright, so loops
    /// never contend; I/O is cheap relative to dispatch and a few
    /// loops drive thousands of connections.
    pub event_loops: usize,
    /// Requests that may wait for a worker before submissions are
    /// rejected with an `overloaded` error (default 64).
    pub queue_depth: usize,
    /// Concurrent connections; further accepts are sent one
    /// `overloaded` line and closed (default 256).
    pub max_connections: usize,
    /// How long a connection may sit idle (no complete request line)
    /// before the server closes it (default 30 s).
    pub read_timeout: Duration,
    /// How long a connection's pending response bytes may make no
    /// progress (client not draining its socket) before the server
    /// disconnects it (default 10 s).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            event_loops: 2,
            queue_depth: 64,
            max_connections: 256,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

impl ServerConfig {
    /// Set the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the number of event-loop threads.
    pub fn with_event_loops(mut self, loops: usize) -> Self {
        self.event_loops = loops.max(1);
        self
    }

    /// Set the bounded queue depth (clamped to at least 1 — the queue
    /// is also the worker handoff, so depth 0 could serve nothing).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Set the concurrent-connection cap.
    pub fn with_max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap.max(1);
        self
    }

    /// Set the idle read timeout.
    // xtask-allow: D1 deployment setting; the server suites set it
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Set the write-progress (stalled client) timeout.
    // xtask-allow: D1 deployment setting; the server suites set it
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }
}

/// Monotonic counters, snapshotted as [`ServerStats`].
#[derive(Default)]
pub(crate) struct Counters {
    pub connections_accepted: AtomicU64,
    pub connections_rejected: AtomicU64,
    pub requests_served: AtomicU64,
    pub requests_rejected_saturated: AtomicU64,
}

/// A snapshot of a server's lifetime accounting (taken by
/// [`Server::stats`] or returned by [`Server::shutdown`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and adopted by an event loop.
    pub connections_accepted: u64,
    /// Connections turned away at the cap (sent one `overloaded` line).
    pub connections_rejected: u64,
    /// Responses written back to clients, protocol errors included.
    pub requests_served: u64,
    /// Requests shed with an `overloaded` error because the worker
    /// queue was full (a subset of `requests_served` — the rejection
    /// itself is a served response).
    pub requests_rejected_saturated: u64,
}

/// Shared state between the event loops, worker pool, and the owning
/// [`Server`] handle.
pub(crate) struct Shared {
    pub service: Arc<SearchService>,
    pub config: ServerConfig,
    pub queue: JobQueue,
    pub shutdown: AtomicBool,
    pub open_connections: AtomicUsize,
    pub counters: Counters,
}

impl Shared {
    pub(crate) fn overloaded_line(&self, message: &str) -> String {
        Response::Error {
            code: ErrorCode::Overloaded,
            message: message.to_string(),
        }
        .encode()
    }
}

/// A running TCP server speaking the newline-delimited
/// [`seesaw_core::protocol`] over real sockets.
///
/// Lifecycle: [`Server::bind`] spawns the event loops (loop 0 also
/// accepts) and the worker pool, and returns immediately;
/// [`Server::local_addr`] gives the bound address (bind port 0 for an
/// ephemeral one); [`Server::shutdown`] drains in-flight requests and
/// joins every thread. Dropping a running server shuts it down the
/// same way.
///
/// See the [crate docs](crate) for the full serving model.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    loop_threads: Vec<JoinHandle<()>>,
    loop_wakers: Vec<Arc<Waker>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `service` in background threads.
    ///
    /// # Errors
    /// Propagates the bind failure (`EADDRINUSE`, permission, …) and
    /// any failure to set up the event loops' pollers or to register
    /// the listener with loop 0 (fd exhaustion).
    pub fn bind(
        service: Arc<SearchService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Loop 0 accepts until `WouldBlock`, so the listener must never
        // block it.
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            service,
            queue: JobQueue::new(config.queue_depth.max(1)),
            config,
            shutdown: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            counters: Counters::default(),
        });

        // Build every loop and register the listener *before* spawning
        // any thread, so a setup failure unwinds cleanly out of bind.
        let mut loops = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..shared.config.event_loops.max(1) {
            let (ev, handle) = EventLoop::new(Arc::clone(&shared))?;
            loops.push(ev);
            handles.push(handle);
        }
        let loop_wakers = handles.iter().map(|h| Arc::clone(&h.waker)).collect();
        loops[0].listen(listener, handles)?;

        // Spawn failures (thread limits, OOM) propagate out of bind
        // like any other setup error instead of panicking.
        let worker_threads = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("seesaw-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let loop_threads = loops
            .into_iter()
            .enumerate()
            .map(|(i, ev)| {
                std::thread::Builder::new()
                    .name(format!("seesaw-loop-{i}"))
                    .spawn(move || ev.run())
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(Self {
            shared,
            local_addr,
            loop_threads,
            loop_wakers,
            worker_threads,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently being served.
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::Acquire)
    }

    /// Snapshot the lifetime counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: c.connections_rejected.load(Ordering::Relaxed),
            requests_served: c.requests_served.load(Ordering::Relaxed),
            requests_rejected_saturated: c.requests_rejected_saturated.load(Ordering::Relaxed),
        }
    }

    /// Gracefully shut down: stop accepting, let every request already
    /// read off a socket finish and its response be written, then join
    /// all threads and return the final accounting.
    ///
    /// The drain guarantee, precisely: any request line the server has
    /// fully received before (or while) the shutdown signal lands gets
    /// a response before its connection closes — either its real
    /// result or, if it had not yet been accepted into the worker
    /// queue, an `overloaded` error. Nothing accepted is abandoned;
    /// connections close only after their in-flight requests have been
    /// answered.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Nudge every loop so none sleeps out a full tick before
        // noticing the flag; loop 0 then closes the listener, and all
        // of them drain (workers are still alive here, which is what
        // makes the drain work) and exit once their last connection
        // closes.
        for waker in &self.loop_wakers {
            waker.wake();
        }
        for h in self.loop_threads.drain(..) {
            let _ = h.join();
        }
        // Only now close the queue: every submitter has exited, so the
        // workers drain whatever is left and stop.
        self.shared.queue.close();
        for w in self.worker_threads.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.worker_threads.is_empty() {
            self.shutdown_in_place();
        }
    }
}

/// Worker: pull jobs off the bounded queue, dispatch through the
/// service, route the encoded response back to the owning event loop.
fn worker_loop(shared: &Shared) {
    while let Some(Job { line, reply }) = shared.queue.pop() {
        let response = shared.service.handle_line(&line);
        reply.send(response);
    }
}
