//! The readiness-polled event loops that own all connection state.
//!
//! Each loop thread multiplexes its share of the connections over one
//! [`Poller`]: it reads whatever sockets have buffered, frames
//! newline-delimited requests, dispatches them to the shared worker
//! pool through the bounded [`JobQueue`](crate::queue::JobQueue), and
//! flushes completed responses back out — all without ever blocking on
//! a socket. Workers hand finished responses back with [`Reply::send`]
//! (an mpsc message plus a [`Waker`] nudge); the owning loop releases
//! them strictly in request order via each connection's
//! [`SlotQueue`](crate::conn::SlotQueue), which is what makes
//! pipelining safe.
//!
//! Loop 0 also owns the listener, registered in its poll set like any
//! other fd: when it is readable, loop 0 accepts until `WouldBlock`,
//! turns away sockets over the connection cap, and deals the rest
//! round-robin to every loop (itself included) as [`LoopMsg::Conn`].
//!
//! A loop drives every connection from two stimuli only: readiness
//! events and a bounded-interval tick ([`TICK`], 25 ms) that sweeps
//! timeouts, parses lines freed up by pipeline capacity, and notices
//! shutdown. The graceful-shutdown drain mirrors the blocking server
//! exactly: loop 0 closes the listener, and for four ticks after the
//! signal already-received bytes keep being read and answered; then
//! reads stop and the loop lives on only until every in-flight
//! response has been written (or its client has stalled past the write
//! timeout).

use std::io::{self, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seesaw_core::protocol::{ErrorCode, Response, MAX_LINE_BYTES};

use crate::conn::{Conn, ConnState, ReadOutcome, WRITE_BUF_SOFT_CAP};
use crate::poll::{waker_pair, Event, Interest, Poller, WakeRx, Waker};
use crate::queue::{Job, SubmitError};
use crate::server::Shared;

/// Poller token reserved for the loop's own waker.
const WAKER_TOKEN: usize = usize::MAX;

/// Poller token reserved for the listener (loop 0 only).
const LISTENER_TOKEN: usize = usize::MAX - 1;

/// Upper bound on how long a loop sleeps in the poller before
/// sweeping timeouts and re-checking the shutdown flag. Bounds
/// shutdown latency; not a protocol knob.
const TICK: Duration = Duration::from_millis(25);

/// Requests one connection may have accepted (response slot claimed)
/// but not yet flushed before the loop stops reading from it. Execution
/// itself is serialized per connection (arrival order); this bounds the
/// response backlog a bursty connection can accumulate.
const PIPELINE_WINDOW: usize = 64;

/// Upper bound on how long a poisoned (oversized-line) connection may
/// keep streaming before the loop hangs up regardless (the resulting
/// RST is then the client's own doing).
const DRAIN_CAP: Duration = Duration::from_secs(2);

/// Everything a loop can be told from outside its thread.
pub(crate) enum LoopMsg {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// A worker finished the request `(token, generation, seq)`.
    Done {
        token: usize,
        generation: u64,
        seq: u64,
        line: String,
    },
}

/// The completion route a worker uses to hand a finished response back
/// to the loop that owns the requesting connection.
pub(crate) struct Reply {
    pub(crate) tx: Sender<LoopMsg>,
    pub(crate) waker: Arc<Waker>,
    pub(crate) token: usize,
    pub(crate) generation: u64,
    pub(crate) seq: u64,
}

impl Reply {
    /// Route one encoded response line back to the owning loop. A dead
    /// loop (shutdown already past the drain) makes this a no-op.
    pub(crate) fn send(self, line: String) {
        let _ = self.tx.send(LoopMsg::Done {
            token: self.token,
            generation: self.generation,
            seq: self.seq,
            line,
        });
        self.waker.wake();
    }
}

/// Connection storage: a slab keyed by poller token, with a free list
/// so tokens are reused and a generation counter so a reused token
/// never accepts a stale completion.
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> usize {
        self.live += 1;
        if let Some(token) = self.free.pop() {
            self.slots[token] = Some(conn);
            token
        } else {
            self.slots.push(Some(conn));
            self.slots.len() - 1
        }
    }

    fn get_mut(&mut self, token: usize) -> Option<&mut Conn> {
        self.slots.get_mut(token).and_then(|s| s.as_mut())
    }

    fn remove(&mut self, token: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(token).and_then(|s| s.take());
        if conn.is_some() {
            self.free.push(token);
            self.live -= 1;
        }
        conn
    }
}

/// The listening socket and the loops it deals connections to.
struct Acceptor {
    listener: TcpListener,
    loops: Vec<LoopHandle>,
    next: usize,
    /// Set after a hard accept error; the next tick re-arms readiness.
    parked: bool,
}

/// One event-loop thread's state. Constructed on the binding thread
/// (so poller/waker/listener setup errors surface from
/// [`Server::bind`]) and moved into the loop thread.
///
/// [`Server::bind`]: crate::Server::bind
pub(crate) struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    wake_rx: WakeRx,
    waker: Arc<Waker>,
    rx: Receiver<LoopMsg>,
    tx: Sender<LoopMsg>,
    conns: Slab,
    next_generation: u64,
    /// False once the shutdown drain's read window has closed.
    reads_allowed: bool,
    /// Loop 0's listener until shutdown; `None` on every other loop.
    acceptor: Option<Acceptor>,
}

impl EventLoop {
    /// Build a loop with its poller and registered waker, plus the
    /// handle other threads use to reach it.
    pub(crate) fn new(shared: Arc<Shared>) -> io::Result<(Self, LoopHandle)> {
        let mut poller = Poller::new()?;
        let (waker, wake_rx) = waker_pair()?;
        poller.register(wake_rx.fd(), WAKER_TOKEN, Interest::READ)?;
        let (tx, rx) = channel();
        let handle = LoopHandle {
            tx: tx.clone(),
            waker: Arc::clone(&waker),
        };
        let loop_state = Self {
            shared,
            poller,
            wake_rx,
            waker,
            rx,
            tx,
            conns: Slab::new(),
            next_generation: 0,
            reads_allowed: true,
            acceptor: None,
        };
        Ok((loop_state, handle))
    }

    /// Make this loop the acceptor, dealing `socket`'s connections over `loops`.
    pub(crate) fn listen(&mut self, socket: TcpListener, loops: Vec<LoopHandle>) -> io::Result<()> {
        let fd = socket.as_raw_fd();
        self.poller.register(fd, LISTENER_TOKEN, Interest::READ)?;
        self.acceptor = Some(Acceptor {
            listener: socket,
            loops,
            next: 0,
            parked: false,
        });
        Ok(())
    }

    /// Run until shutdown completes. Consumes the loop.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        // Set when shutdown is observed: reads continue until this
        // instant, then only in-flight work is finished.
        let mut read_deadline: Option<Instant> = None;
        // Connections whose slots completed this iteration: processed
        // eagerly, so a completion's latency never depends on the
        // full-sweep cadence below.
        let mut touched: Vec<usize> = Vec::new();
        let mut next_sweep = Instant::now();

        loop {
            if self.poller.wait(TICK, &mut events).is_err() {
                // A persistently failing poller must not spin-burn the
                // CPU; fall back to tick cadence.
                std::thread::sleep(TICK);
            }
            let mut now = Instant::now();
            for i in 0..events.len() {
                let ev = events[i];
                match ev.token {
                    // Serviced unconditionally below.
                    WAKER_TOKEN => continue,
                    LISTENER_TOKEN => {
                        self.accept_ready();
                        continue;
                    }
                    _ => {}
                }
                if ev.readable {
                    self.handle_read(ev.token, now);
                }
                if ev.writable {
                    self.handle_write(ev.token, now);
                }
            }

            // Absorb the wakeup channel in exactly this order — pipe,
            // flag, messages — so a wakeup can never be lost: a wake
            // arriving after the flag clears writes a fresh byte (the
            // next `wait` returns immediately), and one arriving
            // before it had already sent its message, which the drain
            // below therefore observes.
            self.wake_rx.drain();
            self.waker.clear_pending();
            while let Ok(msg) = self.rx.try_recv() {
                match msg {
                    LoopMsg::Conn(stream) => self.admit(stream, now),
                    LoopMsg::Done {
                        token,
                        generation,
                        seq,
                        line,
                    } => {
                        if let Some(conn) = self.conns.get_mut(token) {
                            if conn.generation == generation {
                                conn.slots.complete(seq, line);
                                touched.push(token);
                            }
                        }
                    }
                }
            }

            now = Instant::now();
            if read_deadline.is_none() && self.shared.shutdown.load(Ordering::Acquire) {
                read_deadline = Some(now + 4 * TICK);
                // Stop accepting before the drain starts.
                if let Some(acceptor) = self.acceptor.take() {
                    let _ = self.poller.deregister(acceptor.listener.as_raw_fd());
                }
            }
            if let Some(deadline) = read_deadline {
                self.reads_allowed = now < deadline;
            }

            // Flush completed responses (and dispatch whatever lines
            // they unblocked) for exactly the connections that got
            // completions — O(completions), not O(live connections).
            touched.sort_unstable();
            touched.dedup();
            for i in 0..touched.len() {
                self.process(touched[i], now);
            }
            touched.clear();

            // The full maintenance sweep — timeouts, shutdown drain —
            // is cadence-bounded so a busy loop doesn't pay O(live)
            // on every wakeup. During a drain it runs every iteration:
            // correctness over throughput once shutdown is underway.
            if now >= next_sweep || read_deadline.is_some() {
                self.tick(now, read_deadline);
                next_sweep = now + TICK;
            }

            if read_deadline.is_some_and(|d| Instant::now() >= d) && self.conns.live == 0 {
                return;
            }
        }
    }

    /// Accept until `WouldBlock`. A socket over the connection cap gets
    /// one nonblocking write of the `overloaded` line (a fresh socket's
    /// send buffer always has room for it) and is dropped; every other
    /// goes to the next loop round-robin. Accepting on one thread keeps
    /// the cap exact.
    fn accept_ready(&mut self) {
        let shared = &self.shared;
        while let Some(acceptor) = self.acceptor.as_mut() {
            let stream = match acceptor.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // A transient failure (`EMFILE`, a reset before
                    // accept) must not kill the listener, but
                    // level-triggered readiness would report it on
                    // every wait: park it until the next tick.
                    acceptor.parked = true;
                    let _ = self.poller.deregister(acceptor.listener.as_raw_fd());
                    return;
                }
            };
            let stats = &shared.counters;
            if shared.open_connections.load(Ordering::Acquire) >= shared.config.max_connections {
                stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
                let mut line = shared.overloaded_line("connection limit reached, retry later");
                line.push('\n');
                if stream.set_nonblocking(true).is_ok() {
                    let _ = (&stream).write(line.as_bytes());
                }
                continue;
            }
            // Reserve the cap slot before the handoff; the owning loop
            // releases it when the connection closes.
            shared.open_connections.fetch_add(1, Ordering::AcqRel);
            let handle = &acceptor.loops[acceptor.next % acceptor.loops.len()];
            acceptor.next = acceptor.next.wrapping_add(1);
            if handle.tx.send(LoopMsg::Conn(stream)).is_ok() {
                handle.waker.wake();
                stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
            } else {
                // The loop is gone (shutdown race): release the slot.
                shared.open_connections.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// Adopt a connection handed over by the acceptor.
    fn admit(&mut self, stream: TcpStream, now: Instant) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.open_connections.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        let _ = stream.set_nodelay(true);
        let generation = self.next_generation;
        self.next_generation += 1;
        let fd = stream.as_raw_fd();
        let token = self.conns.insert(Conn::new(stream, generation, now));
        if self.poller.register(fd, token, Interest::READ).is_err() {
            self.conns.remove(token);
            self.shared.open_connections.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Tear a connection down: deregister, drop the socket, release
    /// the cap slot.
    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            drop(conn);
            self.shared.open_connections.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn handle_read(&mut self, token: usize, now: Instant) {
        if !self.reads_allowed {
            return;
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if !conn.interest.readable {
            // Stale event from before an interest change.
            return;
        }
        match conn.read_some(now) {
            ReadOutcome::Open => {}
            ReadOutcome::Eof => match conn.state {
                // A poisoned client hanging up is the discard phase
                // completing successfully.
                ConnState::Discarding => {
                    self.close(token);
                    return;
                }
                _ => conn.state = ConnState::ReadClosed,
            },
            ReadOutcome::Dead => {
                self.close(token);
                return;
            }
        }
        self.process(token, now);
    }

    fn handle_write(&mut self, token: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.wbuf_pending() > 0 && conn.try_write(now).is_err() {
            self.close(token);
            return;
        }
        // Draining the write buffer may lift the backpressure gate on
        // reads; dispatch any lines that were waiting on it (process
        // ends with flush + interest update).
        self.process(token, now);
    }

    /// Frame and dispatch buffered lines (bounded by pipeline
    /// capacity), poison on an oversized partial line, then flush.
    fn process(&mut self, token: usize, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.state == ConnState::Discarding {
                break;
            }
            // Execution serialization: one worker-bound request per
            // connection at a time, so same-connection requests apply
            // their (stateful) effects in arrival order. Shed and
            // framing-error replies don't involve a worker and keep
            // flowing.
            if conn.slots.awaiting_worker() {
                break;
            }
            if conn.slots.in_flight() >= PIPELINE_WINDOW {
                break;
            }
            let Some(line) = conn.next_line() else {
                break;
            };
            self.dispatch(token, line);
        }
        if let Some(conn) = self.conns.get_mut(token) {
            if conn.state == ConnState::Open && conn.rbuf.len() > MAX_LINE_BYTES {
                // An incomplete line longer than the protocol cap can
                // never become a valid request, and there is no
                // newline to resync on: answer (in order, after
                // anything already in flight) and tear down.
                let error = Response::Error {
                    code: ErrorCode::Protocol,
                    message: format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"),
                }
                .encode();
                conn.slots.claim_done(error);
                conn.rbuf.clear();
                conn.rbuf.shrink_to(1024);
                conn.state = ConnState::Discarding;
                conn.discard_deadline = Some(now + DRAIN_CAP);
            }
        }
        self.flush(token, now);
    }

    /// Hand one framed request line to the worker pool; shedding and
    /// framing failures complete the claimed slot immediately.
    fn dispatch(&mut self, token: usize, line_bytes: Vec<u8>) {
        let tx = self.tx.clone();
        let waker = Arc::clone(&self.waker);
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let line = match String::from_utf8(line_bytes) {
            Ok(line) => line,
            Err(_) => {
                conn.slots.claim_done(
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: "request line is not valid UTF-8".to_string(),
                    }
                    .encode(),
                );
                return;
            }
        };
        let seq = conn.slots.claim();
        let generation = conn.generation;
        let job = Job {
            line,
            reply: Reply {
                tx,
                waker,
                token,
                generation,
                seq,
            },
        };
        match self.shared.queue.submit(job) {
            Ok(()) => {}
            Err(SubmitError::Saturated) => {
                self.shared
                    .counters
                    .requests_rejected_saturated
                    .fetch_add(1, Ordering::Relaxed);
                let overloaded = self
                    .shared
                    .overloaded_line("server overloaded: request queue is full, retry later");
                // The conn borrow ended at `submit`; re-fetch to file
                // the rejection into the slot it claimed.
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.slots.complete(seq, overloaded);
                }
            }
            Err(SubmitError::ShuttingDown) => {
                let overloaded = self.shared.overloaded_line("server shutting down");
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.slots.complete(seq, overloaded);
                }
            }
        }
    }

    /// Release the completed response prefix into the write buffer (in
    /// request order), account it, and push bytes at the socket.
    fn flush(&mut self, token: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let mut flushed = 0u64;
        while let Some(line) = conn.slots.pop_ready() {
            conn.queue_response(&line, now);
            flushed += 1;
        }
        if flushed > 0 {
            self.shared
                .counters
                .requests_served
                .fetch_add(flushed, Ordering::Relaxed);
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.wbuf_pending() > 0 && conn.try_write(now).is_err() {
            self.close(token);
            return;
        }
        self.update_interest(token);
    }

    /// Re-register the connection if its desired readiness interest
    /// changed (pipeline/backpressure gates reads; a pending write
    /// buffer requests writability).
    fn update_interest(&mut self, token: usize) {
        let reads_allowed = self.reads_allowed;
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let readable = reads_allowed
            && match conn.state {
                ConnState::Open => {
                    conn.slots.in_flight() < PIPELINE_WINDOW
                        && conn.wbuf_pending() < WRITE_BUF_SOFT_CAP
                }
                ConnState::ReadClosed => false,
                // Poisoned connections keep reading to discard.
                ConnState::Discarding => true,
            };
        let desired = Interest {
            readable,
            writable: conn.wbuf_pending() > 0,
        };
        if desired != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = desired;
            if self.poller.modify(fd, token, desired).is_err() {
                self.close(token);
            }
        }
    }

    /// The per-tick sweep: re-arm a parked listener, progress stalled
    /// connections and enforce every deadline.
    fn tick(&mut self, now: Instant, read_deadline: Option<Instant>) {
        let read_timeout = self.shared.config.read_timeout;
        let write_timeout = self.shared.config.write_timeout;
        let quiet_window = 2 * TICK;
        let draining = read_deadline.is_some();

        if let Some(acceptor) = self.acceptor.as_mut().filter(|a| a.parked) {
            acceptor.parked = false;
            let fd = acceptor.listener.as_raw_fd();
            let _ = self.poller.register(fd, LISTENER_TOKEN, Interest::READ);
        }

        for token in 0..self.conns.slots.len() {
            if self.conns.get_mut(token).is_none() {
                continue;
            }
            // Backstop for anything the eager paths missed: buffered
            // lines and completed slots all make progress here too.
            self.process(token, now);

            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            let idle = conn.slots.is_empty() && conn.wbuf_pending() == 0;
            match conn.state {
                ConnState::Open => {
                    if draining && !self.reads_allowed && idle && !conn.has_complete_line() {
                        // Shutdown drain complete for this connection.
                        self.close(token);
                        continue;
                    }
                    if !draining && idle && now.duration_since(conn.last_activity) >= read_timeout {
                        // Idle disconnect: only between round trips —
                        // in-flight work holds the connection open.
                        self.close(token);
                        continue;
                    }
                }
                ConnState::ReadClosed => {
                    if idle && !conn.has_complete_line() {
                        self.close(token);
                        continue;
                    }
                }
                ConnState::Discarding => {
                    if idle && !conn.sent_fin {
                        // The error line is on the wire. Closing with
                        // unread bytes pending would raise an RST that
                        // can destroy it, so half-close and keep
                        // discarding the client's stream.
                        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                        conn.sent_fin = true;
                    }
                    let deadline_passed = conn.discard_deadline.is_some_and(|d| now >= d);
                    let quiet = conn.sent_fin
                        && now.duration_since(conn.last_read_progress) >= quiet_window;
                    if deadline_passed || quiet || (draining && !self.reads_allowed && idle) {
                        self.close(token);
                        continue;
                    }
                }
            }
            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            if conn.wbuf_pending() > 0
                && now.duration_since(conn.last_write_progress) >= write_timeout
            {
                // The client stopped draining its socket mid-response.
                self.close(token);
            }
        }
    }
}

/// A handle to one loop from outside its thread: the acceptor deals
/// connections through it, and the server wakes the loop at shutdown.
pub(crate) struct LoopHandle {
    tx: Sender<LoopMsg>,
    pub(crate) waker: Arc<Waker>,
}
