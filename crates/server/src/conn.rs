//! Per-connection state for the event loops: buffered reads, newline
//! framing, ordered response slots for pipelined requests, and a
//! buffered, never-blocking write side.
//!
//! A connection owns no thread. Its socket is nonblocking and
//! registered with the owning loop's poller; everything here is a pure
//! state machine the loop drives from readiness events and timer
//! ticks. The pieces:
//!
//! * **Read side** — bytes accumulate in `rbuf`; complete
//!   newline-framed lines are peeled off and dispatched. A partial
//!   line over `MAX_LINE_BYTES` poisons the connection
//!   ([`ConnState::Discarding`]).
//! * **[`SlotQueue`]** — the pipelining heart. Every dispatched
//!   request claims the next slot *in arrival order*; workers complete
//!   slots out of order; only the ready *prefix* is released to the
//!   write buffer, so responses always leave in request order.
//! * **Write side** — responses append to `wbuf` and drain on
//!   writability. A full kernel buffer never blocks the loop: the
//!   unsent tail just stays queued, and a client that stops reading is
//!   disconnected once the write side stalls past the configured
//!   timeout.
//! * **Backpressure** — reading pauses (interest drops) while the
//!   connection has a full pipeline window in flight or more than
//!   [`WRITE_BUF_SOFT_CAP`] bytes of unsent responses, so one firehose
//!   client cannot balloon server memory.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::poll::Interest;

/// Unsent-response bytes beyond which the loop stops reading (and thus
/// stops producing new responses) for this connection until the client
/// drains its socket.
pub(crate) const WRITE_BUF_SOFT_CAP: usize = 256 * 1024;

/// Read granularity; also the most one readiness event pulls off a
/// single socket before the loop moves on (level triggering re-reports
/// the leftover, so fairness costs nothing).
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// In-order response slots for pipelined requests.
///
/// `claim` assigns the next sequence number (request arrival order),
/// `complete` fills a slot when its worker finishes, and `pop_ready`
/// releases the contiguous completed prefix — the ordering guarantee
/// of the wire protocol lives entirely in this struct.
///
/// The event loop keeps at most one *worker-bound* slot pending per
/// connection ([`SlotQueue::awaiting_worker`]): the interactive
/// protocol is stateful (feedback must apply before the batch request
/// behind it), so same-connection requests execute in arrival order.
/// Immediate completions (shed requests, framing errors) still
/// interleave freely via [`SlotQueue::claim_done`], which is why the
/// slot structure is needed at all.
pub(crate) struct SlotQueue {
    /// Sequence number of the front slot (the next response to leave).
    base_seq: u64,
    /// One entry per in-flight request; `Some` once completed.
    slots: VecDeque<Option<String>>,
    /// Claimed-but-uncompleted slots (requests inside the worker
    /// pool). The event loop keeps this at 0 or 1 per connection.
    pending: usize,
}

impl SlotQueue {
    pub fn new() -> Self {
        Self {
            base_seq: 0,
            slots: VecDeque::new(),
            pending: 0,
        }
    }

    /// Requests dispatched but not yet released to the write buffer.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether a claimed slot is still waiting on its worker — the
    /// execution-serialization gate: the loop dispatches a
    /// connection's next line only when this is `false`.
    pub fn awaiting_worker(&self) -> bool {
        self.pending > 0
    }

    /// Claim the next slot, returning its sequence number.
    pub fn claim(&mut self) -> u64 {
        self.slots.push_back(None);
        self.pending += 1;
        self.base_seq + self.slots.len() as u64 - 1
    }

    /// Claim a slot and complete it immediately (responses produced
    /// without a worker round trip: shed requests, framing errors).
    pub fn claim_done(&mut self, line: String) {
        self.slots.push_back(Some(line));
    }

    /// Fill the slot for `seq`. Returns `false` for a stale or unknown
    /// sequence (already released, or from a previous connection on a
    /// reused token — the caller drops those).
    pub fn complete(&mut self, seq: u64, line: String) -> bool {
        if seq < self.base_seq {
            return false;
        }
        let idx = (seq - self.base_seq) as usize;
        match self.slots.get_mut(idx) {
            Some(slot @ None) => {
                *slot = Some(line);
                self.pending -= 1;
                true
            }
            _ => false,
        }
    }

    /// Release the next response if the front slot is completed.
    pub fn pop_ready(&mut self) -> Option<String> {
        if matches!(self.slots.front(), Some(Some(_))) {
            self.base_seq += 1;
            return self.slots.pop_front().flatten();
        }
        None
    }
}

/// Lifecycle phase of one connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Serving normally.
    Open,
    /// The peer half-closed (EOF). No more reads; in-flight responses
    /// still flush, then the connection closes.
    ReadClosed,
    /// Poisoned by an oversized partial line: the error response is
    /// queued, after it flushes the write side is shut down (FIN), and
    /// inbound bytes are read and discarded until the client quiets
    /// down, hangs up, or the discard deadline passes. Mirrors the
    /// blocking server's oversized-line teardown so the error line
    /// survives instead of being destroyed by an RST.
    Discarding,
}

/// What one read sweep over a socket produced.
pub(crate) enum ReadOutcome {
    /// Bytes arrived (or nothing was pending); connection still open.
    Open,
    /// The peer closed its write side (clean EOF).
    Eof,
    /// Hard socket error — the connection is dead.
    Dead,
}

/// One client connection owned by an event loop.
pub(crate) struct Conn {
    pub stream: TcpStream,
    /// Monotone id guarding against completions addressed to a
    /// previous occupant of a reused slab token.
    pub generation: u64,
    pub state: ConnState,
    /// Bytes read but not yet framed into a line.
    pub rbuf: Vec<u8>,
    /// Encoded responses waiting for the socket; `wpos` bytes of the
    /// front are already written.
    pub wbuf: Vec<u8>,
    pub wpos: usize,
    pub slots: SlotQueue,
    /// Client-silence clock (reset by reads *and* by responses leaving,
    /// so a slow solve is never misread as an idle client).
    pub last_activity: Instant,
    /// Write-progress clock; only meaningful while `wbuf` is nonempty.
    pub last_write_progress: Instant,
    /// Read-progress clock for the `Discarding` quiet-down heuristic.
    pub last_read_progress: Instant,
    /// `Discarding` only: FIN sent after the error response flushed.
    pub sent_fin: bool,
    /// `Discarding` only: absolute give-up deadline.
    pub discard_deadline: Option<Instant>,
    /// The interest currently registered with the poller.
    pub interest: Interest,
}

impl Conn {
    pub fn new(stream: TcpStream, generation: u64, now: Instant) -> Self {
        Self {
            stream,
            generation,
            state: ConnState::Open,
            rbuf: Vec::with_capacity(1024),
            wbuf: Vec::new(),
            wpos: 0,
            slots: SlotQueue::new(),
            last_activity: now,
            last_write_progress: now,
            last_read_progress: now,
            sent_fin: false,
            discard_deadline: None,
            interest: Interest::READ,
        }
    }

    /// Unsent response bytes.
    pub fn wbuf_pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Pull whatever the socket has buffered (bounded by one
    /// [`READ_CHUNK`] per call). In `Discarding` the bytes are thrown
    /// away instead of framed.
    pub fn read_some(&mut self, now: Instant) -> ReadOutcome {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => {
                    self.last_read_progress = now;
                    if self.state != ConnState::Discarding {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        self.last_activity = now;
                    }
                    if n < chunk.len() {
                        // Short read: the socket buffer is empty.
                        return ReadOutcome::Open;
                    }
                    // A full chunk may have more behind it, but one
                    // chunk per sweep is the fairness budget; level
                    // triggering re-reports the rest next tick.
                    return ReadOutcome::Open;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return ReadOutcome::Open
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Dead,
            }
        }
    }

    /// Extract the next complete line from `rbuf` (without its
    /// newline), if any.
    pub fn next_line(&mut self) -> Option<Vec<u8>> {
        let pos = self.rbuf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.rbuf.drain(..=pos).take(pos).collect();
        Some(line)
    }

    /// Whether `rbuf` still holds at least one complete (framed) line.
    pub fn has_complete_line(&self) -> bool {
        self.rbuf.contains(&b'\n')
    }

    /// Append one response line (newline added here) to the write
    /// buffer.
    pub fn queue_response(&mut self, line: &str, now: Instant) {
        if self.wbuf_pending() == 0 {
            // Fresh backlog: compact and restart the stall clock.
            self.wbuf.clear();
            self.wpos = 0;
            self.last_write_progress = now;
        }
        self.wbuf.reserve(line.len() + 1);
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        // A response leaving is activity on the connection: the idle
        // clock measures client silence between *round trips*.
        self.last_activity = now;
    }

    /// Drain as much of `wbuf` as the socket accepts without blocking.
    /// `Ok(true)` means everything pending was flushed.
    pub fn try_write(&mut self, now: Instant) -> std::io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.wpos += n;
                    self.last_write_progress = now;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(false)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_release_responses_in_claim_order_only() {
        let mut q = SlotQueue::new();
        let s0 = q.claim();
        let s1 = q.claim();
        let s2 = q.claim();
        assert_eq!((s0, s1, s2), (0, 1, 2));
        assert_eq!(q.in_flight(), 3);

        // Completing out of order releases nothing until the front is
        // done…
        assert!(q.complete(s2, "third".into()));
        assert!(q.complete(s1, "second".into()));
        assert!(q.pop_ready().is_none());

        // …then the whole ready prefix comes out in order.
        assert!(q.complete(s0, "first".into()));
        assert_eq!(q.pop_ready().as_deref(), Some("first"));
        assert_eq!(q.pop_ready().as_deref(), Some("second"));
        assert_eq!(q.pop_ready().as_deref(), Some("third"));
        assert!(q.pop_ready().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn immediate_completions_interleave_with_worker_slots() {
        let mut q = SlotQueue::new();
        let a = q.claim();
        q.claim_done("shed".into()); // e.g. an overloaded rejection
        let c = q.claim();
        assert!(q.pop_ready().is_none(), "front still pending");
        assert!(q.complete(a, "a".into()));
        assert_eq!(q.pop_ready().as_deref(), Some("a"));
        assert_eq!(q.pop_ready().as_deref(), Some("shed"));
        assert!(q.pop_ready().is_none());
        assert!(q.complete(c, "c".into()));
        assert_eq!(q.pop_ready().as_deref(), Some("c"));
    }

    #[test]
    fn stale_and_duplicate_completions_are_rejected() {
        let mut q = SlotQueue::new();
        let a = q.claim();
        assert!(q.complete(a, "a".into()));
        assert!(!q.complete(a, "dup".into()), "double completion");
        assert_eq!(q.pop_ready().as_deref(), Some("a"));
        assert!(!q.complete(a, "late".into()), "released seq is stale");
        assert!(!q.complete(99, "unknown".into()), "never-claimed seq");
    }
}
