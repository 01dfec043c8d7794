//! A small blocking client for the line protocol — the other end of
//! [`crate::Server`], used by the integration tests, the benchmark
//! under `benchmark/`, and the `search_server` example.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use seesaw_core::protocol::{ErrorCode, MethodSpec, ProtocolError, Request, Response};
use seesaw_core::{BBox, Batch, ImageId};

/// Why a [`Client`] call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, write, read, or server hung up).
    Io(std::io::Error),
    /// The server's reply line did not decode.
    Protocol(ProtocolError),
    /// The server answered with a protocol-level error.
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable explanation from the server.
        message: String,
    },
    /// The reply decoded but was the wrong variant for the request
    /// (a server bug or a desynchronized connection).
    UnexpectedReply(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Protocol(e) => write!(f, "bad reply: {e}"),
            Self::Server { code, message } => {
                write!(f, "server error ({}): {message}", code.name())
            }
            Self::UnexpectedReply(reply) => write!(f, "unexpected reply: {reply}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// A blocking connection to a [`crate::Server`].
///
/// The lockstep helpers ([`Client::call`] and the typed methods below)
/// do one request line out, one response line back. The split-phase
/// half ([`Client::send`]/[`Client::recv`], or [`Client::pipeline`]
/// over a whole slice) exploits the server's request pipelining: many
/// requests go out back-to-back and the responses come back in request
/// order, so a burst costs one network round trip instead of one per
/// request.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a running server.
    ///
    /// # Errors
    /// Propagates the underlying connect/clone failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Set a read timeout for responses (`None` blocks forever).
    ///
    /// # Errors
    /// Propagates the socket-option failure.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Send one raw request line without waiting for the reply (the
    /// send half of pipelining). Pair each call with a later
    /// [`Client::recv_line`]; replies come back in send order.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the write fails.
    pub fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        Ok(())
    }

    /// Read one raw reply line (no trailing newline) — the receive
    /// half of pipelining.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the socket fails or the server closes
    /// the connection before replying.
    pub fn recv_line(&mut self) -> Result<String, ClientError> {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }

    /// Send one raw line and read one raw reply line (no trailing
    /// newline on either side).
    ///
    /// # Errors
    /// [`ClientError::Io`] when the socket fails or the server closes
    /// the connection before replying.
    pub fn call_line(&mut self, line: &str) -> Result<String, ClientError> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Send one typed request without waiting for its reply. Pair with
    /// [`Client::recv`]; replies come back in send order.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the write fails.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.send_line(&request.encode())
    }

    /// Read and decode the next typed response (matching the oldest
    /// un-received [`Client::send`]).
    ///
    /// # Errors
    /// [`ClientError::Io`] / [`ClientError::Protocol`] as in
    /// [`Client::call_line`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let reply = self.recv_line()?;
        Ok(Response::decode(&reply)?)
    }

    /// Pipeline a batch of requests: write them all back-to-back, then
    /// collect one response per request, in request order. Server
    /// `error` replies are returned in place as
    /// `Response::Error { .. }`, not promoted to `Err` — a shed
    /// request must not cost the responses behind it.
    ///
    /// Bursts should stay far below the server's write-backpressure
    /// budget (256 KiB of undrained responses): nothing is read back
    /// until every request is written, and a server waiting on this
    /// client to drain would stall the write half.
    ///
    /// # Errors
    /// Transport/decode failures as in [`Client::recv`].
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        let mut burst = String::new();
        for request in requests {
            burst.push_str(&request.encode());
            burst.push('\n');
        }
        self.writer.write_all(burst.as_bytes())?;
        requests.iter().map(|_| self.recv()).collect()
    }

    /// Send one typed request and decode the typed response. Server
    /// `error` replies are returned as `Ok(Response::Error { .. })` —
    /// use the typed helpers below to turn them into
    /// [`ClientError::Server`].
    ///
    /// # Errors
    /// [`ClientError::Io`] / [`ClientError::Protocol`] as in
    /// [`Client::call_line`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let reply = self.call_line(&request.encode())?;
        Ok(Response::decode(&reply)?)
    }

    fn expect_ok(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.call(request)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    /// Create a session; returns the wire session id.
    ///
    /// # Errors
    /// Transport/decode failures as in [`Client::call`];
    /// [`ClientError::Server`] when the server rejects the request.
    pub fn create(
        &mut self,
        concept: u32,
        method: MethodSpec,
        search_k: Option<u32>,
    ) -> Result<u64, ClientError> {
        match self.expect_ok(&Request::Create {
            concept,
            method,
            search_k,
        })? {
            Response::Created { session } => Ok(session),
            other => Err(ClientError::UnexpectedReply(other.encode())),
        }
    }

    /// Fetch the next batch (mirrors
    /// [`seesaw_core::SearchService::next_batch`]).
    ///
    /// # Errors
    /// As in [`Client::create`].
    pub fn next_batch(&mut self, session: u64, n: u32) -> Result<Batch, ClientError> {
        match self.expect_ok(&Request::NextBatch { session, n })? {
            Response::Batch { images } => Ok(Batch::Images(images)),
            Response::Exhausted => Ok(Batch::Exhausted),
            other => Err(ClientError::UnexpectedReply(other.encode())),
        }
    }

    /// Submit feedback for a shown image.
    ///
    /// # Errors
    /// As in [`Client::create`].
    pub fn feedback(
        &mut self,
        session: u64,
        image: ImageId,
        relevant: bool,
        boxes: Vec<BBox>,
    ) -> Result<(), ClientError> {
        match self.expect_ok(&Request::Feedback {
            session,
            image,
            relevant,
            boxes,
        })? {
            Response::Ack => Ok(()),
            other => Err(ClientError::UnexpectedReply(other.encode())),
        }
    }

    /// Read `(images_shown, feedback_received, query_drift)`.
    ///
    /// # Errors
    /// As in [`Client::create`].
    pub fn stats(&mut self, session: u64) -> Result<(u64, u64, f32), ClientError> {
        match self.expect_ok(&Request::Stats { session })? {
            Response::Stats {
                images_shown,
                feedback_received,
                query_drift,
            } => Ok((images_shown, feedback_received, query_drift)),
            other => Err(ClientError::UnexpectedReply(other.encode())),
        }
    }

    /// Close a session.
    ///
    /// # Errors
    /// As in [`Client::create`].
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        match self.expect_ok(&Request::Close { session })? {
            Response::Ack => Ok(()),
            other => Err(ClientError::UnexpectedReply(other.encode())),
        }
    }
}
