//! The network front end of the serving stack: a real TCP server over
//! the [`seesaw_core::protocol`] line codec.
//!
//! PR 3 built the transport-agnostic half — a serializable
//! [`Request`](seesaw_core::Request)/[`Response`](seesaw_core::Response)
//! pair and [`SearchService::handle_line`](seesaw_core::SearchService),
//! which maps one encoded line to one encoded reply. This crate is the
//! missing socket: a [`Server`] binds a `std::net::TcpListener`, frames
//! newline-delimited requests per connection, dispatches through
//! `Arc<SearchService>`, and writes back one response line per request,
//! in order. No async runtime and no external dependencies — the only
//! platform surface is a thin epoll shim declared directly against the
//! libc that `std` already links, so the crate builds on Linux only.
//!
//! # Serving model
//!
//! SeeSaw's interactive loop means most connections are idle most of
//! the time — a user looks at a batch of images far longer than the
//! server takes to rank it. So connections don't get threads; they get
//! *state machines*, multiplexed by a small fixed set of event-loop
//! threads over nonblocking sockets:
//!
//! ```text
//! listener ──► event loops (event_loops threads; loop 0 accepts and
//!                      │    deals sockets round-robin to every loop)
//!                      │  own all connection state: read buffers,
//!                      │  newline framing, in-order response slots,
//!                      │  pending-write flushing (≤ max_connections)
//!                      ▼
//!                   bounded job queue (≤ queue_depth, reject when full)
//!                      ▼
//!                   worker pool (workers threads)
//!                      │  SearchService::handle_line
//!                      ▼
//!                   completion routed back to the owning loop,
//!                   released strictly in request order per connection
//! ```
//!
//! Requests **pipeline**: a client may write a whole burst of request
//! lines without waiting for replies. The server buffers the burst,
//! executes it *in arrival order* — the protocol is stateful, so the
//! feedback a client pipelined before a `next_batch` must apply before
//! that batch is ranked — and writes responses back in the same order.
//! A burst costs one network round trip instead of one per request,
//! and replies produced without a worker (shed requests, framing
//! errors) are slotted into the same order.
//!
//! Properties the tests pin down:
//!
//! * **Backpressure, not queues.** The job queue is *bounded*. When
//!   every worker is busy and the backlog is full, the submission is
//!   rejected immediately and the client gets a protocol-level
//!   [`ErrorCode::Overloaded`](seesaw_core::ErrorCode) error — latency
//!   of accepted requests stays flat and memory stays bounded, and the
//!   client learns, in-band, to back off. The connection cap sheds the
//!   same way: one `overloaded` line, then close. Per connection, the
//!   loop stops *reading* while 64 requests are in flight or more than
//!   256 KiB of responses are unsent, so neither a firehose client nor
//!   one that never reads can balloon memory or stall its loop.
//! * **Graceful shutdown drains.** [`Server::shutdown`] closes the
//!   listener, answers every request line already received (its real
//!   result if it reaches the queue, an `overloaded` error if not),
//!   then joins every thread. Nothing accepted is abandoned
//!   mid-flight.
//! * **Bounded reads and writes.** A connection may not pin more than
//!   [`MAX_LINE_BYTES`](seesaw_core::MAX_LINE_BYTES) of partial line,
//!   sit idle past the read timeout, or stall its pending response
//!   bytes past the write timeout — and none of those misbehaviors
//!   blocks any other connection, because no loop ever blocks on a
//!   socket.
//!
//! # Quickstart
//!
//! ```
//! use seesaw_core::protocol::MethodSpec;
//! use seesaw_core::{Batch, PreprocessConfig, Preprocessor, SearchService};
//! use seesaw_dataset::DatasetSpec;
//! use seesaw_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let dataset = Arc::new(DatasetSpec::coco_like(0.0).generate(5));
//! let index = Preprocessor::new(PreprocessConfig::fast()).build(&dataset);
//! let service = Arc::new(SearchService::new(index, Arc::clone(&dataset)));
//!
//! // Port 0: the OS picks an ephemeral port.
//! let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let session = client.create(dataset.queries()[0].concept, MethodSpec::SeeSaw, None)?;
//! let Batch::Images(images) = client.next_batch(session, 3)? else {
//!     panic!("fresh session cannot be exhausted");
//! };
//! assert_eq!(images.len(), 3);
//! client.close(session)?;
//! let stats = server.shutdown(); // drains in-flight work, joins threads
//! assert_eq!(stats.requests_served, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `serve` binary in this crate serves a synthetic dataset on a
//! fixed port for interactive poking (`nc 127.0.0.1 7878`, one JSON
//! line per request); `cargo run --release --example search_server`
//! runs the full multi-client round trip against an ephemeral port and
//! exits.

mod client;
mod conn;
mod event_loop;
mod poll;
mod queue;
mod server;

pub use client::{Client, ClientError};
pub use server::{Server, ServerConfig, ServerStats};
