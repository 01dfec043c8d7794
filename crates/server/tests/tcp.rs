//! Integration tests for the TCP serving layer: every test binds an
//! ephemeral port on loopback and talks to the server over real
//! sockets — framing, backpressure, limits, and graceful shutdown are
//! all exercised end to end.

use seesaw_core::protocol::{ErrorCode, MethodSpec, Request, Response, MAX_LINE_BYTES};
use seesaw_core::{Batch, PreprocessConfig, Preprocessor, SearchService};
use seesaw_dataset::{DatasetSpec, SyntheticDataset};
use seesaw_server::{Client, ClientError, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service(seed: u64) -> (Arc<SyntheticDataset>, Arc<SearchService>) {
    let ds = Arc::new(
        DatasetSpec::coco_like(0.001)
            .with_max_queries(8)
            .generate(seed),
    );
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let service = Arc::new(SearchService::new(index, Arc::clone(&ds)));
    (ds, service)
}

#[test]
fn full_protocol_round_trip_over_a_real_socket() {
    let (ds, service) = service(11);
    let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let concept = ds.queries()[0].concept;

    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client.create(concept, MethodSpec::SeeSaw, None).unwrap();
    let Batch::Images(images) = client.next_batch(session, 2).unwrap() else {
        panic!("fresh session cannot be exhausted");
    };
    assert_eq!(images.len(), 2);
    for &image in &images {
        client.feedback(session, image, true, vec![]).unwrap();
    }
    let (shown, fed, drift) = client.stats(session).unwrap();
    assert_eq!(shown, 2);
    assert_eq!(fed, 2);
    assert!(drift.is_finite());
    client.close(session).unwrap();

    // Typed errors cross the wire typed: stats on the closed session.
    match client.stats(session) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::SessionClosed),
        other => panic!("expected a typed server error, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.requests_served, 7);
    assert_eq!(stats.requests_rejected_saturated, 0);
}

#[test]
fn garbage_empty_and_crlf_lines_are_answered_in_band() {
    let (ds, service) = service(13);
    let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Garbage gets a protocol error, and the connection survives.
    let reply = client.call_line("not json").unwrap();
    let Response::Error { code, .. } = Response::decode(&reply).unwrap() else {
        panic!("garbage must yield an error, got {reply}");
    };
    assert_eq!(code, ErrorCode::Protocol);

    // An empty line is the pinned framing error, not a hang-up.
    let reply = client.call_line("").unwrap();
    assert_eq!(
        reply,
        r#"{"type":"error","code":"protocol","message":"empty request line"}"#
    );

    // \r\n framing: the client's \r survives to the server, which must
    // treat it as whitespace.
    let line = Request::Create {
        concept: ds.queries()[0].concept,
        method: MethodSpec::ZeroShot,
        search_k: None,
    }
    .encode()
        + "\r";
    let reply = client.call_line(&line).unwrap();
    assert!(
        matches!(Response::decode(&reply).unwrap(), Response::Created { .. }),
        "got {reply}"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn oversized_line_is_rejected_before_a_newline_ever_arrives() {
    let (_ds, service) = service(17);
    let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A line that can never terminate validly: > MAX_LINE_BYTES with
    // no newline. The server must answer with a protocol error and
    // close instead of buffering without bound.
    let blob = vec![b'x'; MAX_LINE_BYTES + 4096];
    stream.write_all(&blob).unwrap();

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let Response::Error { code, message } = Response::decode(reply.trim_end()).unwrap() else {
        panic!("expected an error, got {reply}");
    };
    assert_eq!(code, ErrorCode::Protocol);
    assert!(message.contains("exceeds"), "got {message:?}");

    // And the server hangs up: EOF, not more protocol.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    server.shutdown();
}

#[test]
fn saturation_sheds_load_with_overloaded_errors_not_queueing() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 20;
    let (ds, service) = service(19);
    // One worker and a one-slot queue: with eight clients hammering,
    // submissions must collide and the overflow must come back as
    // `overloaded` — while every line still gets exactly one reply.
    let config = ServerConfig::default().with_workers(1).with_queue_depth(1);
    let server = Server::bind(service, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let outcomes: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let concept = ds.queries()[c % ds.queries().len()].concept;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                    let mut served = 0usize;
                    let mut shed = 0usize;
                    for _ in 0..ROUNDS {
                        // Raw call: rejection is a valid, expected reply.
                        let reply = client
                            .call(&Request::Create {
                                concept,
                                method: MethodSpec::ZeroShot,
                                search_k: None,
                            })
                            .expect("every line gets one well-formed reply");
                        match reply {
                            Response::Created { session } => {
                                served += 1;
                                // Keep the worker busy so collisions
                                // stay likely, then clean up.
                                match client.call(&Request::NextBatch { session, n: 4 }) {
                                    Ok(Response::Batch { .. } | Response::Exhausted) => {
                                        served += 1;
                                    }
                                    Ok(Response::Error {
                                        code: ErrorCode::Overloaded,
                                        ..
                                    }) => shed += 1,
                                    other => panic!("unexpected: {other:?}"),
                                }
                                match client.call(&Request::Close { session }) {
                                    Ok(Response::Ack) => served += 1,
                                    Ok(Response::Error {
                                        code: ErrorCode::Overloaded,
                                        ..
                                    }) => shed += 1,
                                    other => panic!("unexpected: {other:?}"),
                                }
                            }
                            Response::Error {
                                code: ErrorCode::Overloaded,
                                ..
                            } => shed += 1,
                            other => panic!("unexpected: {other:?}"),
                        }
                    }
                    (served, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let served: usize = outcomes.iter().map(|&(s, _)| s).sum();
    let shed: usize = outcomes.iter().map(|&(_, r)| r).sum();
    assert!(served > 0, "some requests must get through");
    assert!(
        shed > 0,
        "8 clients against 1 worker + 1 queue slot must saturate at least once"
    );
    let stats = server.shutdown();
    assert_eq!(stats.requests_rejected_saturated, shed as u64);
    assert_eq!(stats.requests_served, (served + shed) as u64);
}

#[test]
fn graceful_shutdown_answers_every_pipelined_in_flight_request() {
    const PIPELINED: usize = 30;
    let (ds, service) = service(23);
    let config = ServerConfig::default().with_workers(1).with_queue_depth(64);
    let server = Server::bind(service, "127.0.0.1:0", config).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let session = client
        .create(ds.queries()[0].concept, MethodSpec::SeeSaw, None)
        .unwrap();

    // Pipeline a burst of requests without reading any responses, so
    // most are still in flight (socket buffer or worker queue) when
    // shutdown lands. One round trip first: the drain guarantee covers
    // *accepted* connections, so prove this one is past the listener
    // backlog before racing it against shutdown.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    {
        let mut line = Request::Stats { session }.encode();
        line.push('\n');
        raw.write_all(line.as_bytes()).unwrap();
        let mut first = String::new();
        BufReader::new(raw.try_clone().unwrap())
            .read_line(&mut first)
            .unwrap();
        assert!(
            matches!(
                Response::decode(first.trim_end()).unwrap(),
                Response::Stats { .. }
            ),
            "got {first}"
        );
    }
    let mut burst = String::new();
    for _ in 0..PIPELINED {
        burst.push_str(&Request::Stats { session }.encode());
        burst.push('\n');
    }
    raw.write_all(burst.as_bytes()).unwrap();

    // Shut down while the burst is (very likely) mid-stream. The drain
    // guarantee makes the outcome deterministic either way: every one
    // of the PIPELINED fully-written lines gets a response before EOF.
    let stats = server.shutdown();

    let mut reader = BufReader::new(raw);
    let mut replies = 0usize;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        if n == 0 {
            break; // clean EOF — no partial line
        }
        assert!(line.ends_with('\n'), "torn response line: {line:?}");
        let decoded = Response::decode(line.trim_end()).expect("well-formed response");
        assert!(
            matches!(decoded, Response::Stats { .. }),
            "wrong reply: {decoded:?}"
        );
        replies += 1;
    }
    assert_eq!(
        replies, PIPELINED,
        "graceful shutdown must answer every received request"
    );
    // The burst, the session-setup create, and the accept-proof stats.
    assert_eq!(stats.requests_served as usize, PIPELINED + 2);
}

#[test]
fn connection_cap_rejects_with_an_overloaded_line() {
    let (ds, service) = service(29);
    let config = ServerConfig::default().with_max_connections(2);
    let server = Server::bind(service, "127.0.0.1:0", config).unwrap();
    let concept = ds.queries()[0].concept;

    // Two live connections, each proven active by a round trip.
    let mut a = Client::connect(server.local_addr()).unwrap();
    let sa = a.create(concept, MethodSpec::ZeroShot, None).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    b.create(concept, MethodSpec::ZeroShot, None).unwrap();

    // The third is turned away in-band and closed.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let Response::Error { code, .. } = Response::decode(line.trim_end()).unwrap() else {
        panic!("expected overloaded, got {line}");
    };
    assert_eq!(code, ErrorCode::Overloaded);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "rejected connection must be closed");

    // Closing one frees a slot (the handler notices EOF within a poll
    // tick); a new connection then serves normally.
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut c = loop {
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.set_timeout(Some(Duration::from_secs(10))).unwrap();
        match c.create(concept, MethodSpec::ZeroShot, None) {
            Ok(_) => break c,
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            })
            | Err(ClientError::Io(_)) => {
                assert!(
                    Instant::now() < deadline,
                    "slot never freed after client b closed"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unexpected failure: {e}"),
        }
    };
    // Both live connections still work.
    a.stats(sa).unwrap();
    c.call_line("").unwrap();

    let stats = server.shutdown();
    assert!(stats.connections_rejected >= 1);
}

#[test]
fn fresh_connections_are_served_without_waiting_a_tick() {
    let (_ds, service) = service(37);
    let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    // Let the listener go idle first, as a real server's does.
    std::thread::sleep(Duration::from_millis(5));
    let mut round_trips: Vec<Duration> = (0..5)
        .map(|_| {
            let mut client = Client::connect(server.local_addr()).unwrap();
            let started = Instant::now();
            // The protocol error for an empty line needs no session.
            client.call_line("").unwrap();
            started.elapsed()
        })
        .collect();
    round_trips.sort_unstable();
    assert!(
        round_trips[2] < Duration::from_millis(10),
        "a fresh connection waited for its first reply: {round_trips:?}"
    );
    server.shutdown();
}

#[test]
fn idle_connections_are_closed_after_the_read_timeout() {
    let (_ds, service) = service(31);
    let config = ServerConfig::default().with_read_timeout(Duration::from_millis(150));
    let server = Server::bind(service, "127.0.0.1:0", config).unwrap();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf).unwrap(); // EOF when the server hangs up
    assert!(buf.is_empty());
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(100),
        "closed suspiciously fast: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(8),
        "idle timeout never fired: {elapsed:?}"
    );
    server.shutdown();
}
