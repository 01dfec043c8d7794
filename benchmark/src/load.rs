//! The load generator: a closed loop of [`CLIENTS`] clients, one thread
//! and one TCP connection each, against a server child. A user waits
//! for a batch before labelling it, so each client sends its next
//! request only when the previous one has been answered.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use seesaw_core::protocol::{Request, Response};
use seesaw_core::ImageId;
use seesaw_dataset::{Query, SyntheticDataset};
use seesaw_metrics::{average_precision, BenchmarkProtocol, SearchTrace};
use seesaw_server::{Client, ServerStats};

use crate::child::ServerChild;
use crate::corpus::Corpus;
use crate::plan::SessionPlan;
use crate::script::{exchange, run_session, Recorder, Samples, Tally, Wire};
use crate::spec::{ServeShape, Workload, CLIENTS, CYCLES, WARMUP_SHARE};
use crate::Error;

/// A completed session: what was searched and what was shown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionRecord {
    pub query: Query,
    pub shown: Vec<ImageId>,
}

/// One cycle of the measured phase: a fresh server child, fresh
/// connections, and what the clients saw of it.
pub struct Cycle {
    pub samples: Samples,
    /// The seconds the cycle's rounds were counted over.
    pub wall_s: f64,
}

impl Cycle {
    /// Rounds completed per second of the cycle, all clients together.
    pub fn rounds_per_s(&self) -> f64 {
        self.samples.round_ms.len() as f64 / self.wall_s
    }
}

/// What the measured phase of a workload produced.
pub struct WireRun {
    /// The cycles in the order they ran. Where threads land on a small
    /// shared box differs from process to process and stays put for
    /// seconds, so a run's timing is the median over its cycles of each
    /// cycle's own statistic ([`WireRun::over_cycles`]).
    pub cycles: Vec<Cycle>,
    pub tally: Tally,
    /// Per client, its measured sessions in plan order.
    pub sessions: Vec<Vec<SessionRecord>>,
    /// Child spawn → first batch received, one per child this phase
    /// started (not the one it was handed).
    pub cold_start_ms: Vec<f64>,
    /// `VmHWM` of each child at the end of its measured work.
    pub peak_rss_bytes: Vec<u64>,
    /// Counters of every child, summed.
    pub server: ServerStats,
}

impl WireRun {
    /// The median over the cycles that recorded a round of `stat`.
    pub fn over_cycles(&self, stat: impl Fn(&Cycle) -> f64) -> f64 {
        let values: Vec<f64> = self
            .cycles
            .iter()
            .filter(|c| !c.samples.round_ms.is_empty())
            .map(stat)
            .collect();
        seesaw_metrics::median(&values)
    }

    /// Every cycle's samples together, for the tails and the counts.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        for cycle in &self.cycles {
            all.append(cycle.samples.clone());
        }
        all
    }
}

/// A client connection that gives up on a silent server.
pub fn connect(addr: SocketAddr) -> Result<Wire, Error> {
    let client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(60)))?;
    Ok(Wire(client))
}

/// Time from the child's spawn to the first batch of a new session —
/// what a user waits for after a restart. The probe session is closed
/// again; its requests are counted in `tally`.
pub fn cold_start_probe(
    child: &ServerChild,
    workload: &Workload,
    dataset: &SyntheticDataset,
    tally: &mut Tally,
) -> Result<f64, Error> {
    let mut wire = connect(child.addr())?;
    let create = Request::Create {
        concept: dataset.queries()[0].concept,
        method: workload.method,
        search_k: None,
    };
    let (responses, _) = exchange(&mut wire, &[create], tally)?;
    let Response::Created { session } = responses[0] else {
        return Err(Error::Failed("the probe session was not created".into()));
    };
    let next = Request::NextBatch {
        session,
        n: workload.batch,
    };
    let (responses, _) = exchange(&mut wire, &[next], tally)?;
    let cold_ms = child.spawned_at().elapsed().as_secs_f64() * 1e3;
    if !matches!(responses[0], Response::Batch { .. }) {
        return Err(Error::Failed("the probe session got no batch".into()));
    }
    exchange(&mut wire, &[Request::Close { session }], tally)?;
    Ok(cold_ms)
}

/// Read the child's peak memory, shut it down, and hold it to the
/// client's account: every request answered, none shed.
pub fn finish_child(child: ServerChild, sent: Tally) -> Result<(u64, ServerStats), Error> {
    let peak = child.peak_rss_bytes()?;
    let stats = child.shutdown()?;
    if stats.requests_rejected_saturated > 0 || stats.connections_rejected > 0 {
        return Err(Error::Failed(format!(
            "the server shed {} requests and {} connections",
            stats.requests_rejected_saturated, stats.connections_rejected
        )));
    }
    if stats.requests_served != sent.attempted {
        return Err(Error::Incorrect(format!(
            "the server answered {} requests, the clients sent {}",
            stats.requests_served, sent.attempted
        )));
    }
    Ok((peak, stats))
}

struct ClientOutcome {
    tally: Tally,
    samples: Samples,
    sessions: Vec<SessionRecord>,
    /// The seconds its samples were taken over: the window, or without
    /// one the time from the start line to its last session's end.
    measured_s: f64,
}

/// What one call of [`run_clients`] has each client do.
#[derive(Clone, Copy)]
struct Phase {
    /// Unrecorded sessions from the warm-up stream first: one, then
    /// more until this long has passed. The first request on a new
    /// connection also waits for the server's accept poll, which is
    /// the cold-start probe's to report and not a round's.
    warm_up: Duration,
    /// Measured sessions until the window closes…
    window: Option<Duration>,
    /// …and the client has completed this many in all,
    min_total: usize,
    /// counting the ones it completed in earlier cycles, after which
    /// its plan resumes.
    done: [usize; CLIENTS],
}

/// One client: warm up, wait for the others, then run measured
/// sessions as `phase` says.
fn client_loop(
    child: &ServerChild,
    workload: &Workload,
    dataset: &SyntheticDataset,
    plan: &SessionPlan,
    client: usize,
    start_line: &Barrier,
    phase: Phase,
) -> Result<ClientOutcome, Error> {
    let mut tally = Tally::default();
    let all = dataset.queries();
    let skip = phase.done[client];

    let warm = (|| -> Result<Wire, Error> {
        let mut wire = connect(child.addr())?;
        let end = Instant::now() + phase.warm_up;
        let mut discarded = Samples::default();
        let mut closed = Recorder {
            samples: &mut discarded,
            until: Some(Instant::now()),
        };
        for query in plan.sessions(1, client).skip(skip) {
            run_session(
                &mut wire,
                workload,
                dataset,
                all[query],
                &mut tally,
                &mut closed,
            )?;
            if Instant::now() >= end {
                break;
            }
        }
        Ok(wire)
    })();
    // Reach the line even after a failure, or the other clients wait
    // for ever.
    start_line.wait();
    let mut wire = warm?;

    let started = Instant::now();
    let deadline = phase.window.map(|w| started + w);
    let mut samples = Samples::default();
    let mut sessions = Vec::new();
    for query in plan.sessions(0, client).skip(skip) {
        let in_window = deadline.is_some_and(|d| Instant::now() < d);
        if !in_window && skip + sessions.len() >= phase.min_total {
            break;
        }
        let mut recorder = Recorder {
            samples: &mut samples,
            until: deadline,
        };
        let shown = run_session(
            &mut wire,
            workload,
            dataset,
            all[query],
            &mut tally,
            &mut recorder,
        )?;
        sessions.push(SessionRecord {
            query: all[query],
            shown,
        });
    }
    let measured_s = phase
        .window
        .map_or_else(|| started.elapsed().as_secs_f64(), |w| w.as_secs_f64());
    Ok(ClientOutcome {
        tally,
        samples,
        sessions,
        measured_s,
    })
}

/// Run every client against `child` and collect their outcomes in
/// client order.
fn run_clients(
    child: &ServerChild,
    workload: &Workload,
    dataset: &SyntheticDataset,
    plan: &SessionPlan,
    phase: Phase,
) -> Result<Vec<ClientOutcome>, Error> {
    let start_line = Barrier::new(CLIENTS);
    let outcomes: Vec<Result<ClientOutcome, Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let start_line = &start_line;
                scope.spawn(move || {
                    client_loop(child, workload, dataset, plan, client, start_line, phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    outcomes.into_iter().collect()
}

fn add_stats(total: &mut ServerStats, one: ServerStats) {
    total.connections_accepted += one.connections_accepted;
    total.connections_rejected += one.connections_rejected;
    total.requests_served += one.requests_served;
    total.requests_rejected_saturated += one.requests_rejected_saturated;
}

/// The measured phase, in cycles: a fresh server child that loads the
/// saved index, a cold-start probe, fresh connections, warm-up, the
/// measured sessions, shut down. `child` is a running, already probed
/// child and `sent` what has been sent to it so far; it serves the
/// first cycle. A steady workload splits `seconds` into [`CYCLES`]
/// windows; `restart` runs its short fixed cycles — one warm-up session
/// and the measured ones per client — until `seconds` have passed.
/// Either goes on until every client has its `ap_sessions`.
pub fn measure(
    exe: &Path,
    workload: &Workload,
    corpus: &Corpus,
    child: ServerChild,
    sent: Tally,
    plan: &SessionPlan,
    seconds: f64,
) -> Result<WireRun, Error> {
    let dataset = &*corpus.dataset;
    let mut run = WireRun {
        cycles: Vec::new(),
        tally: sent,
        sessions: vec![Vec::new(); CLIENTS],
        cold_start_ms: Vec::new(),
        peak_rss_bytes: Vec::new(),
        server: ServerStats {
            connections_accepted: 0,
            connections_rejected: 0,
            requests_served: 0,
            requests_rejected_saturated: 0,
        },
    };
    let window = Duration::from_secs_f64(seconds / CYCLES as f64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = [0usize; CLIENTS];
    let mut next = Some((child, sent));
    loop {
        let more = match workload.restart {
            None => run.cycles.len() < CYCLES,
            Some(_) => Instant::now() < deadline,
        };
        if !more && done.iter().all(|&d| d >= workload.ap_sessions) {
            break;
        }
        let (child, mut child_tally) = match next.take() {
            Some(ready) => ready,
            None => {
                let child = ServerChild::spawn(
                    exe,
                    workload.scale,
                    &corpus.index_path,
                    ServeShape::REFERENCE,
                )?;
                let mut probe = Tally::default();
                let cold = cold_start_probe(&child, workload, dataset, &mut probe)?;
                run.cold_start_ms.push(cold);
                run.tally.add(probe);
                (child, probe)
            }
        };
        let phase = match workload.restart {
            None => Phase {
                warm_up: window.mul_f64(WARMUP_SHARE),
                window: Some(window),
                // Only the last cycle stays for sessions still owed.
                min_total: if run.cycles.len() + 1 >= CYCLES {
                    workload.ap_sessions
                } else {
                    0
                },
                done,
            },
            Some(cycle_sessions) => Phase {
                warm_up: Duration::ZERO,
                window: None,
                min_total: done[0] + cycle_sessions,
                done,
            },
        };
        let outcomes = run_clients(&child, workload, dataset, plan, phase)?;
        let mut samples = Samples::default();
        let mut wall_s = 0.0f64;
        for (client, outcome) in outcomes.into_iter().enumerate() {
            child_tally.add(outcome.tally);
            run.tally.add(outcome.tally);
            samples.append(outcome.samples);
            wall_s = wall_s.max(outcome.measured_s);
            done[client] += outcome.sessions.len();
            run.sessions[client].extend(outcome.sessions);
        }
        run.cycles.push(Cycle { samples, wall_s });
        let (peak, stats) = finish_child(child, child_tally)?;
        run.peak_rss_bytes.push(peak);
        add_stats(&mut run.server, stats);
    }
    Ok(run)
}

/// AP of one session's shown-image trace under the paper's protocol
/// (the first ten relevant results within a 60-image budget).
pub fn session_ap(dataset: &SyntheticDataset, record: &SessionRecord) -> f64 {
    let protocol = BenchmarkProtocol::default();
    let relevance: Vec<bool> = record
        .shown
        .iter()
        .take(protocol.image_budget)
        .map(|&image| dataset.truth.is_relevant(record.query.concept, image))
        .collect();
    average_precision(
        &SearchTrace::new(relevance),
        record.query.n_relevant,
        &protocol,
    )
}

/// Mean AP over the first `ap_sessions` measured sessions of every
/// client: a fixed set for a seed, however many more sessions a fast
/// box completes.
pub fn mean_ap(workload: &Workload, dataset: &SyntheticDataset, run: &WireRun) -> f64 {
    let aps: Vec<f64> = run
        .sessions
        .iter()
        .flat_map(|client| client.iter().take(workload.ap_sessions))
        .map(|record| session_ap(dataset, record))
        .collect();
    seesaw_metrics::mean(&aps)
}
