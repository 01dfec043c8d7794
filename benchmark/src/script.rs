//! One user session as the protocol sees it, independent of how the
//! requests travel: `create`, the first `next_batch`, then rounds of
//! feedback for every image of the previous batch followed by
//! `next_batch`, then `stats` and `close`. The load generator runs it
//! over TCP, the output check runs it in-process, and the traced run
//! runs it at three depths at once — all through [`Transport`].

use std::time::Instant;

use seesaw_core::protocol::{Request, Response};
use seesaw_core::{ImageId, SearchService, SimulatedUser};
use seesaw_dataset::{Query, SyntheticDataset};
use seesaw_server::Client;

use crate::spec::Workload;
use crate::Error;

/// Carries requests to a service and brings the responses back.
pub trait Transport {
    /// Send `requests` as one write; return one response per request
    /// and the seconds a client waited for them.
    fn exchange(&mut self, requests: &[Request]) -> Result<(Vec<Response>, f64), Error>;
}

/// Over a TCP connection: one request per round trip, or a pipelined
/// burst for several.
pub struct Wire(pub Client);

impl Transport for Wire {
    fn exchange(&mut self, requests: &[Request]) -> Result<(Vec<Response>, f64), Error> {
        let started = Instant::now();
        let responses = match requests {
            [one] => vec![self.0.call(one)?],
            many => self.0.pipeline(many)?,
        };
        Ok((responses, started.elapsed().as_secs_f64()))
    }
}

/// Straight into a service in this process (the output check).
pub struct InProcess<'a>(pub &'a SearchService);

impl Transport for InProcess<'_> {
    fn exchange(&mut self, requests: &[Request]) -> Result<(Vec<Response>, f64), Error> {
        let started = Instant::now();
        let responses = requests.iter().map(|r| self.0.handle(r.clone())).collect();
        Ok((responses, started.elapsed().as_secs_f64()))
    }
}

/// Requests sent and requests that failed (an error response, a shed
/// request, an exhausted session or a broken connection).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Client-observed timings, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// `create` + first `next_batch`, one per session.
    pub first_batch_ms: Vec<f64>,
    /// Feedback for the previous batch + `next_batch`, one per round.
    pub round_ms: Vec<f64>,
    /// Single-request round trips.
    pub request_ms: Vec<f64>,
}

impl Samples {
    pub fn append(&mut self, mut other: Samples) {
        self.first_batch_ms.append(&mut other.first_batch_ms);
        self.round_ms.append(&mut other.round_ms);
        self.request_ms.append(&mut other.request_ms);
    }
}

/// Where a session's timings go, and until when they count: a sample
/// whose exchange ends after `until` belongs to no measured window.
pub struct Recorder<'a> {
    pub samples: &'a mut Samples,
    pub until: Option<Instant>,
}

impl Recorder<'_> {
    fn open(&self) -> bool {
        self.until.is_none_or(|deadline| Instant::now() <= deadline)
    }
}

/// Send one unit, count it, and fail on anything but clean responses.
pub fn exchange(
    transport: &mut dyn Transport,
    requests: &[Request],
    tally: &mut Tally,
) -> Result<(Vec<Response>, f64), Error> {
    tally.attempted += requests.len() as u64;
    let (responses, seconds) = transport.exchange(requests).inspect_err(|_| {
        tally.failed += requests.len() as u64;
    })?;
    let errors = responses
        .iter()
        .filter(|r| matches!(r, Response::Error { .. }))
        .count();
    if errors > 0 || responses.len() != requests.len() {
        tally.failed += errors.max(1) as u64;
        let first = responses
            .iter()
            .find(|r| matches!(r, Response::Error { .. }))
            .map(Response::encode)
            .unwrap_or_else(|| "a missing response".to_string());
        return Err(Error::Failed(format!("the server answered {first}")));
    }
    Ok((responses, seconds))
}

fn unexpected(tally: &mut Tally, what: &str, got: &Response) -> Error {
    tally.failed += 1;
    Error::Failed(format!("expected {what}, got {}", got.encode()))
}

/// Run one full session for `query` and return the images it showed,
/// in order. Any failed request ends the session with an error.
pub fn run_session(
    transport: &mut dyn Transport,
    workload: &Workload,
    dataset: &SyntheticDataset,
    query: Query,
    tally: &mut Tally,
    recorder: &mut Recorder<'_>,
) -> Result<Vec<ImageId>, Error> {
    let user = SimulatedUser::new(dataset);
    let mut shown: Vec<ImageId> = Vec::with_capacity(workload.images_per_session());

    let create = Request::Create {
        concept: query.concept,
        method: workload.method,
        search_k: None,
    };
    let (responses, create_s) = exchange(transport, &[create], tally)?;
    let session = match &responses[0] {
        Response::Created { session } => *session,
        other => return Err(unexpected(tally, "created", other)),
    };
    let next_batch = Request::NextBatch {
        session,
        n: workload.batch,
    };
    let take_batch = |response: &Response, tally: &mut Tally| match response {
        Response::Batch { images } => Ok(images.clone()),
        other => Err(unexpected(tally, "a batch", other)),
    };

    let (responses, first_s) = exchange(transport, std::slice::from_ref(&next_batch), tally)?;
    let mut batch = take_batch(&responses[0], tally)?;
    if recorder.open() {
        recorder
            .samples
            .first_batch_ms
            .push((create_s + first_s) * 1e3);
        recorder.samples.request_ms.push(create_s * 1e3);
        recorder.samples.request_ms.push(first_s * 1e3);
    }

    for _ in 1..workload.batches {
        let mut round: Vec<Request> = batch
            .iter()
            .map(|&image| {
                let fb = user.annotate(image, query.concept);
                Request::Feedback {
                    session,
                    image,
                    relevant: fb.relevant,
                    boxes: fb.boxes,
                }
            })
            .collect();
        round.push(next_batch.clone());
        shown.append(&mut batch);

        let mut round_s = 0.0;
        let last = if workload.pipelined {
            let (mut responses, seconds) = exchange(transport, &round, tally)?;
            round_s += seconds;
            responses.pop().expect("one response per request")
        } else {
            let mut last = None;
            for request in &round {
                let (mut responses, seconds) =
                    exchange(transport, std::slice::from_ref(request), tally)?;
                round_s += seconds;
                if recorder.open() {
                    recorder.samples.request_ms.push(seconds * 1e3);
                }
                last = responses.pop();
            }
            last.expect("a round ends with next_batch")
        };
        batch = take_batch(&last, tally)?;
        if recorder.open() {
            recorder.samples.round_ms.push(round_s * 1e3);
        }
    }
    let unlabelled = batch.len() as u64;
    shown.append(&mut batch);

    let (responses, stats_s) = exchange(transport, &[Request::Stats { session }], tally)?;
    match &responses[0] {
        Response::Stats {
            images_shown,
            feedback_received,
            ..
        } if *images_shown == shown.len() as u64
            && *feedback_received + unlabelled == *images_shown => {}
        other => return Err(unexpected(tally, "stats matching the session", other)),
    }
    let (responses, close_s) = exchange(transport, &[Request::Close { session }], tally)?;
    if responses[0] != Response::Ack {
        return Err(unexpected(tally, "ack", &responses[0]));
    }
    if recorder.open() {
        recorder.samples.request_ms.push(stats_s * 1e3);
        recorder.samples.request_ms.push(close_s * 1e3);
    }
    Ok(shown)
}
