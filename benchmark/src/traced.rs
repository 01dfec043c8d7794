//! The traced run (`--trace 1`): the per-layer numbers.
//!
//! One client replays the seeded sessions against three stacks over
//! the same loaded index, issuing every request at three depths:
//!
//! * **wire** — a `Client` and an in-process `Server`;
//! * **service** — `SearchService::handle_line` on the same line;
//! * **parts** — `Request::decode`, the `Session` call, and
//!   `Response::encode`, each on its own.
//!
//! After each `Session` call the leaf it spends its time in is called
//! again on the session's own inputs: `QueryAligner::align_detailed` on
//! the examples feedback has gathered, `top_k_budgeted` on the current
//! query. Every call is timed from outside as a span; nothing inside
//! the crates is instrumented. The three depths must answer every
//! request with the same bytes, and the leaf solve must reproduce the
//! session's query bit for bit, or the run fails.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use seesaw_aligner::QueryAligner;
use seesaw_core::protocol::{Request, Response};
use seesaw_core::{
    load_index, DatasetIndex, Feedback, Method, MethodConfig, SearchService, Session,
};
use seesaw_dataset::SyntheticDataset;
use seesaw_metrics::quantile;
use seesaw_server::{Server, ServerConfig};
use seesaw_vecstore::{load_store, recall_at_k, save_store, StoreConfig, VectorStore};

use crate::child::ServerChild;
use crate::corpus::{load_config, out_dir, Corpus};
use crate::endtoend::{set_up, Prepared};
use crate::load::{cold_start_probe, connect, finish_child, measure};
use crate::plan::SessionPlan;
use crate::report::{Metric, Outcome};
use crate::script::{exchange, run_session, Recorder, Samples, Tally, Transport, Wire};
use crate::spec::{ServeShape, Workload, PER_LAYER};
use crate::Error;

/// How `--seconds` is split between the phases of a traced run.
const WIRE_SHARE: f64 = 0.3;
const UNTRACED_SHARE: f64 = 0.2;
const TRACED_SHARE: f64 = 0.5;

/// One timed call. Spans of one request share `request`; `parent` is
/// the span one depth up. The depths are separate executions of the
/// same request, so a child's interval does not lie inside its
/// parent's: they nest by duration, which is what self time needs.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans kept in memory until the run ends.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn record(
        &mut self,
        parent: Option<u32>,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        id
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// A span's duration minus what its children cover, never below 0.
    fn self_micros(&self) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.micros();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| (s.micros() - c).max(0.0))
            .collect()
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    fn self_times(&self, selfs: &[f64], prefix: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(_, &v)| v)
            .collect()
    }
}

/// What the parts depth knows about a session that `Session` keeps to
/// itself: enough to hand the leaf calls the session's own inputs.
struct Mirror {
    aligner: Option<QueryAligner>,
    seen: Vec<bool>,
    patches: Vec<u32>,
    labels: Vec<bool>,
    weights: Vec<f32>,
    any_positive: bool,
    search_k: usize,
    batches_served: u32,
}

impl Mirror {
    fn new(index: &DatasetIndex, session: &Session, config: &MethodConfig) -> Result<Self, Error> {
        let aligner = match &config.method {
            Method::ZeroShot => None,
            Method::SeeSaw(cfg) => {
                let mut aligner = QueryAligner::new(session.q0(), cfg.clone());
                if aligner.config().lambda_d > 0.0 {
                    if let Some(m_d) = &index.m_d {
                        aligner = aligner.with_db_matrix(m_d.clone());
                    }
                }
                Some(aligner)
            }
            other => {
                return Err(Error::Setup(format!(
                    "the traced run cannot mirror method {other:?}"
                )))
            }
        };
        Ok(Self {
            aligner,
            seen: vec![false; index.n_images()],
            patches: Vec::new(),
            labels: Vec::new(),
            weights: Vec::new(),
            any_positive: false,
            search_k: config.search_k,
            batches_served: 0,
        })
    }

    /// Label the patches of a feedback image the way the session does.
    fn label(&mut self, index: &DatasetIndex, fb: &Feedback) {
        self.any_positive |= fb.relevant;
        let range = index.patches_of(fb.image);
        let labels: Vec<bool> = range
            .clone()
            .map(|p| {
                if index.multiscale {
                    let bbox = &index.patches[p as usize].bbox;
                    fb.boxes.iter().any(|b| bbox.overlaps(b))
                } else {
                    fb.relevant
                }
            })
            .collect();
        let n_pos = labels.iter().filter(|&&l| l).count().max(1) as f32;
        let n_neg = labels.iter().filter(|&&l| !l).count().max(1) as f32;
        for (p, label) in range.zip(labels) {
            self.patches.push(p);
            self.labels.push(label);
            self.weights
                .push(if label { 1.0 / n_pos } else { 1.0 / n_neg });
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Counts taken at the layer boundaries of the parts depth.
#[derive(Default)]
struct Counts {
    lbfgs_iters: Vec<f64>,
    examples: Vec<f64>,
    solves: u64,
    converged: u64,
    query_updates: u64,
    k_requested: Vec<f64>,
    round_bytes: u64,
}

/// The three stacks and the trace they fill.
struct Stacks<'a> {
    dataset: &'a SyntheticDataset,
    index: &'a Arc<DatasetIndex>,
    wire: Wire,
    service: SearchService,
    sessions: HashMap<u64, (Session, Mirror)>,
    next_session: u64,
    next_request: u64,
    trace: Trace,
    counts: Counts,
}

impl Stacks<'_> {
    /// The parts depth for one line: decode, the session call with its
    /// leaf, encode. Returns the response line.
    fn parts(&mut self, line: &str, request: u64, parent: u32) -> Result<String, Error> {
        let index = self.index;
        let t0 = Instant::now();
        let decoded = Request::decode(line);
        let t1 = Instant::now();
        self.trace
            .record(Some(parent), request, "core.protocol.decode", t0, t1);
        let decoded = decoded.map_err(|e| Error::Incorrect(format!("decode: {e}")))?;

        let missing = |id: u64| Error::Incorrect(format!("parts depth has no session {id}"));
        let response = match decoded {
            Request::Create {
                concept, method, ..
            } => {
                let config = method.to_config();
                let t0 = Instant::now();
                let session = Session::start(index, self.dataset, concept, config.clone());
                let t1 = Instant::now();
                let start = self
                    .trace
                    .record(Some(parent), request, "core.session.start", t0, t1);
                let t0 = Instant::now();
                let q0 = std::hint::black_box(self.dataset.model.embed_text(concept));
                let t1 = Instant::now();
                drop(q0);
                self.trace
                    .record(Some(start), request, "embed.text", t0, t1);
                let mirror = Mirror::new(index, &session, &config)?;
                let id = self.next_session;
                self.next_session += 1;
                self.sessions.insert(id, (session, mirror));
                Response::Created { session: id }
            }
            Request::NextBatch { session: id, n } => {
                let (session, mirror) = self.sessions.get_mut(&id).ok_or_else(|| missing(id))?;
                let n = n as usize;
                let t0 = Instant::now();
                let images = session.next_batch(n);
                let t1 = Instant::now();
                // The lookup `Session::next_batch` has just made: the
                // query is unchanged and the mirror's seen set is not
                // yet updated.
                let per_image = (index.n_patches() / index.n_images().max(1)).max(1);
                let k = (n + 4) * per_image + 16;
                let budget = mirror.search_k.max(2 * k);
                let seen = &mirror.seen;
                let patches = &index.patches;
                let l0 = Instant::now();
                let hits = index
                    .store
                    .top_k_budgeted(session.current_query(), k, budget, &|p| {
                        !seen[patches[p as usize].image as usize]
                    });
                let l1 = Instant::now();
                let call =
                    self.trace
                        .record(Some(parent), request, "core.session.next_batch", t0, t1);
                self.trace
                    .record(Some(call), request, "vecstore.top_k", l0, l1);
                self.counts.k_requested.push(k as f64);

                let mut expected: Vec<u32> = Vec::with_capacity(n);
                for h in &hits {
                    let image = patches[h.id as usize].image;
                    if !expected.contains(&image) {
                        expected.push(image);
                        if expected.len() == n {
                            break;
                        }
                    }
                }
                // A short candidate list makes the session widen its
                // lookup; only a full one predicts the batch.
                if expected.len() == n && expected != images {
                    return Err(Error::Incorrect(format!(
                        "the leaf lookup predicts batch {expected:?}, the session showed {images:?}"
                    )));
                }
                for &image in &images {
                    mirror.seen[image as usize] = true;
                }
                if mirror.batches_served > 0 {
                    self.counts.round_bytes += line.len() as u64 + 1;
                }
                mirror.batches_served += 1;
                if images.is_empty() {
                    Response::Exhausted
                } else {
                    Response::Batch { images }
                }
            }
            Request::Feedback {
                session: id,
                image,
                relevant,
                boxes,
            } => {
                let (session, mirror) = self.sessions.get_mut(&id).ok_or_else(|| missing(id))?;
                let fb = Feedback {
                    image,
                    relevant,
                    boxes,
                };
                mirror.label(index, &fb);
                let before = bits(session.current_query());
                let t0 = Instant::now();
                let accepted = session.try_feedback(fb);
                let t1 = Instant::now();
                let call =
                    self.trace
                        .record(Some(parent), request, "core.session.feedback", t0, t1);
                if !accepted {
                    return Err(Error::Incorrect(format!(
                        "the session refused feedback for image {image}"
                    )));
                }
                let after = bits(session.current_query());
                self.counts.query_updates += u64::from(before != after);
                self.counts.round_bytes += line.len() as u64 + 1;

                if let Some(aligner) = &mirror.aligner {
                    if mirror.any_positive || aligner.config().lambda_c > 0.0 {
                        let examples: Vec<&[f32]> = mirror
                            .patches
                            .iter()
                            .map(|&p| index.patch_vector(p))
                            .collect();
                        let l0 = Instant::now();
                        let solved = aligner.align_detailed(
                            &examples,
                            &mirror.labels,
                            Some(&mirror.weights),
                        );
                        let l1 = Instant::now();
                        self.trace
                            .record(Some(call), request, "aligner.align", l0, l1);
                        self.counts.lbfgs_iters.push(solved.iterations as f64);
                        self.counts.examples.push(examples.len() as f64);
                        self.counts.solves += 1;
                        self.counts.converged += u64::from(solved.converged);
                        if bits(&solved.query) != after {
                            return Err(Error::Incorrect(
                                "the leaf solve and the session disagree on the query vector"
                                    .to_string(),
                            ));
                        }
                    }
                }
                Response::Ack
            }
            Request::Stats { session: id } => {
                let (session, _) = self.sessions.get(&id).ok_or_else(|| missing(id))?;
                let t0 = Instant::now();
                let response = Response::Stats {
                    images_shown: session.n_seen() as u64,
                    feedback_received: session.n_feedback() as u64,
                    query_drift: seesaw_linalg::cosine(session.q0(), session.current_query()),
                };
                let t1 = Instant::now();
                self.trace
                    .record(Some(parent), request, "core.session.stats", t0, t1);
                response
            }
            Request::Close { session: id } => {
                let t0 = Instant::now();
                let removed = self.sessions.remove(&id);
                let t1 = Instant::now();
                self.trace
                    .record(Some(parent), request, "core.session.close", t0, t1);
                removed.ok_or_else(|| missing(id))?;
                Response::Ack
            }
        };

        let t0 = Instant::now();
        let encoded = response.encode();
        let t1 = Instant::now();
        self.trace
            .record(Some(parent), request, "core.protocol.encode", t0, t1);
        Ok(encoded)
    }
}

fn handle_line_span(request: &Request) -> &'static str {
    match request {
        Request::Create { .. } => "core.service.handle_line.create",
        Request::NextBatch { .. } => "core.service.handle_line.next_batch",
        Request::Feedback { .. } => "core.service.handle_line.feedback",
        Request::Stats { .. } => "core.service.handle_line.stats",
        Request::Close { .. } => "core.service.handle_line.close",
    }
}

impl Transport for Stacks<'_> {
    fn exchange(&mut self, requests: &[Request]) -> Result<(Vec<Response>, f64), Error> {
        let first_request = self.next_request;
        self.next_request += requests.len() as u64;

        // Depth 1: over the wire, exactly as the load generator does.
        let t0 = Instant::now();
        let (responses, seconds) = self.wire.exchange(requests)?;
        let t1 = Instant::now();
        let wire = self
            .trace
            .record(None, first_request, "server.wire", t0, t1);

        for (i, (request, over_wire)) in requests.iter().zip(&responses).enumerate() {
            let id = first_request + i as u64;
            let line = request.encode();
            let over_wire = over_wire.encode();

            // Depth 2: the service, on the same line.
            let t0 = Instant::now();
            let handled = self.service.handle_line(&line);
            let t1 = Instant::now();
            let handle = self
                .trace
                .record(Some(wire), id, handle_line_span(request), t0, t1);

            // Depth 3: the parts.
            let by_parts = self.parts(&line, id, handle)?;

            if handled != over_wire || by_parts != over_wire {
                return Err(Error::Incorrect(format!(
                    "depths disagree on {line}: wire {over_wire}, service {handled}, \
                     parts {by_parts}"
                )));
            }
            let in_round = match request {
                Request::Feedback { .. } => true,
                Request::NextBatch { session, .. } => self
                    .sessions
                    .get(session)
                    .is_some_and(|(_, m)| m.batches_served > 1),
                _ => false,
            };
            if in_round {
                self.counts.round_bytes += over_wire.len() as u64 + 1;
            }
        }
        Ok((responses, seconds))
    }
}

/// An in-process server over `index` in the reference shape, and one
/// client connected to it.
fn local_stack(
    index: &Arc<DatasetIndex>,
    dataset: &Arc<SyntheticDataset>,
) -> Result<(Server, Wire), Error> {
    let shape = ServeShape::REFERENCE;
    let config = ServerConfig::default()
        .with_workers(shape.workers)
        .with_event_loops(shape.event_loops)
        .with_queue_depth(shape.queue_depth)
        .with_max_connections(shape.max_connections);
    let service = Arc::new(SearchService::new(index.clone(), dataset.clone()));
    let server = Server::bind(service, "127.0.0.1:0", config)?;
    let wire = connect(server.local_addr())?;
    Ok((server, wire))
}

/// Run client 0's measured sessions through `transport` for `seconds`
/// (at least one session).
fn replay(
    transport: &mut dyn Transport,
    workload: &Workload,
    dataset: &SyntheticDataset,
    plan: &SessionPlan,
    seconds: f64,
) -> Result<(Samples, Tally), Error> {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    for query in plan.sessions(0, 0) {
        let mut recorder = Recorder {
            samples: &mut samples,
            until: None,
        };
        run_session(
            transport,
            workload,
            dataset,
            dataset.queries()[query],
            &mut tally,
            &mut recorder,
        )?;
        if Instant::now() >= end {
            break;
        }
    }
    Ok((samples, tally))
}

/// Open `workload.idle_sessions` sessions on a fresh child, fetch each
/// a first batch, leave them idle, and return the child's resident
/// growth per session in bytes.
fn idle_session_bytes(
    exe: &Path,
    workload: &Workload,
    corpus: &Corpus,
    tally: &mut Tally,
) -> Result<f64, Error> {
    let child = ServerChild::spawn(
        exe,
        workload.scale,
        &corpus.index_path,
        ServeShape::REFERENCE,
    )?;
    let mut sent = Tally::default();
    // One full session first, so the index pages a lookup touches are
    // already resident and the growth below is the sessions' own.
    cold_start_probe(&child, workload, &corpus.dataset, &mut sent)?;
    let mut wire = connect(child.addr())?;
    let queries = corpus.dataset.queries();
    let before = child.rss_bytes()?;
    let ids: Vec<usize> = (0..workload.idle_sessions).collect();
    // Bursts stay inside the server's per-connection pipelining window.
    for burst in ids.chunks(32) {
        let creates: Vec<Request> = burst
            .iter()
            .map(|i| Request::Create {
                concept: queries[i % queries.len()].concept,
                method: workload.method,
                search_k: None,
            })
            .collect();
        let (created, _) = exchange(&mut wire, &creates, &mut sent)?;
        let fetches: Vec<Request> = created
            .iter()
            .filter_map(|r| match r {
                &Response::Created { session } => Some(Request::NextBatch {
                    session,
                    n: workload.batch,
                }),
                _ => None,
            })
            .collect();
        exchange(&mut wire, &fetches, &mut sent)?;
    }
    let after = child.rss_bytes()?;
    tally.add(sent);
    finish_child(child, sent)?;
    Ok(after.saturating_sub(before) as f64 / workload.idle_sessions.max(1) as f64)
}

/// The persistence and store numbers taken once per traced run.
struct StoreFacts {
    load_ms: f64,
    load_store_ms: f64,
    build_s: f64,
    recall_at_10: f64,
}

fn store_facts(
    workload: &Workload,
    corpus: &Corpus,
) -> Result<(Arc<DatasetIndex>, StoreFacts), Error> {
    let t = Instant::now();
    let index = load_index(&corpus.index_path, &load_config())
        .map_err(|e| Error::Setup(format!("load_index: {e}")))?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;

    // The store alone, so index load − store load is the heap copy of
    // the embeddings plus the graph rebuild.
    let store_path = corpus.scratch_path("store.ssawidx");
    save_store(&corpus.built.store, &store_path)
        .map_err(|e| Error::Setup(format!("save_store: {e}")))?;
    let t = Instant::now();
    let store = load_store(&store_path).map_err(|e| Error::Setup(format!("load_store: {e}")))?;
    let load_store_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(store);
    std::fs::remove_file(&store_path)?;

    let dim = corpus.built.dim;
    let rows = corpus.built.embeddings.as_slice().to_vec();
    let t = Instant::now();
    let rebuilt = workload.store.config().build(dim, rows);
    let build_s = t.elapsed().as_secs_f64();
    drop(rebuilt);

    let exact = StoreConfig::exact().build(dim, corpus.built.embeddings.as_slice().to_vec());
    let queries: Vec<Vec<f32>> = corpus
        .dataset
        .queries()
        .iter()
        .take(20)
        .map(|q| seesaw_linalg::normalized(&corpus.dataset.model.embed_text(q.concept)))
        .collect();
    let served: &dyn VectorStore = &index.store;
    let recall_at_10 = recall_at_k(&exact, served, &queries, 10);

    Ok((
        index,
        StoreFacts {
            load_ms,
            load_store_ms,
            build_s,
            recall_at_10,
        },
    ))
}

/// Run `workload` traced for `seconds` and report every per-layer
/// metric. The trace goes to `benchmark/out/trace-<workload>.jsonl`.
pub fn run(exe: &Path, workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, Error> {
    let Prepared {
        corpus,
        child,
        sent,
        ..
    } = set_up(exe, workload)?;
    let dataset = &corpus.dataset;
    let plan = SessionPlan::new(seed, dataset.queries().len(), workload.ap_sessions);

    // Two clients against the child, untraced: the tails and counters
    // the end-to-end set leaves out.
    let wire_run = measure(
        exe,
        workload,
        &corpus,
        child,
        sent,
        &plan,
        seconds * WIRE_SHARE,
    )?;
    let mut tally = wire_run.tally;
    let idle_bytes = idle_session_bytes(exe, workload, &corpus, &mut tally)?;
    let (index, facts) = store_facts(workload, &corpus)?;

    // One client against an in-process server: first untraced, then
    // the same sessions again at three depths.
    let (server, mut wire) = local_stack(&index, dataset)?;
    let (untraced, sent) = replay(
        &mut wire,
        workload,
        dataset,
        &plan,
        seconds * UNTRACED_SHARE,
    )?;
    tally.add(sent);
    drop(wire);
    server.shutdown();

    let (server, wire) = local_stack(&index, dataset)?;
    let mut stacks = Stacks {
        dataset,
        index: &index,
        wire,
        service: SearchService::new(index.clone(), dataset.clone()),
        sessions: HashMap::new(),
        next_session: 0,
        next_request: 0,
        trace: Trace::new(),
        counts: Counts::default(),
    };
    let (traced, sent) = replay(
        &mut stacks,
        workload,
        dataset,
        &plan,
        seconds * TRACED_SHARE,
    )?;
    tally.add(sent);
    let Stacks {
        trace,
        counts,
        wire,
        ..
    } = stacks;
    drop(wire);
    server.shutdown();
    trace.write_jsonl(&out_dir().join(format!("trace-{}.jsonl", workload.name)))?;

    let selfs = trace.self_micros();
    let p50 = |v: &[f64]| quantile(v, 0.5);
    let rounds = traced.round_ms.len().max(1) as f64;
    let wire_total: f64 = trace.durations("server.wire").iter().sum();
    let attributed: f64 = selfs.iter().sum();
    let top_k = trace.durations("vecstore.top_k");
    let rows = index.n_patches();
    let row_bytes = (rows * index.dim * 4) as f64;
    let wire_samples = wire_run.pooled();
    let requests = &wire_samples.request_ms;
    let wire_rounds = &wire_samples.round_ms;

    let mut values: HashMap<String, (f64, usize)> = HashMap::new();
    let mut put = |name: &str, value: f64, samples: usize| {
        values.insert(name.to_string(), (value, samples));
    };
    let mut put_p50 = |name: &str, v: Vec<f64>| put(name, p50(&v), v.len());
    for kind in ["create", "next_batch", "feedback", "stats", "close"] {
        put_p50(
            &format!("core.service.handle_line_us.{kind}"),
            trace.durations(&format!("core.service.handle_line.{kind}")),
        );
    }
    put_p50(
        "server.wire_self_us",
        trace.self_times(&selfs, "server.wire"),
    );
    put_p50(
        "core.protocol.decode_us",
        trace.durations("core.protocol.decode"),
    );
    put_p50(
        "core.protocol.encode_us",
        trace.durations("core.protocol.encode"),
    );
    for (metric, span) in [
        ("core.session.start_us", "core.session.start"),
        ("embed.text_us", "embed.text"),
        ("core.session.next_batch_us", "core.session.next_batch"),
        ("core.session.feedback_us", "core.session.feedback"),
        ("aligner.align_us", "aligner.align"),
    ] {
        put_p50(metric, trace.durations(span));
    }
    put_p50(
        "core.service.self_us",
        trace.self_times(&selfs, "core.service.handle_line"),
    );
    put_p50(
        "core.session.next_batch_self_us",
        trace.self_times(&selfs, "core.session.next_batch"),
    );
    put_p50(
        "core.session.feedback_self_us",
        trace.self_times(&selfs, "core.session.feedback"),
    );
    put("vecstore.top_k_us", p50(&top_k), top_k.len());
    put("vecstore.top_k_p90_us", quantile(&top_k, 0.9), top_k.len());
    // Rows the store holds per second of lookup: for IVF an effective
    // rate, since it scans only the probed lists.
    put(
        "vecstore.rows_per_s",
        if top_k.is_empty() {
            0.0
        } else {
            rows as f64 / (p50(&top_k) / 1e6)
        },
        top_k.len(),
    );
    put(
        "vecstore.scan_bytes_per_query",
        workload.store.scan_bytes_per_query(rows, index.dim),
        1,
    );
    put(
        "vecstore.k_requested",
        p50(&counts.k_requested),
        counts.k_requested.len(),
    );
    put("vecstore.recall_at_10", facts.recall_at_10, 20);
    put("vecstore.build_s", facts.build_s, 1);
    put(
        "aligner.lbfgs_iters",
        p50(&counts.lbfgs_iters),
        counts.lbfgs_iters.len(),
    );
    put(
        "aligner.examples_per_solve",
        p50(&counts.examples),
        counts.examples.len(),
    );
    put(
        "aligner.converged_share",
        if counts.solves == 0 {
            0.0
        } else {
            counts.converged as f64 / counts.solves as f64
        },
        counts.solves as usize,
    );
    put(
        "aligner.query_updates_per_round",
        counts.query_updates as f64 / rounds,
        traced.round_ms.len(),
    );
    put(
        "core.protocol.bytes_per_round",
        counts.round_bytes as f64 / rounds,
        traced.round_ms.len(),
    );
    put(
        "core.service.bytes_per_idle_session",
        idle_bytes,
        workload.idle_sessions,
    );
    put("core.persist.save_s", corpus.save_s, 1);
    put("core.persist.load_ms", facts.load_ms, 1);
    put("vecstore.diskindex.load_store_ms", facts.load_store_ms, 1);
    put(
        "core.persist.file_bytes_per_row_byte",
        corpus.file_bytes as f64 / row_bytes,
        1,
    );
    put("core.preprocess.build_s", corpus.build_s, 1);
    put("dataset.generate_s", corpus.generate_s, 1);
    put(
        "client.request_p99_ms",
        quantile(requests, 0.99),
        requests.len(),
    );
    put(
        "client.round_p99_ms",
        quantile(wire_rounds, 0.99),
        wire_rounds.len(),
    );
    put(
        "client.round_max_ms",
        quantile(wire_rounds, 1.0),
        wire_rounds.len(),
    );
    put("client.requests", wire_run.tally.attempted as f64, 1);
    put(
        "server.requests_served",
        wire_run.server.requests_served as f64,
        1,
    );
    put(
        "server.requests_shed",
        wire_run.server.requests_rejected_saturated as f64,
        1,
    );
    put(
        "server.connections_accepted",
        wire_run.server.connections_accepted as f64,
        1,
    );
    // How far the layers' self times are from adding up to what the
    // client saw: the depths are separate executions, so they need not.
    put(
        "trace.unattributed_share",
        (1.0 - attributed / wire_total).abs(),
        trace.spans.len(),
    );
    put(
        "trace.overhead_share",
        p50(&traced.round_ms) / p50(&untraced.round_ms) - 1.0,
        traced.round_ms.len(),
    );

    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let (value, samples) = values.get(def.name).copied().ok_or_else(|| {
                Error::Incorrect(format!("the traced run produced no {}", def.name))
            })?;
            Ok(Metric {
                name: def.name.to_string(),
                value,
                unit: def.unit,
                samples,
            })
        })
        .collect::<Result<Vec<_>, Error>>()?;
    Ok(Outcome {
        workload: workload.name,
        traced: true,
        tally,
        metrics,
    })
}
