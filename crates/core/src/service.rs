//! The server layer of Figure 3 as an *owned service*: a
//! [`SearchService`] holds `Arc` handles to the index and dataset, so it
//! is `Send + Sync + 'static` — wrap it in an `Arc`, move clones into
//! as many threads (or async tasks, or transport handlers) as you like,
//! and it outlives every stack frame. This is the shape the paper's
//! §5.5 deployment assumes (40 concurrent users against one server) and
//! the ROADMAP's north star requires.
//!
//! Three design points distinguish it from a naive session map:
//!
//! 1. **Per-session locking.** The registry is *sharded*
//!    (`RwLock<HashMap<SessionId, Arc<Mutex<Session>>>>` per shard) and
//!    registry locks are held only for lookup/insert/remove. The
//!    expensive work — vector-store lookups and alignment solves —
//!    runs under the *session's own* mutex, so concurrent users never
//!    serialize on each other — unlike under the old
//!    single-global-mutex design.
//! 2. **Typed errors.** Every fallible call returns
//!    `Result<_, `[`ServiceError`]`>` instead of `Option`/`bool`, and
//!    [`Batch::Exhausted`] makes "the database ran dry" distinct from
//!    both "unknown session" and a real batch — three states the old
//!    API conflated into `Some(vec![])` vs `None`.
//! 3. **Transport-agnostic dispatch.** [`SearchService::handle`] maps a
//!    serializable [`crate::protocol::Request`] to a
//!    [`crate::protocol::Response`] (and [`SearchService::handle_line`]
//!    does the same for one encoded line), so the engine can sit behind
//!    any byte-stream transport without further glue.
//!
//! # Quickstart
//!
//! ```
//! use seesaw_core::{Batch, MethodConfig, PreprocessConfig, Preprocessor, SearchService};
//! use seesaw_core::user::SimulatedUser;
//! use seesaw_dataset::DatasetSpec;
//! use std::sync::Arc;
//!
//! let dataset = Arc::new(DatasetSpec::coco_like(0.0).generate(5));
//! let index = Preprocessor::new(PreprocessConfig::fast()).build(&dataset);
//! let service = Arc::new(SearchService::new(index, Arc::clone(&dataset)));
//!
//! // `Arc<SearchService>` moves freely into spawned threads.
//! let worker = {
//!     let service = Arc::clone(&service);
//!     let concept = dataset.queries()[0].concept;
//!     std::thread::spawn(move || {
//!         let id = service.create_session(concept, MethodConfig::zero_shot())?;
//!         let shown = match service.next_batch(id, 3)? {
//!             Batch::Images(images) => images.len(),
//!             Batch::Exhausted => 0,
//!         };
//!         service.close(id)?;
//!         Ok::<usize, seesaw_core::ServiceError>(shown)
//!     })
//! };
//! assert_eq!(worker.join().unwrap().unwrap(), 3);
//! ```

use parking_lot::{Mutex, RwLock};
use seesaw_dataset::{ImageId, SyntheticDataset};
use seesaw_embed::ConceptId;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::index::DatasetIndex;
use crate::protocol::{ErrorCode, Request, Response};
use crate::session::{Method, MethodConfig, Session};
use crate::user::Feedback;

/// Opaque handle to a running search session.
///
/// Ids are process-local and never reused. [`SessionId::raw`] /
/// [`SessionId::from_raw`] convert to and from the wire representation
/// used by [`crate::protocol`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// Reconstruct an id from its wire representation. The id is only
    /// meaningful to the service that issued it; any other value is
    /// rejected as [`ServiceError::UnknownSession`].
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The wire representation of this id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// Aggregate progress of one session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionStats {
    /// Images shown so far.
    pub images_shown: usize,
    /// Feedback items accepted so far (a successful round trip shows
    /// `images_shown == feedback_received`; a gap means feedback was
    /// dropped somewhere between UI and server).
    pub feedback_received: usize,
    /// Cosine between `q₀` and the current (aligned) query — how far
    /// feedback has moved the search.
    pub query_drift: f32,
}

/// The outcome of a successful `next_batch` call: either more results,
/// or a definitive "this session has shown everything".
///
/// Making exhaustion a *variant* (rather than an empty vector) keeps it
/// distinct from the error cases — an unknown id is
/// [`ServiceError::UnknownSession`], a closed one is
/// [`ServiceError::SessionClosed`], and only a live session that ran
/// out of unseen images is `Exhausted`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Batch {
    /// The next images to show, best-first. Never empty; short batches
    /// mean the database is nearly exhausted.
    Images(Vec<ImageId>),
    /// Every image has been shown; further calls keep returning this.
    Exhausted,
}

/// Why a [`SearchService`] call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The id was never issued by this service.
    UnknownSession(SessionId),
    /// The id was valid once, but the session has been closed.
    SessionClosed(SessionId),
    /// The request itself is malformed (bad concept, zero batch size,
    /// feedback for an image that was never shown, …).
    InvalidRequest {
        /// Human-readable explanation, safe to send back to the client.
        reason: String,
    },
}

impl ServiceError {
    /// Convenience constructor for [`ServiceError::InvalidRequest`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        Self::InvalidRequest {
            reason: reason.into(),
        }
    }

    /// The wire-level error code for this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            Self::UnknownSession(_) => ErrorCode::UnknownSession,
            Self::SessionClosed(_) => ErrorCode::SessionClosed,
            Self::InvalidRequest { .. } => ErrorCode::InvalidRequest,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownSession(id) => write!(f, "unknown {id}"),
            Self::SessionClosed(id) => write!(f, "{id} is closed"),
            Self::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Registry shard count. Sixteen shards keep write-lock collisions on
/// create/close negligible at the thread counts the benches exercise
/// while costing only sixteen small maps; lookups hash to a shard by
/// id, and ids are issued sequentially, so load is uniform.
const REGISTRY_SHARDS: usize = 16;

/// A multi-session search server over one dataset index.
///
/// See the [module docs](self) for the design and a runnable example.
pub struct SearchService {
    index: Arc<DatasetIndex>,
    dataset: Arc<SyntheticDataset>,
    /// Sharded session registry. Each shard's lock is held only for
    /// lookup/insert/remove — never across a session's own work.
    shards: Vec<RwLock<HashMap<u64, Arc<Mutex<Session>>>>>,
    /// Lock-free id source. Allocation is one atomic step, so ids are
    /// unique and a creator's own id is registered before
    /// `create_session` returns; registration order *across* creators
    /// is inherently unordered, and nothing here may rely on it.
    next_id: AtomicU64,
}

impl SearchService {
    /// Create a service over a preprocessed index and its dataset.
    pub fn new(index: Arc<DatasetIndex>, dataset: Arc<SyntheticDataset>) -> Self {
        Self {
            index,
            dataset,
            shards: (0..REGISTRY_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            next_id: AtomicU64::new(0),
        }
    }

    /// The index this service searches.
    pub fn index(&self) -> &Arc<DatasetIndex> {
        &self.index
    }

    /// The dataset this service serves (text tower, ground truth).
    pub fn dataset(&self) -> &Arc<SyntheticDataset> {
        &self.dataset
    }

    fn shard(&self, id: SessionId) -> &RwLock<HashMap<u64, Arc<Mutex<Session>>>> {
        &self.shards[(id.0 as usize) % REGISTRY_SHARDS]
    }

    /// Classify an id that is absent from the registry. Ids are issued
    /// from a monotone counter, so any id below the watermark was once
    /// live (and is now closed) and any id at or above it was never
    /// issued. (An id in the middle of `create_session` — allocated but
    /// not yet inserted — reads as closed, but only its creator knows
    /// it, and `create_session` inserts before returning.)
    fn missing_session(&self, id: SessionId) -> ServiceError {
        if id.0 < self.next_id.load(Ordering::Acquire) {
            ServiceError::SessionClosed(id)
        } else {
            ServiceError::UnknownSession(id)
        }
    }

    /// Look a session up, distinguishing "never issued" from "closed".
    ///
    /// The returned handle keeps the session alive even if another
    /// thread closes it concurrently: an in-flight call on a session
    /// completes; only *subsequent* lookups see `SessionClosed`.
    fn lookup(&self, id: SessionId) -> Result<Arc<Mutex<Session>>, ServiceError> {
        if let Some(slot) = self.shard(id).read().get(&id.0) {
            return Ok(Arc::clone(slot));
        }
        Err(self.missing_session(id))
    }

    /// Start a new search for `concept` (Listing 1 line 2).
    ///
    /// # Errors
    /// [`ServiceError::InvalidRequest`] when the concept is out of range
    /// or the method needs an index artifact this index was built
    /// without (ENS needs the coarse graph; a fixed vector must match
    /// the index dimension).
    pub fn create_session(
        &self,
        concept: ConceptId,
        config: MethodConfig,
    ) -> Result<SessionId, ServiceError> {
        let n_concepts = self.dataset.model.n_concepts();
        if concept as usize >= n_concepts {
            return Err(ServiceError::invalid(format!(
                "concept {concept} out of range (dataset has {n_concepts} concepts)"
            )));
        }
        match &config.method {
            Method::Ens { .. } if self.index.coarse_graph.is_none() => {
                return Err(ServiceError::invalid(
                    "ENS requires an index built with build_coarse_graph",
                ));
            }
            Method::FixedVector(v) if v.len() != self.index.dim => {
                return Err(ServiceError::invalid(format!(
                    "fixed vector has dimension {}, index has {}",
                    v.len(),
                    self.index.dim
                )));
            }
            _ => {}
        }
        let session = Session::start(&self.index, &self.dataset, concept, config);
        let id = SessionId(self.next_id.fetch_add(1, Ordering::AcqRel));
        self.shard(id)
            .write()
            .insert(id.0, Arc::new(Mutex::new(session)));
        Ok(id)
    }

    /// Number of live sessions.
    pub fn live_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Fetch the next batch of up to `n` results for a session.
    ///
    /// # Errors
    /// [`ServiceError::UnknownSession`] / [`ServiceError::SessionClosed`]
    /// for a bad id; [`ServiceError::InvalidRequest`] when `n` is zero
    /// (an empty request would be indistinguishable from exhaustion).
    pub fn next_batch(&self, id: SessionId, n: usize) -> Result<Batch, ServiceError> {
        if n == 0 {
            return Err(ServiceError::invalid("batch size must be positive"));
        }
        let slot = self.lookup(id)?;
        let images = slot.lock().next_batch(n);
        Ok(if images.is_empty() {
            Batch::Exhausted
        } else {
            Batch::Images(images)
        })
    }

    /// Submit feedback for an image the session previously handed out.
    ///
    /// # Errors
    /// Bad ids as in [`Self::next_batch`];
    /// [`ServiceError::InvalidRequest`] when the image was never shown
    /// by this session (or was already answered) — the session state is
    /// untouched in that case.
    pub fn feedback(&self, id: SessionId, fb: Feedback) -> Result<(), ServiceError> {
        let slot = self.lookup(id)?;
        let image = fb.image;
        if slot.lock().try_feedback(fb) {
            Ok(())
        } else {
            Err(ServiceError::invalid(format!(
                "feedback for image {image}, which {id} was not shown"
            )))
        }
    }

    /// Progress statistics for a session.
    ///
    /// # Errors
    /// Bad ids as in [`Self::next_batch`].
    pub fn stats(&self, id: SessionId) -> Result<SessionStats, ServiceError> {
        let slot = self.lookup(id)?;
        let s = slot.lock();
        Ok(SessionStats {
            images_shown: s.n_seen(),
            feedback_received: s.n_feedback(),
            query_drift: seesaw_linalg::cosine(s.q0(), s.current_query()),
        })
    }

    /// Terminate a session. In-flight calls holding the session
    /// complete; subsequent calls see [`ServiceError::SessionClosed`].
    ///
    /// # Errors
    /// Bad ids as in [`Self::next_batch`] (closing twice reports
    /// [`ServiceError::SessionClosed`]).
    pub fn close(&self, id: SessionId) -> Result<(), ServiceError> {
        if self.shard(id).write().remove(&id.0).is_some() {
            return Ok(());
        }
        Err(self.missing_session(id))
    }

    /// Dispatch one protocol request. Never panics on client input:
    /// every failure becomes a [`Response::Error`].
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Create {
                concept,
                method,
                search_k,
            } => {
                let mut config = method.to_config();
                if let Some(k) = search_k {
                    config = config.with_search_k(k as usize);
                }
                match self.create_session(concept, config) {
                    Ok(id) => Response::Created { session: id.raw() },
                    Err(e) => Response::from_error(&e),
                }
            }
            Request::NextBatch { session, n } => {
                match self.next_batch(SessionId::from_raw(session), n as usize) {
                    Ok(Batch::Images(images)) => Response::Batch { images },
                    Ok(Batch::Exhausted) => Response::Exhausted,
                    Err(e) => Response::from_error(&e),
                }
            }
            Request::Feedback {
                session,
                image,
                relevant,
                boxes,
            } => {
                let fb = Feedback {
                    image,
                    relevant,
                    boxes,
                };
                match self.feedback(SessionId::from_raw(session), fb) {
                    Ok(()) => Response::Ack,
                    Err(e) => Response::from_error(&e),
                }
            }
            Request::Stats { session } => match self.stats(SessionId::from_raw(session)) {
                Ok(stats) => Response::Stats {
                    images_shown: stats.images_shown as u64,
                    feedback_received: stats.feedback_received as u64,
                    query_drift: stats.query_drift,
                },
                Err(e) => Response::from_error(&e),
            },
            Request::Close { session } => match self.close(SessionId::from_raw(session)) {
                Ok(()) => Response::Ack,
                Err(e) => Response::from_error(&e),
            },
        }
    }

    /// Decode one request line, dispatch it, and encode the response —
    /// the whole wire loop for a line-oriented transport. Decode
    /// failures come back as an encoded [`ErrorCode::Protocol`] error
    /// rather than an `Err`, so transports can always just write the
    /// returned line.
    ///
    /// Three edge cases are pinned (tested) rather than left to
    /// whatever the JSON reader happens to report:
    ///
    /// * an **empty or whitespace-only** line (including a bare `\r`
    ///   left over from `\r\n` framing) is rejected as
    ///   `"empty request line"` — it is a framing artifact, not
    ///   malformed JSON;
    /// * a line **longer than
    ///   [`MAX_LINE_BYTES`](crate::protocol::MAX_LINE_BYTES)** is
    ///   rejected without being parsed at all, so a hostile line bounds
    ///   the work it can cause;
    /// * a trailing `\r` on an otherwise valid line is harmless — the
    ///   decoder treats it as whitespace, so `\r\n`-framed clients
    ///   (telnet, `nc -C`) work unmodified.
    pub fn handle_line(&self, line: &str) -> String {
        let protocol_error = |message: String| {
            Response::Error {
                code: ErrorCode::Protocol,
                message,
            }
            .encode()
        };
        if line.len() > crate::protocol::MAX_LINE_BYTES {
            return protocol_error(format!(
                "line of {} bytes exceeds the {}-byte limit",
                line.len(),
                crate::protocol::MAX_LINE_BYTES
            ));
        }
        if line.trim().is_empty() {
            return protocol_error("empty request line".to_string());
        }
        match Request::decode(line) {
            Ok(request) => self.handle(request).encode(),
            Err(e) => protocol_error(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{PreprocessConfig, Preprocessor};
    use crate::user::SimulatedUser;
    use seesaw_dataset::DatasetSpec;

    fn setup() -> (Arc<SyntheticDataset>, Arc<DatasetIndex>) {
        let ds = Arc::new(
            DatasetSpec::coco_like(0.001)
                .with_max_queries(6)
                .generate(77),
        );
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        (ds, idx)
    }

    fn service() -> (Arc<SyntheticDataset>, Arc<SearchService>) {
        let (ds, idx) = setup();
        let service = Arc::new(SearchService::new(idx, Arc::clone(&ds)));
        (ds, service)
    }

    #[test]
    fn service_is_send_sync_static() {
        fn assert_shareable<T: Send + Sync + 'static>() {}
        assert_shareable::<SearchService>();
        assert_shareable::<Arc<SearchService>>();
        assert_shareable::<Session>();
    }

    #[test]
    fn arc_service_moves_into_spawned_threads() {
        // The acceptance criterion for the ownership redesign: no
        // borrowed lifetime anywhere, proven by `std::thread::spawn`
        // (which requires `'static`) rather than scoped threads.
        let (ds, service) = service();
        let mut workers = Vec::new();
        for t in 0..4usize {
            let service = Arc::clone(&service);
            let ds = Arc::clone(&ds);
            workers.push(std::thread::spawn(move || {
                let concept = ds.queries()[t % ds.queries().len()].concept;
                let user = SimulatedUser::new(&ds);
                let id = service
                    .create_session(concept, MethodConfig::seesaw())
                    .unwrap();
                for _ in 0..3 {
                    match service.next_batch(id, 1).unwrap() {
                        Batch::Images(images) => {
                            for img in images {
                                service.feedback(id, user.annotate(img, concept)).unwrap();
                            }
                        }
                        Batch::Exhausted => break,
                    }
                }
                service.stats(id).unwrap().images_shown
            }));
        }
        for w in workers {
            assert_eq!(w.join().unwrap(), 3);
        }
        assert_eq!(service.live_sessions(), 4);
    }

    #[test]
    fn sessions_are_isolated() {
        let (ds, service) = service();
        let a = service
            .create_session(ds.queries()[0].concept, MethodConfig::seesaw())
            .unwrap();
        let b = service
            .create_session(ds.queries()[1].concept, MethodConfig::zero_shot())
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(service.live_sessions(), 2);

        let user = SimulatedUser::new(&ds);
        let Batch::Images(batch_a) = service.next_batch(a, 2).unwrap() else {
            panic!("fresh session cannot be exhausted");
        };
        for img in batch_a {
            let fb = user.annotate(img, ds.queries()[0].concept);
            service.feedback(a, fb).unwrap();
        }
        // Session b is untouched by a's feedback.
        let stats_b = service.stats(b).unwrap();
        assert_eq!(stats_b.images_shown, 0);
        assert_eq!(stats_b.feedback_received, 0);
        assert!((stats_b.query_drift - 1.0).abs() < 1e-5);

        service.close(a).unwrap();
        assert_eq!(service.close(a), Err(ServiceError::SessionClosed(a)));
        assert_eq!(service.live_sessions(), 1);
    }

    #[test]
    fn exhausted_closed_and_unknown_are_three_distinct_outcomes() {
        // Regression for the old API's ambiguity, where an exhausted
        // session (`Some(vec![])`) and an unknown id (`None`) were one
        // bool apart and a closed id was indistinguishable from one
        // never issued.
        let ds = Arc::new(DatasetSpec::coco_like(0.0).with_max_queries(5).generate(5));
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        let service = SearchService::new(idx, Arc::clone(&ds));
        let id = service
            .create_session(ds.queries()[0].concept, MethodConfig::zero_shot())
            .unwrap();

        // A live session drains to Exhausted — an Ok outcome.
        let Batch::Images(all) = service.next_batch(id, 10_000).unwrap() else {
            panic!("a fresh session has images");
        };
        assert_eq!(all.len(), ds.n_images());
        assert_eq!(service.next_batch(id, 5), Ok(Batch::Exhausted));
        assert_eq!(service.next_batch(id, 5), Ok(Batch::Exhausted), "stable");

        // An id that was never issued is UnknownSession.
        let ghost = SessionId::from_raw(9_999);
        assert_eq!(
            service.next_batch(ghost, 5),
            Err(ServiceError::UnknownSession(ghost))
        );

        // A closed id is SessionClosed — not Unknown, not Exhausted.
        service.close(id).unwrap();
        assert_eq!(
            service.next_batch(id, 5),
            Err(ServiceError::SessionClosed(id))
        );
        assert_eq!(service.stats(id), Err(ServiceError::SessionClosed(id)));
    }

    #[test]
    fn invalid_requests_are_rejected_with_reasons() {
        let (ds, service) = service();
        let concept = ds.queries()[0].concept;

        // Out-of-range concept.
        let bad = ds.model.n_concepts() as u32 + 7;
        assert!(matches!(
            service.create_session(bad, MethodConfig::zero_shot()),
            Err(ServiceError::InvalidRequest { .. })
        ));

        // Dimension-mismatched fixed vector.
        assert!(matches!(
            service.create_session(concept, MethodConfig::fixed(vec![1.0; 3])),
            Err(ServiceError::InvalidRequest { .. })
        ));

        // Zero batch size.
        let id = service
            .create_session(concept, MethodConfig::zero_shot())
            .unwrap();
        assert!(matches!(
            service.next_batch(id, 0),
            Err(ServiceError::InvalidRequest { .. })
        ));

        // Feedback for an image never shown must not poison the session.
        let err = service
            .feedback(
                id,
                Feedback {
                    image: 123_456,
                    relevant: true,
                    boxes: vec![],
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidRequest { .. }));
        assert!(matches!(service.next_batch(id, 1), Ok(Batch::Images(_))));
    }

    #[test]
    fn ens_without_coarse_graph_is_invalid_not_a_panic() {
        let ds = Arc::new(
            DatasetSpec::coco_like(0.001)
                .with_max_queries(4)
                .generate(3),
        );
        let mut cfg = PreprocessConfig::fast();
        cfg.build_coarse_graph = false;
        let idx = Preprocessor::new(cfg).build(&ds);
        let service = SearchService::new(idx, Arc::clone(&ds));
        assert!(matches!(
            service.create_session(ds.queries()[0].concept, MethodConfig::ens(30)),
            Err(ServiceError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn stress_create_feedback_destroy_from_eight_threads() {
        // Hammer the full session lifecycle from 8 threads. The atomic
        // id source must keep ids unique under contention, every
        // created session must be observable by its creator as soon as
        // create_session returns, and close() accounting must balance
        // exactly. Cross-thread registration order is deliberately NOT
        // asserted — it is unordered by design.
        let (ds, service) = service();
        let user = SimulatedUser::new(&ds);
        let all_ids = Mutex::new(Vec::<SessionId>::new());
        let rounds = 6;
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let service = &service;
                let user = &user;
                let all_ids = &all_ids;
                let concept = ds.queries()[t % ds.queries().len()].concept;
                scope.spawn(move || {
                    for r in 0..rounds {
                        let id = service
                            .create_session(concept, MethodConfig::seesaw())
                            .unwrap();
                        all_ids.lock().push(id);
                        // The freshly created session must be visible
                        // to its creator immediately.
                        let stats = service.stats(id).expect("created session must exist");
                        assert_eq!(stats.images_shown, 0);
                        let Batch::Images(batch) = service.next_batch(id, 1).unwrap() else {
                            panic!("session must be live");
                        };
                        for img in batch {
                            service.feedback(id, user.annotate(img, concept)).unwrap();
                        }
                        // Destroy every other session; the rest stay
                        // live so the registry sees mixed pressure.
                        if r % 2 == 0 {
                            service.close(id).expect("close must find the session");
                            assert_eq!(
                                service.close(id),
                                Err(ServiceError::SessionClosed(id)),
                                "double close must fail typed"
                            );
                        }
                    }
                });
            }
        });
        let mut ids = all_ids.into_inner();
        let total = ids.len();
        assert_eq!(total, 8 * rounds);
        ids.sort_by_key(|id| id.0);
        ids.dedup();
        assert_eq!(ids.len(), total, "session ids must never repeat");
        assert_eq!(service.live_sessions(), 8 * rounds / 2);
    }

    #[test]
    fn handle_dispatches_every_request_kind() {
        use crate::protocol::MethodSpec;
        let (ds, service) = service();
        let concept = ds.queries()[0].concept;

        let Response::Created { session } = service.handle(Request::Create {
            concept,
            method: MethodSpec::SeeSaw,
            search_k: None,
        }) else {
            panic!("create must succeed");
        };
        let Response::Batch { images } = service.handle(Request::NextBatch { session, n: 2 })
        else {
            panic!("next_batch must return images");
        };
        assert_eq!(images.len(), 2);
        let user = SimulatedUser::new(&ds);
        let fb = user.annotate(images[0], concept);
        assert_eq!(
            service.handle(Request::Feedback {
                session,
                image: fb.image,
                relevant: fb.relevant,
                boxes: fb.boxes,
            }),
            Response::Ack
        );
        let Response::Stats {
            images_shown,
            feedback_received,
            query_drift,
        } = service.handle(Request::Stats { session })
        else {
            panic!("stats must succeed");
        };
        assert_eq!(images_shown, 2);
        assert_eq!(feedback_received, 1);
        assert!(query_drift.is_finite());
        assert_eq!(service.handle(Request::Close { session }), Response::Ack);
        assert_eq!(
            service.handle(Request::Stats { session }),
            Response::Error {
                code: ErrorCode::SessionClosed,
                message: ServiceError::SessionClosed(SessionId::from_raw(session)).to_string(),
            }
        );
    }

    #[test]
    fn handle_line_round_trips_and_reports_garbage() {
        let (ds, service) = service();
        let line = Request::Create {
            concept: ds.queries()[0].concept,
            method: crate::protocol::MethodSpec::ZeroShot,
            search_k: Some(4096),
        }
        .encode();
        let reply = service.handle_line(&line);
        let Response::Created { session } = Response::decode(&reply).unwrap() else {
            panic!("expected Created, got {reply}");
        };
        let reply = service.handle_line(&Request::NextBatch { session, n: 1 }.encode());
        assert!(matches!(
            Response::decode(&reply).unwrap(),
            Response::Batch { .. }
        ));

        let reply = service.handle_line("not a request at all");
        let Response::Error { code, .. } = Response::decode(&reply).unwrap() else {
            panic!("garbage must decode to a protocol error, got {reply}");
        };
        assert_eq!(code, ErrorCode::Protocol);
    }

    #[test]
    fn handle_line_pins_empty_crlf_and_oversized_lines() {
        use crate::protocol::MAX_LINE_BYTES;
        let (ds, service) = service();

        // Empty and whitespace-only lines (framing artifacts — a blank
        // line, a bare \r left by \r\n framing) get one fixed,
        // well-formed error, not whatever the JSON reader reports for
        // truncated input. The exact wire bytes are part of the
        // protocol.
        let empty_reply = r#"{"type":"error","code":"protocol","message":"empty request line"}"#;
        for line in ["", "\r", " ", "\t", "  \r"] {
            assert_eq!(service.handle_line(line), empty_reply, "line {line:?}");
        }

        // A trailing \r on a *valid* line is whitespace, so clients
        // framing with \r\n work unmodified (the transport strips the
        // \n, handle_line tolerates the \r).
        let line = Request::Stats { session: 0 }.encode() + "\r";
        let Response::Error { code, .. } = Response::decode(&service.handle_line(&line)).unwrap()
        else {
            panic!("stats for an unissued id must be a typed error");
        };
        assert_eq!(code, ErrorCode::UnknownSession, "\\r must not break decode");
        let id = service
            .create_session(ds.queries()[0].concept, MethodConfig::zero_shot())
            .unwrap();
        let line = Request::Stats { session: id.raw() }.encode() + "\r";
        assert!(matches!(
            Response::decode(&service.handle_line(&line)).unwrap(),
            Response::Stats { .. }
        ));

        // An oversized line is rejected before parsing: same error
        // regardless of content, valid JSON included.
        let mut huge = String::from(r#"{"type":"stats","session":1,"pad":""#);
        huge.push_str(&"x".repeat(MAX_LINE_BYTES));
        huge.push_str("\"}");
        let Response::Error { code, message } =
            Response::decode(&service.handle_line(&huge)).unwrap()
        else {
            panic!("oversized line must be an error");
        };
        assert_eq!(code, ErrorCode::Protocol);
        assert!(
            message.contains("exceeds") && message.contains("65536"),
            "got {message:?}"
        );
        // At the boundary the line is still parsed normally.
        let at_limit = " ".repeat(MAX_LINE_BYTES - line.len()) + &line;
        assert_eq!(at_limit.len(), MAX_LINE_BYTES);
        assert!(matches!(
            Response::decode(&service.handle_line(&at_limit)).unwrap(),
            Response::Stats { .. }
        ));
    }
}
