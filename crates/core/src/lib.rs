//! The SeeSaw engine: preprocessing pipeline, multiscale representation,
//! the interactive search session (paper §2 and Listing 1), and the
//! owned serving layer of Figure 3.
//!
//! The flow mirrors Figure 3 of the paper:
//!
//! ```text
//! preprocessing:  raw images ──► multiscale tiles ──► CLIP image tower
//!                 ──► vector store (Annoy)  +  kNN graph ──► M_D
//!
//! interaction:    text query ──► CLIP text tower ──► q₀
//!                 loop { lookup ──► show ──► box feedback ──► align }
//!
//! serving:        Arc<SearchService> ──► per-session-locked Sessions
//!                 Request line ──► handle ──► Response line
//! ```
//!
//! * [`tiling`] — the coarse + half-scale patch grid (§4.3);
//! * [`preprocess`] — one-time dataset pass producing an
//!   `Arc<`[`DatasetIndex`]`>`, ready to be shared across threads;
//! * [`session`] — [`Session`], one running query with any [`Method`]
//!   (zero-shot, few-shot, Rocchio, ENS, SeeSaw, SeeSaw-prop); owned,
//!   `Send + 'static`;
//! * [`service`] — [`SearchService`], the multi-user server: sharded
//!   per-session locking, typed [`ServiceError`]s, and the
//!   [`SearchService::handle`] protocol dispatcher;
//! * [`protocol`] — the serializable [`Request`]/[`Response`] pair and
//!   the dependency-free JSON line codec;
//! * [`user`] — the simulated user that answers with ground-truth boxes
//!   (the §5.1 benchmark protocol);
//! * [`runner`] — drives a session against the protocol and yields a
//!   `SearchTrace` for AP scoring;
//! * [`ideal`] — the full-label "ideal query vector" of Fig. 4.

pub mod ideal;
pub mod index;
pub mod persist;
pub mod preprocess;
pub mod protocol;
pub mod runner;
pub mod service;
pub mod session;
pub mod tiling;
pub mod user;

pub use ideal::ideal_query_vector;
// The dataset primitives the serving API exposes (`Feedback.boxes`,
// batch contents), re-exported so transport crates need only this one
// dependency.
pub use index::{DatasetIndex, PatchMeta};
pub use persist::{load_index, save_index, PersistError};
pub use preprocess::{PreprocessConfig, Preprocessor};
pub use protocol::{ErrorCode, MethodSpec, ProtocolError, Request, Response, MAX_LINE_BYTES};
pub use runner::{run_benchmark_query, RunOutcome};
pub use seesaw_dataset::{BBox, ImageId};
pub use service::{Batch, SearchService, ServiceError, SessionId, SessionStats};
pub use session::{Method, MethodConfig, Session};
pub use user::{Feedback, SimulatedUser};
