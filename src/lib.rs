//! # SeeSaw — interactive ad-hoc search over image databases
//!
//! A from-scratch Rust reproduction of *SeeSaw: Interactive Ad-hoc Search
//! Over Image Databases* (Moll, Favela, Madden, Gadepally, Cafarella —
//! SIGMOD 2023, arXiv:2208.06497).
//!
//! This facade crate re-exports the public API of every subsystem:
//!
//! * [`linalg`] — dense/sparse kernels shared by everything below.
//! * [`optim`] — L-BFGS, Platt scaling.
//! * [`embed`] — the synthetic visual-semantic embedding model that
//!   substitutes for CLIP (its crate docs give the substitution
//!   argument).
//! * [`dataset`] — synthetic labeled datasets mirroring COCO / LVIS /
//!   ObjectNet / BDD.
//! * [`vecstore`] — vector-store backends (exact scan, Annoy-style
//!   random-projection forest, IVF) behind one `VectorStore` trait,
//!   one store per index, selected via `StoreConfig`.
//! * [`knn`] — NN-descent kNN graphs and label propagation.
//! * [`aligner`] — the paper's contribution: the query-alignment loss
//!   (CLIP alignment + database alignment) and its L-BFGS solve.
//! * [`baselines`] — Rocchio and Efficient Nonmyopic Search.
//! * [`core`] — multiscale tiling, the preprocessing pipeline, the
//!   interactive [`core::Session`] implementing Listing 1 of the paper,
//!   and the serving layer: [`core::SearchService`] (owned,
//!   per-session-locked, typed errors) plus the [`core::protocol`]
//!   request/response line codec.
//! * [`server`] — the TCP front end over that protocol: a
//!   [`server::Server`] whose readiness-polled event loops multiplex
//!   thousands of (mostly idle) connections with request pipelining,
//!   over a bounded worker pool with backpressure, connection caps,
//!   and graceful drain; plus the [`server::Client`], lockstep or
//!   pipelined.
//! * [`metrics`] — the paper's Average Precision protocol and summary
//!   statistics.
//!
//! ## Quickstart
//!
//! Embedded, single-session use drives a [`core::Session`] directly
//! (Listing 1 of the paper):
//!
//! ```
//! use seesaw::prelude::*;
//!
//! // A small BDD-like dataset (street scenes, rare small objects).
//! let dataset = DatasetSpec::bdd_like(0.001).generate(7);
//! // Preprocessing returns Arc<DatasetIndex>: immutable, shareable.
//! let index = Preprocessor::new(PreprocessConfig::fast()).build(&dataset);
//!
//! // Interactive loop: text query, then box feedback (Listing 1).
//! let mut session = Session::start(
//!     &index,
//!     &dataset,
//!     dataset.queries()[0].concept,
//!     MethodConfig::seesaw(),
//! );
//! let user = SimulatedUser::new(&dataset);
//! for _ in 0..5 {
//!     let batch = session.next_batch(2);
//!     for image in batch {
//!         let feedback = user.annotate(image, session.concept());
//!         session.feedback(feedback);
//!     }
//! }
//! ```
//!
//! Serving many users goes through an [`core::SearchService`] — owned
//! (`Arc`-shareable, `Send + Sync + 'static`), locking per session, and
//! speaking a serializable request/response protocol so it can sit
//! behind any transport:
//!
//! ```
//! use seesaw::prelude::*;
//! use std::sync::Arc;
//!
//! let dataset = Arc::new(DatasetSpec::coco_like(0.001).generate(42));
//! let index = Preprocessor::new(PreprocessConfig::fast()).build(&dataset);
//! let service = Arc::new(SearchService::new(index, Arc::clone(&dataset)));
//!
//! // Typed API: every failure is a ServiceError, and exhaustion is a
//! // Batch variant — not an empty vector or a None.
//! let concept = dataset.queries()[0].concept;
//! let id = service.create_session(concept, MethodConfig::seesaw())?;
//! let user = SimulatedUser::new(&dataset);
//! if let Batch::Images(images) = service.next_batch(id, 2)? {
//!     for image in images {
//!         service.feedback(id, user.annotate(image, concept))?;
//!     }
//! }
//! assert_eq!(service.stats(id)?.images_shown, 2);
//!
//! // Wire protocol: one JSON line per message, no external deps.
//! let reply = service.handle_line(&Request::Stats { session: id.raw() }.encode());
//! assert!(matches!(Response::decode(&reply)?, Response::Stats { images_shown: 2, .. }));
//! service.close(id)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use seesaw_aligner as aligner;
pub use seesaw_baselines as baselines;
pub use seesaw_core as core;
pub use seesaw_dataset as dataset;
pub use seesaw_embed as embed;
pub use seesaw_knn as knn;
pub use seesaw_linalg as linalg;
pub use seesaw_metrics as metrics;
pub use seesaw_optim as optim;
pub use seesaw_server as server;
pub use seesaw_vecstore as vecstore;

/// Everything a typical caller needs, in one import.
pub mod prelude {
    pub use seesaw_aligner::{AlignerConfig, QueryAligner};
    pub use seesaw_core::{
        Batch, Feedback, Method, MethodConfig, MethodSpec, PreprocessConfig, Preprocessor, Request,
        Response, SearchService, ServiceError, Session, SessionId, SessionStats, SimulatedUser,
    };
    pub use seesaw_dataset::{DatasetSpec, SyntheticDataset};
    pub use seesaw_embed::EmbeddingModel;
    pub use seesaw_metrics::{average_precision, BenchmarkProtocol};
    pub use seesaw_server::{Client, ClientError, Server, ServerConfig, ServerStats};
    pub use seesaw_vecstore::{StoreConfig, VectorStore};
}
