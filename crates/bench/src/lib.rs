//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every `benches/` target regenerates one table or figure of the paper
//! (see `DESIGN.md` §3 for the index). This library provides the pieces
//! they share: dataset construction at a configurable scale, method
//! sweeps over the benchmark queries, the hard-subset split, and the
//! §5.5 user-time simulator.
//!
//! ## Environment knobs
//!
//! * `SEESAW_SCALE` — multiplies the default dataset scale (default 1.0;
//!   the default scale itself is 1% of the paper's image counts so the
//!   whole suite runs in minutes — set `SEESAW_SCALE=100` for
//!   paper-sized datasets).
//! * `SEESAW_QUERIES` — per-dataset query cap (default 40).
//! * `SEESAW_SEED` — experiment seed (default 7).
//! * `SEESAW_STORE` — vector-store backend: `forest` (default),
//!   `exact`, or `ivf`.
//! * `SEESAW_SHARDS` — shard the store across N parallel workers
//!   (default 0 = unsharded).
//! * `SEESAW_PRECISION` — row-storage precision for the dense-row
//!   backends: `f32` (default), `f16`, or `sq8` (no-op on the RP
//!   forest, which keeps its own f32 layout).

pub mod context;
pub mod experiments;
pub mod usersim;

pub use context::{
    bench_precision, bench_rerank_factor, bench_seed, bench_store_config, bench_suite,
    build_indexes, BuiltDataset, IndexNeeds,
};
pub use experiments::{ap_per_query, hard_subset, mean_ap, select_hard, MethodFactory};
pub use usersim::{simulate_task_time, AnnotationModel, UserSimConfig};

/// Read an f64 environment knob with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read a usize environment knob with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
