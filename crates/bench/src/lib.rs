//! The paper reproduction: the evaluation of arXiv 2208.06497 §5, run
//! by the `paper` binary (`paper <name>` for one figure or table,
//! `paper all` for every one), plus what the `ablation_store` and
//! `scan_throughput` gate harnesses share with it: dataset construction
//! at a configurable scale and method sweeps over the benchmark queries.
//! The hard-subset split lives in `seesaw_metrics`, the §5.5 user-time
//! simulator in this crate's `usersim` module.
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
//! * `SEESAW_PRECISION` — row-storage precision for the dense-row
//!   backends: `f32` (default), `f16`, or `sq8` (no-op on the RP
//!   forest, which keeps its own f32 layout).

mod context;
pub mod experiments;
mod usersim;

pub use context::{bench_scale, bench_seed, bench_store_config};
pub use experiments::ap_per_query;

/// Read an f64 environment knob with a default.
pub(crate) fn env_f64(name: &str, default: f64) -> f64 {
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
