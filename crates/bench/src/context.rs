//! Dataset and index construction shared by the bench targets.

use seesaw_core::{PreprocessConfig, Preprocessor};
use seesaw_dataset::{DatasetSpec, SyntheticDataset};
use seesaw_vecstore::{RowPrecision, StoreConfig};

use crate::{env_f64, env_usize};

/// Experiment seed (`SEESAW_SEED`, default 7).
pub fn bench_seed() -> u64 {
    env_usize("SEESAW_SEED", 7) as u64
}

/// Row-storage precision for bench indexes (`SEESAW_PRECISION` =
/// `f32` | `f16` | `sq8` | `pq[<m>[x<nbits>]]`, default `f32`).
///
/// # Panics
/// Panics on an unknown value, mirroring [`bench_store_config`]: a
/// typo must not silently benchmark full-precision rows.
pub fn bench_precision() -> RowPrecision {
    match std::env::var("SEESAW_PRECISION") {
        Err(_) => RowPrecision::F32,
        Ok(name) => RowPrecision::parse(&name).unwrap_or_else(|| {
            panic!("SEESAW_PRECISION={name:?}: expected f32, f16, sq8, or pq<m>x<nbits>")
        }),
    }
}

/// The vector-store backend for bench indexes, selected by environment
/// (`SEESAW_STORE` = `forest` | `exact` | `ivf`,
/// `SEESAW_PRECISION` = `f32` | `f16` | `sq8` | `pq<m>x<nbits>`)
/// instead of hardcoding one — every index the paper experiments
/// build runs against whichever backend the caller picks.
///
/// # Panics
/// Panics on an unknown `SEESAW_STORE` or `SEESAW_PRECISION` value
/// (silent fallback would make a typo benchmark the wrong backend).
pub fn bench_store_config() -> StoreConfig {
    let cfg = match std::env::var("SEESAW_STORE") {
        Err(_) => PreprocessConfig::fast().store,
        Ok(name) => PreprocessConfig::store_for_backend(&name)
            .unwrap_or_else(|| panic!("SEESAW_STORE={name:?}: expected forest, exact, or ivf")),
    };
    cfg.with_precision(bench_precision())
}

/// Dataset scale as a fraction of the paper's image counts: 1% times
/// `SEESAW_SCALE`.
pub fn bench_scale() -> f64 {
    0.01 * env_f64("SEESAW_SCALE", 1.0)
}

/// The four paper datasets at [`bench_scale`], in the paper's column
/// order (LVIS, ObjNet, COCO, BDD), each capped at `SEESAW_QUERIES`
/// queries.
pub fn bench_suite() -> Vec<DatasetSpec> {
    let max_q = env_usize("SEESAW_QUERIES", 40);
    DatasetSpec::paper_suite(bench_scale())
        .into_iter()
        .map(|s| {
            let cap = max_q.min(s.max_queries.max(1));
            s.with_max_queries(cap)
        })
        .collect()
}

/// Which preprocessing artifacts a bench target needs — building only
/// what is used keeps the suite fast.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexNeeds {
    /// Build the multiscale index.
    pub multiscale: bool,
    /// Build the coarse-only index.
    pub coarse: bool,
    /// Compute `M_D` (DB alignment).
    pub db_matrix: bool,
    /// Keep the patch adjacency (propagation variant).
    pub propagation: bool,
    /// Build the coarse kNN graph (ENS).
    pub ens_graph: bool,
}

impl IndexNeeds {
    /// Everything (Table 6 needs it all).
    pub fn all() -> Self {
        Self {
            multiscale: true,
            coarse: true,
            db_matrix: true,
            propagation: true,
            ens_graph: true,
        }
    }
}

/// A dataset with the indexes a bench target asked for. Indexes come
/// shared (`Arc`) straight from [`Preprocessor::build`], so harnesses
/// can hand them to sessions, services, and threads without copying.
pub struct BuiltDataset {
    /// The generated dataset.
    pub dataset: SyntheticDataset,
    /// Multiscale index (§4.3 representation), if requested.
    pub multiscale: Option<std::sync::Arc<seesaw_core::DatasetIndex>>,
    /// Coarse-only index, if requested.
    pub coarse: Option<std::sync::Arc<seesaw_core::DatasetIndex>>,
}

fn preprocess_config(needs: &IndexNeeds, multiscale: bool) -> PreprocessConfig {
    let mut cfg = PreprocessConfig::fast();
    cfg.store = bench_store_config();
    cfg.multiscale = multiscale;
    cfg.build_db_matrix = needs.db_matrix;
    cfg.build_propagation = needs.propagation;
    cfg.build_coarse_graph = needs.ens_graph;
    // The paper's §4.2 subsampling optimization keeps M_D affordable on
    // multiscale patch sets at larger SEESAW_SCALE values; it only
    // engages above the threshold, so default-scale runs use all
    // vectors when propagation is not simultaneously requested.
    if !needs.propagation {
        cfg.db_matrix_sample = Some(20_000);
    }
    cfg
}

/// Generate each spec and build the requested indexes, logging progress
/// to stderr (bench targets are long-running; silence is unfriendly).
pub fn build_indexes(specs: &[DatasetSpec], needs: IndexNeeds) -> Vec<BuiltDataset> {
    let seed = bench_seed();
    specs
        .iter()
        .map(|spec| {
            eprintln!(
                "[seesaw-bench] generating {} ({} images)…",
                spec.name, spec.n_images
            );
            let dataset = spec.generate(seed);
            let multiscale = needs.multiscale.then(|| {
                eprintln!("[seesaw-bench]   multiscale index…");
                Preprocessor::new(preprocess_config(&needs, true)).build(&dataset)
            });
            let coarse = needs.coarse.then(|| {
                eprintln!("[seesaw-bench]   coarse index…");
                Preprocessor::new(preprocess_config(&needs, false)).build(&dataset)
            });
            BuiltDataset {
                dataset,
                multiscale,
                coarse,
            }
        })
        .collect()
}
