//! Backend selection as data: [`StoreConfig`] names a backend (and an
//! optional shard count), [`StoreConfig::build`] materializes it as an
//! [`AnyStore`]. The engine's preprocessing pipeline and the bench
//! harnesses thread a `StoreConfig` through instead of hardcoding one
//! concrete store type.

use crate::{
    ExactStore, Hit, IvfConfig, IvfStore, KeepFn, RowPrecision, RpForest, RpForestConfig,
    ShardedStore, VectorStore, SQ8_RERANK_FACTOR,
};

/// Which vector-store backend to build, each optionally sharded
/// (`shards ≤ 1` means unsharded). The dense-row backends (exact and
/// IVF) additionally carry a [`RowPrecision`] selecting the row
/// storage tier; the RP forest keeps its own f32 layout.
#[derive(Clone, Debug)]
pub enum StoreConfig {
    /// Brute-force scan — the accuracy reference.
    Exact {
        /// Shard count; `0` or `1` builds the plain store.
        shards: usize,
        /// Row storage precision (`f32` default, `f16` half-width).
        precision: RowPrecision,
        /// Re-rank pool factor for the quantized tiers (SQ8, PQ).
        rerank_factor: usize,
    },
    /// Annoy-style random-projection forest (the paper's store).
    RpForest {
        /// Forest build parameters.
        config: RpForestConfig,
        /// Shard count; `0` or `1` builds the plain store.
        shards: usize,
    },
    /// Inverted-file index with a k-means coarse quantizer.
    Ivf {
        /// IVF build parameters.
        config: IvfConfig,
        /// Shard count; `0` or `1` builds the plain store.
        shards: usize,
        /// Row storage precision (`f32` default, `f16` half-width).
        precision: RowPrecision,
        /// Re-rank pool factor for the quantized tiers (SQ8, PQ).
        rerank_factor: usize,
    },
}

impl Default for StoreConfig {
    /// The paper's choice: an unsharded RP forest with default knobs.
    fn default() -> Self {
        Self::forest(RpForestConfig::default())
    }
}

impl StoreConfig {
    /// Unsharded exact scan with `f32` rows.
    pub fn exact() -> Self {
        Self::Exact {
            shards: 0,
            precision: RowPrecision::F32,
            rerank_factor: SQ8_RERANK_FACTOR,
        }
    }

    /// Unsharded RP forest.
    pub fn forest(config: RpForestConfig) -> Self {
        Self::RpForest { config, shards: 0 }
    }

    /// Unsharded IVF with `f32` rows.
    pub fn ivf(config: IvfConfig) -> Self {
        Self::Ivf {
            config,
            shards: 0,
            precision: RowPrecision::F32,
            rerank_factor: SQ8_RERANK_FACTOR,
        }
    }

    /// Set the shard count (builder style).
    pub fn with_shards(mut self, n: usize) -> Self {
        match &mut self {
            Self::Exact { shards, .. }
            | Self::RpForest { shards, .. }
            | Self::Ivf { shards, .. } => *shards = n,
        }
        self
    }

    /// Set the row-storage precision (builder style). A no-op on the
    /// RP forest, which keeps its own f32 layout.
    pub fn with_precision(mut self, p: RowPrecision) -> Self {
        match &mut self {
            Self::Exact { precision, .. } | Self::Ivf { precision, .. } => *precision = p,
            Self::RpForest { .. } => {}
        }
        self
    }

    /// Set the quantized-tier re-rank pool factor (builder style):
    /// `k × factor` candidates survive the SQ8/PQ code scan and get
    /// exact re-scoring against the f32 source rows. A no-op on the
    /// RP forest. Default [`SQ8_RERANK_FACTOR`].
    ///
    /// # Panics
    /// Panics when `factor` is zero.
    pub fn with_rerank_factor(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "rerank factor must be at least 1");
        match &mut self {
            Self::Exact { rerank_factor, .. } | Self::Ivf { rerank_factor, .. } => {
                *rerank_factor = factor
            }
            Self::RpForest { .. } => {}
        }
        self
    }

    /// The quantized-tier re-rank pool factor (the RP forest reports
    /// the default).
    pub fn rerank_factor(&self) -> usize {
        match self {
            Self::Exact { rerank_factor, .. } | Self::Ivf { rerank_factor, .. } => *rerank_factor,
            Self::RpForest { .. } => SQ8_RERANK_FACTOR,
        }
    }

    /// Shard count (`0` normalizes to `1`).
    pub fn shards(&self) -> usize {
        match self {
            Self::Exact { shards, .. }
            | Self::RpForest { shards, .. }
            | Self::Ivf { shards, .. } => (*shards).max(1),
        }
    }

    /// Row-storage precision (the RP forest always reports
    /// [`RowPrecision::F32`]).
    pub fn precision(&self) -> RowPrecision {
        match self {
            Self::Exact { precision, .. } | Self::Ivf { precision, .. } => *precision,
            Self::RpForest { .. } => RowPrecision::F32,
        }
    }

    /// Short backend label (`exact` / `forest` / `ivf`) for tables and
    /// logs.
    pub fn backend_name(&self) -> &'static str {
        match self {
            Self::Exact { .. } => "exact",
            Self::RpForest { .. } => "forest",
            Self::Ivf { .. } => "ivf",
        }
    }

    /// Mix `seed` into the backend's own build seed (exact has none),
    /// so one pipeline seed reproducibly perturbs every artifact.
    pub fn reseeded(mut self, seed: u64) -> Self {
        match &mut self {
            Self::Exact { .. } => {}
            Self::RpForest { config, .. } => config.seed ^= seed,
            Self::Ivf { config, .. } => config.seed ^= seed,
        }
        self
    }

    /// Parse a backend name as produced by [`Self::backend_name`]
    /// (`exact` / `forest` / `ivf`, case-insensitive), with default
    /// knobs and no sharding. `None` for anything else.
    pub fn from_backend_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "exact" => Some(Self::exact()),
            "forest" | "rpforest" | "annoy" => Some(Self::forest(RpForestConfig::default())),
            "ivf" => Some(Self::ivf(IvfConfig::default())),
            _ => None,
        }
    }

    /// Build the configured store over a row-major buffer.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim`.
    pub fn build(&self, dim: usize, data: Vec<f32>) -> AnyStore {
        let shards = self.shards();
        match self {
            Self::Exact {
                precision,
                rerank_factor,
                ..
            } => {
                if shards <= 1 {
                    AnyStore::Exact(
                        ExactStore::with_precision(dim, data, *precision)
                            .with_rerank_factor(*rerank_factor),
                    )
                } else {
                    AnyStore::ShardedExact(ShardedStore::build(dim, data, shards, |d, buf| {
                        ExactStore::with_precision(d, buf, *precision)
                            .with_rerank_factor(*rerank_factor)
                    }))
                }
            }
            Self::RpForest { config, .. } => {
                if shards <= 1 {
                    AnyStore::Forest(RpForest::build(dim, data, config.clone()))
                } else {
                    AnyStore::ShardedForest(ShardedStore::build(dim, data, shards, |d, buf| {
                        RpForest::build(d, buf, config.clone())
                    }))
                }
            }
            Self::Ivf {
                config,
                precision,
                rerank_factor,
                ..
            } => {
                if shards <= 1 {
                    AnyStore::Ivf(
                        IvfStore::build_with_precision(dim, data, config.clone(), *precision)
                            .with_rerank_factor(*rerank_factor),
                    )
                } else {
                    AnyStore::ShardedIvf(ShardedStore::build(dim, data, shards, |d, buf| {
                        IvfStore::build_with_precision(d, buf, config.clone(), *precision)
                            .with_rerank_factor(*rerank_factor)
                    }))
                }
            }
        }
    }
}

/// A concrete store built from a [`StoreConfig`] — an enum (rather than
/// a boxed trait object) so index structs holding it stay `Clone` and
/// `Debug`, with static dispatch on the hot path.
#[derive(Clone, Debug)]
pub enum AnyStore {
    /// Unsharded exact scan.
    Exact(ExactStore),
    /// Unsharded RP forest.
    Forest(RpForest),
    /// Unsharded IVF.
    Ivf(IvfStore),
    /// Sharded exact scan.
    ShardedExact(ShardedStore<ExactStore>),
    /// Sharded RP forest.
    ShardedForest(ShardedStore<RpForest>),
    /// Sharded IVF.
    ShardedIvf(ShardedStore<IvfStore>),
}

macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnyStore::Exact($s) => $body,
            AnyStore::Forest($s) => $body,
            AnyStore::Ivf($s) => $body,
            AnyStore::ShardedExact($s) => $body,
            AnyStore::ShardedForest($s) => $body,
            AnyStore::ShardedIvf($s) => $body,
        }
    };
}

impl VectorStore for AnyStore {
    fn len(&self) -> usize {
        dispatch!(self, s => s.len())
    }

    fn dim(&self) -> usize {
        dispatch!(self, s => s.dim())
    }

    fn top_k_filtered(&self, query: &[f32], k: usize, keep: &KeepFn) -> Vec<Hit> {
        dispatch!(self, s => s.top_k_filtered(query, k, keep))
    }

    fn top_k_budgeted(&self, query: &[f32], k: usize, budget: usize, keep: &KeepFn) -> Vec<Hit> {
        dispatch!(self, s => s.top_k_budgeted(query, k, budget, keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seesaw_linalg::random_unit_vector;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            data.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        data
    }

    type VariantCheck = fn(&AnyStore) -> bool;

    #[test]
    fn build_dispatches_to_the_right_variant() {
        let dim = 8;
        let data = random_data(60, dim, 1);
        let cases: Vec<(StoreConfig, VariantCheck)> = vec![
            (StoreConfig::exact(), |s| matches!(s, AnyStore::Exact(_))),
            (StoreConfig::exact().with_shards(3), |s| {
                matches!(s, AnyStore::ShardedExact(_))
            }),
            (StoreConfig::default(), |s| matches!(s, AnyStore::Forest(_))),
            (StoreConfig::default().with_shards(2), |s| {
                matches!(s, AnyStore::ShardedForest(_))
            }),
            (StoreConfig::ivf(IvfConfig::default()), |s| {
                matches!(s, AnyStore::Ivf(_))
            }),
            (StoreConfig::ivf(IvfConfig::default()).with_shards(2), |s| {
                matches!(s, AnyStore::ShardedIvf(_))
            }),
        ];
        for (cfg, check) in cases {
            let store = cfg.build(dim, data.clone());
            assert!(check(&store), "{cfg:?} built the wrong variant");
            assert_eq!(store.len(), 60);
            assert_eq!(store.dim(), dim);
            // Self-query sanity through the common interface.
            let hits = store.top_k(&data[..dim], 3);
            assert_eq!(hits[0].id, 0, "{cfg:?}");
        }
    }

    #[test]
    fn one_shard_builds_the_plain_store() {
        let store = StoreConfig::exact().with_shards(1).build(4, vec![1.0; 8]);
        assert!(matches!(store, AnyStore::Exact(_)));
    }

    #[test]
    fn precision_plumbs_through_to_the_built_store() {
        let dim = 6;
        let data = random_data(40, dim, 9);
        assert_eq!(StoreConfig::exact().precision(), RowPrecision::F32);
        // Forest ignores precision (keeps its own f32 layout).
        assert_eq!(
            StoreConfig::default()
                .with_precision(RowPrecision::F16)
                .precision(),
            RowPrecision::F32
        );
        let cfg = StoreConfig::exact().with_precision(RowPrecision::F16);
        assert_eq!(cfg.precision(), RowPrecision::F16);
        let AnyStore::Exact(s) = cfg.build(dim, data.clone()) else {
            panic!("variant changed");
        };
        assert_eq!(s.precision(), RowPrecision::F16);
        let ivf_cfg = StoreConfig::ivf(IvfConfig::default()).with_precision(RowPrecision::F16);
        let AnyStore::Ivf(s) = ivf_cfg.build(dim, data.clone()) else {
            panic!("variant changed");
        };
        assert_eq!(s.precision(), RowPrecision::F16);
        // Sharded builds hand the precision to every shard, and the
        // f16 scan still finds the self-match on unit vectors.
        let sharded = StoreConfig::exact()
            .with_precision(RowPrecision::F16)
            .with_shards(3)
            .build(dim, data.clone());
        assert!(matches!(sharded, AnyStore::ShardedExact(_)));
        let hits = sharded.top_k(&data[..dim], 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn reseeded_perturbs_backend_seeds_only() {
        let base = StoreConfig::forest(RpForestConfig::default());
        let StoreConfig::RpForest { config, .. } = base.clone().reseeded(42) else {
            panic!("variant changed");
        };
        assert_eq!(config.seed, RpForestConfig::default().seed ^ 42);
        // Exact has no seed; reseeding must be a no-op, not a panic.
        let _ = StoreConfig::exact().reseeded(42);
    }

    #[test]
    fn backend_names_round_trip() {
        for cfg in [
            StoreConfig::exact(),
            StoreConfig::default(),
            StoreConfig::ivf(IvfConfig::default()),
        ] {
            let parsed = StoreConfig::from_backend_name(cfg.backend_name()).unwrap();
            assert_eq!(parsed.backend_name(), cfg.backend_name());
        }
        assert!(StoreConfig::from_backend_name("flann").is_none());
    }
}
