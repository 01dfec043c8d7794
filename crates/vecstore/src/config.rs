//! Backend selection as data: [`StoreConfig`] names a backend and its
//! build knobs, [`StoreConfig::build`] materializes it as an
//! [`AnyStore`]. The engine's preprocessing pipeline and the bench
//! harnesses thread a `StoreConfig` through instead of hardcoding one
//! concrete store type.

use crate::{
    ExactStore, Hit, IvfConfig, IvfStore, KeepFn, RowPrecision, RpForest, RpForestConfig,
    VectorStore,
};

/// Which vector-store backend to build. The dense-row backends (exact
/// and IVF) additionally carry a [`RowPrecision`] selecting the row
/// storage tier; the RP forest keeps its own f32 layout.
#[derive(Clone, Debug)]
pub enum StoreConfig {
    /// Brute-force scan — the accuracy reference.
    Exact {
        /// Row storage precision (`f32` default).
        precision: RowPrecision,
    },
    /// Annoy-style random-projection forest (the paper's store).
    RpForest {
        /// Forest build parameters.
        config: RpForestConfig,
    },
    /// Inverted-file index with a k-means coarse quantizer.
    Ivf {
        /// IVF build parameters.
        config: IvfConfig,
        /// Row storage precision (`f32` default).
        precision: RowPrecision,
    },
}

impl Default for StoreConfig {
    /// The paper's choice: an RP forest with default knobs.
    fn default() -> Self {
        Self::forest(RpForestConfig::default())
    }
}

impl StoreConfig {
    /// Exact scan with `f32` rows.
    pub fn exact() -> Self {
        Self::Exact {
            precision: RowPrecision::F32,
        }
    }

    /// RP forest.
    pub fn forest(config: RpForestConfig) -> Self {
        Self::RpForest { config }
    }

    /// IVF with `f32` rows.
    pub fn ivf(config: IvfConfig) -> Self {
        Self::Ivf {
            config,
            precision: RowPrecision::F32,
        }
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
    /// knobs. `None` for anything else.
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
        match self {
            Self::Exact { precision } => {
                AnyStore::Exact(ExactStore::with_precision(dim, data, *precision))
            }
            Self::RpForest { config } => {
                AnyStore::Forest(RpForest::build(dim, data, config.clone()))
            }
            Self::Ivf { config, precision } => AnyStore::Ivf(IvfStore::build_with_precision(
                dim,
                data,
                config.clone(),
                *precision,
            )),
        }
    }
}

/// A concrete store built from a [`StoreConfig`] — an enum (rather than
/// a boxed trait object) so index structs holding it stay `Clone` and
/// `Debug`, with static dispatch on the hot path.
#[derive(Clone, Debug)]
pub enum AnyStore {
    /// Exact scan.
    Exact(ExactStore),
    /// RP forest.
    Forest(RpForest),
    /// IVF.
    Ivf(IvfStore),
}

impl AnyStore {
    /// Borrow the exact `f32` rows the store keeps, row-major in id
    /// order: the forest's raw data, or the dense backends'
    /// [`crate::RowStorage::exact_rows`] (`None` for f16 rows).
    pub fn exact_rows(&self) -> Option<&[f32]> {
        match self {
            AnyStore::Exact(s) => s.rows().exact_rows(),
            AnyStore::Forest(s) => Some(s.raw_data()),
            AnyStore::Ivf(s) => s.rows().exact_rows(),
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnyStore::Exact($s) => $body,
            AnyStore::Forest($s) => $body,
            AnyStore::Ivf($s) => $body,
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
            (StoreConfig::default(), |s| matches!(s, AnyStore::Forest(_))),
            (StoreConfig::ivf(IvfConfig::default()), |s| {
                matches!(s, AnyStore::Ivf(_))
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
