//! Property-based tests: every backend's contract against the exact
//! scan for arbitrary data, through one generic harness.

#![cfg(test)]

use crate::{
    ExactStore, IvfConfig, IvfStore, RowPrecision, RpForest, RpForestConfig, StoreConfig,
    VectorStore,
};
use proptest::prelude::*;

fn flat_unit_vectors(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * dim);
    for _ in 0..n {
        out.extend_from_slice(&seesaw_linalg::random_unit_vector(&mut rng, dim));
    }
    out
}

/// Every backend and precision built over the same buffer, labeled
/// for assertion messages.
fn all_backends(dim: usize, data: &[f32]) -> Vec<(&'static str, Box<dyn VectorStore>)> {
    vec![
        (
            "exact",
            Box::new(ExactStore::new(dim, data.to_vec())) as Box<dyn VectorStore>,
        ),
        (
            "forest",
            Box::new(RpForest::build(
                dim,
                data.to_vec(),
                RpForestConfig::default(),
            )),
        ),
        (
            "ivf",
            Box::new(IvfStore::build(dim, data.to_vec(), IvfConfig::default())),
        ),
        (
            "exact-f16",
            Box::new(ExactStore::with_precision(
                dim,
                data.to_vec(),
                RowPrecision::F16,
            )),
        ),
        (
            "ivf-f16",
            Box::new(IvfStore::build_with_precision(
                dim,
                data.to_vec(),
                IvfConfig::default(),
                RowPrecision::F16,
            )),
        ),
        (
            "exact-sq8",
            Box::new(ExactStore::with_precision(
                dim,
                data.to_vec(),
                RowPrecision::Sq8,
            )),
        ),
        (
            "ivf-sq8",
            Box::new(IvfStore::build_with_precision(
                dim,
                data.to_vec(),
                IvfConfig::default(),
                RowPrecision::Sq8,
            )),
        ),
        (
            "exact-pq",
            Box::new(ExactStore::with_precision(
                dim,
                data.to_vec(),
                RowPrecision::Pq { m: 4, nbits: 8 },
            )),
        ),
        (
            "ivf-pq",
            Box::new(IvfStore::build_with_precision(
                dim,
                data.to_vec(),
                IvfConfig::default(),
                RowPrecision::Pq { m: 4, nbits: 8 },
            )),
        ),
    ]
}

/// Score tolerance against the full-precision inner product: f16 rows
/// round once at encode time (≤ 2⁻¹¹ relative per element); f32 rows
/// are exact; sq8 and pq *final* scores are exact too — quantized
/// scores only rank the rerank pool, and re-ranking re-scores against
/// the f32 source rows.
fn score_tolerance(name: &str) -> f32 {
    if name.ends_with("f16") {
        4e-3
    } else {
        1e-5
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shared contract, all backends: results are sorted and unique,
    /// scores are true inner products, the filter never leaks, and
    /// `k ≥ len` returns exactly `len` hits.
    #[test]
    fn backend_contract_holds(
        n in 10usize..150,
        seed in 0u64..400,
        k in 1usize..12,
        modulus in 2u32..5,
    ) {
        let dim = 8;
        let data = flat_unit_vectors(n, dim, seed);
        let q = &data[..dim]; // first vector as the query
        for (name, store) in all_backends(dim, &data) {
            prop_assert_eq!(store.len(), n, "{}", name);
            prop_assert_eq!(store.dim(), dim, "{}", name);

            let hits = store.top_k(q, k);
            prop_assert!(hits.len() <= k, "{}", name);
            for w in hits.windows(2) {
                prop_assert!(
                    w[0].score > w[1].score || (w[0].score == w[1].score && w[0].id < w[1].id),
                    "{}: unsorted or duplicate", name
                );
            }
            for h in &hits {
                let v = &data[h.id as usize * dim..(h.id as usize + 1) * dim];
                let true_score = seesaw_linalg::dot(q, v);
                prop_assert!(
                    (h.score - true_score).abs() < score_tolerance(name),
                    "{}", name
                );
            }
            // Self-query must return itself first.
            prop_assert_eq!(hits[0].id, 0, "{}", name);

            // The filter never leaks an excluded id.
            let filtered = store.top_k_filtered(q, k, &|id| id % modulus == 0);
            prop_assert!(
                filtered.iter().all(|h| h.id % modulus == 0),
                "{}: filter leaked", name
            );

            // k ≥ len returns exactly len hits.
            let all = store.top_k(q, n + k);
            prop_assert_eq!(all.len(), n, "{}: k>len must return len hits", name);
        }
    }

    /// Full-budget queries through `StoreConfig`-built stores equal the
    /// exact scan for every backend (budget ≥ n makes all exhaustive).
    #[test]
    fn full_budget_equals_exact_for_every_backend(
        n in 5usize..100,
        seed in 800u64..1100,
    ) {
        let dim = 8;
        let data = flat_unit_vectors(n, dim, seed);
        let exact = ExactStore::new(dim, data.clone());
        let q = &data[(n - 1) * dim..];
        let truth: Vec<u32> = exact.top_k(q, 5).iter().map(|h| h.id).collect();
        for cfg in [
            StoreConfig::exact(),
            StoreConfig::default(),
            StoreConfig::ivf(IvfConfig::default()),
        ] {
            let store = cfg.build(dim, data.clone());
            let got: Vec<u32> = store
                .top_k_budgeted(q, 5, n, &|_| true)
                .iter()
                .map(|h| h.id)
                .collect();
            prop_assert_eq!(&truth, &got, "{:?}", cfg);
        }
    }
}
