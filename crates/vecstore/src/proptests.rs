//! Property-based tests: every backend's contract against the exact
//! scan for arbitrary data, through one generic harness.

#![cfg(test)]

use crate::{
    merge_hits, ExactStore, Hit, IvfConfig, IvfStore, RowPrecision, RpForest, RpForestConfig,
    ShardedStore, StoreConfig, VectorStore,
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

/// Every backend (sharded and not) built over the same buffer, labeled
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
            "sharded-exact",
            Box::new(ShardedStore::build(dim, data.to_vec(), 3, ExactStore::new)),
        ),
        (
            "sharded-forest",
            Box::new(ShardedStore::build(dim, data.to_vec(), 2, |d, buf| {
                RpForest::build(d, buf, RpForestConfig::default())
            })),
        ),
        (
            "sharded-ivf",
            Box::new(ShardedStore::build(dim, data.to_vec(), 2, |d, buf| {
                IvfStore::build(d, buf, IvfConfig::default())
            })),
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
            "sharded-exact-f16",
            Box::new(ShardedStore::build(dim, data.to_vec(), 3, |d, buf| {
                ExactStore::with_precision(d, buf, RowPrecision::F16)
            })),
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
            "sharded-exact-sq8",
            Box::new(ShardedStore::build(dim, data.to_vec(), 3, |d, buf| {
                ExactStore::with_precision(d, buf, RowPrecision::Sq8)
            })),
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
        (
            "sharded-exact-pq",
            Box::new(ShardedStore::build(dim, data.to_vec(), 3, |d, buf| {
                ExactStore::with_precision(d, buf, RowPrecision::Pq { m: 4, nbits: 8 })
            })),
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

    /// The k-way merge is invariant to how rows are assigned to shards:
    /// any partition of the data produces output bit-identical to the
    /// unsharded exact scan.
    #[test]
    fn merge_is_order_invariant_over_shard_assignment(
        n in 5usize..120,
        seed in 400u64..800,
        n_shards in 1usize..6,
        k in 1usize..10,
    ) {
        let dim = 8;
        let data = flat_unit_vectors(n, dim, seed);
        let exact = ExactStore::new(dim, data.clone());
        let q = &data[(n - 1) * dim..]; // last vector as the query
        let truth = exact.top_k(q, k);

        // A pseudo-random (but arbitrary) row→shard assignment.
        let assignment: Vec<usize> = (0..n)
            .map(|row| (row.wrapping_mul(2654435761).wrapping_add(seed as usize)) % n_shards)
            .collect();
        let scattered = ShardedStore::build_with_assignment(
            dim, data.clone(), &assignment, n_shards, ExactStore::new,
        );
        let contiguous = ShardedStore::build(dim, data.clone(), n_shards, ExactStore::new);
        for (label, store) in [("scattered", &scattered), ("contiguous", &contiguous)] {
            let got = store.top_k(q, k);
            prop_assert_eq!(truth.len(), got.len(), "{}", label);
            for (t, g) in truth.iter().zip(&got) {
                prop_assert_eq!(t.id, g.id, "{}", label);
                prop_assert_eq!(t.score.to_bits(), g.score.to_bits(), "{}", label);
            }
        }
    }

    /// The shard-invariance guarantee holds per precision: an f16
    /// sharded store is bit-identical to the f16 unsharded store (the
    /// per-shard encode rounds element-wise, so it cannot depend on
    /// the partition).
    #[test]
    fn sharded_f16_matches_unsharded_f16_bitwise(
        n in 5usize..100,
        seed in 1400u64..1700,
        n_shards in 2usize..5,
        k in 1usize..8,
    ) {
        let dim = 8;
        let data = flat_unit_vectors(n, dim, seed);
        let truth = ExactStore::with_precision(dim, data.clone(), RowPrecision::F16).top_k(&data[..dim], k);
        let sharded = ShardedStore::build(dim, data.clone(), n_shards, |d, buf| {
            ExactStore::with_precision(d, buf, RowPrecision::F16)
        });
        let got = sharded.top_k(&data[..dim], k);
        prop_assert_eq!(truth.len(), got.len());
        for (t, g) in truth.iter().zip(&got) {
            prop_assert_eq!(t.id, g.id);
            prop_assert_eq!(t.score.to_bits(), g.score.to_bits());
        }
    }

    /// `merge_hits` itself is invariant to the order of its input parts.
    #[test]
    fn merge_ignores_part_order(
        seed in 0u64..200,
        k in 1usize..16,
    ) {
        let dim = 4;
        let n = 30;
        let data = flat_unit_vectors(n, dim, seed);
        let q = &data[..dim];
        let parts: Vec<Vec<Hit>> = (0..3)
            .map(|s| {
                let rows: Vec<f32> = (0..n)
                    .filter(|row| row % 3 == s)
                    .flat_map(|row| data[row * dim..(row + 1) * dim].to_vec())
                    .collect();
                let mut hits = ExactStore::new(dim, rows).top_k(q, k);
                for h in &mut hits {
                    h.id = h.id * 3 + s as u32; // back to global ids
                }
                hits
            })
            .collect();
        let forward = merge_hits(&parts, k);
        let reversed: Vec<Vec<Hit>> = parts.iter().rev().cloned().collect();
        let backward = merge_hits(&reversed, k);
        prop_assert_eq!(forward, backward);
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
            StoreConfig::exact().with_shards(3),
            StoreConfig::ivf(IvfConfig::default()).with_shards(2),
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
