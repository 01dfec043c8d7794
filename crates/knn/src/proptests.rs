//! Property-based tests for the graph pipeline.

#![cfg(test)]

use crate::graph::KnnGraph;
use crate::labelprop::propagate_labels;
use crate::weights::{gaussian_adjacency, laplacian, max_asymmetry, quadratic_form};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seesaw_linalg::random_unit_vector;

fn random_flat(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * dim);
    for _ in 0..n {
        out.extend_from_slice(&random_unit_vector(&mut rng, dim));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adjacency_is_symmetric_and_laplacian_rows_vanish(
        n in 6usize..60,
        seed in 0u64..500,
        k in 1usize..5,
    ) {
        prop_assume!(k < n);
        let data = random_flat(n, 6, seed);
        let g = KnnGraph::brute_force(6, &data, k);
        let w = gaussian_adjacency(&g);
        prop_assert!(max_asymmetry(&w) < 1e-5);
        let l = laplacian(&w);
        for row_sum in l.row_sums() {
            prop_assert!(row_sum.abs() < 1e-4, "laplacian row sum {row_sum}");
        }
    }

    #[test]
    fn laplacian_quadratic_form_is_nonnegative(
        n in 6usize..40,
        seed in 0u64..300,
        probe_seed in 0u64..100,
    ) {
        let data = random_flat(n, 5, seed);
        let g = KnnGraph::brute_force(5, &data, 3.min(n - 1));
        let w = gaussian_adjacency(&g);
        let l = laplacian(&w);
        let mut rng = StdRng::seed_from_u64(probe_seed);
        let y: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        prop_assert!(quadratic_form(&l, &y) >= -1e-3);
    }

    #[test]
    fn label_propagation_stays_in_label_hull(
        n in 8usize..50,
        seed in 0u64..300,
        lo in 0.0f32..0.4,
        hi in 0.6f32..1.0,
    ) {
        // With clamped labels in [lo, hi] and unlabeled nodes starting at
        // 0, every propagated value stays inside [min(0, lo), hi] = [0, hi]
        // — averaging cannot extrapolate.
        let data = random_flat(n, 4, seed);
        let g = KnnGraph::brute_force(4, &data, 3.min(n - 1));
        let w = gaussian_adjacency(&g);
        let labels = vec![(0u32, hi), (1u32, lo)];
        let y = propagate_labels(&w, &labels);
        for v in y {
            prop_assert!((-1e-5..=hi + 1e-5).contains(&v), "{v} outside [0, {hi}]");
        }
    }

    #[test]
    fn nn_descent_recall_is_reasonable_on_random_data(
        seed in 0u64..50,
    ) {
        // Uniform random data is NN-descent's worst case; recall should
        // still be non-trivial at moderate n.
        let data = random_flat(700, 8, seed);
        let approx = KnnGraph::nn_descent(8, &data, 6);
        let exact = KnnGraph::brute_force(8, &data, 6);
        let recall = approx.edge_recall_against(&exact);
        prop_assert!(recall > 0.5, "recall {recall}");
    }
}
