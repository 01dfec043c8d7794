//! Property-based tests for the baseline algorithms.

#![cfg(test)]

use crate::ens::EnsSearcher;
use crate::rocchio::Rocchio;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seesaw_knn::KnnGraph;
use seesaw_linalg::{l2_norm, random_unit_vector};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rocchio_matches_closed_form_for_any_feedback(
        seed in 0u64..2000,
        n_pos in 0usize..5,
        n_neg in 0usize..5,
    ) {
        // The paper's weights, β = .5 and γ = .25.
        let (beta, gamma) = (0.5f32, 0.25f32);
        let dim = 8;
        let mut rng = StdRng::seed_from_u64(seed);
        let q0 = random_unit_vector(&mut rng, dim);
        let mut r = Rocchio::new(&q0);
        let pos: Vec<Vec<f32>> = (0..n_pos).map(|_| random_unit_vector(&mut rng, dim)).collect();
        let neg: Vec<Vec<f32>> = (0..n_neg).map(|_| random_unit_vector(&mut rng, dim)).collect();
        for p in &pos {
            r.add_feedback(p, true);
        }
        for n in &neg {
            r.add_feedback(n, false);
        }
        // Closed form.
        let mut expect: Vec<f32> = q0.clone();
        if n_pos > 0 {
            for p in &pos {
                for (e, v) in expect.iter_mut().zip(p.iter()) {
                    *e += beta * v / n_pos as f32;
                }
            }
        }
        if n_neg > 0 {
            for n in &neg {
                for (e, v) in expect.iter_mut().zip(n.iter()) {
                    *e -= gamma * v / n_neg as f32;
                }
            }
        }
        seesaw_linalg::normalize(&mut expect);
        let got = r.query();
        if expect.iter().any(|&v| v != 0.0) {
            for (g, e) in got.iter().zip(expect.iter()) {
                prop_assert!((g - e).abs() < 1e-4, "{got:?} vs {expect:?}");
            }
        }
        prop_assert!((l2_norm(&got) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn ens_posteriors_stay_in_unit_interval_under_any_observations(
        seed in 0u64..500,
        observations in proptest::collection::vec((0u32..30, any::<bool>()), 0..20),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 4;
        let mut data = Vec::new();
        for _ in 0..30 {
            data.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        let graph = KnnGraph::brute_force(dim, &data, 4);
        let priors: Vec<f32> = (0..30).map(|i| (i as f32) / 30.0).collect();
        let mut s = EnsSearcher::new(&graph, priors, 20);
        for (i, y) in observations {
            if !s.is_labeled(i) {
                s.observe(i, y);
            }
        }
        for i in 0..30u32 {
            let p = s.posterior(i);
            prop_assert!((0.0..=1.0).contains(&p), "posterior {p}");
        }
        // select_next_excluding (if anything is unlabeled) returns an unlabeled id.
        if let Some(pick) = s.select_next_excluding(|_| false) {
            prop_assert!(!s.is_labeled(pick));
        }
    }

    #[test]
    fn ens_all_positive_priors_rank_above_all_negative(
        seed in 0u64..200,
    ) {
        // With horizon 1 (pure greedy) the pick must be the max prior.
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 4;
        let mut data = Vec::new();
        for _ in 0..20 {
            data.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        let graph = KnnGraph::brute_force(dim, &data, 3);
        let mut priors = vec![0.1f32; 20];
        priors[7] = 0.9;
        let s = EnsSearcher::new(&graph, priors, 1);
        prop_assert_eq!(s.select_next_excluding(|_| false), Some(7));
    }
}
