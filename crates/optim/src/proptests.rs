//! Property-based tests of the solvers.

#![cfg(test)]

use crate::lbfgs::{Lbfgs, LbfgsConfig};
use crate::platt::PlattScaler;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lbfgs_solves_random_convex_quadratics(
        curvatures in proptest::collection::vec(0.1f64..50.0, 1..8),
        targets in proptest::collection::vec(-5.0f64..5.0, 8),
        starts in proptest::collection::vec(-5.0f64..5.0, 8),
    ) {
        let n = curvatures.len();
        let t = &targets[..n];
        let c = &curvatures[..n];
        let f = |x: &[f64], g: &mut [f64]| -> f64 {
            let mut v = 0.0;
            for i in 0..x.len() {
                let d = x[i] - t[i];
                v += c[i] * d * d;
                g[i] = 2.0 * c[i] * d;
            }
            v
        };
        let mut x = starts[..n].to_vec();
        let out = Lbfgs::new(LbfgsConfig { max_iters: 300, ..Default::default() }).minimize(&f, &mut x);
        prop_assert!(out.converged, "{out:?}");
        for (xi, ti) in x.iter().zip(t.iter()) {
            prop_assert!((xi - ti).abs() < 1e-3, "{x:?} vs {t:?}");
        }
    }

    #[test]
    fn lbfgs_never_returns_worse_than_start(
        seed_coords in proptest::collection::vec(-3.0f64..3.0, 4),
        shift in -2.0f64..2.0,
    ) {
        // A non-convex but smooth function: sum of cos + quadratic bowl.
        let f = move |x: &[f64], g: &mut [f64]| -> f64 {
            let mut v = 0.0;
            for i in 0..x.len() {
                v += (x[i] - shift).powi(2) + 0.5 * x[i].cos();
                g[i] = 2.0 * (x[i] - shift) - 0.5 * x[i].sin();
            }
            v
        };
        let mut scratch = vec![0.0; seed_coords.len()];
        let start_val = f(&seed_coords, &mut scratch);
        let mut x = seed_coords.clone();
        let out = Lbfgs::default().minimize(&f, &mut x);
        prop_assert!(out.value <= start_val + 1e-9, "{} > {start_val}", out.value);
    }

    #[test]
    fn platt_outputs_are_probabilities_and_monotone_when_slope_positive(
        scores in proptest::collection::vec(-5.0f32..5.0, 8..40),
    ) {
        // Label = score > median: a monotone ground truth.
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let labels: Vec<bool> = scores.iter().map(|&s| s > median).collect();
        prop_assume!(labels.iter().any(|&l| l) && labels.iter().any(|&l| !l));
        if let Some(p) = PlattScaler::fit(&scores, &labels) {
            for &s in &scores {
                let v = p.calibrate(s);
                prop_assert!((0.0..=1.0).contains(&v));
            }
            prop_assert!(p.a > 0.0, "slope {}", p.a);
            prop_assert!(p.calibrate(5.0) >= p.calibrate(-5.0));
        }
    }
}
