//! Property-based tests for the metrics.

#![cfg(test)]

use crate::ap::{average_precision, ranking_average_precision, BenchmarkProtocol, SearchTrace};
use crate::stats::{fraction_below, mean, quantile};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ranking_ap_bounds_and_perfection(rel in proptest::collection::vec(any::<bool>(), 0..60)) {
        let ap = ranking_average_precision(&rel);
        prop_assert!((0.0..=1.0).contains(&ap));
        // Sorting all positives to the front yields AP 1 (if any).
        let n_pos = rel.iter().filter(|&&r| r).count();
        if n_pos > 0 {
            let mut sorted = vec![true; n_pos];
            sorted.extend(vec![false; rel.len() - n_pos]);
            prop_assert!((ranking_average_precision(&sorted) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn benchmark_ap_never_exceeds_ranking_ap_on_full_finds(
        rel in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        // With R = total relevant and no truncation effects, the two
        // metrics agree on traces with ≤10 positives found early.
        let n_pos = rel.iter().filter(|&&r| r).count();
        prop_assume!(n_pos > 0 && n_pos <= 10);
        let proto = BenchmarkProtocol { target_results: 10, image_budget: rel.len() };
        let bench = average_precision(&SearchTrace::new(rel.clone()), n_pos, &proto);
        let rank = ranking_average_precision(&rel);
        prop_assert!((bench - rank).abs() < 1e-9, "{bench} vs {rank}");
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        vals in proptest::collection::vec(-100.0f64..100.0, 1..40),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(quantile(&vals, lo) <= quantile(&vals, hi) + 1e-12);
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(quantile(&vals, 0.0) >= min - 1e-12);
        prop_assert!(quantile(&vals, 1.0) <= max + 1e-12);
        prop_assert!(mean(&vals) >= min - 1e-9 && mean(&vals) <= max + 1e-9);
    }

    #[test]
    fn fraction_below_is_a_cdf(vals in proptest::collection::vec(0.0f64..1.0, 0..30)) {
        prop_assert!(fraction_below(&vals, 0.0) == 0.0);
        let f_half = fraction_below(&vals, 0.5);
        let f_one = fraction_below(&vals, 1.01);
        prop_assert!(f_half <= f_one);
        if !vals.is_empty() {
            prop_assert!((f_one - 1.0).abs() < 1e-12);
        }
    }
}
