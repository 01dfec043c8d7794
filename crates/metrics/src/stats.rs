//! Summary statistics: means, quantiles, CDFs, and bootstrap confidence
//! intervals (used by Figs. 1, 5, 6 and the tables).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Linear-interpolation quantile, `q ∈ [0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (the 0.5 quantile).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Fraction of values strictly below `threshold` — the Fig. 1 hard-query
/// fraction uses `AP < .5`.
pub fn fraction_below(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v < threshold).count() as f64 / values.len() as f64
}

/// Indices of the hard subset: queries whose *zero-shot* AP is below .5
/// (the Fig. 1 / Table 2 definition).
pub fn hard_subset(zero_shot_aps: &[f64]) -> Vec<usize> {
    zero_shot_aps
        .iter()
        .enumerate()
        .filter(|(_, &ap)| ap < 0.5)
        .map(|(i, _)| i)
        .collect()
}

/// Project `aps` onto the hard subset.
pub fn select_hard(aps: &[f64], hard: &[usize]) -> Vec<f64> {
    hard.iter().map(|&i| aps[i]).collect()
}

/// Empirical CDF sampled at `n_points` evenly spaced x positions between
/// `lo` and `hi`; returns `(x, F(x))` pairs.
pub fn cdf_points(values: &[f64], lo: f64, hi: f64, n_points: usize) -> Vec<(f64, f64)> {
    assert!(n_points >= 2, "need at least two CDF points");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    (0..n_points)
        .map(|i| {
            let x = lo + (hi - lo) * i as f64 / (n_points - 1) as f64;
            let count = sorted.partition_point(|&v| v <= x);
            let f = if sorted.is_empty() {
                0.0
            } else {
                count as f64 / sorted.len() as f64
            };
            (x, f)
        })
        .collect()
}

/// Bootstrap percentile confidence interval for the mean:
/// `(lo, mean, hi)` at the given confidence level (e.g. 0.95 — the
/// Fig. 6 error bars).
pub fn bootstrap_mean_ci(
    values: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> (f64, f64, f64) {
    let m = mean(values);
    if values.len() < 2 {
        return (m, m, m);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples.max(1) {
        let s: f64 = (0..values.len())
            .map(|_| values[rng.gen_range(0..values.len())])
            .sum();
        means.push(s / values.len() as f64);
    }
    let alpha = (1.0 - confidence.clamp(0.0, 1.0)) / 2.0;
    (quantile(&means, alpha), m, quantile(&means, 1.0 - alpha))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.25), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fraction_below_matches_figure1_semantics() {
        let aps = [0.1, 0.4, 0.5, 0.9, 1.0];
        // Strictly below .5 → 2 of 5.
        assert_eq!(fraction_below(&aps, 0.5), 0.4);
        assert_eq!(fraction_below(&[], 0.5), 0.0);
    }

    #[test]
    fn hard_subset_selects_below_half() {
        let aps = [0.9, 0.2, 0.5, 0.49];
        assert_eq!(hard_subset(&aps), vec![1, 3]);
        assert_eq!(select_hard(&[1.0, 2.0, 3.0, 4.0], &[1, 3]), vec![2.0, 4.0]);
    }

    #[test]
    fn cdf_is_monotone_and_hits_bounds() {
        let vals = [0.2, 0.4, 0.4, 0.9];
        let cdf = cdf_points(&vals, 0.0, 1.0, 11);
        assert_eq!(cdf.first().unwrap().1, 0.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        // F(0.4) counts both 0.2 and the two 0.4s.
        let at_04 = cdf.iter().find(|(x, _)| (*x - 0.4).abs() < 1e-9).unwrap();
        assert!((at_04.1 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn bootstrap_ci_brackets_mean() {
        let vals: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let (lo, m, hi) = bootstrap_mean_ci(&vals, 0.95, 500, 7);
        assert!(lo <= m && m <= hi);
        assert!(hi - lo < 2.0, "CI too wide: [{lo}, {hi}]");
    }

    #[test]
    fn bootstrap_degenerate_inputs() {
        assert_eq!(bootstrap_mean_ci(&[], 0.95, 100, 1), (0.0, 0.0, 0.0));
        assert_eq!(bootstrap_mean_ci(&[3.0], 0.95, 100, 1), (3.0, 3.0, 3.0));
    }

    #[test]
    fn bootstrap_is_deterministic() {
        let vals = [1.0, 5.0, 2.0, 8.0, 3.0];
        assert_eq!(
            bootstrap_mean_ci(&vals, 0.9, 200, 42),
            bootstrap_mean_ci(&vals, 0.9, 200, 42)
        );
    }
}
