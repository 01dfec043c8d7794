//! Per-query ΔAP summaries: the numbers behind the Fig. 5 panels.

/// Summary of a ΔAP population (the Fig. 5 panels in numbers).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaSummary {
    /// Minimum change.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median change.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum change.
    pub max: f64,
    /// Fraction of queries with ΔAP ≥ 0.
    pub improved_or_equal: f64,
}

impl DeltaSummary {
    /// Summarize a set of per-query deltas; `None` when empty.
    pub fn from_deltas(deltas: &[f64]) -> Option<Self> {
        if deltas.is_empty() {
            return None;
        }
        let q = |p: f64| crate::stats::quantile(deltas, p);
        Some(Self {
            min: q(0.0),
            p10: q(0.1),
            median: q(0.5),
            p90: q(0.9),
            max: q(1.0),
            improved_or_equal: deltas.iter().filter(|&&d| d >= -1e-12).count() as f64
                / deltas.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_summary_statistics() {
        let s = DeltaSummary::from_deltas(&[-0.1, 0.0, 0.2, 0.5]).unwrap();
        assert_eq!(s.min, -0.1);
        assert_eq!(s.max, 0.5);
        assert_eq!(s.improved_or_equal, 0.75);
        assert!(DeltaSummary::from_deltas(&[]).is_none());
    }
}
