//! Recall measurement of an approximate store against the exact scan.

use crate::VectorStore;

/// Mean recall@k of `approx` against `exact` over the given queries:
/// the fraction of each exact top-k that the approximate store returns.
///
/// # Panics
/// Panics when `k == 0` or the stores disagree on dimension.
pub fn recall_at_k(
    exact: &dyn VectorStore,
    approx: &dyn VectorStore,
    queries: &[Vec<f32>],
    k: usize,
) -> f64 {
    assert!(k > 0, "recall@0 is undefined");
    assert_eq!(exact.dim(), approx.dim(), "store dimension mismatch");
    if queries.is_empty() {
        return 1.0;
    }
    let mut found = 0usize;
    let mut total = 0usize;
    for q in queries {
        // The reference scans at full budget (exhaustive on every
        // backend); the approximate store keeps its per-query default
        // knobs — that is the thing being measured.
        let truth = exact.top_k_budgeted(q, k, usize::MAX, &|_| true);
        let got = approx.top_k(q, k);
        total += truth.len();
        for t in &truth {
            if got.iter().any(|h| h.id == t.id) {
                found += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        found as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactStore;

    #[test]
    fn identical_stores_have_recall_one() {
        let data = vec![1.0f32, 0.0, 0.0, 1.0, 0.5, 0.5];
        let a = ExactStore::new(2, data.clone());
        let b = ExactStore::new(2, data);
        let queries = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(recall_at_k(&a, &b, &queries, 2), 1.0);
    }

    #[test]
    fn empty_queries_are_perfect() {
        let a = ExactStore::new(2, vec![1.0, 0.0]);
        let b = ExactStore::new(2, vec![1.0, 0.0]);
        assert_eq!(recall_at_k(&a, &b, &[], 3), 1.0);
    }
}
