//! Brute-force maximum-inner-product store.
//!
//! The accuracy reference for [`crate::RpForest`] and the store used in
//! small configurations — the paper reports "only a minor drop in
//! accuracy metrics in our benchmarks using Annoy vs an exact but slow
//! scan" (§2.2); our integration tests quantify the same comparison.

use crate::{Hit, KeepFn, RowPrecision, RowStorage, TopKSelector, VectorStore};

/// Rows scored per block. The kernel re-blocks internally for cache
/// residency; this only bounds the per-call score scratch.
const SCAN_BLOCK: usize = 64;

/// A dense, row-major collection of vectors scanned exhaustively.
///
/// Rows live in a [`RowStorage`] buffer at any [`RowPrecision`]. The
/// store only walks the rows in blocks; how a block scores and whether
/// the candidate pool is re-ranked exactly belong to the storage tier
/// (see the `storage` module docs).
#[derive(Clone, Debug)]
pub struct ExactStore {
    dim: usize,
    rows: RowStorage,
}

impl ExactStore {
    /// Build from a row-major buffer with `f32` row storage.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim`.
    pub fn new(dim: usize, data: Vec<f32>) -> Self {
        Self::with_precision(dim, data, RowPrecision::default())
    }

    /// Build from a row-major `f32` buffer, storing rows at the
    /// requested precision (encoding rounds once, at build time).
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim`.
    pub fn with_precision(dim: usize, data: Vec<f32>, precision: RowPrecision) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "buffer is not a multiple of dim");
        Self {
            dim,
            rows: RowStorage::encode(precision, dim, data),
        }
    }

    /// Wrap an already-encoded [`RowStorage`] buffer — the zero-copy
    /// entry point used by `crate::diskindex` to serve mmapped rows
    /// without materializing them in RAM.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim`.
    pub fn from_storage(dim: usize, rows: RowStorage) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(rows.len() % dim, 0, "buffer is not a multiple of dim");
        Self { dim, rows }
    }

    /// Borrow the underlying row storage (the persistence layer
    /// serializes it).
    pub fn rows(&self) -> &RowStorage {
        &self.rows
    }

    /// The row-storage precision.
    pub fn precision(&self) -> RowPrecision {
        self.rows.precision()
    }
}

impl VectorStore for ExactStore {
    fn len(&self) -> usize {
        self.rows.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn top_k_filtered(&self, query: &[f32], k: usize, keep: &KeepFn) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 {
            return Vec::new();
        }
        // Blocked scan: score SCAN_BLOCK rows at a time through the
        // branch-free kernel, then run bounded heap selection over the
        // score block. For the k ≪ N regime of interactive search this
        // beats both sorting the whole score vector and the historical
        // per-candidate sorted insert.
        let n = self.len();
        let scorer = self.rows.scorer(self.dim, query);
        let mut sel = TopKSelector::new(self.rows.pool_k(k));
        let mut scores = [0.0f32; SCAN_BLOCK];
        let mut id = 0u32;
        for start in (0..n).step_by(SCAN_BLOCK) {
            let end = (start + SCAN_BLOCK).min(n);
            let block = &mut scores[..end - start];
            scorer.score_range(start..end, block);
            for &score in block.iter() {
                if keep(id) {
                    sel.insert(id, score);
                }
                id += 1;
            }
        }
        self.rows.rerank(self.dim, query, k, sel.into_sorted_hits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ExactStore {
        // 4 unit-ish vectors in 2-D.
        ExactStore::new(
            2,
            vec![
                1.0, 0.0, // 0
                0.0, 1.0, // 1
                0.7, 0.7, // 2
                -1.0, 0.0, // 3
            ],
        )
    }

    #[test]
    fn top_k_orders_by_inner_product() {
        let s = store();
        let hits = s.top_k(&[1.0, 0.0], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 2);
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn filter_excludes_items() {
        let s = store();
        let hits = s.top_k_filtered(&[1.0, 0.0], 2, &|id| id != 0);
        assert_eq!(hits[0].id, 2);
    }

    #[test]
    fn k_larger_than_store_returns_all_kept() {
        let s = store();
        // Scores against [0, 1]: v0 = 0, v1 = 1, v2 = 0.7, v3 = 0.
        // Full order under desc-score/asc-id: 1, 2, then the 0-score
        // tie broken by ascending id: 0 before 3.
        let hits = s.top_k(&[0.0, 1.0], 10);
        assert_eq!(
            hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![1, 2, 0, 3]
        );
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let s = ExactStore::new(1, vec![0.5, 0.5, 0.5]);
        let hits = s.top_k(&[1.0], 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn zero_k_returns_empty() {
        assert!(store().top_k(&[1.0, 0.0], 0).is_empty());
    }

    #[test]
    fn empty_store_is_empty() {
        let s = ExactStore::new(3, vec![]);
        assert!(s.is_empty());
        assert!(s.top_k(&[1.0, 0.0, 0.0], 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn bad_buffer_panics() {
        let _ = ExactStore::new(3, vec![1.0; 7]);
    }

    #[test]
    fn blocked_scan_matches_full_sort_reference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use seesaw_linalg::{dot, random_unit_vector};

        let dim = 9;
        let mut rng = StdRng::seed_from_u64(17);
        // Row counts straddling the block size, including remainders.
        for n in [
            1usize,
            SCAN_BLOCK - 1,
            SCAN_BLOCK,
            SCAN_BLOCK + 1,
            3 * SCAN_BLOCK + 7,
        ] {
            let mut data = Vec::with_capacity(n * dim);
            for _ in 0..n {
                data.extend_from_slice(&random_unit_vector(&mut rng, dim));
            }
            let s = ExactStore::new(dim, data.clone());
            let q = random_unit_vector(&mut rng, dim);
            let keep = |id: u32| id % 5 != 3;
            let mut reference: Vec<Hit> = (0..n as u32)
                .filter(|&id| keep(id))
                .map(|id| Hit {
                    id,
                    score: dot(&q, &data[id as usize * dim..(id as usize + 1) * dim]),
                })
                .collect();
            crate::sort_hits(&mut reference);
            reference.truncate(7);
            let got = s.top_k_filtered(&q, 7, &keep);
            assert_eq!(got.len(), reference.len(), "n={n}");
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.id, r.id, "n={n}");
                assert_eq!(g.score.to_bits(), r.score.to_bits(), "n={n}");
            }
        }
    }
}
