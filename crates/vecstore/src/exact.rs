//! Brute-force maximum-inner-product store.
//!
//! The accuracy reference for [`crate::RpForest`] and the store used in
//! small configurations — the paper reports "only a minor drop in
//! accuracy metrics in our benchmarks using Annoy vs an exact but slow
//! scan" (§2.2); our integration tests quantify the same comparison.

use crate::{Hit, KeepFn, RowPrecision, RowStorage, TopKSelector, VectorStore, SQ8_RERANK_FACTOR};

/// Rows scored per block. The kernel re-blocks internally for cache
/// residency; this only bounds the per-call score scratch.
const SCAN_BLOCK: usize = 64;

/// A dense, row-major collection of vectors scanned exhaustively.
///
/// Rows live in a [`RowStorage`] buffer: plain `f32` by default, the
/// half-precision tier ([`RowPrecision::F16`]) which halves scan
/// bandwidth while keeping f32 accumulation, or the quantized tiers —
/// scalar ([`RowPrecision::Sq8`], 1 B/element codes) and product
/// ([`RowPrecision::Pq`], `m` bytes/row scanned through per-query ADC
/// tables) — which exactly re-rank the top `k × rerank_factor`
/// candidates against the f32 source rows (default
/// [`SQ8_RERANK_FACTOR`], see [`ExactStore::with_rerank_factor`]) —
/// see the `storage` module docs for the precision semantics.
#[derive(Clone, Debug)]
pub struct ExactStore {
    dim: usize,
    rows: RowStorage,
    /// Candidate-pool multiplier for the quantized tiers (`k ×
    /// rerank_factor` candidates survive the code scan and get exact
    /// re-scoring). [`SQ8_RERANK_FACTOR`] by default.
    rerank_factor: usize,
}

impl ExactStore {
    /// Build from a row-major buffer with `f32` row storage.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim`.
    pub fn new(dim: usize, data: Vec<f32>) -> Self {
        Self::with_precision(dim, data, RowPrecision::F32)
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
            rerank_factor: SQ8_RERANK_FACTOR,
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
        Self {
            dim,
            rows,
            rerank_factor: SQ8_RERANK_FACTOR,
        }
    }

    /// Set the quantized-tier re-rank pool factor (builder style).
    /// Changing it changes which candidates survive the code scan, so
    /// persistence records it to keep loaded stores bit-identical.
    ///
    /// # Panics
    /// Panics when `factor` is zero.
    pub fn with_rerank_factor(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "rerank factor must be at least 1");
        self.rerank_factor = factor;
        self
    }

    /// The quantized-tier re-rank pool factor.
    pub fn rerank_factor(&self) -> usize {
        self.rerank_factor
    }

    /// Borrow the underlying row storage (the persistence layer
    /// serializes it).
    pub fn rows(&self) -> &RowStorage {
        &self.rows
    }

    /// Mutable row storage — only for `crate::diskindex`'s re-rank-row
    /// spill hook.
    pub(crate) fn rows_mut(&mut self) -> &mut RowStorage {
        &mut self.rows
    }

    /// The row-storage precision.
    pub fn precision(&self) -> RowPrecision {
        self.rows.precision()
    }

    /// The candidate-pool size the scan selects before re-ranking:
    /// `k × rerank_factor` for the quantized tiers (SQ8, PQ), `k` (no
    /// rerank pass) for the exact-scoring tiers.
    fn pool_k(&self, k: usize) -> usize {
        if self.rows.precision().is_quantized() {
            k.saturating_mul(self.rerank_factor)
        } else {
            k
        }
    }

    /// Collapse a scanned candidate pool to the final top-`k`. For the
    /// exact-scoring tiers the pool *is* the answer; for SQ8 and PQ
    /// each candidate is re-scored exactly against its f32 source row,
    /// so final scores are true inner products.
    fn rerank(&self, query: &[f32], k: usize, pool: Vec<Hit>) -> Vec<Hit> {
        if !self.rows.precision().is_quantized() {
            return pool;
        }
        let mut sel = TopKSelector::new(k);
        for h in pool {
            sel.insert(h.id, self.rows.rerank_dot_row(self.dim, h.id, query));
        }
        sel.into_sorted_hits()
    }

    /// Borrow vector `id`. Only available with `f32` row storage; use
    /// [`ExactStore::row_into`] to read rows independent of precision.
    ///
    /// # Panics
    /// Panics when the store uses a compressed row tier.
    #[inline]
    pub fn vector(&self, id: u32) -> &[f32] {
        let data = self
            .rows
            .as_f32()
            .expect("ExactStore::vector requires f32 row storage; use row_into");
        let i = id as usize * self.dim;
        &data[i..i + self.dim]
    }

    /// Decode vector `id` into `out` (works at every precision; exact
    /// — f16 widening never rounds).
    ///
    /// # Panics
    /// Panics when `out.len() != dim` or the row is out of bounds.
    pub fn row_into(&self, id: u32, out: &mut [f32]) {
        self.rows.row_into(self.dim, id, out);
    }

    /// Iterate over all `(id, vector)` pairs. Only available with
    /// `f32` row storage (see [`ExactStore::vector`]).
    ///
    /// # Panics
    /// Panics when the store uses a compressed row tier.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        let data = self
            .rows
            .as_f32()
            .expect("ExactStore::iter requires f32 row storage; use row_into");
        data.chunks_exact(self.dim)
            .enumerate()
            .map(|(i, v)| (i as u32, v))
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
        let mut sel = TopKSelector::new(self.pool_k(k));
        let mut scores = [0.0f32; SCAN_BLOCK];
        let mut id = 0u32;
        // PQ scores through a per-query ADC table, built once here and
        // shared by every block (`None` for the other tiers).
        let lut = self.rows.pq_lut(self.dim, query);
        for start in (0..n).step_by(SCAN_BLOCK) {
            let end = (start + SCAN_BLOCK).min(n);
            let rows = end - start;
            match &lut {
                Some(lut) => self
                    .rows
                    .scan_pq_range(start..end, lut, &mut scores[..rows]),
                None => self
                    .rows
                    .gemv1_range(self.dim, start..end, query, &mut scores[..rows]),
            }
            for &score in &scores[..rows] {
                if keep(id) {
                    sel.insert(id, score);
                }
                id += 1;
            }
        }
        self.rerank(query, k, sel.into_sorted_hits())
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
