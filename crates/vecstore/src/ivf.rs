//! Inverted-file (IVF) store: a k-means coarse quantizer plus inverted
//! lists, the classic pruning-friendly partitioned index.
//!
//! Build: run a few Lloyd iterations of spherical k-means (assignment
//! by maximum inner product — the data rows are unit vectors here, so
//! this is ordinary k-means up to a monotone transform) to get
//! `n_lists` centroids, then bucket every row under its best centroid.
//!
//! Query: score all centroids against the query, scan only the
//! `n_probe` best lists exactly, and return the top-k of the scanned
//! candidates. `n_probe` is the recall knob: probing every list is an
//! exact scan, probing one is fastest and blindest. The candidate
//! *budget* interface ([`VectorStore::top_k_budgeted`]) probes lists in
//! descending centroid score until the budget is covered, mirroring
//! Annoy's `search_k` semantics, and always probes enough lists to
//! gather at least `k` candidates so `k ≥ len` degrades to the exact
//! scan.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seesaw_linalg::{add_scaled, dot, normalize_rows, scale};

use crate::{Hit, KeepFn, RowPrecision, RowStorage, TopKSelector, VectorStore};

/// Build-time configuration for [`IvfStore`].
#[derive(Clone, Debug)]
pub struct IvfConfig {
    /// Number of inverted lists (k-means centroids); clamped to the row
    /// count at build time.
    pub n_lists: usize,
    /// Default number of lists scanned per query.
    pub n_probe: usize,
    /// Lloyd iterations for the quantizer.
    pub train_iters: usize,
    /// Seed for the centroid initialization.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            n_lists: 64,
            n_probe: 16,
            train_iters: 10,
            seed: 0x1f5_005e,
        }
    }
}

/// The inverted-file MIPS index.
///
/// Rows live in a [`RowStorage`] buffer at any [`RowPrecision`]
/// ([`IvfStore::build_with_precision`]). The store only chooses which
/// lists to walk; how a row scores and whether the candidate pool is
/// re-ranked exactly belong to the storage tier (see the `storage`
/// module docs). The centroids always stay `f32` — they are tiny, and
/// probe ranking quality is what recall hinges on.
#[derive(Clone, Debug)]
pub struct IvfStore {
    dim: usize,
    rows: RowStorage,
    /// `n_lists × dim`, row-major.
    centroids: Vec<f32>,
    /// Row ids bucketed by centroid, ascending within each list.
    lists: Vec<Vec<u32>>,
    config: IvfConfig,
}

impl IvfStore {
    /// Build over a row-major buffer with `f32` row storage.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim`.
    pub fn build(dim: usize, data: Vec<f32>, config: IvfConfig) -> Self {
        Self::build_with_precision(dim, data, config, RowPrecision::default())
    }

    /// Build over a row-major `f32` buffer, storing the gathered-scan
    /// rows at the requested precision. The k-means quantizer always
    /// trains on the full-precision data (and keeps f32 centroids), so
    /// list assignment is identical at every precision; only the
    /// scored rows are rounded.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim`.
    pub fn build_with_precision(
        dim: usize,
        data: Vec<f32>,
        config: IvfConfig,
        precision: RowPrecision,
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "buffer is not a multiple of dim");
        let n = data.len() / dim;
        let n_lists = config.n_lists.clamp(1, n.max(1));
        let vec_of = |id: usize| &data[id * dim..(id + 1) * dim];

        // Init: distinct random rows as centroids.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = vec![0.0f32; n_lists * dim];
        if n > 0 {
            let mut picked = vec![false; n];
            for c in 0..n_lists {
                let mut row = rng.gen_range(0..n);
                // Linear-probe to a distinct row (n_lists ≤ n).
                while picked[row] {
                    row = (row + 1) % n;
                }
                picked[row] = true;
                centroids[c * dim..(c + 1) * dim].copy_from_slice(vec_of(row));
            }
        }

        // Lloyd iterations of spherical k-means: assign each row to the
        // max-inner-product centroid, then replace each centroid with
        // its cluster's *normalized* mean (unit centroids are what
        // makes max-dot assignment equivalent to nearest-cluster for
        // unit rows); empty clusters are reseeded from the worst-served
        // row. A final assignment pass after the last update keeps the
        // inverted lists consistent with the centroids that query-time
        // probe ranking scores.
        let mut assign = vec![0usize; n];
        let assign_rows = |centroids: &[f32], assign: &mut [usize]| -> usize {
            let mut worst_row = 0usize;
            let mut worst_score = f32::INFINITY;
            for (row, a) in assign.iter_mut().enumerate() {
                let v = vec_of(row);
                let mut best = 0usize;
                let mut best_score = f32::NEG_INFINITY;
                for c in 0..n_lists {
                    let s = dot(v, &centroids[c * dim..(c + 1) * dim]);
                    if s > best_score {
                        best_score = s;
                        best = c;
                    }
                }
                *a = best;
                if best_score < worst_score {
                    worst_score = best_score;
                    worst_row = row;
                }
            }
            worst_row
        };
        if n > 0 {
            for _ in 0..config.train_iters.max(1) {
                let worst_row = assign_rows(&centroids, &mut assign);
                let mut counts = vec![0usize; n_lists];
                let mut sums = vec![0.0f32; n_lists * dim];
                for (row, &a) in assign.iter().enumerate() {
                    counts[a] += 1;
                    add_scaled(&mut sums[a * dim..(a + 1) * dim], 1.0, vec_of(row));
                }
                for c in 0..n_lists {
                    let slot = &mut sums[c * dim..(c + 1) * dim];
                    if counts[c] == 0 {
                        slot.copy_from_slice(vec_of(worst_row));
                    } else {
                        scale(slot, 1.0 / counts[c] as f32);
                        // Degenerate means (e.g. antipodal rows) have no
                        // direction; reseed rather than keep a ~zero
                        // centroid no query would ever probe.
                        if seesaw_linalg::l2_norm(slot) <= f32::EPSILON {
                            slot.copy_from_slice(vec_of(worst_row));
                        }
                    }
                }
                // One blocked pass normalizes every centroid (unit
                // centroids make max-dot assignment equal to
                // nearest-cluster for unit rows); reseeded slots are
                // already unit so renormalizing them is harmless.
                normalize_rows(&mut sums, dim);
                centroids = sums;
            }
            assign_rows(&centroids, &mut assign);
        }

        let mut lists = vec![Vec::new(); n_lists];
        for (row, &a) in assign.iter().enumerate() {
            lists[a].push(row as u32);
        }

        Self {
            dim,
            rows: RowStorage::encode(precision, dim, data),
            centroids,
            lists,
            config,
        }
    }

    /// Reassemble a store from already-built parts — the zero-copy
    /// entry point used by `crate::diskindex` to serve mmapped rows
    /// without retraining the quantizer. The caller is responsible for
    /// `lists` referencing valid row ids; shapes are asserted.
    ///
    /// # Panics
    /// Panics when the row buffer or centroid buffer is not a multiple
    /// of `dim`.
    pub fn from_parts(
        dim: usize,
        rows: RowStorage,
        centroids: Vec<f32>,
        lists: Vec<Vec<u32>>,
        config: IvfConfig,
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(rows.len() % dim, 0, "buffer is not a multiple of dim");
        assert_eq!(
            centroids.len() % dim,
            0,
            "centroid buffer is not a multiple of dim"
        );
        assert_eq!(
            centroids.len() / dim,
            lists.len(),
            "centroid count does not match list count"
        );
        Self {
            dim,
            rows,
            centroids,
            lists,
            config,
        }
    }

    /// Borrow the underlying row storage (the persistence layer
    /// serializes it).
    pub fn rows(&self) -> &RowStorage {
        &self.rows
    }

    /// The trained centroid matrix (`n_lists × dim`, row-major).
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// The inverted lists (row ids bucketed by centroid).
    pub fn lists(&self) -> &[Vec<u32>] {
        &self.lists
    }

    /// The build configuration.
    pub fn config(&self) -> &IvfConfig {
        &self.config
    }

    /// The row-storage precision.
    pub fn precision(&self) -> RowPrecision {
        self.rows.precision()
    }

    /// Number of inverted lists.
    pub fn n_lists(&self) -> usize {
        self.lists.len()
    }

    /// Lists in descending centroid-score order for `query`.
    fn probe_order(&self, query: &[f32]) -> Vec<usize> {
        let mut order: Vec<(usize, f32)> = (0..self.lists.len())
            .map(|c| {
                (
                    c,
                    dot(query, &self.centroids[c * self.dim..(c + 1) * self.dim]),
                )
            })
            .collect();
        order.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        order.into_iter().map(|(c, _)| c).collect()
    }

    /// The prefix of the probe order a query scans: lists are taken in
    /// descending centroid-score order until `min_lists` lists *and*
    /// `min_candidates` vectors are covered. Coverage counts every
    /// vector in a scanned list (filtering happens during scoring, not
    /// probing), so the prefix is a pure function of the probe order
    /// and list sizes.
    fn probe_prefix(&self, query: &[f32], min_lists: usize, min_candidates: usize) -> Vec<usize> {
        let mut scanned = 0usize;
        let mut prefix = Vec::new();
        for (li, c) in self.probe_order(query).into_iter().enumerate() {
            if li >= min_lists && scanned >= min_candidates {
                break;
            }
            scanned += self.lists[c].len();
            prefix.push(c);
        }
        prefix
    }

    /// Scan lists in probe order until `min_lists` lists *and*
    /// `min_candidates.max(k)` candidates are covered, then rank.
    fn query_probed(
        &self,
        query: &[f32],
        k: usize,
        min_lists: usize,
        min_candidates: usize,
        keep: &KeepFn,
    ) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 || self.rows.is_empty() {
            return Vec::new();
        }
        let need = min_candidates.max(k);
        let scorer = self.rows.scorer(self.dim, query);
        let mut sel = TopKSelector::new(self.rows.pool_k(k));
        for c in self.probe_prefix(query, min_lists, need) {
            for &id in &self.lists[c] {
                if keep(id) {
                    sel.insert(id, scorer.score(id));
                }
            }
        }
        self.rows.rerank(self.dim, query, k, sel.into_sorted_hits())
    }
}

impl VectorStore for IvfStore {
    fn len(&self) -> usize {
        self.rows.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn top_k_filtered(&self, query: &[f32], k: usize, keep: &KeepFn) -> Vec<Hit> {
        self.query_probed(query, k, self.config.n_probe.max(1), 0, keep)
    }

    fn top_k_budgeted(&self, query: &[f32], k: usize, budget: usize, keep: &KeepFn) -> Vec<Hit> {
        self.query_probed(query, k, 1, budget, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recall_at_k, ExactStore};
    use seesaw_linalg::random_unit_vector;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            data.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        data
    }

    #[test]
    fn finds_exact_match_at_top() {
        let data = random_data(600, 16, 1);
        let ivf = IvfStore::build(16, data.clone(), IvfConfig::default());
        let q = data[41 * 16..42 * 16].to_vec();
        let hits = ivf.top_k(&q, 5);
        assert_eq!(hits[0].id, 41, "self-query must return itself first");
    }

    #[test]
    fn full_probe_equals_exact() {
        let dim = 12;
        let data = random_data(400, dim, 2);
        let exact = ExactStore::new(dim, data.clone());
        let ivf = IvfStore::build(dim, data.clone(), IvfConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let q = random_unit_vector(&mut rng, dim);
            let truth = exact.top_k(&q, 9);
            let got = ivf.query_probed(&q, 9, ivf.n_lists(), 0, &|_| true);
            assert_eq!(truth.len(), got.len());
            for (t, g) in truth.iter().zip(&got) {
                assert_eq!(t.id, g.id);
                assert_eq!(t.score.to_bits(), g.score.to_bits());
            }
        }
    }

    #[test]
    fn more_probes_do_not_hurt_recall() {
        let dim = 16;
        let data = random_data(1500, dim, 4);
        let exact = ExactStore::new(dim, data.clone());
        let ivf = IvfStore::build(dim, data, IvfConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let queries: Vec<Vec<f32>> = (0..15).map(|_| random_unit_vector(&mut rng, dim)).collect();
        let mut prev = 0.0;
        for n_probe in [1usize, 4, 16, 64] {
            let mut found = 0usize;
            let mut total = 0usize;
            for q in &queries {
                let truth = exact.top_k(q, 10);
                let got = ivf.query_probed(q, 10, n_probe, 0, &|_| true);
                total += truth.len();
                found += truth
                    .iter()
                    .filter(|t| got.iter().any(|h| h.id == t.id))
                    .count();
            }
            let recall = found as f64 / total as f64;
            assert!(
                recall >= prev - 1e-9,
                "recall dropped from {prev} to {recall} at n_probe={n_probe}"
            );
            prev = recall;
        }
        assert!(prev > 0.999, "full-probe recall {prev}");
    }

    #[test]
    fn default_recall_floor() {
        let dim = 24;
        let data = random_data(2000, dim, 6);
        let exact = ExactStore::new(dim, data.clone());
        let ivf = IvfStore::build(dim, data, IvfConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let queries: Vec<Vec<f32>> = (0..20).map(|_| random_unit_vector(&mut rng, dim)).collect();
        let recall = recall_at_k(&exact, &ivf, &queries, 10);
        assert!(recall > 0.7, "default n_probe recall {recall}");
    }

    #[test]
    fn filter_is_respected() {
        let data = random_data(300, 8, 8);
        let ivf = IvfStore::build(8, data.clone(), IvfConfig::default());
        let hits = ivf.top_k_filtered(&data[..8], 5, &|id| id % 2 == 0);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.id % 2 == 0));
    }

    #[test]
    fn k_at_least_len_returns_everything() {
        let data = random_data(50, 8, 9);
        let ivf = IvfStore::build(8, data.clone(), IvfConfig::default());
        // The budget expansion must keep probing lists until k rows are
        // gathered, so k ≥ len degrades to the exact scan.
        let hits = ivf.top_k(&data[..8], 200);
        assert_eq!(hits.len(), 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = random_data(400, 8, 10);
        let cfg = IvfConfig::default();
        let a = IvfStore::build(8, data.clone(), cfg.clone());
        let b = IvfStore::build(8, data.clone(), cfg);
        let q = random_unit_vector(&mut StdRng::seed_from_u64(11), 8);
        assert_eq!(a.top_k(&q, 7), b.top_k(&q, 7));
    }

    #[test]
    fn empty_store_returns_nothing() {
        let ivf = IvfStore::build(4, vec![], IvfConfig::default());
        assert!(ivf.is_empty());
        assert!(ivf.top_k(&[1.0, 0.0, 0.0, 0.0], 5).is_empty());
    }

    #[test]
    fn duplicate_vectors_do_not_break_building() {
        let mut data = Vec::new();
        for _ in 0..200 {
            data.extend_from_slice(&[1.0f32, 0.0, 0.0, 0.0]);
        }
        let ivf = IvfStore::build(4, data, IvfConfig::default());
        let hits = ivf.top_k(&[1.0, 0.0, 0.0, 0.0], 3);
        assert_eq!(hits.len(), 3);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
    }
}
