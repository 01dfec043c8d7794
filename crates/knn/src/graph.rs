//! The kNN graph container and its exact (brute-force) constructor.

use seesaw_linalg::squared_euclidean;

/// A directed kNN graph: for every node, its `k` (approximately) nearest
/// neighbours by Euclidean distance, sorted nearest-first.
#[derive(Clone, Debug, PartialEq)]
pub struct KnnGraph {
    n: usize,
    k: usize,
    /// `n × k` neighbour ids, row-major.
    neighbors: Vec<u32>,
    /// `n × k` Euclidean distances matching `neighbors`.
    distances: Vec<f32>,
}

impl KnnGraph {
    /// Assemble from parallel per-node rows (used by the constructors
    /// and by tests).
    pub(crate) fn from_rows(n: usize, k: usize, neighbors: Vec<u32>, distances: Vec<f32>) -> Self {
        assert_eq!(neighbors.len(), n * k);
        assert_eq!(distances.len(), n * k);
        Self {
            n,
            k,
            neighbors,
            distances,
        }
    }

    /// Exact kNN graph by full pairwise scan — `O(n²·d)`; the reference
    /// for NN-descent recall and fine for small datasets.
    ///
    /// # Panics
    /// Panics when `k` is zero or not smaller than the item count, or
    /// when `data` is not a multiple of `dim`.
    pub fn brute_force(dim: usize, data: &[f32], k: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "buffer is not a multiple of dim");
        let n = data.len() / dim;
        assert!(k > 0, "k must be positive");
        assert!(k < n, "k = {k} must be below the item count {n}");
        let vec_of = |i: usize| &data[i * dim..(i + 1) * dim];
        let mut neighbors = vec![0u32; n * k];
        let mut distances = vec![0.0f32; n * k];
        let mut row: Vec<(f32, u32)> = Vec::with_capacity(n - 1);
        for i in 0..n {
            row.clear();
            for j in 0..n {
                if i == j {
                    continue;
                }
                row.push((squared_euclidean(vec_of(i), vec_of(j)), j as u32));
            }
            row.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for (slot, &(d2, j)) in row.iter().take(k).enumerate() {
                neighbors[i * k + slot] = j;
                distances[i * k + slot] = d2.sqrt();
            }
        }
        Self {
            n,
            k,
            neighbors,
            distances,
        }
    }

    /// Node count.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Neighbours per node.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Neighbour ids of node `i`, nearest first.
    #[inline]
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.neighbors[i * self.k..(i + 1) * self.k]
    }

    /// Euclidean distances matching [`Self::neighbors_of`].
    #[inline]
    pub fn distances_of(&self, i: usize) -> &[f32] {
        &self.distances[i * self.k..(i + 1) * self.k]
    }
}

#[cfg(test)]
impl KnnGraph {
    /// Fraction of `(node, neighbour)` edges of `truth` that `self`
    /// also contains — the standard NN-descent quality metric.
    pub fn edge_recall_against(&self, truth: &KnnGraph) -> f64 {
        assert_eq!(self.n, truth.n, "graph size mismatch");
        let k = self.k.min(truth.k);
        if self.n == 0 || k == 0 {
            return 1.0;
        }
        let mut hit = 0usize;
        for i in 0..self.n {
            let mine = self.neighbors_of(i);
            for &t in truth.neighbors_of(i).iter().take(k) {
                if mine.contains(&t) {
                    hit += 1;
                }
            }
        }
        hit as f64 / (self.n * k) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four points on a line: 0.0, 1.0, 1.1, 5.0 (dim 1).
    fn line_data() -> Vec<f32> {
        vec![0.0, 1.0, 1.1, 5.0]
    }

    #[test]
    fn brute_force_finds_true_neighbors() {
        let g = KnnGraph::brute_force(1, &line_data(), 2);
        assert_eq!(g.neighbors_of(0), &[1, 2]); // 1.0 then 1.1
        assert_eq!(g.neighbors_of(1), &[2, 0]); // 0.1 then 1.0
        assert_eq!(g.neighbors_of(3), &[2, 1]);
        assert!((g.distances_of(1)[0] - 0.1).abs() < 1e-5);
    }

    #[test]
    fn distances_are_sorted() {
        let g = KnnGraph::brute_force(1, &line_data(), 3);
        for i in 0..g.len() {
            let d = g.distances_of(i);
            for w in d.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn recall_of_identical_graph_is_one() {
        let g = KnnGraph::brute_force(1, &line_data(), 2);
        assert_eq!(g.edge_recall_against(&g), 1.0);
    }

    #[test]
    #[should_panic(expected = "k = 4 must be below")]
    fn k_too_large_panics() {
        let _ = KnnGraph::brute_force(1, &line_data(), 4);
    }
}
