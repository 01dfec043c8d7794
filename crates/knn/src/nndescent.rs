//! NN-descent (Dong, Moses & Li, WWW 2011): approximate kNN graph
//! construction by iterated local joins.
//!
//! The idea: "a neighbour of a neighbour is likely a neighbour". Start
//! from random neighbour lists; each round, for every node, compare the
//! node's *new* neighbours (forward and reverse) against its full
//! candidate set and keep the closest `k`. Converges in a handful of
//! rounds with `O(n·k²)` work per round — no quadratic scan.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seesaw_linalg::squared_euclidean;

use crate::graph::KnnGraph;

/// Stop when fewer than `DELTA · n · k` updates happen in a round
/// (Dong et al.'s early-termination δ).
const DELTA: f64 = 0.002;
/// Hard cap on rounds.
const MAX_ROUNDS: usize = 12;
/// RNG seed for the random initial neighbour lists.
const SEED: u64 = 0xdecc;

/// One entry in a node's neighbour heap.
#[derive(Clone, Copy, Debug)]
struct Entry {
    dist2: f32,
    id: u32,
    is_new: bool,
}

/// A bounded nearest-first neighbour list.
struct NeighborList {
    entries: Vec<Entry>,
    cap: usize,
}

impl NeighborList {
    fn new(cap: usize) -> Self {
        Self {
            entries: Vec::with_capacity(cap + 1),
            cap,
        }
    }

    /// Insert if closer than the current worst; returns whether the list
    /// changed.
    fn try_insert(&mut self, cand: Entry) -> bool {
        if self.entries.iter().any(|e| e.id == cand.id) {
            return false;
        }
        if self.entries.len() == self.cap
            && cand.dist2
                >= self
                    .entries
                    .last()
                    .map(|e| e.dist2)
                    .unwrap_or(f32::INFINITY)
        {
            return false;
        }
        let pos = self
            .entries
            .binary_search_by(|e| e.dist2.total_cmp(&cand.dist2))
            .unwrap_or_else(|e| e);
        self.entries.insert(pos, cand);
        if self.entries.len() > self.cap {
            self.entries.pop();
        }
        true
    }
}

impl KnnGraph {
    /// Build an approximate kNN graph with NN-descent. Every new
    /// neighbour joins each round (Dong et al.'s sampling rate ρ = 1).
    ///
    /// # Panics
    /// Panics on an invalid `k` or a buffer that is not a multiple of
    /// `dim`.
    pub fn nn_descent(dim: usize, data: &[f32], k: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "buffer is not a multiple of dim");
        let n = data.len() / dim;
        assert!(k > 0, "k must be positive");
        assert!(k < n, "k = {k} must be below the item count {n}");

        // Small datasets: the exact scan is cheaper and exact.
        if n <= 512 || n <= 4 * k {
            return KnnGraph::brute_force(dim, data, k);
        }

        let vec_of = |i: usize| &data[i * dim..(i + 1) * dim];
        let mut rng = StdRng::seed_from_u64(SEED);

        // Random initialization.
        let mut lists: Vec<NeighborList> = (0..n).map(|_| NeighborList::new(k)).collect();
        for (i, list) in lists.iter_mut().enumerate() {
            while list.entries.len() < k {
                let j = rng.gen_range(0..n);
                if j == i {
                    continue;
                }
                let d2 = squared_euclidean(vec_of(i), vec_of(j));
                list.try_insert(Entry {
                    dist2: d2,
                    id: j as u32,
                    is_new: true,
                });
            }
        }

        let stop_threshold = (DELTA * n as f64 * k as f64).max(1.0) as usize;
        for _round in 0..MAX_ROUNDS {
            // Partition each node's forward neighbours into new/old and
            // build the reverse lists.
            let mut fwd_new: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut fwd_old: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut rev_new: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut rev_old: Vec<Vec<u32>> = vec![Vec::new(); n];
            for i in 0..n {
                for e in lists[i].entries.iter() {
                    if e.is_new {
                        fwd_new[i].push(e.id);
                        rev_new[e.id as usize].push(i as u32);
                    } else {
                        fwd_old[i].push(e.id);
                        rev_old[e.id as usize].push(i as u32);
                    }
                }
            }
            // Mark new entries as old for the next round.
            for list in lists.iter_mut() {
                for e in list.entries.iter_mut() {
                    e.is_new = false;
                }
            }

            let cap_rev = 2 * k; // bound reverse lists like the paper's ρK
            let mut updates = 0usize;
            let mut news: Vec<u32> = Vec::new();
            let mut olds: Vec<u32> = Vec::new();
            for i in 0..n {
                news.clear();
                olds.clear();
                news.extend_from_slice(&fwd_new[i]);
                for &r in rev_new[i].iter().take(cap_rev) {
                    if !news.contains(&r) {
                        news.push(r);
                    }
                }
                olds.extend_from_slice(&fwd_old[i]);
                for &r in rev_old[i].iter().take(cap_rev) {
                    if !olds.contains(&r) {
                        olds.push(r);
                    }
                }
                // Local join: new×new and new×old.
                for (ai, &a) in news.iter().enumerate() {
                    for &b in news.iter().skip(ai + 1) {
                        updates += join(&mut lists, vec_of, a, b);
                    }
                    for &b in olds.iter() {
                        updates += join(&mut lists, vec_of, a, b);
                    }
                }
            }
            if updates < stop_threshold {
                break;
            }
        }

        let mut neighbors = vec![0u32; n * k];
        let mut distances = vec![0.0f32; n * k];
        for (i, list) in lists.iter().enumerate() {
            debug_assert_eq!(list.entries.len(), k);
            for (slot, e) in list.entries.iter().enumerate() {
                neighbors[i * k + slot] = e.id;
                distances[i * k + slot] = e.dist2.sqrt();
            }
        }
        KnnGraph::from_rows(n, k, neighbors, distances)
    }
}

/// Try the candidate pair `(a, b)` in both directions; returns the
/// number of successful insertions.
fn join<'a, F>(lists: &mut [NeighborList], vec_of: F, a: u32, b: u32) -> usize
where
    F: Fn(usize) -> &'a [f32],
{
    if a == b {
        return 0;
    }
    let d2 = squared_euclidean(vec_of(a as usize), vec_of(b as usize));
    let mut updates = 0;
    if lists[a as usize].try_insert(Entry {
        dist2: d2,
        id: b,
        is_new: true,
    }) {
        updates += 1;
    }
    if lists[b as usize].try_insert(Entry {
        dist2: d2,
        id: a,
        is_new: true,
    }) {
        updates += 1;
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
    fn small_input_uses_exact_graph() {
        let data = random_data(100, 8, 1);
        let nnd = KnnGraph::nn_descent(8, &data, 5);
        let exact = KnnGraph::brute_force(8, &data, 5);
        assert_eq!(nnd.edge_recall_against(&exact), 1.0);
    }

    #[test]
    fn recall_is_high_on_clustered_data() {
        // Clustered data is the regime NN-descent excels in — and the
        // regime embeddings live in.
        let mut rng = StdRng::seed_from_u64(2);
        let dim = 16;
        let centers: Vec<Vec<f32>> = (0..8).map(|_| random_unit_vector(&mut rng, dim)).collect();
        let mut data = Vec::new();
        for i in 0..1500 {
            let c = &centers[i % centers.len()];
            let mut v = c.clone();
            let noise = random_unit_vector(&mut rng, dim);
            for (vj, nj) in v.iter_mut().zip(noise.iter()) {
                *vj += 0.15 * nj;
            }
            seesaw_linalg::normalize(&mut v);
            data.extend_from_slice(&v);
        }
        let nnd = KnnGraph::nn_descent(dim, &data, 10);
        let exact = KnnGraph::brute_force(dim, &data, 10);
        let recall = nnd.edge_recall_against(&exact);
        assert!(recall > 0.85, "recall {recall}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = random_data(900, 8, 3);
        let a = KnnGraph::nn_descent(8, &data, 6);
        let b = KnnGraph::nn_descent(8, &data, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn all_rows_are_full_and_self_free() {
        let data = random_data(800, 8, 4);
        let g = KnnGraph::nn_descent(8, &data, 7);
        for i in 0..g.len() {
            let nb = g.neighbors_of(i);
            assert_eq!(nb.len(), 7);
            assert!(!nb.contains(&(i as u32)), "node {i} lists itself");
            let mut uniq = nb.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 7, "node {i} has duplicate neighbors");
        }
    }
}
