//! Label propagation (Zhu & Ghahramani 2002).
//!
//! Given a few labeled nodes and the weighted kNN adjacency, iterate
//! `ŷ ← D⁻¹ W ŷ`, clamping the labeled nodes, until convergence. The
//! fixed point minimizes `Σ_ij w_ij (ŷ_i − ŷ_j)²` subject to the clamped
//! labels (the harmonic solution).
//!
//! In SeeSaw this algorithm is (a) the conceptual starting point for
//! database alignment (§4.2) and (b) the `prop.` latency comparator of
//! Table 6: it must run after every feedback round and touch the whole
//! graph, which is exactly why the paper replaces it with the `M_D`
//! regularizer.

use seesaw_linalg::CsrMatrix;

/// Maximum sweeps over the graph.
const MAX_ITERS: usize = 30;
/// Stop when the largest per-node change falls below this.
const TOLERANCE: f32 = 1e-4;

/// Propagate the clamped `labels` (node id, value in `[0, 1]`) over the
/// symmetric weighted adjacency. Returns the soft label of every node;
/// unlabeled nodes start at 0, since positives are rare in search.
///
/// # Panics
/// Panics when the adjacency is not square or a label id is out of
/// bounds.
pub fn propagate_labels(adjacency: &CsrMatrix, labels: &[(u32, f32)]) -> Vec<f32> {
    assert_eq!(
        adjacency.rows(),
        adjacency.cols(),
        "adjacency must be square"
    );
    let n = adjacency.rows();
    let mut y = vec![0.0f32; n];
    let mut clamped = vec![false; n];
    for &(id, v) in labels {
        assert!((id as usize) < n, "label id {id} out of bounds");
        y[id as usize] = v;
        clamped[id as usize] = true;
    }
    if labels.is_empty() || n == 0 {
        return y;
    }
    let degrees = adjacency.row_sums();
    let mut next = y.clone();
    for _ in 0..MAX_ITERS {
        let mut max_delta = 0.0f32;
        for i in 0..n {
            if clamped[i] {
                next[i] = y[i];
                continue;
            }
            let d = degrees[i];
            if d <= 0.0 {
                next[i] = y[i];
                continue;
            }
            let mut acc = 0.0f32;
            for (j, w) in adjacency.row_iter(i) {
                acc += w * y[j as usize];
            }
            let v = acc / d;
            max_delta = max_delta.max((v - y[i]).abs());
            next[i] = v;
        }
        std::mem::swap(&mut y, &mut next);
        if max_delta < TOLERANCE {
            break;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KnnGraph;
    use crate::weights::gaussian_adjacency;

    /// Two tight clusters on a line with one label each.
    fn two_cluster_adjacency() -> CsrMatrix {
        let data = [0.0f32, 0.1, 0.2, 5.0, 5.1, 5.2];
        let g = KnnGraph::brute_force(1, &data, 2);
        gaussian_adjacency(&g)
    }

    #[test]
    fn labels_spread_within_clusters() {
        let w = two_cluster_adjacency();
        let y = propagate_labels(&w, &[(0, 1.0), (3, 0.0)]);
        // Cluster of node 0 should be near 1, cluster of node 3 near 0.
        assert!(y[1] > 0.8, "{y:?}");
        assert!(y[2] > 0.8, "{y:?}");
        assert!(y[4] < 0.2, "{y:?}");
        assert!(y[5] < 0.2, "{y:?}");
    }

    #[test]
    fn clamped_nodes_keep_their_labels() {
        let w = two_cluster_adjacency();
        let y = propagate_labels(&w, &[(0, 1.0), (3, 0.0)]);
        assert_eq!(y[0], 1.0);
        assert_eq!(y[3], 0.0);
    }

    #[test]
    fn no_labels_returns_prior() {
        let w = two_cluster_adjacency();
        let y = propagate_labels(&w, &[]);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn values_stay_in_unit_interval() {
        let w = two_cluster_adjacency();
        let y = propagate_labels(&w, &[(0, 1.0), (5, 0.0)]);
        for v in y {
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn harmonic_property_at_fixed_point() {
        // At convergence, every unlabeled node equals the weighted mean
        // of its neighbours.
        let w = two_cluster_adjacency();
        let y = propagate_labels(&w, &[(0, 1.0), (3, 0.0)]);
        let degrees = w.row_sums();
        for i in [1usize, 2, 4, 5] {
            let mut acc = 0.0f32;
            for (j, wij) in w.row_iter(i) {
                acc += wij * y[j as usize];
            }
            assert!((y[i] - acc / degrees[i]).abs() < 1e-3, "node {i}");
        }
    }
}
