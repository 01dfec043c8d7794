//! Gaussian edge weights, the symmetrized adjacency, and the graph
//! Laplacian `D − W` (paper §4.2, following Zhu & Ghahramani).

use seesaw_linalg::{CsrMatrix, Triplet};

use crate::graph::KnnGraph;

/// Self-tuning bandwidths (Zelnik-Manor & Perona 2004): `σ_i` is the
/// distance to `i`'s furthest kept neighbour.
fn node_sigmas(graph: &KnnGraph) -> Vec<f32> {
    (0..graph.len())
        .map(|i| {
            let d = graph.distances_of(i);
            d.last().copied().unwrap_or(0.0).max(1e-6)
        })
        .collect()
}

/// Build the symmetrized weighted adjacency `W` of the kNN graph with
/// self-tuning Gaussian weights `w_ij = exp(−d_ij²/(σ_i·σ_j))`, where
/// `σ_i` is the distance to `i`'s furthest kept neighbour. The paper
/// uses one fixed σ = .05 on CLIP; per-node bandwidths down-weight
/// "bridge" edges between dense regions and sparse background, which is
/// what the DB-alignment regularizer needs, and need no tuning per
/// embedding geometry. An edge is present when either endpoint lists
/// the other; the weight depends only on the distance and the two
/// endpoints' bandwidths, so it is symmetric by construction.
pub fn gaussian_adjacency(graph: &KnnGraph) -> CsrMatrix {
    let n = graph.len();
    let sigmas = node_sigmas(graph);
    let mut triplets: Vec<Triplet> = Vec::with_capacity(n * graph.k() * 2);
    for i in 0..n {
        let nbrs = graph.neighbors_of(i);
        let dists = graph.distances_of(i);
        for (&j, &d) in nbrs.iter().zip(dists.iter()) {
            // Each undirected edge is emitted exactly once (plus its
            // mirror): when j also lists i, only the smaller endpoint
            // emits.
            if (j as usize) < i && graph.neighbors_of(j as usize).contains(&(i as u32)) {
                continue; // already emitted when we processed j
            }
            let denom = sigmas[i] as f64 * sigmas[j as usize] as f64;
            let w = (-(d as f64) * (d as f64) / denom).exp() as f32;
            if w <= 0.0 {
                continue;
            }
            triplets.push(Triplet {
                row: i as u32,
                col: j,
                val: w,
            });
            triplets.push(Triplet {
                row: j,
                col: i as u32,
                val: w,
            });
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// The combinatorial Laplacian `L = D − W` of a symmetric weighted
/// adjacency. `wᵀ (Xᵀ L X) w = Σ_ij w_ij (s_i − s_j)²/2` penalizes score
/// variation across edges — the database-alignment regularizer.
pub fn laplacian(adjacency: &CsrMatrix) -> CsrMatrix {
    assert_eq!(
        adjacency.rows(),
        adjacency.cols(),
        "adjacency must be square"
    );
    let n = adjacency.rows();
    let degrees = adjacency.row_sums();
    let mut triplets: Vec<Triplet> = Vec::with_capacity(adjacency.nnz() + n);
    for (i, &d) in degrees.iter().enumerate() {
        if d != 0.0 {
            triplets.push(Triplet {
                row: i as u32,
                col: i as u32,
                val: d,
            });
        }
        for (j, w) in adjacency.row_iter(i) {
            triplets.push(Triplet {
                row: i as u32,
                col: j,
                val: -w,
            });
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// `max |W_rc − W_cr|` over the stored entries of a square `w`.
#[cfg(test)]
pub(crate) fn max_asymmetry(w: &CsrMatrix) -> f32 {
    (0..w.rows())
        .flat_map(|r| {
            w.row_iter(r)
                .map(move |(c, v)| (v - w.get(c as usize, r)).abs())
        })
        .fold(0.0, f32::max)
}

/// The quadratic form `yᵀ L y` of a square sparse `l`.
#[cfg(test)]
pub(crate) fn quadratic_form(l: &CsrMatrix, y: &[f32]) -> f32 {
    (0..l.rows())
        .map(|r| y[r] * l.row_iter(r).map(|(c, v)| v * y[c as usize]).sum::<f32>())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KnnGraph;

    fn line_graph() -> KnnGraph {
        // 0.0, 1.0, 1.1, 5.0 on a line; k = 1.
        KnnGraph::brute_force(1, &[0.0, 1.0, 1.1, 5.0], 1)
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = line_graph();
        let w = gaussian_adjacency(&g);
        assert_eq!(max_asymmetry(&w), 0.0);
    }

    #[test]
    fn closer_pairs_get_larger_weights() {
        let g = line_graph();
        let w = gaussian_adjacency(&g);
        // (1,2) at distance .1 must outweigh (0,1) at distance 1.
        assert!(w.get(1, 2) > w.get(0, 1));
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = line_graph();
        let w = gaussian_adjacency(&g);
        let l = laplacian(&w);
        for sum in l.row_sums() {
            assert!(sum.abs() < 1e-5, "row sum {sum}");
        }
    }

    #[test]
    fn laplacian_quadratic_form_is_nonnegative() {
        let g = line_graph();
        let w = gaussian_adjacency(&g);
        let l = laplacian(&w);
        for y in [
            vec![1.0f32, -1.0, 0.5, 2.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
        ] {
            let q = quadratic_form(&l, &y);
            assert!(q >= -1e-5, "quadratic form {q} for {y:?}");
        }
        // Constant vectors are in the null space.
        let q_const = quadratic_form(&l, &[3.0, 3.0, 3.0, 3.0]);
        assert!(q_const.abs() < 1e-4);
    }

    #[test]
    fn self_tuning_sigmas_are_furthest_neighbour_distances() {
        let g = KnnGraph::brute_force(1, &[0.0, 1.0, 1.1, 5.0], 2);
        let sigmas = node_sigmas(&g);
        assert_eq!(sigmas.len(), g.len());
        for (i, &s) in sigmas.iter().enumerate() {
            assert_eq!(s, g.distances_of(i)[1], "node {i}");
            assert!(s > 0.0);
        }
    }

    #[test]
    fn self_tuning_downweights_bridge_edges() {
        // A dense pair (0, 1) and a far point 2 bridged from 1. Under
        // self-tuning, the bridge weight relative to the dense weight is
        // far smaller than under a single global σ (the median
        // neighbour distance, `w = exp(−d²/2σ²)`).
        let data = [0.0f32, 0.05, 3.0, 3.05];
        let g = KnnGraph::brute_force(1, &data, 2);
        let tuned = gaussian_adjacency(&g);
        let ratio = |w: &CsrMatrix| w.get(1, 2) / w.get(0, 1).max(1e-20);
        let mut all: Vec<f32> = (0..g.len())
            .flat_map(|i| g.distances_of(i).to_vec())
            .collect();
        all.sort_unstable_by(|a, b| a.total_cmp(b));
        let sigma = all[all.len() / 2] as f64;
        let global = |d: f32| (-(d as f64) * (d as f64) / (2.0 * sigma * sigma)).exp() as f32;
        // Edge (1, 2) is node 1's second neighbour, (0, 1) node 0's first.
        let global_ratio = global(g.distances_of(1)[1]) / global(g.distances_of(0)[0]).max(1e-20);
        assert!(
            ratio(&tuned) <= global_ratio + 1e-6,
            "tuned {} vs global {global_ratio}",
            ratio(&tuned)
        );
        assert_eq!(max_asymmetry(&tuned), 0.0);
    }

    #[test]
    fn mutual_edges_are_not_double_counted() {
        // Nodes 1 and 2 are mutual nearest neighbours, so each one's
        // bandwidth is their distance; the weight must equal the
        // Gaussian of that distance, exp(−1), exactly once.
        let g = line_graph();
        let w = gaussian_adjacency(&g);
        let expect = (-1.0f64).exp() as f32;
        assert!((w.get(1, 2) - expect).abs() < 1e-5);
    }
}
