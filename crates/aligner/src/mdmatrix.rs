//! Precomputation of the database-alignment matrix
//! `M_D = Xᵀ (D − W) X` (paper §4.2).
//!
//! `M_D` is `d × d` — "its size is only a function of the CLIP embedding
//! dimension … not of dataset size" — and is computed once per dataset:
//! build a kNN graph (NN-descent), weight it with a Gaussian kernel,
//! form the Laplacian, and contract it with the embedding matrix.
//!
//! The paper notes that "using a sample of a few thousand vectors from
//! X_D … produces a very similar M_D"; [`DbMatrixConfig::sample`]
//! implements that optimization (off by default, as in their
//! experiments).

use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::SeedableRng;
use seesaw_knn::{gaussian_adjacency, laplacian, KnnGraph};
use seesaw_linalg::{CsrMatrix, DenseMatrix};

/// Configuration for [`compute_db_matrix`].
#[derive(Clone, Debug)]
pub struct DbMatrixConfig {
    /// kNN graph degree (paper benchmark: k = 10).
    pub k: usize,
    /// Optional subsample size: compute `M_D` from this many vectors
    /// instead of all of them.
    pub sample: Option<usize>,
    /// Seed for subsampling.
    pub seed: u64,
}

impl Default for DbMatrixConfig {
    fn default() -> Self {
        Self {
            k: 10,
            sample: None,
            seed: 0x3d,
        }
    }
}

/// Compute `M_D` from a row-major buffer of `n × dim` embeddings.
///
/// Returns the zero matrix when there are too few vectors to form a kNN
/// graph (the DB-alignment term then becomes a no-op, which is the
/// correct degenerate behaviour).
pub fn compute_db_matrix(dim: usize, data: &[f32], cfg: &DbMatrixConfig) -> DenseMatrix {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(data.len() % dim, 0, "buffer is not a multiple of dim");
    let n = data.len() / dim;

    // Optional subsampling.
    let (owned, n_eff): (Option<Vec<f32>>, usize) = match cfg.sample {
        Some(s) if s < n => {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let idx = index_sample(&mut rng, n, s);
            let mut buf = Vec::with_capacity(s * dim);
            for i in idx.iter() {
                buf.extend_from_slice(&data[i * dim..(i + 1) * dim]);
            }
            (Some(buf), s)
        }
        _ => (None, n),
    };
    let view: &[f32] = owned.as_deref().unwrap_or(data);

    if n_eff < 3 || cfg.k == 0 || cfg.k >= n_eff {
        return DenseMatrix::zeros(dim, dim);
    }

    let graph = KnnGraph::nn_descent(dim, view, cfg.k);
    db_matrix_from_adjacency(dim, view, &gaussian_adjacency(&graph))
}

/// `M_D = Xᵀ L X / |E|` for the rows `data` and the weighted kNN
/// adjacency over them, `L = D − W` its Laplacian and `|E|` its
/// undirected edge count. Dividing by `|E|` makes `wᵀM_Dw/‖w‖²` the
/// *mean* squared score difference across edges, which keeps `λD`
/// meaningful across dataset sizes (a documented deviation: the paper
/// fixes dataset sizes, so it never needed this).
pub fn db_matrix_from_adjacency(dim: usize, data: &[f32], adjacency: &CsrMatrix) -> DenseMatrix {
    let lap = laplacian(adjacency);
    let x = DenseMatrix::from_vec(data.len() / dim, dim, data.to_vec());
    let mut m = lap.xtax(&x);
    let n_edges = (adjacency.nnz() / 2).max(1);
    m.scale(1.0 / n_edges as f32);
    // Xᵀ L X is symmetric in exact arithmetic; enforce it so the solver
    // sees a clean quadratic form.
    m.symmetrize();
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use seesaw_linalg::{dot, random_unit_vector};

    /// `wᵀ M w`.
    fn quadratic_form(m: &DenseMatrix, w: &[f32]) -> f32 {
        let mw: Vec<f32> = (0..m.rows()).map(|i| dot(m.row(i), w)).collect();
        dot(&mw, w)
    }

    /// A dense cluster plus scattered points.
    fn clustered_data(dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let center = random_unit_vector(&mut rng, dim);
        let mut data = Vec::new();
        for _ in 0..120 {
            let mut v = center.clone();
            let noise = random_unit_vector(&mut rng, dim);
            for (vi, ni) in v.iter_mut().zip(noise.iter()) {
                *vi += 0.1 * ni;
            }
            seesaw_linalg::normalize(&mut v);
            data.extend_from_slice(&v);
        }
        for _ in 0..120 {
            data.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        (data, center)
    }

    #[test]
    fn md_is_symmetric_and_psd_on_random_directions() {
        let (data, _) = clustered_data(12, 1);
        let m = compute_db_matrix(12, &data, &DbMatrixConfig::default());
        for i in 0..12 {
            for j in 0..i {
                assert_eq!(m.get(i, j), m.get(j, i), "M_D[{i}][{j}]");
            }
        }
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let w = random_unit_vector(&mut rng, 12);
            let q = quadratic_form(&m, &w);
            assert!(q >= -1e-4, "Laplacian quadratic form negative: {q}");
        }
    }

    #[test]
    fn quadratic_form_smaller_at_dense_region_center() {
        // The documented property (§4.2): "this term points w toward the
        // center of a dense region instead of its periphery". Scores of
        // a tight cluster vary *second order* around w = center (cos is
        // flat at 0) but *first order* for a rotated w, so the Laplacian
        // quadratic form must prefer the center.
        let dim = 16;
        let mut rng = StdRng::seed_from_u64(3);
        let center = random_unit_vector(&mut rng, dim);
        let mut data = Vec::new();
        for _ in 0..300 {
            let n = random_unit_vector(&mut rng, dim);
            data.extend_from_slice(&seesaw_linalg::rotate_toward(&center, &n, 0.3));
        }
        let m = compute_db_matrix(dim, &data, &DbMatrixConfig::default());
        let q_center = quadratic_form(&m, &center);
        let mut q_rotated = 0.0;
        for _ in 0..8 {
            let away = random_unit_vector(&mut rng, dim);
            let w = seesaw_linalg::rotate_toward(&center, &away, 0.8);
            q_rotated += quadratic_form(&m, &w) / 8.0;
        }
        assert!(
            q_center < q_rotated,
            "center {q_center} should vary less than periphery {q_rotated}"
        );
    }

    #[test]
    fn subsampled_md_stays_close_to_full_md() {
        // The paper's subsampling optimization must produce "a very
        // similar M_D". Probing the quadratic form along random unit
        // directions, the subsampled matrix must track the full one to
        // within a modest relative error everywhere.
        let (data, _) = clustered_data(8, 5);
        let full = compute_db_matrix(8, &data, &DbMatrixConfig::default());
        let sub = compute_db_matrix(
            8,
            &data,
            &DbMatrixConfig {
                sample: Some(180),
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(6);
        let mut worst = 0.0f32;
        for _ in 0..32 {
            let w = random_unit_vector(&mut rng, 8);
            let qf = quadratic_form(&full, &w);
            let qs = quadratic_form(&sub, &w);
            let rel = (qf - qs).abs() / qf.abs().max(1e-6);
            worst = worst.max(rel);
        }
        assert!(
            worst < 0.35,
            "subsampled M_D deviates by {worst} in relative terms"
        );
    }

    #[test]
    fn subsampled_md_preserves_dense_center_preference() {
        // The downstream property that matters (§4.2): both the full
        // and the subsampled matrix must agree that the center of a
        // tight cluster varies less than its periphery. Built like
        // `quadratic_form_smaller_at_dense_region_center`, where the
        // probe axis carries real signal.
        let dim = 16;
        let mut rng = StdRng::seed_from_u64(9);
        let center = random_unit_vector(&mut rng, dim);
        let mut data = Vec::new();
        for _ in 0..300 {
            let n = random_unit_vector(&mut rng, dim);
            data.extend_from_slice(&seesaw_linalg::rotate_toward(&center, &n, 0.3));
        }
        let full = compute_db_matrix(dim, &data, &DbMatrixConfig::default());
        let sub = compute_db_matrix(
            dim,
            &data,
            &DbMatrixConfig {
                sample: Some(200),
                ..Default::default()
            },
        );
        for m in [&full, &sub] {
            let q_center = quadratic_form(m, &center);
            let mut q_rotated = 0.0;
            for _ in 0..8 {
                let away = random_unit_vector(&mut rng, dim);
                let w = seesaw_linalg::rotate_toward(&center, &away, 0.8);
                q_rotated += quadratic_form(m, &w) / 8.0;
            }
            assert!(
                q_center < q_rotated,
                "center {q_center} should vary less than periphery {q_rotated}"
            );
        }
    }

    #[test]
    fn tiny_input_yields_zero_matrix() {
        let data = vec![1.0f32, 0.0, 0.0, 1.0];
        let m = compute_db_matrix(2, &data, &DbMatrixConfig::default());
        assert_eq!(quadratic_form(&m, &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn constant_direction_scores_zero_on_duplicate_data() {
        // If all points are identical, all edge differences are zero for
        // any w.
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        let v = random_unit_vector(&mut rng, 6);
        for _ in 0..50 {
            data.extend_from_slice(&v);
        }
        let m = compute_db_matrix(6, &data, &DbMatrixConfig::default());
        let w = random_unit_vector(&mut rng, 6);
        assert!(quadratic_form(&m, &w).abs() < 1e-4);
        // Sanity: scores themselves are nonzero.
        assert!(dot(&w, &v).abs() >= 0.0);
        let _ = rng.gen_range(0..2);
    }
}
