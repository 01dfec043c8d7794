//! Solving for the next query vector (paper §4.4).

use seesaw_linalg::{normalized, DenseMatrix};
use seesaw_optim::{Lbfgs, LbfgsConfig};

use crate::loss::AlignerLoss;

/// Hyperparameters of the aligner.
///
/// The paper's benchmark uses λ = 100, λc = 10, λD = 1000 on 512-d CLIP
/// embeddings with multiscale feedback sets of hundreds of patches. The
/// loss balance depends on the example count and embedding geometry:
/// λ sets the solution norm ‖w*‖ ≈ O(#examples/λ), and the *effective*
/// stiffness of the CLIP anchor is λc/‖w*‖ — with few coarse examples
/// and a large λ, the anchor becomes rigid and feedback is ignored.
/// The defaults here are re-calibrated for this reproduction's
/// synthetic embedding (λ = 1, λc = 1, λD = 100, with the
/// edge-normalized `M_D`); Table 7's invariance claim — AP stable while
/// each λ varies an order of magnitude — is reproduced around these
/// values (`paper table7`).
#[derive(Clone, Debug)]
pub struct AlignerConfig {
    /// `λ` — weight-magnitude penalty.
    pub lambda: f64,
    /// `λc` — CLIP-alignment penalty; 0 disables CLIP alignment.
    pub lambda_c: f64,
    /// `λD` — DB-alignment penalty; 0 disables DB alignment.
    pub lambda_d: f64,
    /// L-BFGS settings ("a few tens of steps").
    pub solver: LbfgsConfig,
}

impl Default for AlignerConfig {
    fn default() -> Self {
        Self {
            lambda: 1.0,
            lambda_c: 1.0,
            lambda_d: 100.0,
            solver: LbfgsConfig {
                max_iters: 60,
                grad_tol: 1e-5,
            },
        }
    }
}

impl AlignerConfig {
    /// CLIP alignment only (the Table 2 "+Query align" row).
    pub fn clip_only() -> Self {
        Self {
            lambda_d: 0.0,
            ..Self::default()
        }
    }

    /// Pure few-shot logistic regression (no alignment terms) — the
    /// Eq. 1 baseline expressed in the same solver.
    pub fn few_shot() -> Self {
        Self {
            lambda_c: 0.0,
            lambda_d: 0.0,
            ..Self::default()
        }
    }
}

/// The result of one alignment solve with solver diagnostics.
#[derive(Clone, Debug)]
pub struct AlignOutcome {
    /// The next unit query vector.
    pub query: Vec<f32>,
    /// L-BFGS iterations used (paper §4.4: "a few tens of steps").
    pub iterations: usize,
    /// Whether the solver reported convergence.
    pub converged: bool,
    /// Final loss value.
    pub loss: f64,
}

/// Owns the per-query alignment state: the original text query `q₀` and
/// the (shared, optional) `M_D` matrix.
#[derive(Clone, Debug)]
pub struct QueryAligner {
    q0: Vec<f32>,
    m_d: Option<DenseMatrix>,
    config: AlignerConfig,
}

impl QueryAligner {
    /// Create an aligner for the text query `q0` (normalized on entry).
    pub fn new(q0: &[f32], config: AlignerConfig) -> Self {
        Self {
            q0: normalized(q0),
            m_d: None,
            config,
        }
    }

    /// Attach a precomputed `M_D` (enables the DB-alignment term).
    pub fn with_db_matrix(mut self, m_d: DenseMatrix) -> Self {
        assert_eq!(m_d.rows(), self.q0.len(), "M_D dimension mismatch");
        assert_eq!(m_d.cols(), self.q0.len(), "M_D must be square");
        self.m_d = Some(m_d);
        self
    }

    /// The original text query.
    pub fn q0(&self) -> &[f32] {
        &self.q0
    }

    /// The active configuration.
    pub fn config(&self) -> &AlignerConfig {
        &self.config
    }

    /// Solve `q_{t+1} = argmin_w L(w)` on the accumulated feedback and
    /// return the next *unit* query vector (paper: "we use the solution
    /// vector as the next query").
    ///
    /// With no feedback at all the solution is `q₀` itself (the CLIP
    /// prior is all the information there is), returned without solving.
    pub fn align(&self, examples: &[&[f32]], labels: &[bool]) -> Vec<f32> {
        self.align_detailed(examples, labels, None).query
    }

    /// [`Self::align`] with optional per-example weights (the engine
    /// weights multiscale patches so one image is one unit of
    /// evidence).
    pub fn align_weighted(
        &self,
        examples: &[&[f32]],
        labels: &[bool],
        weights: Option<&[f32]>,
    ) -> Vec<f32> {
        self.align_detailed(examples, labels, weights).query
    }

    /// [`Self::align_weighted`] returning solver diagnostics alongside
    /// the query, to check the paper's "a few tens of steps" claim
    /// directly. [`Self::align`] and [`Self::align_weighted`] return this
    /// call's `query`, so every solve runs this body.
    ///
    /// # Panics
    /// Panics when `labels` (or `weights`, if given) differ in length
    /// from `examples`, or an example's dimension differs from `q₀`'s.
    pub fn align_detailed(
        &self,
        examples: &[&[f32]],
        labels: &[bool],
        weights: Option<&[f32]>,
    ) -> AlignOutcome {
        assert_eq!(examples.len(), labels.len(), "example/label mismatch");
        if let Some(w) = weights {
            assert_eq!(w.len(), labels.len(), "weight/label mismatch");
        }
        if examples.is_empty() {
            return AlignOutcome {
                query: self.q0.clone(),
                iterations: 0,
                converged: true,
                loss: 0.0,
            };
        }
        for (i, x) in examples.iter().enumerate() {
            assert_eq!(x.len(), self.q0.len(), "example {i} has wrong dimension");
        }
        let loss = AlignerLoss {
            examples,
            labels,
            weights,
            q0: &self.q0,
            lambda: self.config.lambda,
            lambda_c: self.config.lambda_c,
            lambda_d: self.config.lambda_d,
            m_d: self.m_d.as_ref(),
        };
        // Warm-start at q₀: with small feedback sets the solution stays
        // in its basin, and L-BFGS converges in a few tens of steps.
        let mut w: Vec<f64> = self.q0.iter().map(|&v| v as f64).collect();
        let outcome = Lbfgs::new(self.config.solver.clone()).minimize(&loss, &mut w);
        let w32: Vec<f32> = w.iter().map(|&v| v as f32).collect();
        let mut query = normalized(&w32);
        if query.iter().any(|v| !v.is_finite()) || query.iter().all(|&v| v == 0.0) {
            // Defensive fallback: never hand the vector store a broken
            // query.
            query = self.q0.clone();
        }
        AlignOutcome {
            query,
            iterations: outcome.iterations,
            converged: outcome.converged,
            loss: outcome.value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seesaw_linalg::{cosine, dot, l2_norm, random_unit_vector, rotate_toward};

    #[test]
    fn no_feedback_returns_q0() {
        let q0 = vec![0.6f32, 0.8, 0.0];
        let aligner = QueryAligner::new(&q0, AlignerConfig::default());
        assert_eq!(aligner.align(&[], &[]), q0);
    }

    #[test]
    fn output_is_always_unit_norm() {
        let mut rng = StdRng::seed_from_u64(1);
        let q0 = random_unit_vector(&mut rng, 16);
        let x1 = random_unit_vector(&mut rng, 16);
        let x2 = random_unit_vector(&mut rng, 16);
        let aligner = QueryAligner::new(&q0, AlignerConfig::default());
        let q = aligner.align(&[&x1, &x2], &[true, false]);
        assert!((l2_norm(&q) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn feedback_pulls_query_toward_positives() {
        // q0 is rotated 1.0 rad away from the true concept direction;
        // after a few positive examples near the concept, the aligned
        // query must be closer to the concept than q0 was.
        let dim = 32;
        let mut rng = StdRng::seed_from_u64(2);
        let concept = random_unit_vector(&mut rng, dim);
        let away = random_unit_vector(&mut rng, dim);
        let q0 = rotate_toward(&concept, &away, 1.0);
        let positives: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                let n = random_unit_vector(&mut rng, dim);
                rotate_toward(&concept, &n, 0.15)
            })
            .collect();
        let negatives: Vec<Vec<f32>> = (0..4).map(|_| random_unit_vector(&mut rng, dim)).collect();
        let mut examples: Vec<&[f32]> = positives.iter().map(|v| v.as_slice()).collect();
        examples.extend(negatives.iter().map(|v| v.as_slice()));
        let labels = vec![true, true, true, true, false, false, false, false];

        let aligner = QueryAligner::new(
            &q0,
            AlignerConfig {
                lambda: 1.0,
                lambda_c: 2.0,
                lambda_d: 0.0,
                ..AlignerConfig::default()
            },
        );
        let q1 = aligner.align(&examples, &labels);
        assert!(
            cosine(&q1, &concept) > cosine(&q0, &concept) + 0.05,
            "aligned {} vs initial {}",
            cosine(&q1, &concept),
            cosine(&q0, &concept)
        );
    }

    #[test]
    fn huge_lambda_c_pins_query_to_q0() {
        // "A large λc parameter means we ignore the user labels."
        let dim = 16;
        let mut rng = StdRng::seed_from_u64(3);
        let q0 = random_unit_vector(&mut rng, dim);
        // Adversarial feedback: a positive opposite to q0.
        let anti: Vec<f32> = q0.iter().map(|v| -v).collect();
        let aligner = QueryAligner::new(
            &q0,
            AlignerConfig {
                lambda: 1.0,
                lambda_c: 1e6,
                lambda_d: 0.0,
                ..AlignerConfig::default()
            },
        );
        let q1 = aligner.align(&[&anti], &[true]);
        assert!(cosine(&q1, &q0) > 0.99, "cosine {}", cosine(&q1, &q0));
    }

    #[test]
    fn zero_lambda_c_follows_the_data() {
        // "and a small one means we ignore the initial text query."
        let dim = 16;
        let mut rng = StdRng::seed_from_u64(4);
        let q0 = random_unit_vector(&mut rng, dim);
        let target = random_unit_vector(&mut rng, dim);
        let aligner = QueryAligner::new(
            &q0,
            AlignerConfig {
                lambda: 0.5,
                lambda_c: 0.0,
                lambda_d: 0.0,
                ..AlignerConfig::default()
            },
        );
        let q1 = aligner.align(&[&target], &[true]);
        assert!(
            cosine(&q1, &target) > 0.95,
            "should follow the single positive, cosine {}",
            cosine(&q1, &target)
        );
    }

    #[test]
    fn db_alignment_pulls_toward_dense_region_center() {
        // A single tight cluster of unlabeled data; one positive at the
        // cluster's edge. With DB alignment the query should end up
        // closer to the cluster center than without it (§4.2: "this term
        // points w toward the center of a dense region instead of its
        // periphery when either direction explains the few labeled
        // samples equally well").
        let dim = 16;
        let mut rng = StdRng::seed_from_u64(5);
        let center = random_unit_vector(&mut rng, dim);
        let mut data = Vec::new();
        for _ in 0..300 {
            let n = random_unit_vector(&mut rng, dim);
            data.extend_from_slice(&rotate_toward(&center, &n, 0.3));
        }
        let m_d = crate::mdmatrix::compute_db_matrix(
            dim,
            &data,
            &crate::mdmatrix::DbMatrixConfig::default(),
        );

        let edge_pos = rotate_toward(&center, &random_unit_vector(&mut rng, dim), 0.45);
        let q0 = rotate_toward(&center, &random_unit_vector(&mut rng, dim), 0.9);

        let base_cfg = AlignerConfig {
            lambda: 1.0,
            lambda_c: 1.0,
            lambda_d: 0.0,
            ..AlignerConfig::default()
        };
        let with_db_cfg = AlignerConfig {
            lambda_d: 200.0,
            ..base_cfg.clone()
        };
        let without = QueryAligner::new(&q0, base_cfg).align(&[edge_pos.as_slice()], &[true]);
        let with = QueryAligner::new(&q0, with_db_cfg)
            .with_db_matrix(m_d)
            .align(&[edge_pos.as_slice()], &[true]);
        assert!(dot(&with, &without) < 0.99999, "DB term had no effect");
        assert!(
            cosine(&with, &center) > cosine(&without, &center),
            "with {} vs without {}",
            cosine(&with, &center),
            cosine(&without, &center)
        );
    }

    #[test]
    #[should_panic(expected = "M_D dimension mismatch")]
    fn dimension_mismatch_panics() {
        let q0 = vec![1.0f32, 0.0];
        let _ = QueryAligner::new(&q0, AlignerConfig::default())
            .with_db_matrix(DenseMatrix::zeros(3, 3));
    }

    #[test]
    fn align_detailed_converges_in_a_few_tens_of_steps() {
        // The §4.4 claim: "L-BFGS finds the optimal solution in a few
        // tens of steps".
        let dim = 32;
        let mut rng = StdRng::seed_from_u64(6);
        let q0 = random_unit_vector(&mut rng, dim);
        let xs: Vec<Vec<f32>> = (0..40).map(|_| random_unit_vector(&mut rng, dim)).collect();
        let refs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let labels: Vec<bool> = (0..40).map(|i| i % 5 == 0).collect();
        let aligner = QueryAligner::new(&q0, AlignerConfig::default());
        let out = aligner.align_detailed(&refs, &labels, None);
        assert!(out.converged, "{out:?}");
        assert!(out.iterations <= 60, "{} iterations", out.iterations);
        assert!((l2_norm(&out.query) - 1.0).abs() < 1e-4);
        assert!(out.loss.is_finite());
        // Must agree with the plain API.
        assert_eq!(out.query, aligner.align(&refs, &labels));
    }

    #[test]
    #[should_panic(expected = "example/label mismatch")]
    fn align_detailed_rejects_short_label_list() {
        let q0 = vec![1.0f32, 0.0, 0.0];
        let (x1, x2) = (vec![0.0f32, 1.0, 0.0], vec![0.0f32, 0.0, 1.0]);
        let aligner = QueryAligner::new(&q0, AlignerConfig::default());
        let _ = aligner.align_detailed(&[&x1, &x2], &[true], None);
    }

    #[test]
    #[should_panic(expected = "weight/label mismatch")]
    fn align_detailed_rejects_short_weight_list() {
        let q0 = vec![1.0f32, 0.0, 0.0];
        let (x1, x2) = (vec![0.0f32, 1.0, 0.0], vec![0.0f32, 0.0, 1.0]);
        let aligner = QueryAligner::new(&q0, AlignerConfig::default());
        let _ = aligner.align_detailed(&[&x1, &x2], &[true, false], Some(&[1.0]));
    }

    #[test]
    fn align_detailed_empty_feedback_is_q0() {
        let q0 = vec![1.0f32, 0.0, 0.0];
        let aligner = QueryAligner::new(&q0, AlignerConfig::default());
        let out = aligner.align_detailed(&[], &[], None);
        assert_eq!(out.query, q0);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn presets_have_expected_terms() {
        let c = AlignerConfig::clip_only();
        assert_eq!(c.lambda_d, 0.0);
        assert!(c.lambda_c > 0.0);
        let f = AlignerConfig::few_shot();
        assert_eq!(f.lambda_c, 0.0);
        assert_eq!(f.lambda_d, 0.0);
    }
}
