//! The four-term aligner loss (paper Table 1 / Eq. 5) with analytic
//! gradients.
//!
//! Norms use the softened `‖w‖ = √(w·w + ε)` so the loss stays smooth at
//! the origin; value and gradient use the *same* softening, so the
//! gradient is exact for the implemented function (finite-difference
//! checked in tests).
//!
//! Everything is evaluated in `f64`. The row work runs on the
//! f64-accumulating kernels of [`seesaw_linalg::kernels`]:
//!
//! * **Logistic term.** The margins `z = Xw` come from
//!   [`dot_rows_f64`] over the feedback examples. Each example's
//!   log-loss and sigmoid share one `e = exp(−|z|)` and one `ln_1p`.
//!   The gradient `Xᵀr` (residuals `r = weight·(σ(z) − y)`) comes from
//!   [`axpy_rows_f64`].
//! * **DB term.** `M_D·w` comes from [`dot_rows_f64`] over the rows of
//!   `M_D`.
//! * **Magnitude and CLIP terms.** These are `d`-long vector loops and
//!   stay plain Rust.

use seesaw_linalg::kernels::{axpy_rows_f64, dot_rows_f64};
use seesaw_linalg::DenseMatrix;
use seesaw_optim::Objective;

const NORM_EPS: f64 = 1e-12;

/// The loss `L(w)` over the current feedback set. Borrowed data: build
/// one per solve, cheaply.
pub struct AlignerLoss<'a> {
    /// Feedback examples (patch embeddings), one slice per example.
    pub examples: &'a [&'a [f32]],
    /// Feedback labels (`true` = relevant).
    pub labels: &'a [bool],
    /// Optional per-example weights (default 1). The engine uses these
    /// to make *one annotated image* one unit of evidence regardless of
    /// how many multiscale patches it contributes, so a single set of
    /// (λ, λc, λD) balances identically for coarse and multiscale
    /// indexes.
    pub weights: Option<&'a [f32]>,
    /// The original CLIP text query `q₀` (unit norm).
    pub q0: &'a [f32],
    /// `λ` — magnitude penalty (paper benchmark: 100).
    pub lambda: f64,
    /// `λc` — CLIP-alignment penalty (paper benchmark: 10).
    pub lambda_c: f64,
    /// `λD` — DB-alignment penalty (paper benchmark: 1000).
    pub lambda_d: f64,
    /// The precomputed `M_D` (`d × d`, symmetric); `None` disables the
    /// DB-alignment term.
    pub m_d: Option<&'a DenseMatrix>,
}

impl<'a> AlignerLoss<'a> {
    /// Dimension of the parameter vector.
    pub fn dim(&self) -> usize {
        self.q0.len()
    }
}

impl Objective for AlignerLoss<'_> {
    fn value_grad(&self, w: &[f64], grad: &mut [f64]) -> f64 {
        let d = w.len();
        debug_assert_eq!(d, self.q0.len());
        assert_eq!(
            self.examples.len(),
            self.labels.len(),
            "example/label mismatch"
        );
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut loss = 0.0f64;

        // --- logistic feedback term: z = Xw, then ∇ += Xᵀr ----------
        // `zr` holds each example's margin z, then its residual r.
        let mut zr = vec![0.0f64; self.examples.len()];
        dot_rows_f64(self.examples, w, &mut zr);
        for (i, (v, &y)) in zr.iter_mut().zip(self.labels).enumerate() {
            let weight = self.weights.map_or(1.0, |ws| ws[i] as f64);
            if weight == 0.0 {
                *v = 0.0;
                continue;
            }
            let z = *v;
            // softplus(s) = max(s, 0) + ln(1 + e^−|s|) with s = ∓z, and
            // σ(z), both from the one e = e^−|z|.
            let e = (-z.abs()).exp();
            let s = if y { -z } else { z };
            loss += weight * (s.max(0.0) + e.ln_1p());
            let sigma = if z >= 0.0 {
                1.0 / (1.0 + e)
            } else {
                e / (1.0 + e)
            };
            *v = weight * (sigma - if y { 1.0 } else { 0.0 });
        }
        axpy_rows_f64(self.examples, &zr, grad);

        // --- λ‖w‖² ---------------------------------------------------
        let mut w_sq = 0.0f64;
        for wi in w {
            w_sq += wi * wi;
        }
        loss += self.lambda * w_sq;
        for (g, wi) in grad.iter_mut().zip(w.iter()) {
            *g += 2.0 * self.lambda * wi;
        }

        let norm = (w_sq + NORM_EPS).sqrt();

        // --- λc (1 − w·q₀/‖w‖) — CLIP alignment ----------------------
        if self.lambda_c != 0.0 {
            let mut w_dot_q0 = 0.0f64;
            for (wi, qi) in w.iter().zip(self.q0.iter()) {
                w_dot_q0 += wi * (*qi as f64);
            }
            let cos = w_dot_q0 / norm;
            loss += self.lambda_c * (1.0 - cos);
            // ∇cos = q₀/‖w‖ − (w·q₀)·w/‖w‖³
            let n3 = norm * norm * norm;
            for i in 0..d {
                let dcos = (self.q0[i] as f64) / norm - w_dot_q0 * w[i] / n3;
                grad[i] -= self.lambda_c * dcos;
            }
        }

        // --- λD (wᵀ M w)/‖w‖² — DB alignment -------------------------
        if self.lambda_d != 0.0 {
            if let Some(m) = self.m_d {
                debug_assert_eq!(m.rows(), d);
                // mw = M·w (M is symmetric).
                let rows: Vec<&[f32]> = (0..m.rows()).map(|i| m.row(i)).collect();
                let mut mw = vec![0.0f64; d];
                dot_rows_f64(&rows, w, &mut mw);
                let mut w_m_w = 0.0f64;
                for (wi, mwi) in w.iter().zip(mw.iter()) {
                    w_m_w += wi * mwi;
                }
                let n2 = norm * norm;
                loss += self.lambda_d * w_m_w / n2;
                // ∇ = 2Mw/‖w‖² − 2(wᵀMw)·w/‖w‖⁴
                let n4 = n2 * n2;
                for i in 0..d {
                    grad[i] += self.lambda_d * (2.0 * mw[i] / n2 - 2.0 * w_m_w * w[i] / n4);
                }
            }
        }

        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seesaw_linalg::random_unit_vector;
    use seesaw_optim::{log1p_exp, max_gradient_error, sigmoid};

    /// Scalar accuracy reference for [`AlignerLoss::value_grad`]:
    /// single-accumulator dot products and three transcendentals per
    /// example.
    fn reference_value_grad(loss: &AlignerLoss, w: &[f64], grad: &mut [f64]) -> f64 {
        let d = w.len();
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut value = 0.0f64;
        for (i, (x, &y)) in loss.examples.iter().zip(loss.labels.iter()).enumerate() {
            let weight = loss.weights.map_or(1.0, |ws| ws[i] as f64);
            if weight == 0.0 {
                continue;
            }
            let mut z = 0.0f64;
            for (wi, xi) in w.iter().zip(x.iter()) {
                z += wi * (*xi as f64);
            }
            value += weight * if y { log1p_exp(-z) } else { log1p_exp(z) };
            let residual = weight * (sigmoid(z) - if y { 1.0 } else { 0.0 });
            for (g, xi) in grad.iter_mut().zip(x.iter()) {
                *g += residual * (*xi as f64);
            }
        }
        let mut w_sq = 0.0f64;
        for wi in w {
            w_sq += wi * wi;
        }
        value += loss.lambda * w_sq;
        for (g, wi) in grad.iter_mut().zip(w.iter()) {
            *g += 2.0 * loss.lambda * wi;
        }
        let norm = (w_sq + NORM_EPS).sqrt();
        if loss.lambda_c != 0.0 {
            let mut w_dot_q0 = 0.0f64;
            for (wi, qi) in w.iter().zip(loss.q0.iter()) {
                w_dot_q0 += wi * (*qi as f64);
            }
            let cos = w_dot_q0 / norm;
            value += loss.lambda_c * (1.0 - cos);
            let n3 = norm * norm * norm;
            for i in 0..d {
                let dcos = (loss.q0[i] as f64) / norm - w_dot_q0 * w[i] / n3;
                grad[i] -= loss.lambda_c * dcos;
            }
        }
        if loss.lambda_d != 0.0 {
            if let Some(m) = loss.m_d {
                let mut mw = vec![0.0f64; d];
                for (i, mwi) in mw.iter_mut().enumerate() {
                    let row = m.row(i);
                    let mut acc = 0.0f64;
                    for (rj, wj) in row.iter().zip(w.iter()) {
                        acc += (*rj as f64) * wj;
                    }
                    *mwi = acc;
                }
                let mut w_m_w = 0.0f64;
                for (wi, mwi) in w.iter().zip(mw.iter()) {
                    w_m_w += wi * mwi;
                }
                let n2 = norm * norm;
                value += loss.lambda_d * w_m_w / n2;
                let n4 = n2 * n2;
                for i in 0..d {
                    grad[i] += loss.lambda_d * (2.0 * mw[i] / n2 - 2.0 * w_m_w * w[i] / n4);
                }
            }
        }
        value
    }

    fn assert_close(got: f64, want: f64, what: &str) {
        let tol = 1e-10 * want.abs() + 1e-12;
        assert!(
            (got - want).abs() <= tol,
            "{what}: {got} vs reference {want} (|Δ| = {:e})",
            (got - want).abs()
        );
    }

    #[test]
    fn kernel_loss_matches_scalar_reference() {
        // The solve_heavy shape: 331 examples × 128 dims with an M_D and
        // mixed per-example weights (zeros included).
        let (n, dim) = (331, 128);
        let mut rng = StdRng::seed_from_u64(26);
        let q0 = random_unit_vector(&mut rng, dim);
        let m = random_psd(dim, 27);
        let dir = random_unit_vector(&mut rng, dim);
        let examples: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    // |z| = 35–59 at w = dir: past 30, where the
                    // reference's `log1p_exp` returns z itself.
                    let c = (35 + i % 25) as f32 * if i % 2 == 0 { 1.0 } else { -1.0 };
                    dir.iter().map(|v| v * c).collect()
                } else {
                    let scale = 1.0 + (i % 5) as f32;
                    random_unit_vector(&mut rng, dim)
                        .iter()
                        .map(|v| v * scale)
                        .collect()
                }
            })
            .collect();
        let refs: Vec<&[f32]> = examples.iter().map(|v| v.as_slice()).collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let weights: Vec<f32> = (0..n)
            .map(|i| match i % 6 {
                0 => 0.0,
                1 => 1.0,
                2 => 0.25,
                3 => 2.5,
                4 => 1.0 / 3.0,
                _ => 0.75,
            })
            .collect();
        let loss = AlignerLoss {
            examples: &refs,
            labels: &labels,
            weights: Some(&weights),
            q0: &q0,
            lambda: 1.0,
            lambda_c: 1.0,
            lambda_d: 100.0,
            m_d: Some(&m),
        };
        let dir64: Vec<f64> = dir.iter().map(|&v| v as f64).collect();
        let mixed: Vec<f64> = dir64
            .iter()
            .zip(&q0)
            .map(|(&a, &b)| 0.6 * a + 0.3 * b as f64)
            .collect();
        for w in [dir64, mixed] {
            let mut got = vec![f64::NAN; dim];
            let mut want = vec![f64::NAN; dim];
            let v = loss.value_grad(&w, &mut got);
            let v_ref = reference_value_grad(&loss, &w, &mut want);
            assert_close(v, v_ref, "value");
            for (j, (&g, &r)) in got.iter().zip(&want).enumerate() {
                assert_close(g, r, &format!("gradient[{j}]"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "example/label mismatch")]
    fn label_count_mismatch_panics() {
        let x = vec![1.0f32, 0.0];
        let examples: Vec<&[f32]> = vec![&x, &x];
        let loss = AlignerLoss {
            examples: &examples,
            labels: &[true],
            weights: None,
            q0: &[1.0, 0.0],
            lambda: 1.0,
            lambda_c: 0.0,
            lambda_d: 0.0,
            m_d: None,
        };
        let mut g = vec![0.0; 2];
        loss.value_grad(&[1.0, 0.0], &mut g);
    }

    fn random_psd(dim: usize, seed: u64) -> DenseMatrix {
        // AᵀA is symmetric PSD, like a real M_D.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = DenseMatrix::zeros(dim, dim);
        for i in 0..dim {
            let row = random_unit_vector(&mut rng, dim);
            a.row_mut(i).copy_from_slice(&row);
        }
        let mut m = DenseMatrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                let mut acc = 0.0;
                for k in 0..dim {
                    acc += a.get(k, i) * a.get(k, j);
                }
                m.set(i, j, acc);
            }
        }
        m
    }

    #[test]
    fn gradient_matches_finite_differences_full_loss() {
        let dim = 6;
        let mut rng = StdRng::seed_from_u64(1);
        let q0 = random_unit_vector(&mut rng, dim);
        let x1 = random_unit_vector(&mut rng, dim);
        let x2 = random_unit_vector(&mut rng, dim);
        let m = random_psd(dim, 2);
        let examples: Vec<&[f32]> = vec![&x1, &x2];
        let labels = vec![true, false];
        let loss = AlignerLoss {
            examples: &examples,
            weights: None,
            labels: &labels,
            q0: &q0,
            lambda: 3.0,
            lambda_c: 5.0,
            lambda_d: 7.0,
            m_d: Some(&m),
        };
        let w: Vec<f64> = random_unit_vector(&mut rng, dim)
            .iter()
            .map(|&v| v as f64 * 0.8)
            .collect();
        let err = max_gradient_error(&loss, &w, 1e-6);
        assert!(err < 1e-4, "gradient error {err}");
    }

    #[test]
    fn gradient_ok_without_db_term() {
        let dim = 5;
        let mut rng = StdRng::seed_from_u64(3);
        let q0 = random_unit_vector(&mut rng, dim);
        let x = random_unit_vector(&mut rng, dim);
        let examples: Vec<&[f32]> = vec![&x];
        let labels = vec![true];
        let loss = AlignerLoss {
            examples: &examples,
            weights: None,
            labels: &labels,
            q0: &q0,
            lambda: 1.0,
            lambda_c: 2.0,
            lambda_d: 0.0,
            m_d: None,
        };
        let w = vec![0.2f64, -0.1, 0.4, 0.05, -0.3];
        let err = max_gradient_error(&loss, &w, 1e-6);
        assert!(err < 1e-5, "gradient error {err}");
    }

    #[test]
    fn loss_at_q0_with_no_feedback_is_regularization_only() {
        let dim = 4;
        let mut rng = StdRng::seed_from_u64(4);
        let q0 = random_unit_vector(&mut rng, dim);
        let loss = AlignerLoss {
            examples: &[],
            labels: &[],
            weights: None,
            q0: &q0,
            lambda: 2.0,
            lambda_c: 10.0,
            lambda_d: 0.0,
            m_d: None,
        };
        let w: Vec<f64> = q0.iter().map(|&v| v as f64).collect();
        let mut g = vec![0.0; dim];
        let v = loss.value_grad(&w, &mut g);
        // ‖q0‖ = 1 → λ·1 + λc·(1−1) = λ.
        assert!((v - 2.0).abs() < 1e-6, "value {v}");
    }

    #[test]
    fn clip_term_prefers_alignment_with_q0() {
        let dim = 4;
        let q0 = vec![1.0f32, 0.0, 0.0, 0.0];
        let loss = AlignerLoss {
            examples: &[],
            labels: &[],
            weights: None,
            q0: &q0,
            lambda: 0.0,
            lambda_c: 1.0,
            lambda_d: 0.0,
            m_d: None,
        };
        let aligned = vec![1.0f64, 0.0, 0.0, 0.0];
        let misaligned = vec![0.0f64, 1.0, 0.0, 0.0];
        let mut g = vec![0.0; dim];
        assert!(loss.value_grad(&aligned, &mut g) < loss.value_grad(&misaligned, &mut g));
    }

    #[test]
    fn db_term_is_scale_invariant() {
        // (wᵀMw)/‖w‖² must not change when w is rescaled.
        let dim = 5;
        let m = random_psd(dim, 9);
        let q0 = vec![0.0f32; dim];
        let loss = AlignerLoss {
            examples: &[],
            labels: &[],
            weights: None,
            q0: &q0,
            lambda: 0.0,
            lambda_c: 0.0,
            lambda_d: 1.0,
            m_d: Some(&m),
        };
        let w1 = vec![0.3f64, -0.2, 0.5, 0.1, 0.7];
        let w2: Vec<f64> = w1.iter().map(|v| v * 10.0).collect();
        let mut g = vec![0.0; dim];
        let v1 = loss.value_grad(&w1, &mut g);
        let v2 = loss.value_grad(&w2, &mut g);
        assert!((v1 - v2).abs() < 1e-6, "{v1} vs {v2}");
    }
}
