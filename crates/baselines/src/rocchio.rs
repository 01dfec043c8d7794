//! Rocchio's algorithm (Rocchio 1971; paper Eq. 6):
//!
//! ```text
//! q_t = α·q₀ + (β/|D_r|) Σ_{d ∈ D_r} d − (γ/|D_n|) Σ_{d ∈ D_n} d
//! ```
//!
//! The paper's hyperparameters: α = 1 (any other value is equivalent
//! after rescaling), β = .5, γ = .25 (they also tried γ = 0 per the IR
//! textbook recommendation but found .25 better).

use seesaw_linalg::{add_scaled, normalized};

/// Weight of the mean relevant vector (paper: .5). The original query
/// weighs α = 1.
const BETA: f32 = 0.5;
/// Weight of the mean non-relevant vector (paper: .25).
const GAMMA: f32 = 0.25;

/// Accumulates feedback and produces the Rocchio query vector.
#[derive(Clone, Debug)]
pub struct Rocchio {
    q0: Vec<f32>,
    pos_sum: Vec<f32>,
    neg_sum: Vec<f32>,
    n_pos: usize,
    n_neg: usize,
}

impl Rocchio {
    /// Start from the text query `q0`.
    pub fn new(q0: &[f32]) -> Self {
        Self {
            q0: normalized(q0),
            pos_sum: vec![0.0; q0.len()],
            neg_sum: vec![0.0; q0.len()],
            n_pos: 0,
            n_neg: 0,
        }
    }

    /// Record one labeled example.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn add_feedback(&mut self, x: &[f32], relevant: bool) {
        assert_eq!(x.len(), self.q0.len(), "feedback dimension mismatch");
        if relevant {
            add_scaled(&mut self.pos_sum, 1.0, x);
            self.n_pos += 1;
        } else {
            add_scaled(&mut self.neg_sum, 1.0, x);
            self.n_neg += 1;
        }
    }

    /// Number of positive examples seen.
    pub fn n_pos(&self) -> usize {
        self.n_pos
    }

    /// Number of negative examples seen.
    pub fn n_neg(&self) -> usize {
        self.n_neg
    }

    /// The current query vector (unit norm; equals `q₀` before any
    /// feedback).
    pub fn query(&self) -> Vec<f32> {
        let mut q = self.q0.clone();
        if self.n_pos > 0 {
            add_scaled(&mut q, BETA / self.n_pos as f32, &self.pos_sum);
        }
        if self.n_neg > 0 {
            add_scaled(&mut q, -GAMMA / self.n_neg as f32, &self.neg_sum);
        }
        let out = normalized(&q);
        if out.iter().all(|&v| v == 0.0) {
            // Degenerate cancellation: fall back to the prior.
            return self.q0.clone();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_linalg::{cosine, dot, l2_norm};

    #[test]
    fn no_feedback_returns_q0() {
        let r = Rocchio::new(&[0.6, 0.8]);
        let q = r.query();
        assert!((dot(&q, &[0.6, 0.8]) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn matches_closed_form() {
        let q0 = [1.0f32, 0.0, 0.0];
        let mut r = Rocchio::new(&q0);
        r.add_feedback(&[0.0, 1.0, 0.0], true);
        r.add_feedback(&[0.0, 0.0, 1.0], true);
        r.add_feedback(&[0.0, -1.0, 0.0], false);
        // q = 1·q0 + .5·mean(pos) − .25·mean(neg)
        //   = (1, 0, 0) + .5·(0, .5, .5) − .25·(0, −1, 0)
        //   = (1, .5, .25) normalized.
        let expect = seesaw_linalg::normalized(&[1.0, 0.5, 0.25]);
        let got = r.query();
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-5, "{got:?} vs {expect:?}");
        }
    }

    #[test]
    fn positives_attract_negatives_repel() {
        let q0 = [1.0f32, 0.0];
        let target = [0.0f32, 1.0];
        let mut r = Rocchio::new(&q0);
        r.add_feedback(&target, true);
        let q_after_pos = r.query();
        assert!(cosine(&q_after_pos, &target) > 0.0);

        let mut r2 = Rocchio::new(&q0);
        r2.add_feedback(&target, false);
        let q_after_neg = r2.query();
        assert!(cosine(&q_after_neg, &target) < 0.0);
    }

    #[test]
    fn output_is_unit_norm() {
        let mut r = Rocchio::new(&[0.0, 1.0]);
        r.add_feedback(&[1.0, 0.0], true);
        r.add_feedback(&[0.3, 0.3], false);
        assert!((l2_norm(&r.query()) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cancellation_falls_back_to_q0() {
        // α·q0 exactly cancelled by γ·mean(neg) = .25·(4, 0).
        let q0 = [1.0f32, 0.0];
        let mut r = Rocchio::new(&q0);
        r.add_feedback(&[4.0, 0.0], false);
        let q = r.query();
        assert_eq!(q, q0.to_vec());
    }

    #[test]
    fn counts_are_tracked() {
        let mut r = Rocchio::new(&[1.0, 0.0]);
        r.add_feedback(&[0.0, 1.0], true);
        r.add_feedback(&[0.0, 1.0], false);
        r.add_feedback(&[1.0, 1.0], false);
        assert_eq!(r.n_pos(), 1);
        assert_eq!(r.n_neg(), 2);
    }
}
