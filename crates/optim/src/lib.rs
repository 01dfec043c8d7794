//! Numerical optimization substrates for SeeSaw.
//!
//! The paper minimizes its query-alignment loss with "the PyTorch
//! implementation of the L-BFGS optimization algorithm … L-BFGS finds the
//! optimal solution in a few tens of steps (taking a few milliseconds)"
//! (§4.4). This crate provides that black box from scratch:
//!
//! * [`lbfgs`] — limited-memory BFGS with a strong-Wolfe line search,
//! * [`platt`] — Platt scaling, used to calibrate ENS priors in Table 4,
//! * [`gradcheck`] — finite-difference gradient verification used by the
//!   test suites of every loss in the workspace.
//!
//! There is no logistic-regression solver here: the few-shot CLIP
//! baseline (§3.2, Eq. 1) and the *ideal query vector* of Fig. 4 are
//! SeeSaw's aligner loss with λc = λD = 0, solved by `seesaw_aligner`.
//!
//! Solvers run in `f64` for numerical robustness; the embedding data they
//! consume stays `f32`.

pub mod gradcheck;
pub mod lbfgs;
pub mod platt;
#[cfg(test)]
mod proptests;

pub use gradcheck::max_gradient_error;
pub use lbfgs::{Lbfgs, LbfgsConfig, LbfgsOutcome, Objective};
pub use platt::PlattScaler;

/// Numerically stable sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `log(1 + e^z)` (softplus); the logistic loss for a
/// positive example with margin `−z`.
#[inline]
pub fn log1p_exp(z: f64) -> f64 {
    if z > 30.0 {
        z
    } else {
        z.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(-1000.0) < 1e-12);
    }

    #[test]
    fn log1p_exp_is_stable_and_correct() {
        assert!((log1p_exp(0.0) - (2.0f64).ln()).abs() < 1e-12);
        assert!((log1p_exp(100.0) - 100.0).abs() < 1e-9);
        assert!(log1p_exp(-100.0) < 1e-12);
    }
}
