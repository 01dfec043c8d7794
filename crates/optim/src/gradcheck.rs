//! Finite-difference gradient verification.
//!
//! The hand-derived gradient of the four-term aligner loss of §4.4 is
//! validated against central differences in its test suites using this
//! helper.

use crate::lbfgs::Objective;

/// Maximum absolute difference between the analytic gradient of `f` at
/// `x` and a central finite-difference estimate with step `h`,
/// normalized by `max(1, |analytic|)` per coordinate.
// xtask-allow: D1 the aligner's gradient checks use it across the crate boundary
pub fn max_gradient_error<O: Objective>(f: &O, x: &[f64], h: f64) -> f64 {
    let n = x.len();
    let mut analytic = vec![0.0f64; n];
    let _ = f.value_grad(x, &mut analytic);

    let mut xp = x.to_vec();
    let mut scratch = vec![0.0f64; n];
    let mut worst = 0.0f64;
    for i in 0..n {
        let orig = xp[i];
        xp[i] = orig + h;
        let fp = f.value_grad(&xp, &mut scratch);
        xp[i] = orig - h;
        let fm = f.value_grad(&xp, &mut scratch);
        xp[i] = orig;
        let numeric = (fp - fm) / (2.0 * h);
        let denom = analytic[i].abs().max(1.0);
        worst = worst.max((numeric - analytic[i]).abs() / denom);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_gradient_passes() {
        let f = |x: &[f64], g: &mut [f64]| -> f64 {
            g[0] = 2.0 * x[0];
            g[1] = x[1].cos();
            x[0] * x[0] + x[1].sin()
        };
        let err = max_gradient_error(&f, &[0.7, -0.3], 1e-6);
        assert!(err < 1e-6, "{err}");
    }

    #[test]
    fn wrong_gradient_is_flagged() {
        let f = |x: &[f64], g: &mut [f64]| -> f64 {
            g[0] = 3.0 * x[0]; // should be 2·x
            x[0] * x[0]
        };
        let err = max_gradient_error(&f, &[1.0], 1e-6);
        assert!(err > 0.3, "{err}");
    }
}
