//! Limited-memory BFGS (Liu & Nocedal 1989) with a strong-Wolfe line
//! search.
//!
//! SeeSaw's query aligner re-solves its loss after every feedback round;
//! the solve must be robust without learning-rate tuning (the paper calls
//! this out explicitly: L-BFGS "removes the need for learning rate tuning
//! (and also the possibility of divergence or no convergence)"). The
//! implementation uses the standard two-loop recursion with an
//! `H₀ = γI` scaling and a bracket/zoom strong-Wolfe line search
//! (Nocedal & Wright, Algorithms 3.5/3.6).

/// A differentiable objective: fills `grad` and returns the value at `x`.
pub trait Objective {
    /// Evaluate the function value and gradient at `x`.
    fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64;
}

impl<F> Objective for F
where
    F: Fn(&[f64], &mut [f64]) -> f64,
{
    fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self(x, grad)
    }
}

/// Number of curvature pairs retained (`m` in the literature).
const HISTORY: usize = 10;
/// Stop when the relative decrease of `f` falls below this.
const F_TOL: f64 = 1e-10;
/// Armijo (sufficient-decrease) constant `c₁`.
const C1: f64 = 1e-4;
/// Curvature constant `c₂` (strong Wolfe).
const C2: f64 = 0.9;
/// Line-search iteration cap.
const MAX_LINE_SEARCH: usize = 30;

/// Stopping rules for [`Lbfgs`]. The defaults solve the aligner loss in
/// a few tens of iterations, matching the paper's description.
#[derive(Clone, Debug)]
pub struct LbfgsConfig {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Stop when `‖∇f‖∞ ≤ grad_tol`.
    pub grad_tol: f64,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            grad_tol: 1e-6,
        }
    }
}

/// Why the solver stopped, plus the solution statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct LbfgsOutcome {
    /// Final objective value.
    pub value: f64,
    /// Infinity norm of the final gradient.
    pub grad_norm: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// True when stopping was due to a tolerance (not the iteration cap).
    pub converged: bool,
}

/// The L-BFGS minimizer. Construct once and reuse across solves; all
/// per-solve state is local.
#[derive(Clone, Debug, Default)]
pub struct Lbfgs {
    config: LbfgsConfig,
}

impl Lbfgs {
    /// Create a solver with the given configuration.
    pub fn new(config: LbfgsConfig) -> Self {
        Self { config }
    }

    /// Minimize `f` starting from `x0`; `x0` is updated in place to the
    /// minimizer found.
    pub fn minimize<O: Objective>(&self, f: &O, x: &mut [f64]) -> LbfgsOutcome {
        let n = x.len();
        let cfg = &self.config;
        let mut grad = vec![0.0f64; n];
        let mut value = f.value_grad(x, &mut grad);
        assert!(
            value.is_finite(),
            "objective must be finite at the starting point (got {value})"
        );

        // Curvature pair ring buffers.
        let mut s_hist: Vec<Vec<f64>> = Vec::with_capacity(HISTORY);
        let mut y_hist: Vec<Vec<f64>> = Vec::with_capacity(HISTORY);
        let mut rho_hist: Vec<f64> = Vec::with_capacity(HISTORY);

        let mut direction = vec![0.0f64; n];
        let mut alpha_buf = vec![0.0f64; HISTORY];

        for iter in 0..cfg.max_iters {
            let gnorm = inf_norm(&grad);
            if gnorm <= cfg.grad_tol {
                return LbfgsOutcome {
                    value,
                    grad_norm: gnorm,
                    iterations: iter,
                    converged: true,
                };
            }

            two_loop(
                &grad,
                &s_hist,
                &y_hist,
                &rho_hist,
                &mut alpha_buf,
                &mut direction,
            );

            // Ensure a descent direction; fall back to steepest descent if
            // the curvature history has gone bad numerically.
            let dg = dot(&direction, &grad);
            if !dg.is_finite() || dg >= 0.0 {
                for (d, g) in direction.iter_mut().zip(grad.iter()) {
                    *d = -g;
                }
                s_hist.clear();
                y_hist.clear();
                rho_hist.clear();
            }

            let step0 = if s_hist.is_empty() && iter == 0 {
                // First step: scale to unit-ish movement.
                (1.0 / inf_norm(&direction).max(1e-12)).min(1.0)
            } else {
                1.0
            };

            let ls = wolfe_line_search(f, x, value, &grad, &direction, step0);
            let Some(ls) = ls else {
                // Line search failed: gradient is as good as it gets.
                return LbfgsOutcome {
                    value,
                    grad_norm: gnorm,
                    iterations: iter,
                    converged: false,
                };
            };

            // s = x_new − x, y = g_new − g.
            let mut s = vec![0.0f64; n];
            let mut yv = vec![0.0f64; n];
            for i in 0..n {
                s[i] = ls.x[i] - x[i];
                yv[i] = ls.grad[i] - grad[i];
            }
            let sy = dot(&s, &yv);
            let prev_value = value;
            x.copy_from_slice(&ls.x);
            grad.copy_from_slice(&ls.grad);
            value = ls.value;

            if sy > 1e-12 {
                if s_hist.len() == HISTORY {
                    s_hist.remove(0);
                    y_hist.remove(0);
                    rho_hist.remove(0);
                }
                s_hist.push(s);
                y_hist.push(yv);
                rho_hist.push(1.0 / sy);
            }

            let rel_decrease =
                (prev_value - value).abs() / prev_value.abs().max(value.abs()).max(1.0);
            if rel_decrease <= F_TOL {
                return LbfgsOutcome {
                    value,
                    grad_norm: inf_norm(&grad),
                    iterations: iter + 1,
                    converged: true,
                };
            }
        }

        LbfgsOutcome {
            value,
            grad_norm: inf_norm(&grad),
            iterations: cfg.max_iters,
            converged: false,
        }
    }
}

/// Two-loop recursion producing `direction = −H·grad`.
fn two_loop(
    grad: &[f64],
    s_hist: &[Vec<f64>],
    y_hist: &[Vec<f64>],
    rho_hist: &[f64],
    alpha_buf: &mut [f64],
    direction: &mut [f64],
) {
    direction.copy_from_slice(grad);
    let m = s_hist.len();
    for i in (0..m).rev() {
        let alpha = rho_hist[i] * dot(&s_hist[i], direction);
        alpha_buf[i] = alpha;
        axpy(direction, -alpha, &y_hist[i]);
    }
    // Initial Hessian scaling γ = (s·y)/(y·y) of the most recent pair.
    if m > 0 {
        let last = m - 1;
        let yy = dot(&y_hist[last], &y_hist[last]);
        if yy > 1e-12 {
            let gamma = 1.0 / (rho_hist[last] * yy);
            for d in direction.iter_mut() {
                *d *= gamma;
            }
        }
    }
    for i in 0..m {
        let beta = rho_hist[i] * dot(&y_hist[i], direction);
        axpy(direction, alpha_buf[i] - beta, &s_hist[i]);
    }
    for d in direction.iter_mut() {
        *d = -*d;
    }
}

struct LineSearchResult {
    x: Vec<f64>,
    grad: Vec<f64>,
    value: f64,
}

/// Strong-Wolfe bracket/zoom line search (Nocedal & Wright Alg. 3.5/3.6).
fn wolfe_line_search<O: Objective>(
    f: &O,
    x0: &[f64],
    f0: f64,
    g0: &[f64],
    direction: &[f64],
    step0: f64,
) -> Option<LineSearchResult> {
    let n = x0.len();
    let d_dot_g0 = dot(direction, g0);
    if d_dot_g0 >= 0.0 {
        return None; // not a descent direction
    }

    let eval = |alpha: f64, x: &mut Vec<f64>, g: &mut Vec<f64>| -> (f64, f64) {
        for i in 0..n {
            x[i] = x0[i] + alpha * direction[i];
        }
        let v = f.value_grad(x, g);
        (v, dot(direction, g))
    };

    let mut x = vec![0.0f64; n];
    let mut g = vec![0.0f64; n];

    let mut alpha_prev = 0.0f64;
    let mut f_prev = f0;
    let mut alpha = step0.max(1e-16);
    let alpha_max = 1e6;

    for i in 0..MAX_LINE_SEARCH {
        let (fi, di) = eval(alpha, &mut x, &mut g);
        if !fi.is_finite() {
            // Overshot into a bad region — shrink hard.
            alpha *= 0.25;
            continue;
        }
        if fi > f0 + C1 * alpha * d_dot_g0 || (i > 0 && fi >= f_prev) {
            return zoom(
                f, x0, f0, d_dot_g0, direction, alpha_prev, f_prev, alpha, &mut x, &mut g,
            );
        }
        if di.abs() <= -C2 * d_dot_g0 {
            return Some(LineSearchResult {
                x,
                grad: g,
                value: fi,
            });
        }
        if di >= 0.0 {
            return zoom(
                f, x0, f0, d_dot_g0, direction, alpha, fi, alpha_prev, &mut x, &mut g,
            );
        }
        alpha_prev = alpha;
        f_prev = fi;
        alpha = (2.0 * alpha).min(alpha_max);
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn zoom<O: Objective>(
    f: &O,
    x0: &[f64],
    f0: f64,
    d_dot_g0: f64,
    direction: &[f64],
    mut lo: f64,
    mut f_lo: f64,
    mut hi: f64,
    x: &mut [f64],
    g: &mut [f64],
) -> Option<LineSearchResult> {
    let n = x0.len();
    for _ in 0..MAX_LINE_SEARCH {
        let alpha = 0.5 * (lo + hi);
        for i in 0..n {
            x[i] = x0[i] + alpha * direction[i];
        }
        let fi = f.value_grad(x, g);
        let di = dot(direction, g);
        if !fi.is_finite() || fi > f0 + C1 * alpha * d_dot_g0 || fi >= f_lo {
            hi = alpha;
        } else {
            if di.abs() <= -C2 * d_dot_g0 {
                return Some(LineSearchResult {
                    x: x.to_vec(),
                    grad: g.to_vec(),
                    value: fi,
                });
            }
            if di * (hi - lo) >= 0.0 {
                hi = lo;
            }
            lo = alpha;
            f_lo = fi;
        }
        if (hi - lo).abs() < 1e-14 {
            break;
        }
    }
    // Accept the best sufficient-decrease point even without curvature —
    // better than reporting total failure on hard losses.
    let alpha = lo;
    if alpha > 0.0 {
        for i in 0..n {
            x[i] = x0[i] + alpha * direction[i];
        }
        let fi = f.value_grad(x, g);
        if fi.is_finite() && fi < f0 {
            return Some(LineSearchResult {
                x: x.to_vec(),
                grad: g.to_vec(),
                value: fi,
            });
        }
    }
    None
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[inline]
fn axpy(a: &mut [f64], s: f64, b: &[f64]) {
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x += s * y;
    }
}

#[inline]
fn inf_norm(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(x) = Σ cᵢ(xᵢ − tᵢ)², a separable strictly convex quadratic.
    struct Quadratic {
        c: Vec<f64>,
        t: Vec<f64>,
    }

    impl Objective for Quadratic {
        fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            let mut v = 0.0;
            for i in 0..x.len() {
                let d = x[i] - self.t[i];
                v += self.c[i] * d * d;
                grad[i] = 2.0 * self.c[i] * d;
            }
            v
        }
    }

    #[test]
    fn solves_quadratic_exactly() {
        let q = Quadratic {
            c: vec![1.0, 10.0, 0.5, 3.0],
            t: vec![1.0, -2.0, 3.0, 0.25],
        };
        let mut x = vec![0.0; 4];
        let out = Lbfgs::default().minimize(&q, &mut x);
        assert!(out.converged, "{out:?}");
        for (xi, ti) in x.iter().zip(q.t.iter()) {
            assert!((xi - ti).abs() < 1e-5, "{x:?}");
        }
    }

    #[test]
    fn solves_rosenbrock() {
        // Classic non-convex banana function; minimum at (1, 1).
        let rosen = |x: &[f64], g: &mut [f64]| -> f64 {
            let (a, b) = (x[0], x[1]);
            g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
            g[1] = 200.0 * (b - a * a);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        let mut x = vec![-1.2, 1.0];
        let cfg = LbfgsConfig {
            max_iters: 500,
            ..LbfgsConfig::default()
        };
        let out = Lbfgs::new(cfg).minimize(&rosen, &mut x);
        assert!(out.value < 1e-8, "{out:?} at {x:?}");
        assert!((x[0] - 1.0).abs() < 1e-3);
        assert!((x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn monotone_nonincreasing_objective() {
        // The Wolfe conditions guarantee every accepted step decreases f;
        // check on a mildly ill-conditioned quadratic by instrumenting the
        // objective.
        use std::cell::RefCell;
        let seen = RefCell::new(Vec::<f64>::new());
        let f = |x: &[f64], g: &mut [f64]| -> f64 {
            let mut v = 0.0;
            for (i, xi) in x.iter().enumerate() {
                let c = 10f64.powi(i as i32 % 4);
                v += c * xi * xi;
                g[i] = 2.0 * c * xi;
            }
            seen.borrow_mut().push(v);
            v
        };
        let mut x = vec![1.0; 8];
        let out = Lbfgs::default().minimize(&f, &mut x);
        assert!(out.converged);
        assert!(out.value < 1e-8);
    }

    #[test]
    fn already_optimal_returns_immediately() {
        let q = Quadratic {
            c: vec![1.0],
            t: vec![5.0],
        };
        let mut x = vec![5.0];
        let out = Lbfgs::default().minimize(&q, &mut x);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn panics_on_nan_start() {
        let f = |_: &[f64], g: &mut [f64]| -> f64 {
            g[0] = f64::NAN;
            f64::NAN
        };
        let mut x = vec![0.0];
        let _ = Lbfgs::default().minimize(&f, &mut x);
    }

    #[test]
    fn high_dimensional_logistic_style_loss() {
        // log(1+e^{-x·t}) + 0.01‖x‖² in 64-d has a unique minimizer;
        // convergence within the default iteration budget mirrors the
        // aligner's regime.
        let t: Vec<f64> = (0..64)
            .map(|i| ((i * 37 + 11) % 13) as f64 / 13.0 - 0.5)
            .collect();
        let tt = t.clone();
        let f = move |x: &[f64], g: &mut [f64]| -> f64 {
            let z: f64 = x.iter().zip(tt.iter()).map(|(a, b)| a * b).sum();
            let s = crate::sigmoid(z);
            let mut v = crate::log1p_exp(-z);
            for i in 0..x.len() {
                g[i] = (s - 1.0) * tt[i] + 0.02 * x[i];
                v += 0.01 * x[i] * x[i];
            }
            v
        };
        let mut x = vec![0.0; 64];
        let out = Lbfgs::default().minimize(&f, &mut x);
        assert!(out.converged, "{out:?}");
        assert!(out.iterations < 60, "took {} iterations", out.iterations);
    }
}
