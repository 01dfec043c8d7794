//! The SeeSaw **query aligner** — the paper's primary contribution
//! (§4.1–§4.4).
//!
//! After every feedback round, SeeSaw re-solves
//!
//! ```text
//! q_{t+1} = argmin_w  Σᵢ LogLoss(yᵢ, σ(w·xᵢ))      — fit user feedback
//!                   + λ ‖w‖²                        — but avoid ‖w‖ → ∞
//!                   + λc (1 − w·q₀ / ‖w‖)           — CLIP alignment (§4.1)
//!                   + λD (wᵀ M_D w) / ‖w‖²          — DB alignment  (§4.2)
//! ```
//!
//! where `M_D = Xᵀ (D − W) X` is precomputed once per dataset from the
//! kNN graph (it is `d × d`, *independent of the database size*, which
//! is what keeps per-iteration work sub-linear in N — the paper's
//! interactivity requirement).
//!
//! Modules:
//! * [`loss`] — the four-term loss with analytic gradients (verified
//!   against finite differences in tests);
//! * [`solve`] — the L-BFGS solve producing the next unit query vector;
//! * [`mdmatrix`] — the `M_D` precomputation (with the paper's optional
//!   subsampling optimization).

pub mod loss;
pub mod mdmatrix;
#[cfg(test)]
mod proptests;
pub mod solve;

pub use loss::AlignerLoss;
pub use mdmatrix::{compute_db_matrix, db_matrix_from_adjacency, DbMatrixConfig};
pub use solve::{AlignOutcome, AlignerConfig, QueryAligner};
