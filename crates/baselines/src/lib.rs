//! The baselines SeeSaw is evaluated against (paper §5.4):
//!
//! * [`rocchio`] — Rocchio's relevance-feedback algorithm (Eq. 6),
//!   the classic IR baseline;
//! * [`ens`] — Efficient Nonmyopic Search (Jiang et al., ICML 2017),
//!   the state-of-the-art active-search baseline, with the paper's two
//!   modifications (CLIP scores as per-vertex priors γᵢ; search starts
//!   after zero-shot finds the first positive) and the Platt-calibrated
//!   variant of Table 4;
//! * zero-shot CLIP is the degenerate baseline: the fixed query `q₀`
//!   (no code needed beyond the session layer); few-shot CLIP (Eq. 1)
//!   is the SeeSaw aligner with both alignment terms off
//!   (`AlignerConfig::few_shot`).

pub mod ens;
#[cfg(test)]
mod proptests;
pub mod rocchio;

pub use ens::EnsSearcher;
pub use rocchio::Rocchio;
