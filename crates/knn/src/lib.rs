//! k-nearest-neighbour graphs and label propagation (paper §4.2).
//!
//! Database alignment needs, once per dataset:
//!
//! 1. an approximate kNN graph over all embedding vectors — built with
//!    **NN-descent** (Dong et al. 2011), "an approximate but scalable
//!    way to compute a kNN graph over large datasets";
//! 2. self-tuning Gaussian edge weights
//!    `w_ij = exp(−‖x_i − x_j‖² / σ_i·σ_j)` on the symmetrized graph,
//!    the degree matrix `D`, and the Laplacian `D − W`;
//! 3. (for the `prop.` variant of Table 6 and the conceptual grounding
//!    of §4.2) **label propagation** (Zhu & Ghahramani 2002): iterate
//!    `ŷ ← D⁻¹ W ŷ` with the user's labels clamped.

pub mod graph;
pub mod labelprop;
pub mod nndescent;
#[cfg(test)]
mod proptests;
pub mod weights;

pub use graph::KnnGraph;
pub use labelprop::propagate_labels;
pub use weights::{gaussian_adjacency, laplacian};
