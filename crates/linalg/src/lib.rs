//! Dense and sparse linear-algebra kernels used throughout the SeeSaw
//! reproduction.
//!
//! Everything in the SeeSaw pipeline manipulates unit-norm embedding
//! vectors (`f32`, typically 128–512 dimensional) and two matrix shapes:
//!
//! * a *row-major dense matrix* of embeddings (`N × d`, [`DenseMatrix`]),
//! * a *sparse graph Laplacian* (`N × N`, [`CsrMatrix`]) produced from the
//!   kNN graph and consumed by database alignment (§4.2 of the paper).
//!
//! The scoring hot path funnels through the [`kernels`] module: a
//! multi-accumulator [`dot`] (the single scoring primitive of the
//! workspace, with a fixed, documented accumulation order), fused
//! [`axpy`]/[`scale_add`], a row-scan [`gemv1_into`] that scores every
//! row of a matrix against one query, and a blocked
//! [`normalize_rows`]. Each kernel executes on a
//! runtime-detected SIMD tier — explicit AVX2 (+F16C) on x86_64, NEON
//! on aarch64, portable scalar as the bit-exactness reference (see
//! [`simd`]; override with `SEESAW_SIMD=scalar|avx2|neon|auto`) — and
//! every tier is bitwise identical, so determinism survives tier
//! switches and machine moves. The [`half`] module provides exact
//! bit-level f16↔f32 conversion for the half-precision row-storage
//! tier scored by [`dot_f16`]/[`gemv1_f16_into`]; the SQ8 quantized
//! row tier is scored by [`dot_sq8`]/[`gemv1_sq8_into`], dequantizing
//! u8 codes on the fly in the same canonical order; and the PQ tier is
//! scored asymmetrically through per-query lookup tables built by
//! [`pq_lut_into`] and summed by [`dot_pq`]/[`scan_pq_into`]. Everything is
//! deterministic, allocation conscious, and needs no BLAS dependency;
//! see the [`kernels`] docs for the exact contracts (accumulation
//! order, tier equivalence, determinism, panics).

pub mod dense;
pub mod half;
pub mod kernels;
#[cfg(test)]
mod proptests;
pub mod simd;
pub mod sparse;
pub mod vector;

pub use dense::DenseMatrix;
pub use half::{decode_f16_into, encode_f16, f16_from_f32, f32_from_f16};
pub use kernels::{
    axpy, dot, dot_f16, dot_pq, dot_scalar, dot_sq8, gemv1_f16_into, gemv1_into, gemv1_sq8_into,
    normalize_rows, pq_lut_into, scale_add, scan_pq_into, PQ_LUT_STRIDE,
};
pub use simd::{active_tier, available_tiers, detect_tier, force_tier, tier_supported, Tier};
pub use sparse::{CsrMatrix, Triplet};
pub use vector::{
    add_scaled, cosine, l2_norm, l2_norm_sq, mean_vector, normalize, normalized,
    orthonormal_component, random_unit_vector, rotate_toward, scale, squared_euclidean,
    standard_normal,
};
