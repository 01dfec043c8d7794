//! Blocked scoring kernels — the single scoring primitive of the
//! workspace, dispatched over runtime-detected SIMD tiers.
//!
//! Every inner product computed anywhere in the SeeSaw reproduction
//! (vector-store scans, ENS priors, kNN builds) funnels through
//! [`dot`], and the row scans funnel through [`gemv1_into`] (plus the
//! `_f16`/`_sq8` variants for the compact row storage tiers). The
//! aligner loss's f64 row work funnels through [`dot_rows_f64`] and
//! [`axpy_rows_f64`] (last section below). Centralizing the arithmetic
//! buys:
//!
//! 1. **Speed.** Each kernel executes on the best instruction-set tier
//!    the CPU supports — explicit AVX2 (+F16C) on x86_64, NEON on
//!    aarch64, lane-unrolled portable scalar everywhere — selected once
//!    per process by [`crate::simd::active_tier`] (override with
//!    `SEESAW_SIMD=scalar|avx2|neon|auto`, pin in-process with
//!    [`crate::simd::force_tier`]). In the GEMV kernels the SIMD tiers
//!    score several rows per loop to keep independent accumulator
//!    chains in flight.
//!    The f16 kernels score f16-encoded rows directly (widening
//!    in-register on AVX2), halving the memory traffic of a dense scan.
//! 2. **Determinism by construction.** All backends and all tiers
//!    score through the same canonical arithmetic (below), so
//!    cross-backend bit-identity guarantees (e.g. sharded-exact ≡
//!    exact in `tests/store_equivalence.rs`) hold without per-backend
//!    care — and survive tier switches and machine moves.
//!
//! # Kernel contracts
//!
//! * **Fixed accumulation order.** [`dot`] sums lane-major: eight lane
//!   accumulators filled in chunk order with separate multiply and add
//!   roundings (no FMA on any tier), combined as
//!   `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`, then the scalar
//!   remainder added left-to-right. This order is part of the public
//!   contract — it is *the* canonical summation order of the workspace
//!   — and every GEMV kernel computes each score by the exact same
//!   sequence of operations, so [`gemv1_into`] output is bit-identical
//!   to calling [`dot`] per row.
//! * **Tier equivalence.** Every SIMD tier replays that operation
//!   sequence exactly, so each kernel is **bitwise identical across
//!   tiers** (pinned by per-tier proptests). The scalar tier is the
//!   reference; `SEESAW_SIMD=scalar` runs it everywhere.
//! * **f16 semantics.** The `_f16` kernels take rows as IEEE binary16
//!   bit patterns (`&[u16]`, see [`crate::half`]), widen each element
//!   exactly to `f32`, and accumulate in `f32` in the canonical order:
//!   `dot_f16(row, q)` is bit-identical to `dot(decode(row), q)`.
//!   Precision is lost only once, when the row is *encoded* (round to
//!   nearest, ties to even) — never during scoring.
//! * **Determinism.** Given identical inputs and tier, every kernel
//!   returns bit-identical results on every call (no threading, no
//!   data-dependent reassociation) — and the tier doesn't change the
//!   answer either, per the previous point.
//! * **Panics.** Every kernel panics in **all** builds on a shape
//!   mismatch (`a.len() != b.len()`, a buffer that is not a multiple
//!   of `dim`, an `out` slice of the wrong length): the unrolled
//!   remainder handling would silently pair misaligned tails
//!   otherwise. This includes the element-wise kernels [`axpy`] and
//!   [`scale_add`], whose historical debug-only check let release
//!   builds silently truncate to the common prefix.
//! * **Degenerate rows.** [`normalize_rows`] **zero-fills** rows whose
//!   norm is at or below `f32::EPSILON` (no meaningful direction;
//!   dividing by a denormal norm would overflow to ±∞), matching
//!   [`crate::vector::normalize`] per row bit for bit.
//!
//! # f64-accumulating row kernels (the aligner loss)
//!
//! The aligner's L-BFGS solve works in `f64`, and **f64 accumulation is
//! the aligner's contract**: its loss and gradient are never rounded
//! through `f32`. Two kernels carry its row work over borrowed `f32`
//! rows (`&[&[f32]]`, so feedback examples need no gathering copy):
//!
//! * [`dot_rows_f64`] — `Xw`: `out[r] = rows[r] · w`. Each row element
//!   is widened exactly to `f64`, and each score is summed in the
//!   canonical order above carried out in `f64`: eight lane
//!   accumulators, separate multiply and add, the same
//!   `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))` tree, then the tail
//!   left-to-right.
//! * [`axpy_rows_f64`] — `Xᵀr`: `acc += Σᵢ coeffs[i] · rows[i]`, with
//!   every element of `acc` receiving its additions in row order
//!   (`acc[j] += c·x[j]`, separate multiply and add). That is
//!   bit-identical to the plain per-row loop.
//!
//! Both are bitwise identical across tiers. They have scalar and AVX2
//! backends; NEON runs the scalar reference.

use crate::simd::{
    active_tier, dispatch_axpy_rows_f64, dispatch_dot, dispatch_dot_f16, dispatch_dot_pq,
    dispatch_dot_rows_f64, dispatch_dot_sq8, dispatch_gemv1, dispatch_gemv1_f16,
    dispatch_gemv1_sq8, dispatch_scan_pq, Tier,
};

pub use crate::simd::PQ_LUT_STRIDE;

/// Inner product `a · b` — the workspace's canonical scoring kernel,
/// on the active SIMD tier.
///
/// # Panics
/// Panics if the slices have different lengths — in every build: the
/// unrolled remainder handling would silently pair misaligned tails
/// otherwise.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(active_tier(), a, b)
}

/// [`dot`] on an explicit tier (benches/tests sweeping the ISA
/// matrix). Unsupported tiers fall back to scalar.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_with(tier: Tier, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    dispatch_dot(tier, a, b)
}

/// Inner product of an f16-encoded row against an `f32` query, on the
/// active SIMD tier. Bit-identical to decoding the row
/// ([`crate::half::f32_from_f16`] per element) and calling [`dot`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_f16(a: &[u16], b: &[f32]) -> f32 {
    dot_f16_with(active_tier(), a, b)
}

/// [`dot_f16`] on an explicit tier.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_f16_with(tier: Tier, a: &[u16], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    dispatch_dot_f16(tier, a, b)
}

/// Inner product of an SQ8-encoded row against an `f32` query, on the
/// active SIMD tier: each u8 code dequantizes as `offset + scale *
/// code` (separate multiply and add roundings; the u8→f32 conversion
/// is exact) before the canonical multiply-accumulate. Bit-identical
/// to dequantizing the row into an `f32` buffer and calling [`dot`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_sq8(codes: &[u8], scale: f32, offset: f32, query: &[f32]) -> f32 {
    dot_sq8_with(active_tier(), codes, scale, offset, query)
}

/// [`dot_sq8`] on an explicit tier.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_sq8_with(tier: Tier, codes: &[u8], scale: f32, offset: f32, query: &[f32]) -> f32 {
    assert_eq!(codes.len(), query.len(), "dot length mismatch");
    dispatch_dot_sq8(tier, codes, scale, offset, query)
}

/// Scalar reference inner product: one pair per iteration, strictly
/// left-to-right summation. This is the pre-kernel implementation, kept
/// as the accuracy reference for the kernel proptests and as the
/// baseline arm of the `scan_throughput` bench. (Not to be confused
/// with the scalar *tier*, which uses the canonical eight-lane order.)
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// `y ← y + a·x` (axpy). Element-wise, so a plain fused loop
/// auto-vectorizes without multi-accumulator tricks.
///
/// # Panics
/// Panics if the slices have different lengths — in every build. (The
/// historical debug-only assert let release builds silently truncate
/// to the common prefix on mismatched calls.)
#[inline]
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// Fused `y ← β·y + α·x` in a single pass — one load/store of `y`
/// instead of the two that separate `scale` + `axpy` calls would do.
/// Each element computes `(β·yᵢ) + (α·xᵢ)`, bit-identical to the
/// unfused pair.
///
/// # Panics
/// Panics if the slices have different lengths — in every build. (The
/// historical debug-only assert let release builds silently truncate
/// to the common prefix on mismatched calls.)
#[inline]
pub fn scale_add(y: &mut [f32], beta: f32, alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "scale_add length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = beta * *yi + alpha * xi;
    }
}

/// Single-query GEMV: `out[r] = rows[r] · query`, each score
/// bit-identical to [`dot`] on that row.
///
/// # Panics
/// Panics when `dim == 0`, `rows.len()` is not a multiple of `dim`,
/// `query.len() != dim`, or `out.len() != rows.len() / dim`.
pub fn gemv1_into(rows: &[f32], dim: usize, query: &[f32], out: &mut [f32]) {
    gemv1_into_with(active_tier(), rows, dim, query, out)
}

/// [`gemv1_into`] on an explicit tier. Same contracts.
pub fn gemv1_into_with(tier: Tier, rows: &[f32], dim: usize, query: &[f32], out: &mut [f32]) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(rows.len() % dim, 0, "buffer is not a multiple of dim");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(out.len(), rows.len() / dim, "output length mismatch");
    dispatch_gemv1(tier, rows, dim, query, out);
}

/// Single-query GEMV over f16-encoded rows: `out[r] = decode(rows[r])
/// · query`, computed without materializing the decoded rows.
///
/// # Panics
/// Same shape contract as [`gemv1_into`].
pub fn gemv1_f16_into(rows: &[u16], dim: usize, query: &[f32], out: &mut [f32]) {
    gemv1_f16_into_with(active_tier(), rows, dim, query, out)
}

/// [`gemv1_f16_into`] on an explicit tier. Same contracts.
pub fn gemv1_f16_into_with(tier: Tier, rows: &[u16], dim: usize, query: &[f32], out: &mut [f32]) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(rows.len() % dim, 0, "buffer is not a multiple of dim");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(out.len(), rows.len() / dim, "output length mismatch");
    dispatch_gemv1_f16(tier, rows, dim, query, out);
}

/// Single-query GEMV over SQ8-encoded rows: `out[r] =
/// dequant(codes[r]) · query`, computed without materializing the
/// dequantized rows.
///
/// # Panics
/// Same shape contract as [`gemv1_into`], plus
/// `params.len() == 2 * (codes.len() / dim)`.
pub fn gemv1_sq8_into(codes: &[u8], dim: usize, params: &[f32], query: &[f32], out: &mut [f32]) {
    gemv1_sq8_into_with(active_tier(), codes, dim, params, query, out)
}

/// [`gemv1_sq8_into`] on an explicit tier. Same contracts.
pub fn gemv1_sq8_into_with(
    tier: Tier,
    codes: &[u8],
    dim: usize,
    params: &[f32],
    query: &[f32],
    out: &mut [f32],
) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(codes.len() % dim, 0, "buffer is not a multiple of dim");
    assert_eq!(
        params.len(),
        2 * (codes.len() / dim),
        "params length mismatch"
    );
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(out.len(), codes.len() / dim, "output length mismatch");
    dispatch_gemv1_sq8(tier, codes, dim, params, query, out);
}

/// Multi-row f64 GEMV over `f32` rows (`Xw`): `out[r] = rows[r] · w`,
/// each row widened exactly to `f64` and summed in the canonical
/// eight-lane order in `f64` (see the module docs). This is a
/// different kernel from [`gemv1_into`], which accumulates in `f32`.
///
/// # Panics
/// Panics in every build when `out.len() != rows.len()` or any row's
/// length differs from `w.len()`.
pub fn dot_rows_f64(rows: &[&[f32]], w: &[f64], out: &mut [f64]) {
    dot_rows_f64_with(active_tier(), rows, w, out)
}

/// [`dot_rows_f64`] on an explicit tier. Same contracts.
pub fn dot_rows_f64_with(tier: Tier, rows: &[&[f32]], w: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), rows.len(), "output length mismatch");
    assert!(
        rows.iter().all(|row| row.len() == w.len()),
        "dot length mismatch"
    );
    dispatch_dot_rows_f64(tier, rows, w, out);
}

/// Transposed multi-row update over `f32` rows (`Xᵀr`):
/// `acc += Σᵢ coeffs[i] · rows[i]` in `f64`, each element of `acc`
/// receiving its additions in row order — bit-identical to looping
/// `acc[j] += coeffs[i] * rows[i][j] as f64` row by row.
///
/// # Panics
/// Panics in every build when `coeffs.len() != rows.len()` or any row's
/// length differs from `acc.len()`.
pub fn axpy_rows_f64(rows: &[&[f32]], coeffs: &[f64], acc: &mut [f64]) {
    axpy_rows_f64_with(active_tier(), rows, coeffs, acc)
}

/// [`axpy_rows_f64`] on an explicit tier. Same contracts.
pub fn axpy_rows_f64_with(tier: Tier, rows: &[&[f32]], coeffs: &[f64], acc: &mut [f64]) {
    assert_eq!(coeffs.len(), rows.len(), "coefficient length mismatch");
    assert!(
        rows.iter().all(|row| row.len() == acc.len()),
        "axpy length mismatch"
    );
    dispatch_axpy_rows_f64(tier, rows, coeffs, acc);
}

/// Build the per-query PQ (product-quantization) lookup table for ADC
/// scoring, on the active SIMD tier.
///
/// `codebooks` holds `m` subspace codebooks back to back, each a
/// row-major `k × dsub` matrix (`dsub = query.len() / m`). The output
/// table has a fixed stride of [`PQ_LUT_STRIDE`] entries per subspace:
/// entry `lut[s * PQ_LUT_STRIDE + j]` is the canonical [`dot`] of
/// centroid `j` of subspace `s` against the query's `s`-th sub-vector,
/// and entries `k..PQ_LUT_STRIDE` are zero-filled. The fixed stride is
/// what lets [`scan_pq_into`] index with *any* `u8` code without
/// bounds checks per element (see the safety note there). Each entry
/// is computed by the canonical GEMV kernel, so the table — and
/// everything scored through it — is bit-identical across tiers.
///
/// # Panics
/// Panics when `m == 0`, `k` is zero or exceeds [`PQ_LUT_STRIDE`],
/// `query.len()` is zero or not a multiple of `m`,
/// `codebooks.len() != m * k * dsub`, or
/// `lut.len() != m * PQ_LUT_STRIDE`.
pub fn pq_lut_into(codebooks: &[f32], m: usize, k: usize, query: &[f32], lut: &mut [f32]) {
    pq_lut_into_with(active_tier(), codebooks, m, k, query, lut)
}

/// [`pq_lut_into`] on an explicit tier. Same contracts.
pub fn pq_lut_into_with(
    tier: Tier,
    codebooks: &[f32],
    m: usize,
    k: usize,
    query: &[f32],
    lut: &mut [f32],
) {
    assert!(m > 0, "subspace count must be positive");
    assert!(
        k > 0 && k <= PQ_LUT_STRIDE,
        "centroid count out of range (1..={PQ_LUT_STRIDE})"
    );
    assert!(
        !query.is_empty() && query.len().is_multiple_of(m),
        "query length is not a positive multiple of m"
    );
    let dsub = query.len() / m;
    assert_eq!(codebooks.len(), m * k * dsub, "codebook shape mismatch");
    assert_eq!(lut.len(), m * PQ_LUT_STRIDE, "lut length mismatch");
    for s in 0..m {
        let cb = &codebooks[s * k * dsub..(s + 1) * k * dsub];
        let q = &query[s * dsub..(s + 1) * dsub];
        let (entries, pad) = lut[s * PQ_LUT_STRIDE..(s + 1) * PQ_LUT_STRIDE].split_at_mut(k);
        dispatch_gemv1(tier, cb, dsub, q, entries);
        pad.fill(0.0);
    }
}

/// ADC score of one PQ-coded row against a prepared lookup table
/// ([`pq_lut_into`]), on the active SIMD tier: the sum of one table
/// entry per subspace, accumulated in the canonical eight-lane order
/// (chunks of eight subspaces, left-to-right tail, fixed reduction
/// tree) — so the score is bit-identical across tiers, and
/// [`scan_pq_into`] output is bit-identical to calling this per row.
///
/// # Panics
/// Panics when `lut.len() != codes.len() * PQ_LUT_STRIDE`.
#[inline]
pub fn dot_pq(codes: &[u8], lut: &[f32]) -> f32 {
    dot_pq_with(active_tier(), codes, lut)
}

/// [`dot_pq`] on an explicit tier. Same contracts.
#[inline]
pub fn dot_pq_with(tier: Tier, codes: &[u8], lut: &[f32]) -> f32 {
    assert_eq!(
        lut.len(),
        codes.len() * PQ_LUT_STRIDE,
        "lut length mismatch"
    );
    dispatch_dot_pq(tier, codes, lut)
}

/// Single-query ADC scan over PQ-coded rows (`m` codes per row):
/// `out[r] = dot_pq(codes[r·m..(r+1)·m], lut)`, with the SIMD tiers
/// scoring several rows per loop to keep independent gather/add chains
/// in flight. The fixed [`PQ_LUT_STRIDE`] table stride guarantees any
/// `u8` code indexes in bounds, which is what keeps the AVX2 vector
/// gather sound without per-element validation.
///
/// # Panics
/// Panics when `m == 0`, `codes.len()` is not `out.len() * m`, or
/// `lut.len() != m * PQ_LUT_STRIDE`.
pub fn scan_pq_into(codes: &[u8], m: usize, lut: &[f32], out: &mut [f32]) {
    scan_pq_into_with(active_tier(), codes, m, lut, out)
}

/// [`scan_pq_into`] on an explicit tier. Same contracts.
pub fn scan_pq_into_with(tier: Tier, codes: &[u8], m: usize, lut: &[f32], out: &mut [f32]) {
    assert!(m > 0, "subspace count must be positive");
    assert_eq!(codes.len(), out.len() * m, "codes length mismatch");
    assert_eq!(lut.len(), m * PQ_LUT_STRIDE, "lut length mismatch");
    dispatch_scan_pq(tier, codes, m, lut, out);
}

/// Normalize every `dim`-length row of `data` to unit length in one
/// blocked pass. Rows with norm at or below `f32::EPSILON` are
/// **zero-filled**: they carry no meaningful direction, and dividing
/// by a denormal norm would overflow the reciprocal to ±∞ and poison
/// the row with ±∞/NaN. Matches [`crate::vector::normalize`] per row
/// bit for bit. The row norm is computed by [`dot`], so the result is
/// identical on every tier.
///
/// # Panics
/// Panics when `dim == 0` or `data.len()` is not a multiple of `dim`.
pub fn normalize_rows(data: &mut [f32], dim: usize) {
    normalize_rows_with(active_tier(), data, dim)
}

/// [`normalize_rows`] on an explicit tier. Same contracts.
pub fn normalize_rows_with(tier: Tier, data: &mut [f32], dim: usize) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(data.len() % dim, 0, "buffer is not a multiple of dim");
    for row in data.chunks_exact_mut(dim) {
        let n = dispatch_dot(tier, row, row).sqrt();
        if n > f32::EPSILON {
            let inv = 1.0 / n;
            for x in row.iter_mut() {
                *x *= inv;
            }
        } else {
            row.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::{encode_f16, f32_from_f16};
    use crate::vector::{normalize, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const LANES: usize = crate::simd::LANES;

    fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n * dim);
        for _ in 0..n {
            out.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        out
    }

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot_scalar(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_handles_all_remainder_lengths() {
        // Exercise every lane/remainder split around the unroll width.
        for len in 0..=3 * LANES {
            let a: Vec<f32> = (0..len).map(|i| i as f32 + 0.5).collect();
            let b: Vec<f32> = (0..len).map(|i| 1.0 - i as f32 * 0.25).collect();
            let reference: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| *x as f64 * *y as f64)
                .sum::<f64>();
            assert!(
                (dot(&a, &b) as f64 - reference).abs() < 1e-3,
                "len {len}: {} vs {reference}",
                dot(&a, &b)
            );
        }
    }

    #[test]
    fn dot_is_bit_stable_across_calls() {
        let a = random_rows(1, 127, 1);
        let b = random_rows(1, 127, 2);
        let first = dot(&a, &b).to_bits();
        for _ in 0..10 {
            assert_eq!(dot(&a, &b).to_bits(), first);
        }
    }

    #[test]
    fn dot_f16_matches_decode_then_dot_bitwise() {
        for len in 0..=3 * LANES {
            let a = random_rows(1, len.max(1), 11)[..len].to_vec();
            let b = random_rows(1, len.max(1), 12)[..len].to_vec();
            let enc = encode_f16(&a);
            let decoded: Vec<f32> = enc.iter().map(|&h| f32_from_f16(h)).collect();
            assert_eq!(
                dot_f16(&enc, &b).to_bits(),
                dot(&decoded, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn gemv_matches_per_row_dot_bitwise() {
        let dim = 37; // deliberately not a multiple of the lane width
        let n = 45; // deliberately not a multiple of the SIMD row group
        let rows = random_rows(n, dim, 3);
        let query = random_rows(1, dim, 4);
        let mut out = vec![0.0f32; n];
        gemv1_into(&rows, dim, &query, &mut out);
        for r in 0..n {
            let reference = dot(&rows[r * dim..(r + 1) * dim], &query);
            assert_eq!(out[r].to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn gemv_f16_matches_per_row_dot_f16_bitwise() {
        let dim = 37;
        let n = 45;
        let rows = encode_f16(&random_rows(n, dim, 13));
        let query = random_rows(1, dim, 14);
        let mut out = vec![0.0f32; n];
        gemv1_f16_into(&rows, dim, &query, &mut out);
        for r in 0..n {
            let reference = dot_f16(&rows[r * dim..(r + 1) * dim], &query);
            assert_eq!(out[r].to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn dot_sq8_matches_dequant_then_dot_bitwise() {
        for len in 0..=3 * LANES {
            let codes: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let (scale, offset) = (3.1e-3f32, -0.42f32);
            let q = random_rows(1, len.max(1), 21)[..len].to_vec();
            let dequant: Vec<f32> = codes.iter().map(|&c| offset + scale * c as f32).collect();
            assert_eq!(
                dot_sq8(&codes, scale, offset, &q).to_bits(),
                dot(&dequant, &q).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn gemv_sq8_matches_per_row_dot_sq8_bitwise() {
        let dim = 37;
        let n = 45;
        let codes: Vec<u8> = (0..n * dim).map(|i| (i * 131 % 256) as u8).collect();
        let params: Vec<f32> = (0..2 * n)
            .map(|i| {
                if i % 2 == 0 {
                    1.0e-3 + i as f32 * 1e-5
                } else {
                    -0.5 + i as f32 * 1e-3
                }
            })
            .collect();
        let query = random_rows(1, dim, 23);
        let mut out = vec![0.0f32; n];
        gemv1_sq8_into(&codes, dim, &params, &query, &mut out);
        for r in 0..n {
            let reference = dot_sq8(
                &codes[r * dim..(r + 1) * dim],
                params[2 * r],
                params[2 * r + 1],
                &query,
            );
            assert_eq!(out[r].to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn pq_lut_entries_match_per_centroid_dot_and_pad_is_zero() {
        let (m, k, dsub) = (3, 5, 7);
        let codebooks = random_rows(m * k, dsub, 31);
        let query = random_rows(1, m * dsub, 32);
        let mut lut = vec![f32::NAN; m * PQ_LUT_STRIDE];
        pq_lut_into(&codebooks, m, k, &query, &mut lut);
        for s in 0..m {
            for j in 0..PQ_LUT_STRIDE {
                let got = lut[s * PQ_LUT_STRIDE + j];
                if j < k {
                    let cb = &codebooks[(s * k + j) * dsub..(s * k + j + 1) * dsub];
                    let reference = dot(cb, &query[s * dsub..(s + 1) * dsub]);
                    assert_eq!(got.to_bits(), reference.to_bits(), "s {s} j {j}");
                } else {
                    assert_eq!(got, 0.0, "pad entry s {s} j {j}");
                }
            }
        }
    }

    #[test]
    fn scan_pq_matches_per_row_dot_pq_bitwise() {
        // m = 37 exercises the eight-lane chunking plus a 5-subspace
        // tail; n = 45 exercises the SIMD row-group remainders.
        let (m, k, n) = (37, 11, 45);
        let mut lut = vec![0.0f32; m * PQ_LUT_STRIDE];
        let flat = random_rows(m, k, 33);
        for s in 0..m {
            lut[s * PQ_LUT_STRIDE..s * PQ_LUT_STRIDE + k]
                .copy_from_slice(&flat[s * k..(s + 1) * k]);
        }
        let codes: Vec<u8> = (0..n * m).map(|i| (i * 89 % k) as u8).collect();
        let mut out = vec![0.0f32; n];
        scan_pq_into(&codes, m, &lut, &mut out);
        for r in 0..n {
            let reference = dot_pq(&codes[r * m..(r + 1) * m], &lut);
            assert_eq!(out[r].to_bits(), reference.to_bits(), "row {r}");
        }
    }

    #[test]
    fn dot_rows_f64_sums_in_the_canonical_order() {
        // dim 21 = two eight-lane chunks plus a five-element tail; five
        // rows = one four-row block plus a remainder row.
        let dim = 21;
        let flat = random_rows(5, dim, 41);
        let rows: Vec<&[f32]> = flat.chunks_exact(dim).collect();
        let w: Vec<f64> = random_rows(1, dim, 42)
            .iter()
            .map(|&v| v as f64 * 1.7)
            .collect();
        let mut out = vec![0.0f64; rows.len()];
        dot_rows_f64(&rows, &w, &mut out);
        for (row, got) in rows.iter().zip(&out) {
            let mut lane = [0.0f64; LANES];
            for (j, (&x, &wj)) in row.iter().zip(&w).take(2 * LANES).enumerate() {
                lane[j % LANES] += x as f64 * wj;
            }
            let mut tail = 0.0f64;
            for (&x, &wj) in row.iter().zip(&w).skip(2 * LANES) {
                tail += x as f64 * wj;
            }
            let want = ((lane[0] + lane[4]) + (lane[1] + lane[5]))
                + ((lane[2] + lane[6]) + (lane[3] + lane[7]))
                + tail;
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn gemv_handles_empty_rows() {
        let mut out: Vec<f32> = Vec::new();
        gemv1_into(&[], 8, &[0.0; 8], &mut out);
        gemv1_f16_into(&[], 8, &[0.0; 8], &mut out);
        gemv1_sq8_into(&[], 8, &[], &[0.0; 8], &mut out);
    }

    #[test]
    fn scale_add_matches_unfused_pair_bitwise() {
        let mut fused = random_rows(1, 100, 5);
        let x = random_rows(1, 100, 6);
        let mut unfused = fused.clone();
        scale_add(&mut fused, 0.3, -1.7, &x);
        crate::vector::scale(&mut unfused, 0.3);
        axpy(&mut unfused, -1.7, &x);
        for (f, u) in fused.iter().zip(&unfused) {
            assert_eq!(f.to_bits(), u.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_panics_on_length_mismatch_in_all_builds() {
        let mut y = vec![0.0f32; 4];
        axpy(&mut y, 1.0, &[1.0f32; 5]);
    }

    #[test]
    #[should_panic(expected = "scale_add length mismatch")]
    fn scale_add_panics_on_length_mismatch_in_all_builds() {
        let mut y = vec![0.0f32; 6];
        scale_add(&mut y, 1.0, 1.0, &[1.0f32; 2]);
    }

    #[test]
    fn normalize_rows_matches_per_row_normalize_bitwise() {
        let dim = 19;
        let mut blocked: Vec<f32> = random_rows(7, dim, 7).iter().map(|v| v * 3.0).collect();
        // Plant a zero row; it must come out zero (the zero-fill
        // contract is the identity on an all-zero row).
        blocked[2 * dim..3 * dim].fill(0.0);
        let mut reference = blocked.clone();
        normalize_rows(&mut blocked, dim);
        for row in reference.chunks_exact_mut(dim) {
            normalize(row);
        }
        for (b, r) in blocked.iter().zip(&reference) {
            assert_eq!(b.to_bits(), r.to_bits());
        }
        assert!(blocked[2 * dim..3 * dim].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn normalize_rows_zero_fills_denormal_norm_rows() {
        // A row of tiny-but-nonzero values whose norm is ≤ EPSILON:
        // the old contract left it untouched (a unit-norm lie); the
        // fixed contract zero-fills it, and never emits ±∞/NaN.
        let dim = 8;
        let mut data = vec![0.0f32; 2 * dim];
        data[..dim].fill(1.0e-24); // norm ≈ 2.8e-24 ≤ EPSILON
        data[dim..].fill(0.5); // healthy row for contrast
        normalize_rows(&mut data, dim);
        assert!(
            data[..dim].iter().all(|&v| v == 0.0),
            "tiny-norm row must be zero-filled, got {:?}",
            &data[..dim]
        );
        assert!(data.iter().all(|v| v.is_finite()));
        let healthy_norm = dot(&data[dim..], &data[dim..]).sqrt();
        assert!((healthy_norm - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn gemv_rejects_ragged_buffer() {
        let mut out = vec![0.0f32; 1];
        gemv1_into(&[1.0; 7], 4, &[0.0; 4], &mut out);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn gemv_rejects_wrong_output_length() {
        let mut out = vec![0.0f32; 3];
        gemv1_into(&[1.0; 8], 4, &[0.0; 4], &mut out);
    }
}
