//! Portable lane-unrolled scalar backend — the bit-exactness
//! reference.
//!
//! This is the canonical definition of every kernel's arithmetic:
//! eight `f32` lane accumulators filled in chunk order
//! (`acc[l] += a[8i + l] * b[8i + l]`, separate multiply and add
//! roundings), the fixed [`combine`](super::combine) reduction tree,
//! and a strictly left-to-right scalar tail. The AVX2 and NEON
//! backends replay this exact operation sequence with vector
//! registers; the per-tier proptests pin them to this code bit for
//! bit. The lane loop is written so the auto-vectorizer can lift it to
//! SIMD even here, which is what made this the fast path before the
//! explicit backends existed.

use super::{combine, LANES, PQ_LUT_STRIDE};
use crate::half::f32_from_f16;

/// Canonical inner product (see module docs for the exact order).
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    combine(acc, tail)
}

/// Canonical inner product over an f16-encoded left operand: each
/// stored half is widened (exactly — see [`crate::half`]) to `f32`
/// before the multiply, and accumulation is pure `f32`, in the same
/// order as [`dot`]. Contract: bit-identical to decoding the row and
/// calling [`dot`].
pub(crate) fn dot_f16(a: &[u16], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += f32_from_f16(xa[l]) * xb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += f32_from_f16(*x) * y;
    }
    combine(acc, tail)
}

/// Canonical inner product over an SQ8-encoded left operand: each
/// stored u8 code is dequantized as `offset + scale * code` (two
/// separate roundings — the u8→f32 conversion itself is exact) before
/// the multiply, and accumulation is pure `f32` in the same order as
/// [`dot`]. Contract: bit-identical to dequantizing the row into an
/// `f32` buffer and calling [`dot`].
pub(crate) fn dot_sq8(codes: &[u8], scale: f32, offset: f32, query: &[f32]) -> f32 {
    debug_assert_eq!(codes.len(), query.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = codes.chunks_exact(LANES);
    let mut cb = query.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += (offset + scale * xa[l] as f32) * xb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += (offset + scale * *x as f32) * y;
    }
    combine(acc, tail)
}

/// Canonical ADC (asymmetric-distance) score of one PQ-coded row
/// against a per-query lookup table. The table holds
/// [`PQ_LUT_STRIDE`] entries per subspace, so the entry for subspace
/// `s` and code `c` lives at `lut[s * PQ_LUT_STRIDE + c]`; any `u8`
/// code is therefore in bounds by construction (codes ≥ the trained
/// centroid count read the zero padding). Accumulation is the same
/// eight-lane chunk order as [`dot`] — `acc[l] += entry` over chunks
/// of eight subspaces, a strictly left-to-right tail, and the fixed
/// [`combine`] reduction — which is the sequence the AVX2 gather and
/// NEON backends replay bit for bit.
pub(crate) fn dot_pq(codes: &[u8], lut: &[f32]) -> f32 {
    debug_assert_eq!(lut.len(), codes.len() * PQ_LUT_STRIDE);
    let m = codes.len();
    let chunks = m / LANES;
    let mut acc = [0.0f32; LANES];
    for i in 0..chunks {
        let base = i * LANES;
        for (l, a) in acc.iter_mut().enumerate() {
            let s = base + l;
            *a += lut[s * PQ_LUT_STRIDE + codes[s] as usize];
        }
    }
    let mut tail = 0.0f32;
    for s in chunks * LANES..m {
        tail += lut[s * PQ_LUT_STRIDE + codes[s] as usize];
    }
    combine(acc, tail)
}

/// Single-query ADC scan: `out[r] = dot_pq(codes[r], lut)` for rows of
/// `m` codes each.
pub(crate) fn scan_pq(codes: &[u8], m: usize, lut: &[f32], out: &mut [f32]) {
    debug_assert_eq!(codes.len(), out.len() * m);
    for (o, row) in out.iter_mut().zip(codes.chunks_exact(m)) {
        *o = dot_pq(row, lut);
    }
}

/// Single-query GEMV: `out[r] = rows[r] · query`, each score by
/// [`dot`].
pub(crate) fn gemv1(rows: &[f32], dim: usize, query: &[f32], out: &mut [f32]) {
    debug_assert_eq!(rows.len(), out.len() * dim);
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
        *o = dot(row, query);
    }
}

/// Single-query GEMV over f16 rows, each score by [`dot_f16`].
pub(crate) fn gemv1_f16(rows: &[u16], dim: usize, query: &[f32], out: &mut [f32]) {
    debug_assert_eq!(rows.len(), out.len() * dim);
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
        *o = dot_f16(row, query);
    }
}

/// Single-query GEMV over SQ8 rows, each score by [`dot_sq8`] with the
/// row's own `(scale, offset)` pair (`params[2r]`, `params[2r + 1]`).
pub(crate) fn gemv1_sq8(codes: &[u8], dim: usize, params: &[f32], query: &[f32], out: &mut [f32]) {
    debug_assert_eq!(codes.len(), out.len() * dim);
    debug_assert_eq!(params.len(), out.len() * 2);
    for (r, (o, row)) in out.iter_mut().zip(codes.chunks_exact(dim)).enumerate() {
        *o = dot_sq8(row, params[2 * r], params[2 * r + 1], query);
    }
}

/// Canonical f64 inner product of an `f32` row against an `f64` vector:
/// each row element is widened exactly to `f64`, then the order of
/// [`dot`] — eight lane accumulators, separate multiply and add
/// roundings, the [`combine`] tree, a left-to-right tail — in `f64`.
fn dot_f64(row: &[f32], w: &[f64]) -> f64 {
    debug_assert_eq!(row.len(), w.len());
    let mut acc = [0.0f64; LANES];
    let mut cr = row.chunks_exact(LANES);
    let mut cw = w.chunks_exact(LANES);
    for (xr, xw) in (&mut cr).zip(&mut cw) {
        for l in 0..LANES {
            acc[l] += xr[l] as f64 * xw[l];
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in cr.remainder().iter().zip(cw.remainder()) {
        tail += *x as f64 * y;
    }
    combine(acc, tail)
}

/// `out[r] = rows[r] · w`, each score by [`dot_f64`].
pub(crate) fn dot_rows_f64(rows: &[&[f32]], w: &[f64], out: &mut [f64]) {
    debug_assert_eq!(rows.len(), out.len());
    for (o, row) in out.iter_mut().zip(rows) {
        *o = dot_f64(row, w);
    }
}

/// `acc += Σᵢ coeffs[i] · rows[i]`: one row at a time, so each element
/// of `acc` receives its additions in row order (`acc[j] += c · x[j]`,
/// the row element widened exactly to `f64`, separate multiply and add
/// roundings).
pub(crate) fn axpy_rows_f64(rows: &[&[f32]], coeffs: &[f64], acc: &mut [f64]) {
    debug_assert_eq!(rows.len(), coeffs.len());
    for (row, &c) in rows.iter().zip(coeffs) {
        for (a, &x) in acc.iter_mut().zip(row.iter()) {
            *a += c * x as f64;
        }
    }
}
