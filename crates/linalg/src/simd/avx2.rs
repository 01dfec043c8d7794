//! Explicit AVX2 + F16C backend (x86_64).
//!
//! Reproduces the canonical scalar accumulation order with 256-bit
//! registers: one `__m256` holds the eight lane accumulators, updated
//! with **separate** `_mm256_mul_ps` / `_mm256_add_ps` (never
//! `fmadd` — FMA's single rounding would change low-order bits), so
//! lane `l` sees the exact operation sequence of the scalar reference.
//! The vector is then spilled to the lane array and reduced by the
//! shared [`combine`](super::combine) tree, and the remainder runs the
//! same left-to-right scalar tail. f16 rows are widened in-register by
//! `VCVTPH2PS` (`_mm256_cvtph_ps`), which is the same exact,
//! quiet-on-NaN conversion as [`crate::half::f32_from_f16`] — so every
//! kernel here is bit-identical to its scalar twin.
//!
//! The GEMV kernels add the one optimization the fixed accumulation
//! order still allows: **independent accumulator chains across rows**.
//! A single dot product's eight-lane accumulator is a serial
//! add-dependency (≈4-cycle latency per chunk); scoring four rows
//! against the same query keeps four independent chains in flight and
//! reuses each loaded query vector four times, which is where the real
//! speedup over the auto-vectorized scalar path comes from — without
//! touching any per-score operation order.
//!
//! The f64-accumulating row kernels of the aligner loss widen four
//! `f32` row elements at a time to `f64` (`VCVTPS2PD`, exact) and keep
//! the eight canonical lanes in two `__m256d` registers (lanes 0–3 and
//! 4–7), again with separate multiply and add.
//!
//! Dispatched only when `is_x86_feature_detected!` confirms both
//! `avx2` and `f16c` (see [`super::tier_supported`]).
#![allow(unsafe_code)] // std::arch intrinsics: soundness argued at the dispatch site (simd/mod.rs).

use super::{combine, LANES, PQ_LUT_STRIDE};
use crate::half::f32_from_f16;
use core::arch::x86_64::*;

/// Spill the lane accumulator and apply the canonical reduction.
// SAFETY: the only intrinsic is an unaligned 256-bit store into a
// stack array of exactly LANES (8) f32, so the destination is valid
// and in-bounds; AVX2 is guaranteed by every caller's dispatch check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce(acc: __m256, tail: f32) -> f32 {
    let mut lanes = [0.0f32; LANES];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    combine(lanes, tail)
}

/// Load 8 f32 lanes from an f16-encoded row (`VCVTPH2PS`; exact).
// SAFETY: callers pass `p` pointing at >= 8 readable u16 codes (the
// chunk loops stop at len / LANES), and `_mm_loadu_si128` has no
// alignment requirement; F16C is guaranteed by the dispatch check.
#[inline]
#[target_feature(enable = "avx2", enable = "f16c")]
unsafe fn load_f16(p: *const u16) -> __m256 {
    _mm256_cvtph_ps(_mm_loadu_si128(p as *const __m128i))
}

/// Load and dequantize 8 f32 lanes from an SQ8-encoded row: widen the
/// u8 codes in-register (`VPMOVZXBD` + `VCVTDQ2PS`, both exact for
/// 0..=255), then `offset + scale * code` with separate multiply and
/// add roundings — the scalar reference's exact dequant sequence.
// SAFETY: `_mm_loadl_epi64` reads exactly 8 bytes; callers pass `p`
// pointing at >= 8 readable u8 codes (chunk loops stop at len /
// LANES) and the load has no alignment requirement.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_sq8(p: *const u8, scale: __m256, offset: __m256) -> __m256 {
    let wide = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p as *const __m128i)));
    _mm256_add_ps(offset, _mm256_mul_ps(scale, wide))
}

/// Canonical inner product.
///
/// # Safety
/// Requires AVX2; `a.len() == b.len()` must hold (asserted by the
/// public wrappers).
// SAFETY: all loads are unaligned (`loadu`) and offset by
// `i * LANES` with `i < len / LANES`, so every 8-lane read stays
// inside the equal-length slices; AVX2 is verified at dispatch.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / LANES;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm256_setzero_ps();
    for i in 0..chunks {
        let va = _mm256_loadu_ps(pa.add(i * LANES));
        let vb = _mm256_loadu_ps(pb.add(i * LANES));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
    }
    let mut tail = 0.0f32;
    for i in chunks * LANES..a.len() {
        tail += a[i] * b[i];
    }
    reduce(acc, tail)
}

/// Canonical inner product over f16-encoded `a`.
///
/// # Safety
/// Requires AVX2 + F16C; `a.len() == b.len()` must hold.
// SAFETY: chunk offsets `i * LANES` with `i < len / LANES` keep every
// 8-element f16 load and f32 load inside the equal-length slices;
// AVX2+F16C are verified at dispatch.
#[target_feature(enable = "avx2", enable = "f16c")]
pub(crate) unsafe fn dot_f16(a: &[u16], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / LANES;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm256_setzero_ps();
    for i in 0..chunks {
        let va = load_f16(pa.add(i * LANES));
        let vb = _mm256_loadu_ps(pb.add(i * LANES));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
    }
    let mut tail = 0.0f32;
    for i in chunks * LANES..a.len() {
        tail += f32_from_f16(a[i]) * b[i];
    }
    reduce(acc, tail)
}

/// Canonical inner product over SQ8-encoded `codes` with the row's
/// `(scale, offset)` dequant parameters.
///
/// # Safety
/// Requires AVX2; `codes.len() == query.len()` must hold.
// SAFETY: chunk offsets `i * LANES` with `i < len / LANES` keep every
// 8-byte code load and 8-lane query load inside the equal-length
// slices; AVX2 is verified at dispatch.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dot_sq8(codes: &[u8], scale: f32, offset: f32, query: &[f32]) -> f32 {
    debug_assert_eq!(codes.len(), query.len());
    let chunks = codes.len() / LANES;
    let (pa, pb) = (codes.as_ptr(), query.as_ptr());
    let sv = _mm256_set1_ps(scale);
    let ov = _mm256_set1_ps(offset);
    let mut acc = _mm256_setzero_ps();
    for i in 0..chunks {
        let va = load_sq8(pa.add(i * LANES), sv, ov);
        let vb = _mm256_loadu_ps(pb.add(i * LANES));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
    }
    let mut tail = 0.0f32;
    for i in chunks * LANES..codes.len() {
        tail += (offset + scale * codes[i] as f32) * query[i];
    }
    reduce(acc, tail)
}

/// Per-subspace LUT base offsets for one eight-subspace chunk:
/// `[0, 1, .., 7] * PQ_LUT_STRIDE`.
// SAFETY: pure register arithmetic (`_mm256_setr_epi32` constant
// splat) — no memory access; unsafe only for the target_feature gate,
// which dispatch has already verified.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn pq_step() -> __m256i {
    const S: i32 = PQ_LUT_STRIDE as i32;
    _mm256_setr_epi32(0, S, 2 * S, 3 * S, 4 * S, 5 * S, 6 * S, 7 * S)
}

/// Gather the eight LUT entries for one chunk of codes: widen the u8
/// codes (`VPMOVZXBD`, exact), add the subspace base offsets, and
/// vector-gather from the table (`VGATHERDPS` — plain loads, so the
/// gathered values are bit-identical to scalar indexing).
///
/// # Safety
/// Requires AVX2; `p` must point at 8 readable codes and `lut` at a
/// full `m * PQ_LUT_STRIDE` table whose chunk base is encoded in
/// `base`, so every index `base[l] + code` is in bounds for any `u8`.
// SAFETY: the 8-byte code load is covered by the caller's length
// contract, and every gather index is `chunk_base + lane *
// PQ_LUT_STRIDE + code` with `code <= 255 < PQ_LUT_STRIDE`, which the
// callers' `lut.len() == m * PQ_LUT_STRIDE` assertion keeps in bounds.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lut_gather(p: *const u8, base: __m256i, lut: *const f32) -> __m256 {
    let idx = _mm256_add_epi32(
        base,
        _mm256_cvtepu8_epi32(_mm_loadl_epi64(p as *const __m128i)),
    );
    _mm256_i32gather_ps::<4>(lut, idx)
}

/// Canonical ADC score of one PQ-coded row (see the scalar reference
/// for the table layout and accumulation order).
///
/// # Safety
/// Requires AVX2; `lut.len() == codes.len() * PQ_LUT_STRIDE` must hold.
// SAFETY: code loads stop at `m / LANES` chunks so they stay inside
// `codes`; gather indices are bounded by the asserted
// `lut.len() == m * PQ_LUT_STRIDE` (see `lut_gather`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dot_pq(codes: &[u8], lut: &[f32]) -> f32 {
    debug_assert_eq!(lut.len(), codes.len() * PQ_LUT_STRIDE);
    let m = codes.len();
    let chunks = m / LANES;
    let (pc, pl) = (codes.as_ptr(), lut.as_ptr());
    let step = pq_step();
    let mut acc = _mm256_setzero_ps();
    for i in 0..chunks {
        let base = _mm256_add_epi32(step, _mm256_set1_epi32((i * LANES * PQ_LUT_STRIDE) as i32));
        acc = _mm256_add_ps(acc, lut_gather(pc.add(i * LANES), base, pl));
    }
    let mut tail = 0.0f32;
    for s in chunks * LANES..m {
        tail += lut[s * PQ_LUT_STRIDE + codes[s] as usize];
    }
    reduce(acc, tail)
}

/// Single-query ADC scan over PQ-coded rows, four rows in flight (the
/// gathers of the four rows form independent dependency chains, which
/// hides `VGATHERDPS` latency the same way the GEMV kernels hide
/// FP-add latency).
///
/// # Safety
/// Requires AVX2; `codes.len() == out.len() * m` and
/// `lut.len() == m * PQ_LUT_STRIDE` must hold.
// SAFETY: row pointers `p0..p3` are `codes.as_ptr() + (r + k) * m`
// with `r + ROW_GROUP <= n`, so each row's 8-byte code loads (offsets
// `< m`) stay inside `codes` per the asserted `codes.len() == n * m`;
// gather indices are bounded as in `lut_gather`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn scan_pq(codes: &[u8], m: usize, lut: &[f32], out: &mut [f32]) {
    debug_assert_eq!(codes.len(), out.len() * m);
    debug_assert_eq!(lut.len(), m * PQ_LUT_STRIDE);
    let n = out.len();
    let chunks = m / LANES;
    let pl = lut.as_ptr();
    let step = pq_step();
    let mut r = 0;
    while r + ROW_GROUP <= n {
        let p0 = codes.as_ptr().add(r * m);
        let (p1, p2, p3) = (p0.add(m), p0.add(2 * m), p0.add(3 * m));
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * LANES;
            let base = _mm256_add_epi32(step, _mm256_set1_epi32((off * PQ_LUT_STRIDE) as i32));
            a0 = _mm256_add_ps(a0, lut_gather(p0.add(off), base, pl));
            a1 = _mm256_add_ps(a1, lut_gather(p1.add(off), base, pl));
            a2 = _mm256_add_ps(a2, lut_gather(p2.add(off), base, pl));
            a3 = _mm256_add_ps(a3, lut_gather(p3.add(off), base, pl));
        }
        let (mut t0, mut t1, mut t2, mut t3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for s in chunks * LANES..m {
            let base = s * PQ_LUT_STRIDE;
            t0 += lut[base + *p0.add(s) as usize];
            t1 += lut[base + *p1.add(s) as usize];
            t2 += lut[base + *p2.add(s) as usize];
            t3 += lut[base + *p3.add(s) as usize];
        }
        out[r] = reduce(a0, t0);
        out[r + 1] = reduce(a1, t1);
        out[r + 2] = reduce(a2, t2);
        out[r + 3] = reduce(a3, t3);
        r += ROW_GROUP;
    }
    while r < n {
        out[r] = dot_pq(&codes[r * m..(r + 1) * m], lut);
        r += 1;
    }
}

/// Rows scored per inner-loop group in the GEMV kernels: four
/// independent accumulator chains hide the FP-add latency and amortize
/// each query-vector load across four rows.
const ROW_GROUP: usize = 4;

/// Single-query GEMV: `out[r] = rows[r] · query`, four rows in flight.
///
/// # Safety
/// Requires AVX2; `rows.len() == out.len() * dim` and
/// `query.len() == dim` must hold.
// SAFETY: row pointers `p0..p3` are `rows.as_ptr() + (r + k) * dim`
// with `r + ROW_GROUP <= n` and all in-row offsets are `< dim`, so
// every unaligned 8-lane load stays inside `rows` / `query` per the
// asserted length contracts; AVX2 is verified at dispatch.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gemv1(rows: &[f32], dim: usize, query: &[f32], out: &mut [f32]) {
    debug_assert_eq!(rows.len(), out.len() * dim);
    debug_assert_eq!(query.len(), dim);
    let n = out.len();
    let chunks = dim / LANES;
    let q = query.as_ptr();
    let mut r = 0;
    while r + ROW_GROUP <= n {
        let p0 = rows.as_ptr().add(r * dim);
        let (p1, p2, p3) = (p0.add(dim), p0.add(2 * dim), p0.add(3 * dim));
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * LANES;
            let qv = _mm256_loadu_ps(q.add(off));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(p0.add(off)), qv));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(p1.add(off)), qv));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_loadu_ps(p2.add(off)), qv));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_loadu_ps(p3.add(off)), qv));
        }
        let (mut t0, mut t1, mut t2, mut t3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for i in chunks * LANES..dim {
            let qi = *q.add(i);
            t0 += *p0.add(i) * qi;
            t1 += *p1.add(i) * qi;
            t2 += *p2.add(i) * qi;
            t3 += *p3.add(i) * qi;
        }
        out[r] = reduce(a0, t0);
        out[r + 1] = reduce(a1, t1);
        out[r + 2] = reduce(a2, t2);
        out[r + 3] = reduce(a3, t3);
        r += ROW_GROUP;
    }
    while r < n {
        out[r] = dot(&rows[r * dim..(r + 1) * dim], query);
        r += 1;
    }
}

/// Single-query GEMV over f16 rows, four rows in flight.
///
/// # Safety
/// Requires AVX2 + F16C; `rows.len() == out.len() * dim` and
/// `query.len() == dim` must hold.
// SAFETY: same bounds argument as `gemv1` — row pointers offset by
// `(r + k) * dim` with `r + ROW_GROUP <= n`, in-row offsets `< dim`,
// all loads unaligned; AVX2+F16C are verified at dispatch.
#[target_feature(enable = "avx2", enable = "f16c")]
pub(crate) unsafe fn gemv1_f16(rows: &[u16], dim: usize, query: &[f32], out: &mut [f32]) {
    debug_assert_eq!(rows.len(), out.len() * dim);
    debug_assert_eq!(query.len(), dim);
    let n = out.len();
    let chunks = dim / LANES;
    let q = query.as_ptr();
    let mut r = 0;
    while r + ROW_GROUP <= n {
        let p0 = rows.as_ptr().add(r * dim);
        let (p1, p2, p3) = (p0.add(dim), p0.add(2 * dim), p0.add(3 * dim));
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * LANES;
            let qv = _mm256_loadu_ps(q.add(off));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(load_f16(p0.add(off)), qv));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(load_f16(p1.add(off)), qv));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(load_f16(p2.add(off)), qv));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(load_f16(p3.add(off)), qv));
        }
        let (mut t0, mut t1, mut t2, mut t3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for i in chunks * LANES..dim {
            let qi = *q.add(i);
            t0 += f32_from_f16(*p0.add(i)) * qi;
            t1 += f32_from_f16(*p1.add(i)) * qi;
            t2 += f32_from_f16(*p2.add(i)) * qi;
            t3 += f32_from_f16(*p3.add(i)) * qi;
        }
        out[r] = reduce(a0, t0);
        out[r + 1] = reduce(a1, t1);
        out[r + 2] = reduce(a2, t2);
        out[r + 3] = reduce(a3, t3);
        r += ROW_GROUP;
    }
    while r < n {
        out[r] = dot_f16(&rows[r * dim..(r + 1) * dim], query);
        r += 1;
    }
}

/// Single-query GEMV over SQ8 rows, four rows in flight, each row
/// dequantized with its own broadcast `(scale, offset)` pair.
///
/// # Safety
/// Requires AVX2; `codes.len() == out.len() * dim`,
/// `params.len() == out.len() * 2`, and `query.len() == dim` must hold.
// SAFETY: same bounds argument as `gemv1` — row pointers offset by
// `(r + k) * dim` with `r + ROW_GROUP <= n`, in-row offsets `< dim`;
// the per-row `(scale, offset)` reads are safe slice indexing checked
// against the asserted `params.len() == n * 2`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gemv1_sq8(
    codes: &[u8],
    dim: usize,
    params: &[f32],
    query: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(codes.len(), out.len() * dim);
    debug_assert_eq!(params.len(), out.len() * 2);
    debug_assert_eq!(query.len(), dim);
    let n = out.len();
    let chunks = dim / LANES;
    let q = query.as_ptr();
    let mut r = 0;
    while r + ROW_GROUP <= n {
        let p0 = codes.as_ptr().add(r * dim);
        let (p1, p2, p3) = (p0.add(dim), p0.add(2 * dim), p0.add(3 * dim));
        let (s0, o0) = (params[2 * r], params[2 * r + 1]);
        let (s1, o1) = (params[2 * r + 2], params[2 * r + 3]);
        let (s2, o2) = (params[2 * r + 4], params[2 * r + 5]);
        let (s3, o3) = (params[2 * r + 6], params[2 * r + 7]);
        let (sv0, ov0) = (_mm256_set1_ps(s0), _mm256_set1_ps(o0));
        let (sv1, ov1) = (_mm256_set1_ps(s1), _mm256_set1_ps(o1));
        let (sv2, ov2) = (_mm256_set1_ps(s2), _mm256_set1_ps(o2));
        let (sv3, ov3) = (_mm256_set1_ps(s3), _mm256_set1_ps(o3));
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * LANES;
            let qv = _mm256_loadu_ps(q.add(off));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(load_sq8(p0.add(off), sv0, ov0), qv));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(load_sq8(p1.add(off), sv1, ov1), qv));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(load_sq8(p2.add(off), sv2, ov2), qv));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(load_sq8(p3.add(off), sv3, ov3), qv));
        }
        let (mut t0, mut t1, mut t2, mut t3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for i in chunks * LANES..dim {
            let qi = *q.add(i);
            t0 += (o0 + s0 * *p0.add(i) as f32) * qi;
            t1 += (o1 + s1 * *p1.add(i) as f32) * qi;
            t2 += (o2 + s2 * *p2.add(i) as f32) * qi;
            t3 += (o3 + s3 * *p3.add(i) as f32) * qi;
        }
        out[r] = reduce(a0, t0);
        out[r + 1] = reduce(a1, t1);
        out[r + 2] = reduce(a2, t2);
        out[r + 3] = reduce(a3, t3);
        r += ROW_GROUP;
    }
    while r < n {
        out[r] = dot_sq8(
            &codes[r * dim..(r + 1) * dim],
            params[2 * r],
            params[2 * r + 1],
            query,
        );
        r += 1;
    }
}

/// Spill an f64 lane-accumulator pair (lanes 0–3, 4–7) and apply the
/// canonical reduction.
// SAFETY: the two unaligned 256-bit stores write lanes 0..4 and 4..8 of
// a stack array of exactly LANES (8) f64, so both are in-bounds; AVX2
// is guaranteed by every caller's dispatch check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce_f64(lo: __m256d, hi: __m256d, tail: f64) -> f64 {
    let mut lanes = [0.0f64; LANES];
    _mm256_storeu_pd(lanes.as_mut_ptr(), lo);
    _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi);
    combine(lanes, tail)
}

/// Load four `f32` and widen them to `f64` (`VCVTPS2PD`; exact).
// SAFETY: callers pass `p` pointing at >= 4 readable f32 (the chunk
// loops stop at len / 4 or len / LANES), and `_mm_loadu_ps` has no
// alignment requirement; AVX2 is guaranteed by the dispatch check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_widen(p: *const f32) -> __m256d {
    _mm256_cvtps_pd(_mm_loadu_ps(p))
}

/// Canonical f64 inner product of one `f32` row against `w`.
///
/// # Safety
/// Requires AVX2; `row.len() == w.len()` must hold.
// SAFETY: loads at `i * LANES` and `i * LANES + 4` with
// `i < len / LANES` read four elements each, inside the equal-length
// slices; AVX2 is verified at dispatch.
#[target_feature(enable = "avx2")]
unsafe fn dot_f64(row: &[f32], w: &[f64]) -> f64 {
    debug_assert_eq!(row.len(), w.len());
    let chunks = row.len() / LANES;
    let (pr, pw) = (row.as_ptr(), w.as_ptr());
    let mut lo = _mm256_setzero_pd();
    let mut hi = _mm256_setzero_pd();
    for i in 0..chunks {
        let off = i * LANES;
        lo = _mm256_add_pd(
            lo,
            _mm256_mul_pd(load_widen(pr.add(off)), _mm256_loadu_pd(pw.add(off))),
        );
        hi = _mm256_add_pd(
            hi,
            _mm256_mul_pd(
                load_widen(pr.add(off + 4)),
                _mm256_loadu_pd(pw.add(off + 4)),
            ),
        );
    }
    let mut tail = 0.0f64;
    for i in chunks * LANES..row.len() {
        tail += row[i] as f64 * w[i];
    }
    reduce_f64(lo, hi, tail)
}

/// `out[r] = rows[r] · w` in f64, four rows in flight.
///
/// # Safety
/// Requires AVX2; `rows.len() == out.len()` and every
/// `rows[r].len() == w.len()` must hold.
// SAFETY: `p0..p3` point at rows `r..r + ROW_GROUP` with
// `r + ROW_GROUP <= n`, each of length `w.len()` per the asserted
// contract, and every in-row load reads four elements at an offset
// `< chunks * LANES <= w.len()`; AVX2 is verified at dispatch.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dot_rows_f64(rows: &[&[f32]], w: &[f64], out: &mut [f64]) {
    debug_assert_eq!(rows.len(), out.len());
    let (n, dim) = (rows.len(), w.len());
    let chunks = dim / LANES;
    let pw = w.as_ptr();
    let mut r = 0;
    while r + ROW_GROUP <= n {
        let (p0, p1) = (rows[r].as_ptr(), rows[r + 1].as_ptr());
        let (p2, p3) = (rows[r + 2].as_ptr(), rows[r + 3].as_ptr());
        let (mut lo0, mut hi0) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut lo1, mut hi1) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut lo2, mut hi2) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut lo3, mut hi3) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for i in 0..chunks {
            let off = i * LANES;
            let wlo = _mm256_loadu_pd(pw.add(off));
            let whi = _mm256_loadu_pd(pw.add(off + 4));
            lo0 = _mm256_add_pd(lo0, _mm256_mul_pd(load_widen(p0.add(off)), wlo));
            hi0 = _mm256_add_pd(hi0, _mm256_mul_pd(load_widen(p0.add(off + 4)), whi));
            lo1 = _mm256_add_pd(lo1, _mm256_mul_pd(load_widen(p1.add(off)), wlo));
            hi1 = _mm256_add_pd(hi1, _mm256_mul_pd(load_widen(p1.add(off + 4)), whi));
            lo2 = _mm256_add_pd(lo2, _mm256_mul_pd(load_widen(p2.add(off)), wlo));
            hi2 = _mm256_add_pd(hi2, _mm256_mul_pd(load_widen(p2.add(off + 4)), whi));
            lo3 = _mm256_add_pd(lo3, _mm256_mul_pd(load_widen(p3.add(off)), wlo));
            hi3 = _mm256_add_pd(hi3, _mm256_mul_pd(load_widen(p3.add(off + 4)), whi));
        }
        let (mut t0, mut t1, mut t2, mut t3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in chunks * LANES..dim {
            let wi = w[i];
            t0 += *p0.add(i) as f64 * wi;
            t1 += *p1.add(i) as f64 * wi;
            t2 += *p2.add(i) as f64 * wi;
            t3 += *p3.add(i) as f64 * wi;
        }
        out[r] = reduce_f64(lo0, hi0, t0);
        out[r + 1] = reduce_f64(lo1, hi1, t1);
        out[r + 2] = reduce_f64(lo2, hi2, t2);
        out[r + 3] = reduce_f64(lo3, hi3, t3);
        r += ROW_GROUP;
    }
    while r < n {
        out[r] = dot_f64(rows[r], w);
        r += 1;
    }
}

/// `acc += Σᵢ coeffs[i] · rows[i]`, four `acc` elements per register,
/// one row at a time so each element's additions stay in row order.
///
/// # Safety
/// Requires AVX2; `rows.len() == coeffs.len()` and every
/// `rows[i].len() == acc.len()` must hold.
// SAFETY: every load/store reads or writes four elements at an offset
// `< quads * 4 <= acc.len()`, inside `acc` and inside each row (whose
// length equals `acc.len()` per the asserted contract); the tail
// indexes the same bounds one element at a time. `pa` is the only
// access path to `acc` for the whole loop; AVX2 is verified at
// dispatch.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn axpy_rows_f64(rows: &[&[f32]], coeffs: &[f64], acc: &mut [f64]) {
    debug_assert_eq!(rows.len(), coeffs.len());
    let dim = acc.len();
    let quads = dim / 4;
    let pa = acc.as_mut_ptr();
    for (row, &c) in rows.iter().zip(coeffs) {
        let pr = row.as_ptr();
        let cv = _mm256_set1_pd(c);
        for i in 0..quads {
            let off = i * 4;
            let sum = _mm256_add_pd(
                _mm256_loadu_pd(pa.add(off)),
                _mm256_mul_pd(cv, load_widen(pr.add(off))),
            );
            _mm256_storeu_pd(pa.add(off), sum);
        }
        for j in quads * 4..dim {
            *pa.add(j) += c * *pr.add(j) as f64;
        }
    }
}
