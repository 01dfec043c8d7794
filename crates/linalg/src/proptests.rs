//! Property-based tests for the algebra kernels: identities that must
//! hold for arbitrary inputs.

#![cfg(test)]

use crate::half::encode_f16;
use crate::simd::{available_tiers, Tier};
use crate::{dense::DenseMatrix, kernels, sparse::CsrMatrix, sparse::Triplet, vector::*};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// Lengths that sweep every remainder class around the 8-wide lane
/// unroll (`len % 8 ∈ 0..8`), plus the empty and single-element edge
/// cases and a couple of multi-chunk sizes.
fn lane_edge_len() -> impl Strategy<Value = usize> {
    (0usize..27).prop_map(|i| match i {
        25 => 64,
        26 => 67,
        other => other, // 0..=24 covers every `len % 8` class ≥ 3 times
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dot_is_symmetric_and_bilinear(a in small_vec(8), b in small_vec(8), s in -5.0f32..5.0) {
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-3);
        let scaled: Vec<f32> = a.iter().map(|v| v * s).collect();
        prop_assert!((dot(&scaled, &b) - s * dot(&a, &b)).abs() < 1e-1);
    }

    #[test]
    fn cauchy_schwarz(a in small_vec(6), b in small_vec(6)) {
        let lhs = dot(&a, &b).abs();
        let rhs = l2_norm(&a) * l2_norm(&b);
        prop_assert!(lhs <= rhs + 1e-3, "{lhs} > {rhs}");
    }

    #[test]
    fn normalize_is_idempotent(a in small_vec(5)) {
        let mut v = a.clone();
        normalize(&mut v);
        let once = v.clone();
        normalize(&mut v);
        for (x, y) in once.iter().zip(v.iter()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
        let n = l2_norm(&v);
        prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-4);
    }

    #[test]
    fn squared_euclidean_matches_expansion(a in small_vec(7), b in small_vec(7)) {
        // ‖a−b‖² = ‖a‖² − 2a·b + ‖b‖²
        let direct = squared_euclidean(&a, &b);
        let expanded = l2_norm_sq(&a) - 2.0 * dot(&a, &b) + l2_norm_sq(&b);
        prop_assert!((direct - expanded).abs() < 1e-2, "{direct} vs {expanded}");
    }

    #[test]
    fn rotation_preserves_norm_and_angle(
        seed in 0u64..1000,
        angle in 0.0f32..1.5,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let from = random_unit_vector(&mut rng, 16);
        let toward = random_unit_vector(&mut rng, 16);
        let out = rotate_toward(&from, &toward, angle);
        prop_assert!((l2_norm(&out) - 1.0).abs() < 1e-4);
        let got = dot(&out, &from).clamp(-1.0, 1.0).acos();
        // Parallel `toward` is a no-op; otherwise the angle is realized.
        if orthonormal_component(&toward, &from).iter().map(|v| v * v).sum::<f32>() > 1e-6 {
            prop_assert!((got - angle).abs() < 1e-2, "asked {angle} got {got}");
        }
    }

    #[test]
    fn kernel_dot_matches_scalar_reference(
        ab in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..200),
    ) {
        // The unrolled kernel reassociates the sum; it must stay within
        // 1e-5 (relative) of the strict left-to-right scalar reference
        // at any length, and be bit-stable across repeated calls.
        let a: Vec<f32> = ab.iter().map(|&(x, _)| x).collect();
        let b: Vec<f32> = ab.iter().map(|&(_, y)| y).collect();
        let kernel = dot(&a, &b);
        let reference = kernels::dot_scalar(&a, &b);
        let tol = 1e-5 * (1.0 + a.len() as f32 * 100.0);
        prop_assert!((kernel - reference).abs() <= tol, "{kernel} vs {reference}");
        prop_assert_eq!(kernel.to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn kernel_gemv_matches_per_row_dot_bitwise(
        rows in proptest::collection::vec(-5.0f32..5.0, 0..180),
        q in small_vec(6),
    ) {
        let dim = 6;
        let rows = {
            let n = rows.len() / dim;
            rows[..n * dim].to_vec()
        };
        let n = rows.len() / dim;
        let mut out = vec![0.0f32; n];
        kernels::gemv1_into(&rows, dim, &q, &mut out);
        let mut again = vec![0.0f32; n];
        kernels::gemv1_into(&rows, dim, &q, &mut again);
        for r in 0..n {
            let reference = dot(&rows[r * dim..(r + 1) * dim], &q);
            prop_assert_eq!(out[r].to_bits(), reference.to_bits());
            // Bit-stable across repeated calls.
            prop_assert_eq!(out[r].to_bits(), again[r].to_bits());
        }
    }

    #[test]
    fn kernel_normalize_rows_matches_per_row_normalize(
        rows in proptest::collection::vec(-5.0f32..5.0, 0..105),
    ) {
        let dim = 7;
        let n = rows.len() / dim;
        let mut blocked = rows[..n * dim].to_vec();
        let mut reference = blocked.clone();
        kernels::normalize_rows(&mut blocked, dim);
        for row in reference.chunks_exact_mut(dim) {
            normalize(row);
        }
        for (b, r) in blocked.iter().zip(&reference) {
            prop_assert_eq!(b.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn csr_matvec_matches_dense(
        triplets in proptest::collection::vec((0u32..5, 0u32..5, -3.0f32..3.0), 0..20),
        x in small_vec(5),
    ) {
        let trips: Vec<Triplet> = triplets
            .iter()
            .map(|&(r, c, v)| Triplet { row: r, col: c, val: v })
            .collect();
        let m = CsrMatrix::from_triplets(5, 5, &trips);
        let mut dense = DenseMatrix::zeros(5, 5);
        for t in &trips {
            let (r, c) = (t.row as usize, t.col as usize);
            dense.set(r, c, dense.get(r, c) + t.val);
        }
        let sparse_y = m.matvec(&x);
        let dense_y = dense.matvec(&x);
        for (a, b) in sparse_y.iter().zip(dense_y.iter()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn xtax_equals_dense_composition(
        triplets in proptest::collection::vec((0u32..4, 0u32..4, -2.0f32..2.0), 0..12),
        xdata in proptest::collection::vec(-2.0f32..2.0, 12),
        w in small_vec(3),
    ) {
        // wᵀ(XᵀAX)w must equal (Xw)ᵀA(Xw).
        let trips: Vec<Triplet> = triplets
            .iter()
            .map(|&(r, c, v)| Triplet { row: r, col: c, val: v })
            .collect();
        let a = CsrMatrix::from_triplets(4, 4, &trips);
        let x = DenseMatrix::from_vec(4, 3, xdata);
        let m = a.xtax(&x);
        let lhs = {
            let mw = m.matvec(&w);
            dot(&mw, &w)
        };
        let xw = x.matvec(&w);
        let a_xw = a.matvec(&xw);
        let rhs = dot(&a_xw, &xw);
        prop_assert!((lhs - rhs).abs() < 1e-1 * (1.0 + rhs.abs()), "{lhs} vs {rhs}");
    }

    // ------------------------------------------------------------------
    // SIMD tier equivalence: every tier the host CPU supports must be
    // *bitwise* identical to the scalar reference, for every kernel,
    // across every remainder class of the 8-wide lane unroll (empty
    // slices and single elements included). These are the tests that
    // let the AVX2 backend claim the scalar path's determinism
    // guarantees. They use the `_with` kernel variants so every tier is
    // exercised in one process regardless of `SEESAW_SIMD` (CI
    // additionally runs the whole suite under `SEESAW_SIMD=scalar`).
    // ------------------------------------------------------------------

    #[test]
    fn every_tier_dot_is_bitwise_equal_to_scalar(
        len in lane_edge_len(),
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let reference = kernels::dot_with(Tier::Scalar, &a, &b);
        for tier in available_tiers() {
            let got = kernels::dot_with(tier, &a, &b);
            prop_assert_eq!(
                got.to_bits(), reference.to_bits(),
                "dot len {} tier {}: {} vs {}", len, tier.name(), got, reference
            );
        }
        // The active tier (whatever SEESAW_SIMD / detection chose)
        // agrees with the reference too.
        prop_assert_eq!(dot(&a, &b).to_bits(), reference.to_bits());
    }

    #[test]
    fn every_tier_dot_f16_is_bitwise_equal_to_scalar(
        len in lane_edge_len(),
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let enc = encode_f16(&a);
        let reference = kernels::dot_f16_with(Tier::Scalar, &enc, &b);
        for tier in available_tiers() {
            let got = kernels::dot_f16_with(tier, &enc, &b);
            prop_assert_eq!(
                got.to_bits(), reference.to_bits(),
                "dot_f16 len {} tier {}", len, tier.name()
            );
        }
        prop_assert_eq!(kernels::dot_f16(&enc, &b).to_bits(), reference.to_bits());
    }

    #[test]
    fn every_tier_dot_sq8_is_bitwise_equal_to_scalar(
        len in lane_edge_len(),
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let codes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let scale = rng.gen_range(0.0f32..0.1);
        let offset = rng.gen_range(-5.0f32..5.0);
        let reference = kernels::dot_sq8_with(Tier::Scalar, &codes, scale, offset, &b);
        // The scalar tier itself must equal dequantize-then-dot.
        let dequant: Vec<f32> = codes.iter().map(|&c| offset + scale * c as f32).collect();
        prop_assert_eq!(
            reference.to_bits(),
            kernels::dot_with(Tier::Scalar, &dequant, &b).to_bits()
        );
        for tier in available_tiers() {
            let got = kernels::dot_sq8_with(tier, &codes, scale, offset, &b);
            prop_assert_eq!(
                got.to_bits(), reference.to_bits(),
                "dot_sq8 len {} tier {}", len, tier.name()
            );
        }
        prop_assert_eq!(
            kernels::dot_sq8(&codes, scale, offset, &b).to_bits(),
            reference.to_bits()
        );
    }

    #[test]
    fn every_tier_dot_pq_is_bitwise_equal_to_scalar(
        m in lane_edge_len(),
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let codes: Vec<u8> = (0..m).map(|_| rng.gen()).collect();
        let lut: Vec<f32> = (0..m * kernels::PQ_LUT_STRIDE)
            .map(|_| rng.gen_range(-5.0f32..5.0))
            .collect();
        let reference = kernels::dot_pq_with(Tier::Scalar, &codes, &lut);
        for tier in available_tiers() {
            let got = kernels::dot_pq_with(tier, &codes, &lut);
            prop_assert_eq!(
                got.to_bits(), reference.to_bits(),
                "dot_pq m {} tier {}: {} vs {}", m, tier.name(), got, reference
            );
        }
        prop_assert_eq!(kernels::dot_pq(&codes, &lut).to_bits(), reference.to_bits());
    }

    #[test]
    fn every_tier_scan_pq_is_bitwise_equal_to_scalar(
        m in lane_edge_len().prop_map(|l| l.max(1)),
        n in 0usize..23, // sweeps the SIMD row-group remainders too
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let codes: Vec<u8> = (0..n * m).map(|_| rng.gen()).collect();
        let lut: Vec<f32> = (0..m * kernels::PQ_LUT_STRIDE)
            .map(|_| rng.gen_range(-5.0f32..5.0))
            .collect();
        let mut reference = vec![0.0f32; n];
        kernels::scan_pq_into_with(Tier::Scalar, &codes, m, &lut, &mut reference);
        // The scalar scan must equal per-row dot_pq.
        for r in 0..n {
            prop_assert_eq!(
                reference[r].to_bits(),
                kernels::dot_pq_with(Tier::Scalar, &codes[r * m..(r + 1) * m], &lut).to_bits()
            );
        }
        for tier in available_tiers() {
            let mut got = vec![0.0f32; n];
            kernels::scan_pq_into_with(tier, &codes, m, &lut, &mut got);
            for r in 0..n {
                prop_assert_eq!(
                    got[r].to_bits(), reference[r].to_bits(),
                    "scan_pq m {} n {} row {} tier {}", m, n, r, tier.name()
                );
            }
        }
    }

    #[test]
    fn every_tier_pq_lut_is_bitwise_equal_to_scalar(
        dsub in lane_edge_len().prop_map(|l| l.max(1)),
        m in 1usize..5,
        k in 1usize..17,
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let codebooks: Vec<f32> = (0..m * k * dsub).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let query: Vec<f32> = (0..m * dsub).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let mut reference = vec![f32::NAN; m * kernels::PQ_LUT_STRIDE];
        kernels::pq_lut_into_with(Tier::Scalar, &codebooks, m, k, &query, &mut reference);
        for tier in available_tiers() {
            let mut got = vec![f32::NAN; m * kernels::PQ_LUT_STRIDE];
            kernels::pq_lut_into_with(tier, &codebooks, m, k, &query, &mut got);
            for i in 0..reference.len() {
                prop_assert_eq!(
                    got[i].to_bits(), reference[i].to_bits(),
                    "pq_lut dsub {} m {} k {} slot {} tier {}", dsub, m, k, i, tier.name()
                );
            }
        }
    }

    #[test]
    fn every_tier_gemv_sq8_is_bitwise_equal_to_scalar(
        dim in lane_edge_len().prop_map(|l| l.max(1)),
        n in 0usize..23,
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let codes: Vec<u8> = (0..n * dim).map(|_| rng.gen()).collect();
        let params: Vec<f32> = (0..n)
            .flat_map(|_| [rng.gen_range(0.0f32..0.1), rng.gen_range(-5.0f32..5.0)])
            .collect();
        let q1: Vec<f32> = (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect();

        let mut ref_single = vec![0.0f32; n];
        kernels::gemv1_sq8_into_with(Tier::Scalar, &codes, dim, &params, &q1, &mut ref_single);

        for tier in available_tiers() {
            let mut single = vec![0.0f32; n];
            kernels::gemv1_sq8_into_with(tier, &codes, dim, &params, &q1, &mut single);
            for r in 0..n {
                prop_assert_eq!(
                    single[r].to_bits(), ref_single[r].to_bits(),
                    "gemv1_sq8 dim {} n {} row {} tier {}", dim, n, r, tier.name()
                );
            }
        }
    }

    #[test]
    fn every_tier_gemv_is_bitwise_equal_to_scalar(
        dim in lane_edge_len().prop_map(|l| l.max(1)),
        n in 0usize..23, // sweeps the SIMD row-group remainders too
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let q1: Vec<f32> = (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect();

        let mut ref_single = vec![0.0f32; n];
        kernels::gemv1_into_with(Tier::Scalar, &rows, dim, &q1, &mut ref_single);

        for tier in available_tiers() {
            let mut single = vec![0.0f32; n];
            kernels::gemv1_into_with(tier, &rows, dim, &q1, &mut single);
            for r in 0..n {
                prop_assert_eq!(
                    single[r].to_bits(), ref_single[r].to_bits(),
                    "gemv1 dim {} n {} row {} tier {}", dim, n, r, tier.name()
                );
            }
        }
    }

    #[test]
    fn every_tier_gemv_f16_is_bitwise_equal_to_scalar(
        dim in lane_edge_len().prop_map(|l| l.max(1)),
        n in 0usize..23,
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let raw: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let rows = encode_f16(&raw);
        let q1: Vec<f32> = (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect();

        let mut ref_single = vec![0.0f32; n];
        kernels::gemv1_f16_into_with(Tier::Scalar, &rows, dim, &q1, &mut ref_single);

        for tier in available_tiers() {
            let mut single = vec![0.0f32; n];
            kernels::gemv1_f16_into_with(tier, &rows, dim, &q1, &mut single);
            for r in 0..n {
                prop_assert_eq!(
                    single[r].to_bits(), ref_single[r].to_bits(),
                    "gemv1_f16 dim {} n {} row {} tier {}", dim, n, r, tier.name()
                );
            }
        }
    }

    #[test]
    fn every_tier_normalize_rows_is_bitwise_equal_to_scalar(
        dim in lane_edge_len().prop_map(|l| l.max(1)),
        n in 0usize..9,
        seed in 0u64..u64::MAX,
        plant_tiny in 0u32..2,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        if plant_tiny == 1 && n > 0 {
            // A denormal-norm row must zero-fill identically everywhere.
            data[..dim].fill(1.0e-24);
        }
        let mut reference = data.clone();
        kernels::normalize_rows_with(Tier::Scalar, &mut reference, dim);
        for tier in available_tiers() {
            let mut got = data.clone();
            kernels::normalize_rows_with(tier, &mut got, dim);
            for (g, r) in got.iter().zip(&reference) {
                prop_assert_eq!(
                    g.to_bits(), r.to_bits(),
                    "normalize_rows dim {} n {} tier {}", dim, n, tier.name()
                );
            }
        }
    }

    #[test]
    fn every_tier_dot_rows_f64_is_bitwise_equal_to_scalar(
        dim in lane_edge_len(), // dim == 0 included
        n in 0usize..10, // full 4-row blocks and every remainder
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        let rows: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let w: Vec<f64> = (0..dim).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
        let mut reference = vec![f64::NAN; n];
        kernels::dot_rows_f64_with(Tier::Scalar, &rows, &w, &mut reference);
        for tier in available_tiers() {
            let mut got = vec![f64::NAN; n];
            kernels::dot_rows_f64_with(tier, &rows, &w, &mut got);
            for r in 0..n {
                prop_assert_eq!(
                    got[r].to_bits(), reference[r].to_bits(),
                    "dot_rows_f64 dim {} n {} row {} tier {}", dim, n, r, tier.name()
                );
            }
        }
        let mut active = vec![f64::NAN; n];
        kernels::dot_rows_f64(&rows, &w, &mut active);
        for r in 0..n {
            prop_assert_eq!(active[r].to_bits(), reference[r].to_bits());
        }
    }

    #[test]
    fn every_tier_axpy_rows_f64_is_the_sequential_row_loop_bitwise(
        dim in lane_edge_len(),
        n in 0usize..10,
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        let rows: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        // Zero and negative coefficients both occur.
        let coeffs: Vec<f64> = (0..n)
            .map(|_| if rng.gen_range(0..4) == 0 { 0.0 } else { rng.gen_range(-3.0f64..3.0) })
            .collect();
        let start: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        // The sequential per-row loop the kernel must reproduce exactly.
        let mut reference = start.clone();
        for (row, &c) in rows.iter().zip(&coeffs) {
            for (a, &x) in reference.iter_mut().zip(row.iter()) {
                *a += c * x as f64;
            }
        }
        for tier in available_tiers() {
            let mut got = start.clone();
            kernels::axpy_rows_f64_with(tier, &rows, &coeffs, &mut got);
            for j in 0..dim {
                prop_assert_eq!(
                    got[j].to_bits(), reference[j].to_bits(),
                    "axpy_rows_f64 dim {} n {} elem {} tier {}", dim, n, j, tier.name()
                );
            }
        }
        let mut active = start;
        kernels::axpy_rows_f64(&rows, &coeffs, &mut active);
        for j in 0..dim {
            prop_assert_eq!(active[j].to_bits(), reference[j].to_bits());
        }
    }
}

// Shape mismatches in the f64 row kernels panic in every build, on
// every tier, like `dot`'s.

#[test]
#[should_panic(expected = "dot length mismatch")]
fn dot_rows_f64_rejects_a_short_row() {
    let (a, b) = ([1.0f32; 9], [1.0f32; 8]);
    let mut out = [0.0f64; 2];
    kernels::dot_rows_f64_with(Tier::Scalar, &[&a, &b], &[1.0; 9], &mut out);
}

#[test]
#[should_panic(expected = "output length mismatch")]
fn dot_rows_f64_rejects_a_wrong_output_length() {
    let a = [1.0f32; 8];
    let mut out = [0.0f64; 2];
    kernels::dot_rows_f64(&[&a], &[1.0; 8], &mut out);
}

#[test]
#[should_panic(expected = "axpy length mismatch")]
fn axpy_rows_f64_rejects_a_short_row() {
    let (a, b) = ([1.0f32; 9], [1.0f32; 8]);
    let mut acc = [0.0f64; 9];
    kernels::axpy_rows_f64(&[&a, &b], &[1.0, 1.0], &mut acc);
}

#[test]
#[should_panic(expected = "coefficient length mismatch")]
fn axpy_rows_f64_rejects_a_wrong_coefficient_count() {
    let a = [1.0f32; 8];
    let mut acc = [0.0f64; 8];
    kernels::axpy_rows_f64_with(Tier::Scalar, &[&a], &[1.0, 2.0], &mut acc);
}
