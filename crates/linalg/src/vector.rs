//! Dense `f32` vector kernels.
//!
//! All embedding vectors in SeeSaw live on the unit sphere (the paper
//! normalizes both image and text embeddings), so this module centres on
//! inner products, normalization, and controlled rotations used by the
//! synthetic embedding model to inject *alignment deficits*.

use rand::Rng;

// The canonical inner product lives in [`crate::kernels`] (8-lane
// unrolled, fixed accumulation order); re-exported here so historical
// `vector::dot` paths keep resolving to the one kernel.
pub use crate::kernels::dot;

/// Squared Euclidean norm `‖a‖²`.
#[inline]
pub fn l2_norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    l2_norm_sq(a).sqrt()
}

/// Squared Euclidean distance `‖a − b‖²`.
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Cosine similarity; returns 0 when either vector is (numerically) zero.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Normalize `a` in place to unit length. Vectors with norm at or
/// below `f32::EPSILON` are **zero-filled**: there is no meaningful
/// direction, and scaling by the reciprocal of a denormal norm would
/// overflow to ±∞. Identical to what [`crate::kernels::normalize_rows`]
/// does per row (the two are pinned bit-for-bit by proptest).
#[inline]
pub fn normalize(a: &mut [f32]) {
    let n = l2_norm(a);
    if n > f32::EPSILON {
        let inv = 1.0 / n;
        for x in a.iter_mut() {
            *x *= inv;
        }
    } else {
        a.fill(0.0);
    }
}

/// Return a unit-length copy of `a`.
#[inline]
pub fn normalized(a: &[f32]) -> Vec<f32> {
    let mut v = a.to_vec();
    normalize(&mut v);
    v
}

/// `a ← a + s·b` (axpy). Delegates to the [`crate::kernels::axpy`]
/// kernel — one canonical implementation workspace-wide.
#[inline]
pub fn add_scaled(a: &mut [f32], s: f32, b: &[f32]) {
    crate::kernels::axpy(a, s, b);
}

/// `a ← s·a`.
#[inline]
pub fn scale(a: &mut [f32], s: f32) {
    for x in a.iter_mut() {
        *x *= s;
    }
}

/// Component of `v` orthogonal to the unit vector `axis`
/// (`v − (v·axis)·axis`). Used to build controlled rotations.
pub fn orthonormal_component(v: &[f32], axis: &[f32]) -> Vec<f32> {
    let mut out = v.to_vec();
    let proj = dot(v, axis);
    add_scaled(&mut out, -proj, axis);
    out
}

/// Rotate the unit vector `from` by `angle` radians towards the unit
/// vector `toward`, inside the 2-D plane they span. When `toward` is
/// (anti-)parallel to `from` the rotation plane is undefined and `from`
/// is returned unchanged.
///
/// This is how the synthetic embedding model manufactures a precise
/// *alignment deficit*: the text embedding of a concept is the concept's
/// true direction rotated by the deficit angle (paper Fig. 2a).
pub fn rotate_toward(from: &[f32], toward: &[f32], angle: f32) -> Vec<f32> {
    let mut ortho = orthonormal_component(toward, from);
    let n = l2_norm(&ortho);
    if n <= 1e-6 {
        return from.to_vec();
    }
    scale(&mut ortho, 1.0 / n);
    let mut out = vec![0.0f32; from.len()];
    add_scaled(&mut out, angle.cos(), from);
    add_scaled(&mut out, angle.sin(), &ortho);
    normalize(&mut out);
    out
}

/// Sample a uniformly random direction on the `dim`-dimensional unit
/// sphere (isotropic Gaussian, normalized). Uses Marsaglia's polar
/// transform so only `rand`'s uniform generator is required.
pub fn random_unit_vector<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> Vec<f32> {
    assert!(dim > 0, "cannot sample a zero-dimensional direction");
    loop {
        let mut v: Vec<f32> = (0..dim).map(|_| standard_normal(rng)).collect();
        let n = l2_norm(&v);
        if n > 1e-6 {
            scale(&mut v, 1.0 / n);
            return v;
        }
    }
}

/// One standard-normal sample via the Marsaglia polar method.
// Inline into each caller: preprocessing draws one sample per embedding
// coordinate, and without the hint whether this call inlines depends on
// how the calling crate happens to be split into codegen units.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u: f32 = rng.gen_range(-1.0f32..1.0);
        let v: f32 = rng.gen_range(-1.0f32..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        assert!((v[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_leaves_zero_vector_alone() {
        let mut v = vec![0.0, 0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn normalize_zero_fills_denormal_norm_vectors() {
        // Norm ≈ 1.7e-24 ≤ EPSILON: the old contract left the vector
        // untouched (callers then treated it as unit-norm); the fixed
        // contract zero-fills instead of emitting ±∞ via 1/norm.
        let mut v = vec![1.0e-24f32, -1.0e-24, 1.0e-24];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let a = [0.3, 0.4, 0.5];
        let b = [0.6, 0.8, 1.0];
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn rotate_toward_hits_requested_angle() {
        let from = [1.0f32, 0.0, 0.0];
        let toward = [0.0f32, 1.0, 0.0];
        for angle in [0.1f32, 0.5, 1.0, std::f32::consts::FRAC_PI_2] {
            let rotated = rotate_toward(&from, &toward, angle);
            let got = dot(&rotated, &from).clamp(-1.0, 1.0).acos();
            assert!((got - angle).abs() < 1e-4, "angle {angle} produced {got}");
        }
    }

    #[test]
    fn rotate_toward_parallel_is_identity() {
        let from = [0.0f32, 1.0, 0.0];
        let out = rotate_toward(&from, &from, 0.7);
        assert_eq!(out, from.to_vec());
    }

    #[test]
    fn random_unit_vectors_are_unit_and_deterministic() {
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let a = random_unit_vector(&mut rng_a, 64);
        let b = random_unit_vector(&mut rng_b, 64);
        assert_eq!(a, b);
        assert!((l2_norm(&a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn orthonormal_component_is_orthogonal() {
        let axis = normalized(&[1.0, 1.0, 0.0]);
        let v = [2.0f32, 0.0, 5.0];
        let o = orthonormal_component(&v, &axis);
        assert!(dot(&o, &axis).abs() < 1e-5);
    }
}
