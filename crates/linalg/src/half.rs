//! Bit-level IEEE 754 binary16 (`f16`) ↔ `f32` conversion — no
//! external deps, no nightly `f16` primitive.
//!
//! The half-precision *row-storage tier* of the vector store
//! (`seesaw_vecstore::RowPrecision::F16`) keeps embedding rows as raw
//! `u16` half floats and converts to `f32` inside the scoring kernels,
//! halving the memory bandwidth of the dense scan. These converters
//! are its portable reference:
//!
//! * [`f32_from_f16`] is **exact** — every f16 value (including
//!   subnormals, ±0, ±∞) has a unique f32 representation, so widening
//!   never rounds. NaNs widen with their payload shifted into the f32
//!   mantissa and the quiet bit set, matching what x86 `VCVTPH2PS`
//!   (the F16C hardware path used by the AVX2 kernels) produces, so
//!   hardware-converted and software-converted scores are bit-identical
//!   even on NaN inputs.
//! * [`f16_from_f32`] rounds to nearest, ties to even — the IEEE
//!   default and what `VCVTPS2PH` with rounding mode `_MM_FROUND_TO_`
//!   `NEAREST_INT` computes. Values above the f16 range overflow to
//!   ±∞, values below the smallest subnormal underflow to ±0, and NaN
//!   narrows to a quiet NaN preserving the top payload bits.
//!
//! Round-tripping `f16 → f32 → f16` is the identity for every one of
//! the 65536 half patterns (NaNs up to quieting); the tests below check
//! this exhaustively.

/// Widen one IEEE binary16 bit pattern to `f32`. Exact for every
/// non-NaN input; NaN payloads shift left 13 bits and gain the quiet
/// bit (the hardware `VCVTPH2PS` behaviour).
#[inline]
pub fn f32_from_f16(h: u16) -> f32 {
    let sign = (u32::from(h) & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = u32::from(h) & 0x3ff;
    let bits = match exp {
        0 => {
            if man == 0 {
                sign // ±0
            } else {
                // Subnormal: value = man · 2⁻²⁴. Normalize the mantissa
                // into f32's implicit-bit form: shift until bit 10 (the
                // would-be implicit bit) reaches bit 23.
                let shift = man.leading_zeros() - 21; // man < 2¹⁰ ⇒ shift ≥ 1
                let man = (man << shift) & 0x3ff; // drop the implicit bit
                let exp = 113 - shift; // 2⁻¹⁴ · 2⁻⁽ˢʰⁱᶠᵗ⁻¹⁾, f32-biased
                sign | (exp << 23) | (man << 13)
            }
        }
        31 => {
            if man == 0 {
                sign | 0x7f80_0000 // ±∞
            } else {
                // NaN: payload << 13, quiet bit forced like VCVTPH2PS.
                sign | 0x7f80_0000 | 0x0040_0000 | (man << 13)
            }
        }
        _ => sign | ((u32::from(exp) + 112) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

/// Narrow an `f32` to the nearest IEEE binary16 bit pattern, ties to
/// even (the hardware `VCVTPS2PH` rounding). Overflows to ±∞,
/// underflows to ±0; NaN becomes a quiet NaN keeping the top ten
/// payload bits (or the canonical quiet NaN when they are all zero).
#[inline]
pub fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        // ±∞ stays ±∞; NaN keeps its top payload bits, quiet bit set.
        return if abs == 0x7f80_0000 {
            sign | 0x7c00
        } else {
            sign | 0x7e00 | (((abs >> 13) as u16) & 0x3ff)
        };
    }
    if abs >= 0x4780_0000 {
        // ≥ 2¹⁶: past the largest finite f16 (65504) and past the
        // 65520 round-to-infinity boundary.
        return sign | 0x7c00;
    }
    if abs >= 0x3880_0000 {
        // Normal range (≥ 2⁻¹⁴): rebias the exponent and round the
        // mantissa from 23 to 10 bits. A mantissa carry propagates
        // into the exponent (and on to ∞ at the 65520 boundary)
        // because the fields are adjacent.
        let rebased = abs - ((127 - 15) << 23);
        return sign + round_shift_rne(rebased, 13) as u16;
    }
    if abs > 0x3300_0000 {
        // Subnormal result (2⁻²⁵, 2⁻¹⁴): denormalize with the implicit
        // bit made explicit, then round away the excess precision.
        let exp = (abs >> 23) as i32 - 127; // in [-25, -15]
        let man = (abs & 0x007f_ffff) | 0x0080_0000;
        let shift = (13 + (-14 - exp)) as u32; // in [14, 24]
        return sign | round_shift_rne(man, shift) as u16;
    }
    // ≤ 2⁻²⁵: rounds to ±0 (the 2⁻²⁵ tie goes to even = 0).
    sign
}

/// `v >> shift` rounded to nearest, ties to even.
#[inline]
fn round_shift_rne(v: u32, shift: u32) -> u32 {
    let half = 1u32 << (shift - 1);
    let bias = half - 1 + ((v >> shift) & 1);
    (v + bias) >> shift
}

/// Encode a whole `f32` buffer as f16 bit patterns ([`f16_from_f32`]
/// per element).
pub fn encode_f16(src: &[f32]) -> Vec<u16> {
    src.iter().map(|&v| f16_from_f32(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values_widen_exactly() {
        assert_eq!(f32_from_f16(0x0000), 0.0);
        assert_eq!(f32_from_f16(0x8000).to_bits(), (-0.0f32).to_bits());
        assert_eq!(f32_from_f16(0x3c00), 1.0);
        assert_eq!(f32_from_f16(0xbc00), -1.0);
        assert_eq!(f32_from_f16(0x3555), 0.333_251_95); // closest f16 to 1/3
        assert_eq!(f32_from_f16(0x7bff), 65504.0); // largest finite
        assert_eq!(f32_from_f16(0x0001), 2.0f32.powi(-24)); // smallest subnormal
        assert_eq!(f32_from_f16(0x03ff), 1023.0 * 2.0f32.powi(-24)); // largest subnormal
        assert_eq!(f32_from_f16(0x0400), 2.0f32.powi(-14)); // smallest normal
        assert_eq!(f32_from_f16(0x7c00), f32::INFINITY);
        assert_eq!(f32_from_f16(0xfc00), f32::NEG_INFINITY);
        assert!(f32_from_f16(0x7e00).is_nan());
    }

    #[test]
    fn known_values_narrow_correctly() {
        assert_eq!(f16_from_f32(0.0), 0x0000);
        assert_eq!(f16_from_f32(-0.0), 0x8000);
        assert_eq!(f16_from_f32(1.0), 0x3c00);
        assert_eq!(f16_from_f32(65504.0), 0x7bff);
        assert_eq!(f16_from_f32(65519.0), 0x7bff); // below the ∞ boundary
        assert_eq!(f16_from_f32(65520.0), 0x7c00); // tie rounds to even = ∞
        assert_eq!(f16_from_f32(1e9), 0x7c00);
        assert_eq!(f16_from_f32(f32::INFINITY), 0x7c00);
        assert_eq!(f16_from_f32(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f16_from_f32(2.0f32.powi(-24)), 0x0001);
        assert_eq!(f16_from_f32(2.0f32.powi(-25)), 0x0000); // tie to even = 0
        assert_eq!(f16_from_f32(2.0f32.powi(-25) * 1.0001), 0x0001);
        assert_eq!(f16_from_f32(f32::MIN_POSITIVE), 0x0000); // deep underflow
        assert_eq!(f16_from_f32(-f32::MIN_POSITIVE), 0x8000);
        let nan = f16_from_f32(f32::NAN);
        assert_eq!(nan & 0x7c00, 0x7c00);
        assert_ne!(nan & 0x03ff, 0);
    }

    #[test]
    fn roundtrip_is_identity_for_all_65536_patterns() {
        for h in 0..=u16::MAX {
            let wide = f32_from_f16(h);
            let back = f16_from_f32(wide);
            if wide.is_nan() {
                // NaNs survive as NaNs with the quiet bit set; payload
                // bits beyond quieting are preserved.
                assert_eq!(back, h | 0x0200, "NaN pattern {h:#06x}");
            } else {
                assert_eq!(back, h, "pattern {h:#06x} → {wide} → {back:#06x}");
            }
        }
    }

    #[test]
    fn narrowing_picks_the_nearest_half_ties_to_even() {
        // For a sweep of f32 values, the chosen f16 must be at least as
        // close as both neighbouring representable halves, with exact
        // ties going to the even mantissa.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xf16f);
        for _ in 0..20_000 {
            // Cover normals, subnormals, and the overflow boundary.
            let x = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(-2.0f32..2.0),
                1 => rng.gen_range(-70000.0f32..70000.0),
                2 => rng.gen_range(-1e-4f32..1e-4),
                _ => rng.gen_range(-1e-7f32..1e-7),
            };
            let h = f16_from_f32(x);
            if x.abs() >= 65520.0 {
                // IEEE overflow rule: at or past maxfinite + ½ulp the
                // result is ±∞ even though 65504 is closer in absolute
                // distance.
                assert_eq!(h & 0x7fff, 0x7c00, "{x} must overflow to ∞");
                continue;
            }
            let chosen = f64::from(f32_from_f16(h));
            let err = (f64::from(x) - chosen).abs();
            // Compare against the neighbours (skip across NaN space).
            for neighbour in [h.wrapping_sub(1), h.wrapping_add(1)] {
                let nv = f32_from_f16(neighbour);
                if nv.is_nan() {
                    continue;
                }
                let nerr = (f64::from(x) - f64::from(nv)).abs();
                assert!(
                    err < nerr || (err == nerr && h & 1 == 0),
                    "{x}: chose {h:#06x} ({chosen}), neighbour {neighbour:#06x} ({nv}) closer"
                );
            }
        }
    }

    #[test]
    fn slice_encode_decode_round_trip() {
        let src = [0.0f32, -0.0, 1.5, -65504.0, 1e-5, f32::INFINITY];
        let enc = encode_f16(&src);
        let dec: Vec<f32> = enc.iter().map(|&h| f32_from_f16(h)).collect();
        for (d, &s) in dec.iter().zip(&src) {
            let again = f32_from_f16(f16_from_f32(s));
            assert_eq!(d.to_bits(), again.to_bits());
        }
    }
}
