//! Runtime-dispatched SIMD backends for the scoring kernels.
//!
//! Two tiers implement the same kernel set (`dot`, single-query GEMV,
//! its f16- and sq8-row variants, the PQ ADC scan, and the two
//! f64-accumulating row kernels of the aligner loss, `dot_rows_f64` and
//! `axpy_rows_f64`):
//!
//! * [`Tier::Scalar`] — the portable lane-unrolled reference (the
//!   `scalar` submodule). This is the *bit-exactness reference*: the
//!   canonical accumulation order of the workspace is defined by this
//!   code.
//! * [`Tier::Avx2`] — explicit `std::arch` AVX2 + F16C intrinsics
//!   (x86_64). Selected only when `is_x86_feature_detected!` confirms
//!   **both** `avx2` and `f16c` at runtime. Builds for any other
//!   architecture run the scalar tier.
//!
//! # Bit-exactness contract
//!
//! Every tier reproduces the canonical lane-major accumulation order of
//! the scalar reference *exactly*: eight `f32` lane accumulators fed in
//! chunk order with separate multiply and add roundings (**no FMA**),
//! reduced by the fixed `combine` tree, plus a strictly left-to-right
//! scalar tail. IEEE 754 arithmetic is deterministic per operation, so
//! identical operation sequences give bit-identical results — the
//! per-tier proptests in `proptests.rs` verify `to_bits()` equality for
//! every kernel across all remainder lengths. Switching tiers (or
//! machines) therefore never changes a score, a ranking, or a stored
//! index.
//!
//! # Selection
//!
//! The active tier is picked once per process, lazily, by
//! [`active_tier`]: the `SEESAW_SIMD` environment variable
//! (`scalar|avx2|auto`) is consulted first, then CPU feature
//! detection. Requesting a tier the CPU cannot run logs a warning and
//! falls back to detection. Benches and tests can re-pin the tier
//! in-process with [`force_tier`] and enumerate what the host supports
//! with [`available_tiers`].

use std::ops::Add;
use std::sync::atomic::{AtomicU8, Ordering};

/// Accumulator lanes in the canonical dot product. Eight `f32` lanes
/// fill one 256-bit AVX2 register.
pub(crate) const LANES: usize = 8;

/// Entries per subspace in a PQ lookup table, fixed at the full `u8`
/// code range. Tables are always allocated at this stride (entries past
/// the trained centroid count are zero-filled), so `s * STRIDE + code`
/// is in bounds for *any* `u8` code — this is what keeps the AVX2
/// vector gather sound without per-element code validation.
pub const PQ_LUT_STRIDE: usize = 256;

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

/// The fixed lane-reduction tree of the workspace: how the eight lane
/// accumulators and the scalar tail combine into the final score. Part
/// of the kernel contract (see [`crate::kernels`]); every tier funnels
/// through this exact expression, in `f32` for the scoring kernels and in
/// `f64` for the aligner's row kernels.
#[inline]
pub(crate) fn combine<T: Copy + Add<Output = T>>(acc: [T; LANES], tail: T) -> T {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// A SIMD instruction-set tier. All variants exist on every
/// architecture (so configuration code is portable); whether a tier can
/// *run* on the current CPU is [`tier_supported`]'s job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Portable lane-unrolled Rust — the bit-exactness reference.
    Scalar,
    /// x86_64 AVX2 + F16C intrinsics (runtime detected).
    Avx2,
}

impl Tier {
    /// Stable lowercase name, matching the `SEESAW_SIMD` vocabulary.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
        }
    }

    /// Parse a `SEESAW_SIMD` token. `auto` (and the empty string) map
    /// to `None`, meaning "detect".
    pub fn parse(s: &str) -> Option<Option<Tier>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Some(None),
            "scalar" => Some(Some(Tier::Scalar)),
            "avx2" => Some(Some(Tier::Avx2)),
            _ => None,
        }
    }
}

/// Whether the current CPU can execute `tier`'s kernels. `Scalar` is
/// always supported; `Avx2` requires runtime-detected `avx2` **and**
/// `f16c` (the f16 row loads use `VCVTPH2PS`), so it never runs on
/// other architectures.
pub fn tier_supported(tier: Tier) -> bool {
    match tier {
        Tier::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c")
        }
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx2 => false,
    }
}

/// Every tier the current CPU supports, best first. Benches iterate
/// this to build the storage × ISA matrix.
pub fn available_tiers() -> Vec<Tier> {
    [Tier::Avx2, Tier::Scalar]
        .into_iter()
        .filter(|&t| tier_supported(t))
        .collect()
}

/// Pure CPU-feature detection (ignores `SEESAW_SIMD`): the best
/// supported tier.
pub fn detect_tier() -> Tier {
    if tier_supported(Tier::Avx2) {
        Tier::Avx2
    } else {
        Tier::Scalar
    }
}

/// Active tier state: 0 = not yet initialized, otherwise
/// `encode(tier)`. Relaxed ordering suffices — the worst case is two
/// threads racing the first initialization to the same detected value.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(t: Tier) -> u8 {
    match t {
        Tier::Scalar => 1,
        Tier::Avx2 => 2,
    }
}

fn decode(v: u8) -> Option<Tier> {
    match v {
        1 => Some(Tier::Scalar),
        2 => Some(Tier::Avx2),
        _ => None,
    }
}

/// The tier the dispatching kernels currently use. Initialized lazily
/// on first call from `SEESAW_SIMD` (falling back to [`detect_tier`]);
/// after that it only changes through [`force_tier`].
pub fn active_tier() -> Tier {
    if let Some(t) = decode(ACTIVE.load(Ordering::Relaxed)) {
        return t;
    }
    let t = init_tier();
    ACTIVE.store(encode(t), Ordering::Relaxed);
    t
}

/// Pin the active tier for this process (benches/tests sweeping the
/// ISA matrix). Returns `false` — leaving the active tier unchanged —
/// when the CPU cannot run the requested tier.
pub fn force_tier(tier: Tier) -> bool {
    if tier_supported(tier) {
        ACTIVE.store(encode(tier), Ordering::Relaxed);
        true
    } else {
        false
    }
}

fn init_tier() -> Tier {
    let Ok(raw) = std::env::var("SEESAW_SIMD") else {
        return detect_tier();
    };
    match Tier::parse(&raw) {
        Some(None) => detect_tier(),
        Some(Some(t)) if tier_supported(t) => t,
        Some(Some(t)) => {
            let fallback = detect_tier();
            eprintln!(
                "seesaw: SEESAW_SIMD={} is not supported by this CPU; using {}",
                t.name(),
                fallback.name()
            );
            fallback
        }
        None => {
            let fallback = detect_tier();
            eprintln!(
                "seesaw: unknown SEESAW_SIMD value {raw:?} (expected scalar|avx2|auto); \
                 using {}",
                fallback.name()
            );
            fallback
        }
    }
}

/// Resolve a requested tier to one the CPU can actually run (scalar
/// fallback). Keeps the unsafe dispatch below sound even if a caller
/// hands us a hand-constructed unsupported `Tier`.
#[inline]
fn effective(tier: Tier) -> Tier {
    if tier_supported(tier) {
        tier
    } else {
        Tier::Scalar
    }
}

// ---------------------------------------------------------------------
// Dispatch — the only place kernel code crosses into `unsafe`.
//
// Safety: every `unsafe` call below is a `#[target_feature]` function
// whose required CPU features were confirmed by `tier_supported`
// (through `effective`) on this exact process. Shape preconditions
// (equal lengths, `rows.len() == out.len() * dim`) are asserted by the
// public wrappers in `kernels.rs` before dispatch.
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($tier:expr, $name:ident ( $($arg:expr),* )) => {
        match effective($tier) {
            // SAFETY: reachable only after `effective` confirmed
            // AVX2+F16C on this process; shape preconditions are
            // asserted by the public wrappers before dispatch.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { avx2::$name($($arg),*) },
            _ => scalar::$name($($arg),*),
        }
    };
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_dot(tier: Tier, a: &[f32], b: &[f32]) -> f32 {
    dispatch!(tier, dot(a, b))
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_dot_f16(tier: Tier, a: &[u16], b: &[f32]) -> f32 {
    dispatch!(tier, dot_f16(a, b))
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_gemv1(tier: Tier, rows: &[f32], dim: usize, query: &[f32], out: &mut [f32]) {
    dispatch!(tier, gemv1(rows, dim, query, out))
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_gemv1_f16(
    tier: Tier,
    rows: &[u16],
    dim: usize,
    query: &[f32],
    out: &mut [f32],
) {
    dispatch!(tier, gemv1_f16(rows, dim, query, out))
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_dot_sq8(
    tier: Tier,
    codes: &[u8],
    scale: f32,
    offset: f32,
    b: &[f32],
) -> f32 {
    dispatch!(tier, dot_sq8(codes, scale, offset, b))
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_dot_pq(tier: Tier, codes: &[u8], lut: &[f32]) -> f32 {
    dispatch!(tier, dot_pq(codes, lut))
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_scan_pq(tier: Tier, codes: &[u8], m: usize, lut: &[f32], out: &mut [f32]) {
    dispatch!(tier, scan_pq(codes, m, lut, out))
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_gemv1_sq8(
    tier: Tier,
    codes: &[u8],
    dim: usize,
    params: &[f32],
    query: &[f32],
    out: &mut [f32],
) {
    dispatch!(tier, gemv1_sq8(codes, dim, params, query, out))
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_dot_rows_f64(tier: Tier, rows: &[&[f32]], w: &[f64], out: &mut [f64]) {
    dispatch!(tier, dot_rows_f64(rows, w, out))
}

#[allow(unsafe_code)] // feature-checked dispatch: see the Safety note above.
#[inline]
pub(crate) fn dispatch_axpy_rows_f64(tier: Tier, rows: &[&[f32]], coeffs: &[f64], acc: &mut [f64]) {
    dispatch!(tier, axpy_rows_f64(rows, coeffs, acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported_and_active_tier_is_stable() {
        assert!(tier_supported(Tier::Scalar));
        assert!(available_tiers().contains(&Tier::Scalar));
        let t = active_tier();
        assert_eq!(active_tier(), t);
        assert!(tier_supported(t));
    }

    #[test]
    fn parse_accepts_the_documented_vocabulary() {
        assert_eq!(Tier::parse("auto"), Some(None));
        assert_eq!(Tier::parse(""), Some(None));
        assert_eq!(Tier::parse("Scalar"), Some(Some(Tier::Scalar)));
        assert_eq!(Tier::parse(" avx2 "), Some(Some(Tier::Avx2)));
        assert_eq!(Tier::parse("neon"), None);
        assert_eq!(Tier::parse("sse9"), None);
    }

    #[test]
    fn force_tier_rejects_unsupported_and_pins_supported() {
        let before = active_tier();
        for t in [Tier::Avx2] {
            if !tier_supported(t) {
                assert!(!force_tier(t));
                assert_eq!(active_tier(), before);
            }
        }
        for t in available_tiers() {
            assert!(force_tier(t));
            assert_eq!(active_tier(), t);
        }
        assert!(force_tier(before));
    }
}
