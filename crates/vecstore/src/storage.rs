//! Row storage precision tiers: how a store keeps its row-major
//! vector buffer in memory, and how each tier scores a query.
//!
//! The dense scan is memory-bandwidth bound, so the biggest remaining
//! lever after kernel tuning is *moving fewer bytes per row*.
//! [`RowStorage`] is a small enum over the supported encodings, and
//! this module is the only place that knows how each one scores,
//! whether it re-ranks, and how it is laid out in an index file. A
//! store asks [`RowStorage::scorer`] for a per-query [`Scorer`], scores
//! the rows it chooses through it, selects a pool of
//! [`RowStorage::pool_k`] candidates and hands that pool to
//! [`RowStorage::rerank`]:
//!
//! * [`RowPrecision::F32`] — rows as plain `f32` (4 B/element). Scores
//!   are exact; this is the historical representation and the default.
//! * [`RowPrecision::F16`] — rows as IEEE binary16 bit patterns
//!   (2 B/element, see `seesaw_linalg::half`), **halving** scan
//!   bandwidth. Scoring widens each element exactly to `f32` inside
//!   the kernel (in-register on AVX2+F16C) and accumulates in `f32`,
//!   so precision is lost exactly once — at encode time, round to
//!   nearest — and never during scoring. Scores are the true inner
//!   products of the *rounded* rows: deterministic, bitwise
//!   reproducible across SIMD tiers, and within ~2⁻¹¹ relative error
//!   of the f32 scores for unit-norm embeddings, which the recall
//!   floors in `tests/store_equivalence.rs` pin end to end.
//! * [`RowPrecision::Sq8`] — scalar-quantized rows: one `u8` code per
//!   element plus a per-row `(scale, offset)` pair, so the hot scan
//!   moves **1 B/element** (+8 B/row of parameters — ≈1.016 B/element
//!   at dim 512), a 4× bandwidth cut over f32. Codes dequantize on
//!   the fly inside the kernel (`offset + scale · code`, exact u8→f32
//!   widening, f32 accumulation). Quantized scores rank a candidate
//!   pool of `k × `[`RERANK_FACTOR`] rows, which are then re-ranked
//!   **exactly** against the retained f32 source rows — so final
//!   scores are true f32 inner products and recall@10 stays ≥ 0.90
//!   (pinned in `tests/store_equivalence.rs`). The source rows sit
//!   outside the scan loop (ideally in an mmapped index section, see
//!   `crate::diskindex`) and are touched only for the tiny rerank
//!   pool.
//! * [`RowPrecision::Pq`] — product-quantized rows: the `dim`
//!   dimensions split into `m` subspaces of `dim/m` elements, each
//!   subspace quantized against its own k-means codebook of
//!   `2^nbits ≤ 256` centroids, so a row stores **`m` bytes total**
//!   (0.125–0.25 B/element at dim 512, m = 64–128). Scoring is
//!   asymmetric (ADC): a query builds one lookup table of
//!   centroid·sub-query products per subspace
//!   (`seesaw_linalg::pq_lut_into`), and each row's score is the sum
//!   of `m` table entries (`scan_pq_into`) — no per-element multiply
//!   at all. The [`Scorer`] builds that table once per query. Like
//!   SQ8, the quantized scan ranks a `k × `[`RERANK_FACTOR`] candidate
//!   pool that is re-ranked **exactly** against the f32 source rows;
//!   a loaded index maps those rows from its `EXACT_ROWS` section,
//!   so the steady-state hot set is codes + codebooks only. Codebook
//!   training is seeded per-subspace Lloyd k-means ([`PQ_TRAIN_SEED`],
//!   deterministic for a given input).
//!
//! Every scoring path funnels through the canonical kernels
//! (`seesaw_linalg::kernels`), so the bit-identity guarantees
//! (loaded ≡ built, across SIMD tiers) hold *per precision*: an
//! mmap-loaded f16 store is bit-identical to the in-RAM f16 store it
//! was saved from, just not to an f32 store over the same data.
//!
//! Buffers are [`Buf`]s: either owned `Vec`s (built in RAM) or
//! zero-copy [`MappedSlice`] views into an mmapped index file. The
//! scoring paths see `&[T]` either way. `RowStorage::write_sections`
//! and `RowStorage::read_sections` lay each tier out in an index
//! file: its scan structures under their own section kinds, and the
//! exact f32 rows of every tier that keeps them under the one
//! `EXACT_ROWS` kind (`crate::diskindex::section`).

use crate::diskindex::{
    le_bytes_f32, le_bytes_u16, section, DiskIndexError, IndexFile, IndexFileBuilder, MappedSlice,
};
use crate::{Hit, TopKSelector};
use seesaw_linalg::{
    dot, dot_f16, dot_pq, dot_sq8, encode_f16, gemv1_f16_into, gemv1_into, gemv1_sq8_into,
    pq_lut_into, scan_pq_into, squared_euclidean, PQ_LUT_STRIDE,
};
use std::ops::{Deref, Range};

/// How many quantized candidates the SQ8 and PQ tiers retain per
/// requested hit before exact re-ranking: a top-`k` query scans codes
/// into a pool of `k × 4` ([`RowStorage::pool_k`]), then re-scores
/// that pool against the f32 source rows ([`RowStorage::rerank`]).
/// Generous enough that quantization error almost never evicts a true
/// top-k row from the pool, small enough that rerank cost stays
/// negligible next to the scan. An index file does not record it: a
/// loaded store pools exactly as many candidates as the store it was
/// saved from.
pub const RERANK_FACTOR: usize = 4;

/// Lloyd iterations for PQ codebook training. Sub-vector k-means
/// converges fast (each subspace is only `dim/m` dimensional); eight
/// rounds is past the knee on clustered and random data alike.
pub const PQ_TRAIN_ITERS: usize = 8;

/// Fixed seed for PQ codebook training: codebooks are a deterministic
/// function of the training data alone, so rebuilding a store from
/// the same rows reproduces identical codes bit for bit.
pub const PQ_TRAIN_SEED: u64 = 0x5EE5_A901;

/// Default subspace count for PQ when a config doesn't specify one
/// (e.g. the bare `pq` precision label).
pub const PQ_DEFAULT_M: usize = 8;

/// Default code width (bits per subspace) for PQ: 8 bits = 256
/// centroids per codebook, the full `u8` code range.
pub const PQ_DEFAULT_NBITS: u32 = 8;

/// A storage buffer that is either owned or a zero-copy view into an
/// mmapped index file. Dereferences to `&[T]` either way.
#[derive(Clone, Debug)]
pub enum Buf<T> {
    /// Heap-allocated, mutable (the build-in-RAM representation).
    Owned(Vec<T>),
    /// Borrowed from an mmapped file (`crate::diskindex`), read-only.
    Mapped(MappedSlice<T>),
}

impl<T: crate::diskindex::Pod> Deref for Buf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Buf::Owned(v) => v,
            Buf::Mapped(m) => m.as_slice(),
        }
    }
}

impl<T> From<Vec<T>> for Buf<T> {
    fn from(v: Vec<T>) -> Self {
        Buf::Owned(v)
    }
}

impl<T> From<MappedSlice<T>> for Buf<T> {
    fn from(m: MappedSlice<T>) -> Self {
        Buf::Mapped(m)
    }
}

impl<T> Buf<T> {
    /// Whether this buffer is a mapped (zero-copy) view.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Buf::Mapped(_))
    }
}

/// Precision of a store's row buffer. Selected via
/// [`crate::StoreConfig`]; defaults to [`RowPrecision::F32`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RowPrecision {
    /// 4 B/element exact storage (the historical representation).
    #[default]
    F32,
    /// 2 B/element IEEE binary16 storage with f32 accumulation.
    F16,
    /// 1 B/element scalar-quantized storage (per-row min/max affine
    /// codes) with exact f32 re-ranking of the top candidates.
    Sq8,
    /// Product-quantized storage: `m` subspace codebooks of `2^nbits`
    /// centroids each, `m` bytes per row (sub-byte per element), ADC
    /// scoring through per-query lookup tables, exact f32 re-ranking
    /// against (ideally mmap-backed) source rows.
    Pq {
        /// Subspace count; must divide the store dimension.
        m: usize,
        /// Bits per code, `1..=8` (`2^nbits` centroids per codebook).
        nbits: u32,
    },
}

impl RowPrecision {
    /// Stable lowercase family label (`f32` / `f16` / `sq8` / `pq`)
    /// for tables and configs. PQ parameters are carried by
    /// [`Self::label`]; the bare `pq` family name parses back to the
    /// default geometry ([`PQ_DEFAULT_M`] × [`PQ_DEFAULT_NBITS`]).
    pub fn name(self) -> &'static str {
        match self {
            RowPrecision::F32 => "f32",
            RowPrecision::F16 => "f16",
            RowPrecision::Sq8 => "sq8",
            RowPrecision::Pq { .. } => "pq",
        }
    }

    /// Full label including PQ geometry (`pq16x8`); equals
    /// [`Self::name`] for the other tiers. Round-trips through
    /// [`Self::parse`].
    pub fn label(self) -> String {
        match self {
            RowPrecision::Pq { m, nbits } => format!("pq{m}x{nbits}"),
            other => other.name().to_string(),
        }
    }

    /// Parse a label as produced by [`Self::name`]/[`Self::label`]
    /// (case-insensitive). PQ accepts `pq` (default geometry),
    /// `pq<m>` (8-bit codes), and `pq<m>x<nbits>`.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "f32" => return Some(RowPrecision::F32),
            "f16" | "half" => return Some(RowPrecision::F16),
            "sq8" | "int8" | "u8" => return Some(RowPrecision::Sq8),
            "pq" => {
                return Some(RowPrecision::Pq {
                    m: PQ_DEFAULT_M,
                    nbits: PQ_DEFAULT_NBITS,
                })
            }
            _ => {}
        }
        let rest = s.strip_prefix("pq")?;
        let (m_str, nbits) = match rest.split_once('x') {
            Some((m_str, n_str)) => (m_str, n_str.parse::<u32>().ok()?),
            None => (rest, PQ_DEFAULT_NBITS),
        };
        let m = m_str.parse::<usize>().ok()?;
        if m == 0 || !(1..=8).contains(&nbits) {
            return None;
        }
        Some(RowPrecision::Pq { m, nbits })
    }

    /// Whether this tier scans lossy codes and re-ranks the candidate
    /// pool against retained f32 source rows (SQ8 and PQ).
    pub fn is_quantized(self) -> bool {
        matches!(self, RowPrecision::Sq8 | RowPrecision::Pq { .. })
    }
}

/// The SQ8 row set: `u8` codes, per-row `(scale, offset)` parameter
/// pairs, and the exact f32 source rows used for re-ranking.
///
/// The affine map is per row: element `j` of row `r` dequantizes as
/// `params[2r+1] + params[2r] · code`. Encoding picks `offset = min`,
/// `scale = (max − min)/255` over the row (rounding each element to
/// the nearest code), so codes span the full `0..=255` range whatever
/// the row's dynamic range. Degenerate rows (constant, empty, or
/// non-finite) get `scale = 0` and all-zero codes.
#[derive(Clone, Debug)]
pub struct Sq8Rows {
    codes: Buf<u8>,
    /// `(scale, offset)` interleaved, two `f32`s per row.
    params: Buf<f32>,
    /// Exact f32 source rows, row-major — the rerank tier.
    source: Buf<f32>,
}

/// Encode one row-major buffer as SQ8 codes + params.
fn encode_sq8(dim: usize, data: &[f32]) -> (Vec<u8>, Vec<f32>) {
    debug_assert!(dim > 0 || data.is_empty());
    let mut codes = vec![0u8; data.len()];
    let n = data.len().checked_div(dim).unwrap_or(0);
    let mut params = Vec::with_capacity(2 * n);
    for (chunk, out) in data.chunks_exact(dim).zip(codes.chunks_exact_mut(dim)) {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in chunk {
            // f32::min/max drop NaN operands, so NaN elements simply
            // don't contribute to the range.
            min = min.min(v);
            max = max.max(v);
        }
        let (scale, offset) = if min.is_finite() && max.is_finite() && max > min {
            ((max - min) / 255.0, min)
        } else {
            // Constant, empty, or non-finite row: code everything as 0
            // and dequantize to the offset (the constant value when
            // there is one, else 0).
            (0.0, if min.is_finite() { min } else { 0.0 })
        };
        if scale > 0.0 {
            let inv = 1.0 / scale;
            for (c, &v) in out.iter_mut().zip(chunk) {
                // `as` saturates (and maps NaN to 0), so codes always
                // land in 0..=255 even at the rounding boundaries.
                *c = ((v - offset) * inv).round() as u8;
            }
        }
        params.push(scale);
        params.push(offset);
    }
    (codes, params)
}

/// The PQ row set: per-row code vectors (`m` bytes each), the `m`
/// subspace codebooks, and the exact f32 source rows used for
/// re-ranking.
///
/// Row `r`'s element block `s·dsub..(s+1)·dsub` is represented by
/// centroid `codes[r·m + s]` of codebook `s` (`dsub = dim/m`, codebook
/// `s` is the row-major `k × dsub` slab at `codebooks[s·k·dsub..]`,
/// `k = 2^nbits`). The source rows are the rerank tier: queries touch
/// only the `k × `[`RERANK_FACTOR`] candidate pool of them, so they are
/// designed to be mmap-backed (loaded from an index file) rather than
/// resident.
#[derive(Clone, Debug)]
pub struct PqRows {
    /// Subspace count (codes per row).
    m: usize,
    /// Bits per code (`2^nbits` centroids per codebook).
    nbits: u32,
    /// Elements per subspace (`dim / m`).
    dsub: usize,
    /// Row-major code matrix, `m` bytes per row.
    codes: Buf<u8>,
    /// `m` row-major `k × dsub` codebooks, back to back.
    codebooks: Buf<f32>,
    /// Exact f32 source rows, row-major — the rerank tier.
    source: Buf<f32>,
}

/// Train PQ codebooks and encode one row-major buffer: seeded Lloyd
/// k-means per subspace (plain L2 on sub-vectors — PQ centroids are
/// *not* normalized, unlike IVF's spherical coarse centroids), then
/// nearest-centroid assignment. Deterministic: fixed seed
/// ([`PQ_TRAIN_SEED`]), fixed iteration order, ties to the lowest
/// centroid index, empty clusters reseeded from the worst-served
/// sub-vector — the same degeneracy handling as the IVF Lloyd loop.
fn encode_pq(dim: usize, m: usize, nbits: u32, data: &[f32]) -> (Vec<f32>, Vec<u8>) {
    let dsub = dim / m;
    let k = 1usize << nbits;
    let n = data.len().checked_div(dim).unwrap_or(0);
    let mut codebooks = vec![0.0f32; m * k * dsub];
    let mut codes = vec![0u8; n * m];
    if n == 0 {
        return (codebooks, codes);
    }
    // Deterministic pseudo-random init order without pulling a full RNG:
    // a splitmix64 walk seeded per subspace.
    let mut sub = vec![0.0f32; n * dsub];
    let mut assign = vec![0u8; n];
    for s in 0..m {
        // Gather the subspace column block into a contiguous n × dsub
        // matrix (cache-friendly for the k-means passes).
        for r in 0..n {
            let src = &data[r * dim + s * dsub..r * dim + (s + 1) * dsub];
            sub[r * dsub..(r + 1) * dsub].copy_from_slice(src);
        }
        let cb = &mut codebooks[s * k * dsub..(s + 1) * k * dsub];
        // Init: k distinct rows where possible (linear probe, like the
        // IVF init), wrapping into duplicates when n < k.
        let mut state = PQ_TRAIN_SEED ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut picked = vec![false; n];
        for c in 0..k {
            let mut idx = (next() % n as u64) as usize;
            if c < n {
                while picked[idx] {
                    idx = (idx + 1) % n;
                }
                picked[idx] = true;
            }
            cb[c * dsub..(c + 1) * dsub].copy_from_slice(&sub[idx * dsub..(idx + 1) * dsub]);
        }
        for _ in 0..PQ_TRAIN_ITERS {
            // Assignment: nearest centroid by L2, ties to the lowest
            // index; track the worst-served row for empty-cluster
            // reseeding.
            let (mut worst_row, mut worst_dist) = (0usize, -1.0f32);
            for r in 0..n {
                let v = &sub[r * dsub..(r + 1) * dsub];
                let (mut best, mut best_dist) = (0usize, f32::INFINITY);
                for c in 0..k {
                    let d = squared_euclidean(v, &cb[c * dsub..(c + 1) * dsub]);
                    if d < best_dist {
                        best = c;
                        best_dist = d;
                    }
                }
                assign[r] = best as u8;
                if best_dist > worst_dist {
                    worst_row = r;
                    worst_dist = best_dist;
                }
            }
            // Update: mean of assigned sub-vectors; empty clusters
            // reseed from the worst-served row.
            let mut counts = vec![0u32; k];
            cb.fill(0.0);
            for r in 0..n {
                let c = assign[r] as usize;
                counts[c] += 1;
                for (d, &v) in cb[c * dsub..(c + 1) * dsub]
                    .iter_mut()
                    .zip(&sub[r * dsub..(r + 1) * dsub])
                {
                    *d += v;
                }
            }
            for c in 0..k {
                let slot = &mut cb[c * dsub..(c + 1) * dsub];
                if counts[c] == 0 {
                    slot.copy_from_slice(&sub[worst_row * dsub..(worst_row + 1) * dsub]);
                } else {
                    let inv = 1.0 / counts[c] as f32;
                    for d in slot.iter_mut() {
                        *d *= inv;
                    }
                }
            }
        }
        // Final assignment against the converged codebook.
        for r in 0..n {
            let v = &sub[r * dsub..(r + 1) * dsub];
            let (mut best, mut best_dist) = (0usize, f32::INFINITY);
            for c in 0..k {
                let d = squared_euclidean(v, &cb[c * dsub..(c + 1) * dsub]);
                if d < best_dist {
                    best = c;
                    best_dist = d;
                }
            }
            codes[r * m + s] = best as u8;
        }
    }
    (codebooks, codes)
}

/// A row-major vector buffer in one of the supported precisions, and
/// the one owner of how that precision scores ([`Self::scorer`]) and
/// re-ranks ([`Self::pool_k`], [`Self::rerank`]). All scoring goes
/// through the canonical kernels, so results are deterministic and
/// bitwise identical across SIMD tiers.
#[derive(Clone, Debug)]
pub enum RowStorage {
    /// Plain `f32` rows.
    F32(Buf<f32>),
    /// IEEE binary16 bit patterns (`seesaw_linalg::half` encoding).
    F16(Buf<u16>),
    /// Scalar-quantized rows plus the exact rerank source.
    Sq8(Sq8Rows),
    /// Product-quantized rows (codebooks + codes) plus the exact
    /// rerank source.
    Pq(PqRows),
}

impl RowStorage {
    /// Encode a row-major `f32` buffer at the requested precision.
    /// `F32` takes ownership without copying; `F16` rounds each element
    /// to the nearest half (ties to even); `Sq8` derives per-row
    /// affine codes and keeps `data` as the exact rerank source.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim` (SQ8 needs
    /// row boundaries; the callers all validate this anyway).
    pub fn encode(precision: RowPrecision, dim: usize, data: Vec<f32>) -> Self {
        match precision {
            RowPrecision::F32 => RowStorage::F32(data.into()),
            RowPrecision::F16 => RowStorage::F16(encode_f16(&data).into()),
            RowPrecision::Sq8 => {
                assert!(
                    dim > 0 || data.is_empty(),
                    "sq8 encoding needs a positive dim"
                );
                assert_eq!(
                    if dim == 0 { 0 } else { data.len() % dim },
                    0,
                    "buffer is not a multiple of dim"
                );
                let (codes, params) = encode_sq8(dim, &data);
                RowStorage::Sq8(Sq8Rows {
                    codes: codes.into(),
                    params: params.into(),
                    source: data.into(),
                })
            }
            RowPrecision::Pq { m, nbits } => {
                assert!(m > 0, "pq subspace count must be positive");
                assert!((1..=8).contains(&nbits), "pq nbits out of range (1..=8)");
                assert!(
                    dim > 0 || data.is_empty(),
                    "pq encoding needs a positive dim"
                );
                if dim > 0 {
                    assert_eq!(data.len() % dim, 0, "buffer is not a multiple of dim");
                    assert_eq!(dim % m, 0, "pq subspace count must divide dim");
                }
                let dsub = if dim == 0 { 0 } else { dim / m };
                let (codebooks, codes) = encode_pq(dim, m, nbits, &data);
                RowStorage::Pq(PqRows {
                    m,
                    nbits,
                    dsub,
                    codes: codes.into(),
                    codebooks: codebooks.into(),
                    source: data.into(),
                })
            }
        }
    }

    /// The storage precision.
    pub fn precision(&self) -> RowPrecision {
        match self {
            RowStorage::F32(_) => RowPrecision::F32,
            RowStorage::F16(_) => RowPrecision::F16,
            RowStorage::Sq8(_) => RowPrecision::Sq8,
            RowStorage::Pq(p) => RowPrecision::Pq {
                m: p.m,
                nbits: p.nbits,
            },
        }
    }

    /// Total element count (rows × dim). PQ stores `m` codes per row,
    /// so the count is reconstructed from the subspace geometry
    /// (`rows × m × dsub`).
    pub fn len(&self) -> usize {
        match self {
            RowStorage::F32(d) => d.len(),
            RowStorage::F16(d) => d.len(),
            RowStorage::Sq8(q) => q.codes.len(),
            RowStorage::Pq(p) => p.codes.len() * p.dsub,
        }
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes a full scan of the stored rows reads: the encoded
    /// elements plus (for SQ8) the per-row dequantization parameters.
    /// The `f32` source rows the quantized tiers retain for re-ranking
    /// are *not* counted — a query touches only `k × `[`RERANK_FACTOR`]
    /// of them, so they cost capacity, not scan bandwidth. For PQ the
    /// scan streams only the `m` code bytes per row (the per-query LUT
    /// is cache-resident query state, and the codebooks are touched
    /// once per query to build it).
    pub fn scan_bytes(&self) -> usize {
        match self {
            RowStorage::F32(d) => d.len() * 4,
            RowStorage::F16(d) => d.len() * 2,
            RowStorage::Sq8(q) => q.codes.len() + q.params.len() * 4,
            RowStorage::Pq(p) => p.codes.len(),
        }
    }

    /// Steady-state resident bytes. Scan structures (dense rows, codes,
    /// params, PQ codebooks) count whether owned or mmap-backed — every
    /// query touches all of their pages, so they are resident once
    /// warm. The `f32` rerank source counts only while it is *owned*:
    /// an mmap-backed source (loaded from an index file) is
    /// demand-paged, and a query touches only the tiny rerank pool of
    /// it, so it contributes capacity, not steady-state residency.
    pub fn resident_bytes(&self) -> usize {
        match self {
            RowStorage::Sq8(q) if !q.source.is_mapped() => self.scan_bytes() + q.source.len() * 4,
            RowStorage::Pq(p) => {
                let source = if p.source.is_mapped() {
                    0
                } else {
                    p.source.len() * 4
                };
                self.scan_bytes() + p.codebooks.len() * 4 + source
            }
            _ => self.scan_bytes(),
        }
    }

    /// Prepare `query` for scoring against these rows: the per-query
    /// state a tier needs (the ADC lookup table for PQ, built once
    /// here) plus the kernels that score it. See [`Scorer`].
    ///
    /// # Panics
    /// Panics when `query.len() != dim`, or when `dim` disagrees with
    /// the PQ geometry (`m × dsub`).
    pub fn scorer<'a>(&'a self, dim: usize, query: &'a [f32]) -> Scorer<'a> {
        assert_eq!(query.len(), dim, "query dimension mismatch");
        let mut lut = Vec::new();
        if let RowStorage::Pq(p) = self {
            assert_eq!(dim, p.m * p.dsub, "pq geometry disagrees with dim");
            lut = vec![0.0f32; p.m * PQ_LUT_STRIDE];
            pq_lut_into(&p.codebooks, p.m, 1 << p.nbits, query, &mut lut);
        }
        Scorer {
            rows: self,
            dim,
            query,
            lut,
        }
    }

    /// The candidate-pool size a top-`k` scan selects before
    /// [`Self::rerank`]: `k × `[`RERANK_FACTOR`] for the quantized
    /// tiers (SQ8, PQ), `k` for the exact-scoring tiers.
    pub fn pool_k(&self, k: usize) -> usize {
        if self.precision().is_quantized() {
            k.saturating_mul(RERANK_FACTOR)
        } else {
            k
        }
    }

    /// Collapse a scanned candidate pool to the final top-`k`. For the
    /// exact-scoring tiers the pool *is* the answer; for SQ8 and PQ
    /// each candidate is re-scored exactly against its retained f32
    /// source row, so final scores are true inner products.
    ///
    /// # Panics
    /// Panics when a pool id is out of bounds or `query.len() != dim`.
    pub fn rerank(&self, dim: usize, query: &[f32], k: usize, pool: Vec<Hit>) -> Vec<Hit> {
        let source = match self {
            RowStorage::Sq8(q) => &q.source,
            RowStorage::Pq(p) => &p.source,
            RowStorage::F32(_) | RowStorage::F16(_) => return pool,
        };
        let mut sel = TopKSelector::new(k);
        for h in pool {
            let i = h.id as usize * dim;
            sel.insert(h.id, dot(&source[i..i + dim], query));
        }
        sel.into_sorted_hits()
    }

    /// Borrow the exact `f32` rows this tier keeps, row-major in id
    /// order: the rows themselves for F32, the re-rank source for SQ8
    /// and PQ. `None` for F16, whose rows are rounded and keep no exact
    /// copy. An index file uses this to store each row once.
    pub fn exact_rows(&self) -> Option<&[f32]> {
        match self {
            RowStorage::F32(d) => Some(d),
            RowStorage::Sq8(q) => Some(&q.source),
            RowStorage::Pq(p) => Some(&p.source),
            RowStorage::F16(_) => None,
        }
    }

    /// Append this tier's index-file sections to `b`: its scan
    /// structures, then its exact f32 rows (when it keeps them) as the
    /// one `EXACT_ROWS` section.
    pub(crate) fn write_sections(&self, b: &mut IndexFileBuilder) {
        match self {
            RowStorage::F32(_) => {}
            RowStorage::F16(d) => {
                b.section(section::ROWS_F16, le_bytes_u16(d));
            }
            RowStorage::Sq8(q) => {
                b.section(section::SQ8_CODES, q.codes.to_vec());
                b.section(section::SQ8_PARAMS, le_bytes_f32(&q.params));
            }
            RowStorage::Pq(p) => {
                b.section(section::PQ_CODES, p.codes.to_vec());
                b.section(section::PQ_CODEBOOKS, le_bytes_f32(&p.codebooks));
            }
        }
        if let Some(rows) = self.exact_rows() {
            b.section(section::EXACT_ROWS, le_bytes_f32(rows));
        }
    }

    /// Read back an `n_rows × dim` tier that [`Self::write_sections`]
    /// wrote, checking every section's shape. Every buffer stays a
    /// mapped view into `file`, never a copy: the SQ8 and PQ exact rows
    /// are demand-paged, so a query faults in only the pool it
    /// re-ranks (see [`Self::resident_bytes`]).
    pub(crate) fn read_sections(
        file: &IndexFile,
        precision: RowPrecision,
        dim: usize,
        n_rows: usize,
    ) -> Result<Self, DiskIndexError> {
        let want = n_rows
            .checked_mul(dim)
            .ok_or(DiskIndexError::BadHeader("row count overflows"))?;
        let exact = || file.section_slice(section::EXACT_ROWS).map(Buf::from);
        let rows = match precision {
            RowPrecision::F32 => RowStorage::F32(exact()?),
            RowPrecision::F16 => RowStorage::F16(file.section_slice(section::ROWS_F16)?.into()),
            RowPrecision::Sq8 => {
                let codes = file.section_slice::<u8>(section::SQ8_CODES)?;
                let params = file.section_slice::<f32>(section::SQ8_PARAMS)?;
                if Some(params.len()) != n_rows.checked_mul(2) {
                    return Err(DiskIndexError::BadHeader("sq8 section shape mismatch"));
                }
                RowStorage::Sq8(Sq8Rows {
                    codes: codes.into(),
                    params: params.into(),
                    source: exact()?,
                })
            }
            RowPrecision::Pq { m, nbits } => {
                // STORE_META validated m | dim, m > 0, 1 ≤ nbits ≤ 8; the
                // section sizes can still overflow on a crafted dim.
                let dsub = dim / m;
                let (n_codes, n_codebook) = n_rows
                    .checked_mul(m)
                    .zip(
                        m.checked_mul(1 << nbits)
                            .and_then(|mk| mk.checked_mul(dsub)),
                    )
                    .ok_or(DiskIndexError::BadHeader("pq geometry overflows"))?;
                let codes = file.section_slice::<u8>(section::PQ_CODES)?;
                let codebooks = file.section_slice::<f32>(section::PQ_CODEBOOKS)?;
                if codes.len() != n_codes || codebooks.len() != n_codebook {
                    return Err(DiskIndexError::BadHeader("pq section shape mismatch"));
                }
                RowStorage::Pq(PqRows {
                    m,
                    nbits,
                    dsub,
                    codes: codes.into(),
                    codebooks: codebooks.into(),
                    source: exact()?,
                })
            }
        };
        if rows.len() != want || rows.exact_rows().is_some_and(|r| r.len() != want) {
            return Err(DiskIndexError::BadHeader("row section shape mismatch"));
        }
        Ok(rows)
    }
}

#[cfg(test)]
impl RowStorage {
    /// Decode row `id` into an `f32` buffer — exact for every
    /// precision (f16 widening never rounds; SQ8 reads the retained
    /// source row, not the codes).
    ///
    /// # Panics
    /// Panics when the row is out of bounds or `out.len() != dim`.
    pub fn row_into(&self, dim: usize, id: u32, out: &mut [f32]) {
        assert_eq!(out.len(), dim, "row_into output length mismatch");
        let i = id as usize * dim;
        match self {
            RowStorage::F32(d) => out.copy_from_slice(&d[i..i + dim]),
            RowStorage::F16(d) => {
                for (o, &h) in out.iter_mut().zip(&d[i..i + dim]) {
                    *o = seesaw_linalg::f32_from_f16(h);
                }
            }
            RowStorage::Sq8(q) => out.copy_from_slice(&q.source[i..i + dim]),
            RowStorage::Pq(p) => out.copy_from_slice(&p.source[i..i + dim]),
        }
    }

    /// Whether every buffer is a mapped view into an index file.
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            RowStorage::F32(d) => d.is_mapped(),
            RowStorage::F16(d) => d.is_mapped(),
            RowStorage::Sq8(q) => {
                q.codes.is_mapped() && q.params.is_mapped() && q.source.is_mapped()
            }
            RowStorage::Pq(p) => {
                p.codes.is_mapped() && p.codebooks.is_mapped() && p.source.is_mapped()
            }
        }
    }
}

/// One query prepared against one [`RowStorage`]
/// ([`RowStorage::scorer`]). A store only chooses *which* rows to
/// score: a contiguous block ([`Self::score_range`], the exact scan) or
/// one row at a time ([`Self::score`], the IVF list walk). Both run the
/// tier's canonical kernel, so a row scores bit-identically either way.
/// For SQ8 and PQ these are the quantized candidate-generation scores;
/// [`RowStorage::rerank`] turns the selected pool into exact ones.
#[derive(Debug)]
pub struct Scorer<'a> {
    rows: &'a RowStorage,
    dim: usize,
    query: &'a [f32],
    /// The per-query ADC lookup table for PQ; empty for the other tiers.
    lut: Vec<f32>,
}

impl Scorer<'_> {
    /// Score row `id`.
    ///
    /// # Panics
    /// Panics when the row is out of bounds.
    #[inline]
    pub fn score(&self, id: u32) -> f32 {
        let (dim, query) = (self.dim, self.query);
        let i = id as usize * dim;
        match self.rows {
            RowStorage::F32(d) => dot(&d[i..i + dim], query),
            RowStorage::F16(d) => dot_f16(&d[i..i + dim], query),
            RowStorage::Sq8(q) => {
                let p = id as usize * 2;
                dot_sq8(&q.codes[i..i + dim], q.params[p], q.params[p + 1], query)
            }
            RowStorage::Pq(p) => {
                let c = id as usize * p.m;
                dot_pq(&p.codes[c..c + p.m], &self.lut)
            }
        }
    }

    /// Score the row block `rows`: `out[j] = score(rows.start + j)`,
    /// bit for bit.
    ///
    /// # Panics
    /// Panics when the block is out of bounds or
    /// `out.len() != rows.len()`.
    pub fn score_range(&self, rows: Range<usize>, out: &mut [f32]) {
        let (dim, query) = (self.dim, self.query);
        let elems = rows.start * dim..rows.end * dim;
        match self.rows {
            RowStorage::F32(d) => gemv1_into(&d[elems], dim, query, out),
            RowStorage::F16(d) => gemv1_f16_into(&d[elems], dim, query, out),
            RowStorage::Sq8(q) => gemv1_sq8_into(
                &q.codes[elems],
                dim,
                &q.params[rows.start * 2..rows.end * 2],
                query,
                out,
            ),
            RowStorage::Pq(p) => scan_pq_into(
                &p.codes[rows.start * p.m..rows.end * p.m],
                p.m,
                &self.lut,
                out,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seesaw_linalg::random_unit_vector;

    fn rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n * dim);
        for _ in 0..n {
            out.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        out
    }

    /// `score_range` over `range` equals per-row `score`, bit for bit.
    fn assert_range_matches_rows(sc: &Scorer, range: Range<usize>) {
        let mut got = vec![0.0f32; range.len()];
        sc.score_range(range.clone(), &mut got);
        for (id, g) in range.zip(&got) {
            assert_eq!(g.to_bits(), sc.score(id as u32).to_bits(), "row {id}");
        }
    }

    /// Re-ranking a pool of every row returns each row's exact f32
    /// `dot` against its source row, bit for bit.
    fn assert_rerank_is_exact(st: &RowStorage, dim: usize, data: &[f32], q: &[f32]) {
        let n = data.len() / dim;
        let sc = st.scorer(dim, q);
        let pool = (0..n as u32)
            .map(|id| Hit {
                id,
                score: sc.score(id),
            })
            .collect();
        let hits = st.rerank(dim, q, n, pool);
        assert_eq!(hits.len(), n);
        for h in hits {
            let i = h.id as usize * dim;
            let exact = dot(&data[i..i + dim], q);
            assert_eq!(h.score.to_bits(), exact.to_bits(), "row {}", h.id);
        }
    }

    #[test]
    fn f32_storage_scores_bitwise_like_raw_kernels() {
        let (n, dim) = (20, 11);
        let data = rows(n, dim, 1);
        let q = random_unit_vector(&mut StdRng::seed_from_u64(2), dim);
        let st = RowStorage::encode(RowPrecision::F32, dim, data.clone());
        let sc = st.scorer(dim, &q);
        for id in 0..n as u32 {
            let reference = dot(&data[id as usize * dim..(id as usize + 1) * dim], &q);
            assert_eq!(sc.score(id).to_bits(), reference.to_bits());
        }
        assert_range_matches_rows(&sc, 5..12);
        // Exact tiers pool exactly k and re-rank as the identity.
        assert_eq!(st.pool_k(3), 3);
        let pool = vec![Hit { id: 4, score: 0.5 }];
        assert_eq!(st.rerank(dim, &q, 1, pool.clone()), pool);
    }

    #[test]
    fn f16_storage_scores_equal_scoring_decoded_rows() {
        let (n, dim) = (16, 13);
        let data = rows(n, dim, 3);
        let q = random_unit_vector(&mut StdRng::seed_from_u64(4), dim);
        let st = RowStorage::encode(RowPrecision::F16, dim, data.clone());
        let sc = st.scorer(dim, &q);
        assert_range_matches_rows(&sc, 0..n);
        let mut decoded = vec![0.0f32; dim];
        for id in 0..n as u32 {
            st.row_into(dim, id, &mut decoded);
            let reference = dot(&decoded, &q);
            assert_eq!(sc.score(id).to_bits(), reference.to_bits());
            // And the decoded row is close to the original (unit-norm
            // data: f16 relative error ≤ 2⁻¹¹ per element).
            for (d, o) in decoded
                .iter()
                .zip(&data[id as usize * dim..(id as usize + 1) * dim])
            {
                assert!((d - o).abs() <= 6e-4, "{d} vs {o}");
            }
        }
    }

    #[test]
    fn sq8_quantized_scores_track_exact_scores() {
        let (n, dim) = (24, 32);
        let data = rows(n, dim, 5);
        let q = random_unit_vector(&mut StdRng::seed_from_u64(6), dim);
        let st = RowStorage::encode(RowPrecision::Sq8, dim, data.clone());
        assert_eq!(st.precision(), RowPrecision::Sq8);
        let sc = st.scorer(dim, &q);
        for id in 0..n as u32 {
            let exact = dot(&data[id as usize * dim..(id as usize + 1) * dim], &q);
            let quant = sc.score(id);
            // Per-element quantization error ≤ scale/2 ≈ range/510;
            // on unit vectors the accumulated score error stays well
            // under 2e-2 at this dim.
            assert!((quant - exact).abs() < 2e-2, "id {id}: {quant} vs {exact}");
        }
        // The rerank score is the exact f32 product, bit for bit.
        assert_eq!(st.pool_k(3), 3 * RERANK_FACTOR);
        assert_rerank_is_exact(&st, dim, &data, &q);
    }

    #[test]
    fn sq8_gemv_matches_per_row_dots_bitwise() {
        let (n, dim) = (19, 17);
        let data = rows(n, dim, 7);
        let q = random_unit_vector(&mut StdRng::seed_from_u64(8), dim);
        let st = RowStorage::encode(RowPrecision::Sq8, dim, data);
        assert_range_matches_rows(&st.scorer(dim, &q), 4..13);
    }

    #[test]
    fn sq8_row_into_returns_exact_source_rows() {
        let (n, dim) = (6, 10);
        let data = rows(n, dim, 9);
        let st = RowStorage::encode(RowPrecision::Sq8, dim, data.clone());
        let mut out = vec![0.0f32; dim];
        for id in 0..n as u32 {
            st.row_into(dim, id, &mut out);
            for (o, d) in out.iter().zip(&data[id as usize * dim..]) {
                assert_eq!(o.to_bits(), d.to_bits());
            }
        }
        assert_eq!(st.exact_rows(), Some(&data[..]));
        let f16 = RowStorage::encode(RowPrecision::F16, dim, data);
        assert!(f16.exact_rows().is_none());
    }

    #[test]
    fn sq8_encoding_handles_degenerate_rows() {
        let dim = 4;
        // Constant row, zero row, and a NaN-containing row.
        let data = vec![
            0.5,
            0.5,
            0.5,
            0.5, //
            0.0,
            0.0,
            0.0,
            0.0, //
            f32::NAN,
            1.0,
            2.0,
            3.0,
        ];
        let st = RowStorage::encode(RowPrecision::Sq8, dim, data);
        let RowStorage::Sq8(q) = &st else {
            panic!("wrong variant");
        };
        // Constant rows: scale 0, offset = the constant.
        assert_eq!(q.params[0], 0.0);
        assert_eq!(q.params[1], 0.5);
        assert_eq!(&q.codes[0..4], &[0; 4]);
        assert_eq!(q.params[2], 0.0);
        assert_eq!(q.params[3], 0.0);
        // NaN is ignored by the range; finite elements still quantize,
        // the NaN element saturates to code 0.
        assert!(q.params[4] > 0.0);
        let query = [1.0f32, 0.0, 0.0, 0.0];
        // Scores stay finite for the degenerate rows.
        let sc = st.scorer(dim, &query);
        assert!(sc.score(0).is_finite());
        assert!(sc.score(1).is_finite());
    }

    #[test]
    fn precision_labels_round_trip() {
        for p in [RowPrecision::F32, RowPrecision::F16, RowPrecision::Sq8] {
            assert_eq!(RowPrecision::parse(p.name()), Some(p));
        }
        // PQ round-trips through the parameterized label, not name().
        for p in [
            RowPrecision::Pq { m: 8, nbits: 8 },
            RowPrecision::Pq { m: 64, nbits: 6 },
        ] {
            assert_eq!(RowPrecision::parse(&p.label()), Some(p));
        }
        assert_eq!(
            RowPrecision::parse("pq"),
            Some(RowPrecision::Pq {
                m: PQ_DEFAULT_M,
                nbits: PQ_DEFAULT_NBITS
            })
        );
        assert_eq!(
            RowPrecision::parse("pq16"),
            Some(RowPrecision::Pq { m: 16, nbits: 8 })
        );
        assert_eq!(RowPrecision::parse("pq0x8"), None);
        assert_eq!(RowPrecision::parse("pq8x9"), None);
        assert_eq!(RowPrecision::parse("pq8x0"), None);
        assert_eq!(RowPrecision::parse("bf16"), None);
        assert_eq!(RowPrecision::default(), RowPrecision::F32);
        assert!(RowPrecision::Sq8.is_quantized());
        assert!(RowPrecision::Pq { m: 8, nbits: 8 }.is_quantized());
        assert!(!RowPrecision::F16.is_quantized());
    }

    #[test]
    fn pq_training_is_deterministic() {
        let (n, dim) = (60, 12);
        let data = rows(n, dim, 31);
        let p = RowPrecision::Pq { m: 4, nbits: 4 };
        let a = RowStorage::encode(p, dim, data.clone());
        let b = RowStorage::encode(p, dim, data);
        let (RowStorage::Pq(a), RowStorage::Pq(b)) = (&a, &b) else {
            panic!("wrong variant");
        };
        assert_eq!(&a.codes[..], &b.codes[..]);
        assert_eq!(a.codebooks.len(), b.codebooks.len());
        for (x, y) in a.codebooks.iter().zip(b.codebooks.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn pq_scores_track_exact_and_rerank_is_bit_exact() {
        let (n, dim) = (200, 16);
        let data = rows(n, dim, 33);
        let q = random_unit_vector(&mut StdRng::seed_from_u64(34), dim);
        let st = RowStorage::encode(RowPrecision::Pq { m: 8, nbits: 8 }, dim, data.clone());
        let sc = st.scorer(dim, &q);
        // The block ADC scan agrees with the per-row one bit for bit.
        assert_range_matches_rows(&sc, 0..n);
        let mut err_sum = 0.0f64;
        for id in 0..n as u32 {
            let exact = dot(&data[id as usize * dim..(id as usize + 1) * dim], &q);
            err_sum += (sc.score(id) - exact).abs() as f64;
        }
        // Re-ranking reads the retained f32 source: bit-exact.
        assert_eq!(st.pool_k(3), 3 * RERANK_FACTOR);
        assert_rerank_is_exact(&st, dim, &data, &q);
        // ADC is lossy but must track the exact scores closely on
        // unit vectors (k=256 centroids over 2-dim subspaces).
        assert!(
            err_sum / n as f64 <= 0.05,
            "mean ADC error {}",
            err_sum / n as f64
        );
    }

    #[test]
    fn pq_row_into_reads_exact_source_rows() {
        let (n, dim) = (20, 8);
        let data = rows(n, dim, 35);
        let st = RowStorage::encode(RowPrecision::Pq { m: 4, nbits: 5 }, dim, data.clone());
        let mut out = vec![0.0f32; dim];
        for id in [0u32, 7, 19] {
            st.row_into(dim, id, &mut out);
            for (o, d) in out.iter().zip(&data[id as usize * dim..]) {
                assert_eq!(o.to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn pq_footprint_counts_codes_codebooks_and_owned_source() {
        let (n, dim, m, nbits) = (32, 16, 4, 4);
        let data = rows(n, dim, 36);
        let st = RowStorage::encode(RowPrecision::Pq { m, nbits }, dim, data);
        let k = 1usize << nbits;
        assert_eq!(st.scan_bytes(), n * m);
        assert_eq!(
            st.resident_bytes(),
            n * m + m * k * (dim / m) * 4 + n * dim * 4
        );
    }

    #[test]
    fn pq_handles_more_centroids_than_rows() {
        // n < k: duplicate centroids are allowed; encoding stays
        // deterministic and every code is in range.
        let (n, dim) = (3, 8);
        let data = rows(n, dim, 38);
        let st = RowStorage::encode(RowPrecision::Pq { m: 2, nbits: 8 }, dim, data);
        let RowStorage::Pq(p) = &st else {
            panic!("wrong variant");
        };
        assert_eq!(p.codes.len(), n * 2);
        assert_eq!(p.codebooks.len(), 2 * 256 * 4);
    }
}
