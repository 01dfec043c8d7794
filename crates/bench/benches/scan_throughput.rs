//! **Dense-scan throughput** — the repo's perf-trajectory anchor for
//! the vector-store hot path (paper §2.2: the per-round latency budget
//! is what forces approximate indexes; this harness measures how fast
//! the *exact* scan actually is).
//!
//! Two comparisons, swept over `dim ∈ {64, 128, 512}`:
//!
//! 1. **scalar vs kernel** — the historical per-row scalar `dot` with
//!    sorted-buffer `Vec::insert` selection, against the blocked
//!    kernel scan with bounded heap selection ([`ExactStore`]'s
//!    current path) on the machine's best SIMD tier. Reported as
//!    rows/sec.
//! 2. **storage × ISA matrix** — the kernel scan at every available
//!    SIMD tier (scalar, and AVX2/NEON where detected) crossed with
//!    every row-storage precision (`f32`, `f16`, `sq8`, `pq`), with a
//!    bitwise self-check that every tier reproduces the scalar tier's
//!    scores exactly (per precision). The quantized rows time the full
//!    code-scan + re-rank pipeline; the `pq` row is the evidence that
//!    the ADC scan beats the SQ8 byte scan at equal recall machinery.
//!
//! Results are written to `BENCH_scan.json` at the repo root (override
//! with `SEESAW_BENCH_OUT`) — CI runs this harness in release mode,
//! uploads the JSON as an artifact, and the harness **exits non-zero
//! if the dim-512 kernel/scalar speedup falls below the gate**: 2.0×
//! when a SIMD tier is active (explicit vectorization must pay for
//! itself), 1.0× when only the scalar tier is available (disable with
//! `SEESAW_SCAN_STRICT=0` on noisy machines). See the README
//! "Performance" section for how to read the file.
//!
//! Knobs: `SEESAW_SCAN_ROWS` (default 8192) sizes the store;
//! `SEESAW_SIMD=scalar|avx2|neon|auto` pins the dispatch tier.
//!
//! ```sh
//! cargo bench --bench scan_throughput
//! SEESAW_SCAN_ROWS=20000 SEESAW_SIMD=scalar cargo bench --bench scan_throughput
//! ```

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use seesaw_bench::env_usize;
use seesaw_linalg::{
    active_tier, available_tiers, dot_scalar, force_tier, random_unit_vector, Tier,
};
use seesaw_vecstore::{ExactStore, Hit, RowPrecision, VectorStore};

const DIMS: [usize; 3] = [64, 128, 512];
const K: usize = 10;
/// The dim whose scalar-vs-kernel ratio gates CI (the largest: most
/// memory-bound, least noise-sensitive).
const GATE_DIM: usize = 512;
/// Minimum dim-512 kernel/scalar speedup when a SIMD tier is active.
/// The explicit AVX2/NEON kernels must at least double the historical
/// scalar scan; with only the scalar tier the kernel path still must
/// not regress below it.
const GATE_MIN_SPEEDUP_SIMD: f64 = 2.0;
const GATE_MIN_SPEEDUP_SCALAR: f64 = 1.0;

/// The pre-kernel exact scan, reconstructed faithfully: one scalar
/// `dot` per row and an O(k) sorted-buffer insert per accepted
/// candidate. This is the baseline the kernel path must beat.
fn scalar_top_k(dim: usize, data: &[f32], query: &[f32], k: usize) -> Vec<Hit> {
    let mut best: Vec<Hit> = Vec::with_capacity(k + 1);
    let mut threshold = f32::NEG_INFINITY;
    for (i, v) in data.chunks_exact(dim).enumerate() {
        let score = dot_scalar(query, v);
        if best.len() < k || score > threshold {
            let pos = best
                .binary_search_by(|h| score.total_cmp(&h.score))
                .unwrap_or_else(|e| e);
            best.insert(
                pos,
                Hit {
                    id: i as u32,
                    score,
                },
            );
            if best.len() > k {
                best.pop();
            }
            threshold = best.last().map(|h| h.score).unwrap_or(f32::NEG_INFINITY);
        }
    }
    best.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    best
}

/// Best-of-three seconds-per-call, each sample sized from a pilot run
/// to take ~80 ms (minimum throughput noise without a statistics
/// harness; min-of-samples discards scheduler hiccups).
fn time_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let pilot_start = Instant::now();
    black_box(f());
    let pilot = pilot_start.elapsed().as_secs_f64().max(1e-9);
    let iters = (0.08 / pilot).ceil().clamp(1.0, 20_000.0) as usize;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

struct MatrixResult {
    tier: &'static str,
    precision: &'static str,
    rows_per_sec: f64,
}

struct DimResult {
    dim: usize,
    scalar_rows_per_sec: f64,
    kernel_rows_per_sec: f64,
    matrix: Vec<MatrixResult>,
}

fn main() {
    let rows = env_usize("SEESAW_SCAN_ROWS", 8192);
    let strict = env_usize("SEESAW_SCAN_STRICT", 1) != 0;
    // Resolve the dispatch tier once (honours SEESAW_SIMD) — the
    // scalar-vs-kernel section runs on it; the matrix section pins
    // each tier explicitly and restores it afterwards.
    let session_tier = active_tier();
    let tiers = available_tiers();
    eprintln!(
        "[scan] simd tier: {} (available: {})",
        session_tier.name(),
        tiers
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut results: Vec<DimResult> = Vec::new();

    for &dim in &DIMS {
        eprintln!("[scan] dim {dim}: building {rows} rows…");
        let mut rng = StdRng::seed_from_u64(0x5ca0 ^ dim as u64);
        let mut data = Vec::with_capacity(rows * dim);
        for _ in 0..rows {
            data.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        let store = ExactStore::new(dim, data.clone());
        let q0 = random_unit_vector(&mut rng, dim);
        let q0 = q0.as_slice();

        // Correctness first: same ids out of both scan generations.
        let scalar_hits = scalar_top_k(dim, &data, q0, K);
        let kernel_hits = store.top_k(q0, K);
        assert_eq!(
            scalar_hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            kernel_hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            "scalar and kernel scans disagree on the top-{K}"
        );

        let scalar_secs = time_per_call(|| scalar_top_k(dim, &data, q0, K));
        let kernel_secs = time_per_call(|| store.top_k(q0, K));
        let scalar_rows_per_sec = rows as f64 / scalar_secs;
        let kernel_rows_per_sec = rows as f64 / kernel_secs;
        eprintln!(
            "[scan] dim {dim}: scalar {scalar_rows_per_sec:.3e} rows/s, \
             kernel {kernel_rows_per_sec:.3e} rows/s ({:.2}x)",
            kernel_rows_per_sec / scalar_rows_per_sec
        );

        // Storage × ISA matrix: every available tier against every row
        // precision, with a bitwise cross-check that each tier
        // reproduces the scalar tier exactly (per precision). The
        // quantized tiers (sq8, pq) time the full pipeline — code scan
        // plus exact re-rank of the candidate pool — so their rows/s is
        // what a caller actually observes; pq scans m = dim/8 code
        // bytes per row where sq8 scans dim.
        let mut matrix = Vec::new();
        let precisions = [
            RowPrecision::F32,
            RowPrecision::F16,
            RowPrecision::Sq8,
            RowPrecision::Pq {
                m: dim / 8,
                nbits: 8,
            },
        ];
        for &precision in &precisions {
            let pstore = ExactStore::with_precision(dim, data.clone(), precision);
            assert!(force_tier(Tier::Scalar), "scalar tier must always exist");
            let reference = pstore.top_k(q0, K);
            for &tier in &tiers {
                assert!(force_tier(tier), "advertised tier refused to activate");
                let hits = pstore.top_k(q0, K);
                assert_eq!(reference.len(), hits.len());
                for (r, h) in reference.iter().zip(&hits) {
                    assert_eq!(
                        (r.id, r.score.to_bits()),
                        (h.id, h.score.to_bits()),
                        "{} tier diverged from scalar ({} rows, dim {dim})",
                        tier.name(),
                        precision.name(),
                    );
                }
                let secs = time_per_call(|| pstore.top_k(q0, K));
                let rps = rows as f64 / secs;
                eprintln!(
                    "[scan] dim {dim}: {}/{} {rps:.3e} rows/s",
                    tier.name(),
                    precision.name()
                );
                matrix.push(MatrixResult {
                    tier: tier.name(),
                    precision: precision.name(),
                    rows_per_sec: rps,
                });
            }
        }
        assert!(force_tier(session_tier));

        results.push(DimResult {
            dim,
            scalar_rows_per_sec,
            kernel_rows_per_sec,
            matrix,
        });
    }

    // Human-readable summary.
    println!("# scan_throughput ({rows} rows, k = {K})");
    println!("dim | scalar rows/s | kernel rows/s | kernel speedup");
    for r in &results {
        println!(
            "{:>3} | {:>13.3e} | {:>13.3e} | {:>13.2}x",
            r.dim,
            r.scalar_rows_per_sec,
            r.kernel_rows_per_sec,
            r.kernel_rows_per_sec / r.scalar_rows_per_sec
        );
    }
    println!("dim | tier | storage | rows/s");
    for r in &results {
        for m in &r.matrix {
            println!(
                "{:>3} | {:>6} | {:>7} | {:>10.3e}",
                r.dim, m.tier, m.precision, m.rows_per_sec
            );
        }
    }

    // JSON for the perf trajectory.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"scan_throughput\",");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"k\": {K},");
    let _ = writeln!(json, "  \"simd_tier\": \"{}\",", session_tier.name());
    let _ = writeln!(
        json,
        "  \"notes\": \"kernel numbers run on the simd_tier above; the storage_matrix \
         crosses every available tier (runtime-detected, SEESAW_SIMD to pin) with \
         f32/f16/sq8/pq row storage. All tiers are bitwise-identical per precision; f16 \
         halves scan bandwidth, sq8 scans one code byte per element, and pq (m = dim/8, \
         8-bit codes) scans one code byte per 8 elements; both quantized rows include \
         the exact re-rank of the candidate pool in their timing. Baselines on a SIMD \
         tier gate at {GATE_MIN_SPEEDUP_SIMD}x the in-run scalar scan at dim {GATE_DIM}.\","
    );
    let _ = writeln!(json, "  \"configs\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"dim\": {},", r.dim);
        let _ = writeln!(
            json,
            "      \"scalar_rows_per_sec\": {:.0},",
            r.scalar_rows_per_sec
        );
        let _ = writeln!(
            json,
            "      \"kernel_rows_per_sec\": {:.0},",
            r.kernel_rows_per_sec
        );
        let _ = writeln!(
            json,
            "      \"kernel_speedup\": {:.3},",
            r.kernel_rows_per_sec / r.scalar_rows_per_sec
        );
        let _ = writeln!(json, "      \"storage_matrix\": [");
        for (j, m) in r.matrix.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"tier\": \"{}\", \"storage\": \"{}\", \"rows_per_sec\": {:.0}}}",
                m.tier, m.precision, m.rows_per_sec
            );
            let _ = writeln!(json, "{}", if j + 1 < r.matrix.len() { "," } else { "" });
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let out_path = std::env::var("SEESAW_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json").into());
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("[scan] wrote {out_path}");

    // CI gate at the gate dim: on a SIMD tier the kernel scan must be
    // at least GATE_MIN_SPEEDUP_SIMD× the in-run scalar scan (explicit
    // vectorization has to pay for itself); on the scalar tier it must
    // merely not regress below it. (Small dims stay informational —
    // they are too noise-prone on shared runners to gate on.)
    let gate = results
        .iter()
        .find(|r| r.dim == GATE_DIM)
        .expect("gate dim missing");
    let speedup = gate.kernel_rows_per_sec / gate.scalar_rows_per_sec;
    let floor = if session_tier == Tier::Scalar {
        GATE_MIN_SPEEDUP_SCALAR
    } else {
        GATE_MIN_SPEEDUP_SIMD
    };
    if speedup < floor {
        eprintln!(
            "[scan] FAIL: kernel/scalar speedup at dim {GATE_DIM} is {speedup:.2}x, \
             below the {floor:.1}x floor for the {} tier",
            session_tier.name()
        );
        if strict {
            std::process::exit(1);
        }
        eprintln!("[scan] SEESAW_SCAN_STRICT=0 set; not failing");
    }
}
