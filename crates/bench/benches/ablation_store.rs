//! **Ablation: vector-store backends** (paper §2.2).
//!
//! "We saw only a minor drop in accuracy metrics in our benchmarks
//! using Annoy vs an exact but slow scan." Four measurements, all
//! selected through `StoreConfig` rather than hardcoded types:
//!
//! 1. recall@10 and per-lookup latency of every backend (exact scan,
//!    RP forest, IVF — the dense backends at `f32`, `f16`, and `sq8`
//!    row storage) against the exact scan;
//! 2. end-to-end SeeSaw mAP per backend at the default budget;
//! 3. end-to-end SeeSaw mAP as a function of the candidate budget
//!    (`search_k`) on the default backend;
//! 4. the **quantization sweep**: memory × recall × latency for every
//!    precision (f32, f16, sq8, pq) on the dense-row backends, written
//!    to `BENCH_quant.json` at the repo root (override with
//!    `SEESAW_QUANT_OUT`) so CI can track the trade-off over time. The
//!    IVF cells probe every list so their recall isolates quantization
//!    loss from coarse-probe loss. The sweep also builds dim-512
//!    stores and gates the capacity claims that make 10M-row datasets
//!    fit in RAM: SQ8 scan ≤ 1.1 bytes/element, PQ ADC scan ≤ 0.6
//!    bytes/element, mmap-loaded PQ resident ≤ 1.0 byte/element, and
//!    exact-pq recall@10 ≥ 0.85 after re-rank (`SEESAW_QUANT_STRICT=0`
//!    downgrades the PQ gates to warnings).

use std::fmt::Write as _;
use std::time::Instant;

use seesaw_bench::{ap_per_query, bench_scale, bench_seed, bench_store_config};
use seesaw_core::{MethodConfig, PreprocessConfig, Preprocessor};
use seesaw_dataset::DatasetSpec;
use seesaw_metrics::{mean, BenchmarkProtocol, TableBuilder};
use seesaw_vecstore::{
    ExactStore, IvfConfig, IvfStore, RowPrecision, RpForestConfig, StoreConfig, VectorStore,
};

fn main() {
    let ds = DatasetSpec::lvis_like(bench_scale())
        .with_max_queries(20)
        .generate(bench_seed());
    let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let data = idx.embeddings.as_slice().to_vec();
    let proto = BenchmarkProtocol::default();
    eprintln!("[ablation_store] {} patch vectors", idx.n_patches());

    let queries: Vec<Vec<f32>> = ds
        .queries()
        .iter()
        .map(|q| ds.model.embed_text(q.concept))
        .collect();

    // --- recall + latency per backend -------------------------------
    // The dense-row backends (exact, IVF) additionally sweep the row
    // storage precision: f16 halves scan bandwidth and costs at most a
    // one-time rounding of each stored row; sq8 quarters it again and
    // re-ranks its top pool against the exact f32 source rows.
    let backends = [
        ("exact", StoreConfig::exact()),
        (
            "exact-f16",
            StoreConfig::exact().with_precision(RowPrecision::F16),
        ),
        (
            "exact-sq8",
            StoreConfig::exact().with_precision(RowPrecision::Sq8),
        ),
        ("forest", StoreConfig::forest(RpForestConfig::default())),
        ("ivf", StoreConfig::ivf(IvfConfig::default())),
        (
            "ivf-f16",
            StoreConfig::ivf(IvfConfig::default()).with_precision(RowPrecision::F16),
        ),
        (
            "ivf-sq8",
            StoreConfig::ivf(IvfConfig::default()).with_precision(RowPrecision::Sq8),
        ),
        (
            "exact-pq",
            StoreConfig::exact().with_precision(RowPrecision::Pq { m: 16, nbits: 8 }),
        ),
        (
            "ivf-pq",
            StoreConfig::ivf(IvfConfig::default())
                .with_precision(RowPrecision::Pq { m: 16, nbits: 8 }),
        ),
    ];
    let exact = StoreConfig::exact().build(idx.dim, data.clone());
    let mut recall_table = TableBuilder::new(
        "Backend recall@10 and lookup latency (default knobs; f32, f16, and sq8 row storage)",
    )
    .header(["backend", "recall@10", "lookup µs"]);
    for (label, cfg) in &backends {
        let store = cfg.clone().build(idx.dim, data.clone());
        let mut hit = 0usize;
        let mut total = 0usize;
        let mut lookup = std::time::Duration::ZERO;
        for q in &queries {
            let truth = exact.top_k(q, 10);
            let t0 = Instant::now();
            let approx = store.top_k(q, 10);
            lookup += t0.elapsed();
            total += truth.len();
            hit += truth
                .iter()
                .filter(|t| approx.iter().any(|h| h.id == t.id))
                .count();
        }
        recall_table.row([
            label.to_string(),
            format!("{:.3}", hit as f64 / total.max(1) as f64),
            format!("{:.0}", lookup.as_secs_f64() * 1e6 / queries.len() as f64),
        ]);
    }
    println!("{recall_table}");

    // --- end-to-end mAP per backend ----------------------------------
    let mut backend_ap = TableBuilder::new("SeeSaw mAP per store backend (default budget)")
        .header(["backend", "mAP"]);
    for (label, cfg) in &backends {
        // Swap only the store: embeddings, graphs, and M_D are shared.
        // (`build` hands back Arc<DatasetIndex>; clone the inner value
        // to get a mutable copy, then re-share it.)
        let mut idx_b = (*idx).clone();
        idx_b.store = cfg
            .clone()
            .reseeded(PreprocessConfig::fast().seed)
            .build(idx.dim, data.clone());
        let idx_b = std::sync::Arc::new(idx_b);
        let aps = ap_per_query(&idx_b, &ds, &|_, _, _| MethodConfig::seesaw(), &proto);
        backend_ap.num_row(*label, &[mean(&aps)], 3);
    }
    println!("{backend_ap}");

    // --- end-to-end mAP vs candidate budget --------------------------
    let sweep_cfg = bench_store_config();
    let mut idx_s = (*idx).clone();
    idx_s.store = sweep_cfg
        .clone()
        .reseeded(PreprocessConfig::fast().seed)
        .build(idx.dim, data.clone());
    let idx_s = std::sync::Arc::new(idx_s);
    let mut ap_table = TableBuilder::new(format!(
        "SeeSaw mAP vs store accuracy budget ({} backend)",
        sweep_cfg.backend_name()
    ))
    .header(["search_k", "mAP"]);
    for search_k in [256usize, 1024, 4096, 8192, usize::MAX] {
        let aps = ap_per_query(
            &idx_s,
            &ds,
            &|_, _, _| MethodConfig::seesaw().with_search_k(search_k),
            &proto,
        );
        let label = if search_k == usize::MAX {
            "exact".to_string()
        } else {
            search_k.to_string()
        };
        ap_table.num_row(label, &[mean(&aps)], 3);
    }
    println!("{ap_table}");

    // --- quantization sweep: memory × recall × latency ---------------
    quant_sweep(idx.dim, &data, &queries, &exact);

    println!("claims under test (§2.2): approximate lookup costs little accuracy —");
    println!("per-backend mAP within a few points of exact, and mAP at the default");
    println!("budget within a few points of the largest; sq8 rows cost ~4x");
    println!("less scan bandwidth than f32 at ≥0.9 recall@10 after re-ranking;");
    println!("pq codes cut the scan below one byte per element (dim-512 gate:");
    println!("≤0.6 B/elem, mmap-loaded resident ≤1.0 B/elem) at ≥0.85 recall@10.");
}

/// One (backend × precision) cell of the quantization sweep.
struct QuantCell {
    backend: &'static str,
    precision: RowPrecision,
    /// Lists probed per query (IVF cells only).
    n_probe: Option<usize>,
    scan_bytes_per_elem: f64,
    resident_bytes_per_elem: f64,
    recall_at_10: f64,
    lookup_us: f64,
}

/// Sweep row-storage precision across the dense-row backends and
/// record memory (bytes/element, measured from the built store, not
/// computed from the format), recall@10 against the exact f32 scan,
/// and per-lookup latency. Writes `BENCH_quant.json` and enforces the
/// dim-512 SQ8 + PQ capacity gates (`SEESAW_QUANT_STRICT=0` opts out
/// of the PQ gates).
fn quant_sweep(dim: usize, data: &[f32], queries: &[Vec<f32>], exact: &dyn VectorStore) {
    let n_elems = data.len();
    assert!(
        dim.is_multiple_of(8),
        "quant sweep assumes a PQ-divisible dim, got {dim}"
    );
    let precisions = [
        RowPrecision::F32,
        RowPrecision::F16,
        RowPrecision::Sq8,
        RowPrecision::Pq {
            m: dim / 8,
            nbits: 8,
        },
    ];
    // The IVF cells probe *every* list so their recall column isolates
    // quantization loss: at the default `n_probe` the coarse-probe loss
    // dominates and every precision reads the same (≈0.49 at bench
    // scale), which is exactly the confound this sweep exists to avoid.
    // The exact-backend cells report the same precision with no coarse
    // stage at all, so the two rows bracket each quantizer.
    let sweep_ivf = IvfConfig {
        n_probe: IvfConfig::default().n_lists,
        ..IvfConfig::default()
    };
    let mut cells: Vec<QuantCell> = Vec::new();
    for backend in ["exact", "ivf"] {
        for p in precisions {
            // Build the concrete type first: the memory accounting
            // lives on `RowStorage`, behind the `rows()` accessors.
            let (store, scan_bytes, resident_bytes, n_probe): (
                Box<dyn VectorStore>,
                usize,
                usize,
                Option<usize>,
            ) = match backend {
                "exact" => {
                    let s = ExactStore::with_precision(dim, data.to_vec(), p);
                    let (sb, rb) = (s.rows().scan_bytes(), s.rows().resident_bytes());
                    (Box::new(s), sb, rb, None)
                }
                _ => {
                    let s =
                        IvfStore::build_with_precision(dim, data.to_vec(), sweep_ivf.clone(), p);
                    let (sb, rb) = (s.rows().scan_bytes(), s.rows().resident_bytes());
                    (Box::new(s), sb, rb, Some(sweep_ivf.n_probe))
                }
            };
            let mut hit = 0usize;
            let mut total = 0usize;
            for q in queries {
                let truth = exact.top_k(q, 10);
                let approx = store.top_k(q, 10);
                total += truth.len();
                hit += truth
                    .iter()
                    .filter(|t| approx.iter().any(|h| h.id == t.id))
                    .count();
            }
            // Warm-up pass done above (the recall pass); 3 timed passes.
            let t0 = Instant::now();
            for _ in 0..3 {
                for q in queries {
                    let _ = store.top_k(q, 10);
                }
            }
            let lookup_us = t0.elapsed().as_secs_f64() * 1e6 / (3 * queries.len()).max(1) as f64;
            cells.push(QuantCell {
                backend,
                precision: p,
                n_probe,
                scan_bytes_per_elem: scan_bytes as f64 / n_elems.max(1) as f64,
                resident_bytes_per_elem: resident_bytes as f64 / n_elems.max(1) as f64,
                recall_at_10: hit as f64 / total.max(1) as f64,
                lookup_us,
            });
        }
    }

    let mut table = TableBuilder::new("Quantization sweep: memory × recall@10 × latency").header([
        "backend",
        "precision",
        "n_probe",
        "scan B/elem",
        "resident B/elem",
        "recall@10",
        "lookup µs",
    ]);
    for c in &cells {
        table.row([
            c.backend.to_string(),
            c.precision.label(),
            c.n_probe.map_or_else(|| "-".to_string(), |p| p.to_string()),
            format!("{:.3}", c.scan_bytes_per_elem),
            format!("{:.3}", c.resident_bytes_per_elem),
            format!("{:.3}", c.recall_at_10),
            format!("{:.0}", c.lookup_us),
        ]);
    }
    println!("{table}");

    // Capacity gate at the paper's embedding width: a dim-512 SQ8
    // store must scan ≤ 1.1 bytes/element (1 code byte + 8 param
    // bytes / 512 ≈ 1.016) or 10M-row datasets stop fitting in RAM.
    let n512 = 2048usize;
    let wide = {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(bench_seed());
        let mut buf = Vec::with_capacity(n512 * 512);
        for _ in 0..n512 {
            buf.extend_from_slice(&seesaw_linalg::random_unit_vector(&mut rng, 512));
        }
        buf
    };
    let sq8_512 = ExactStore::with_precision(512, wide.clone(), RowPrecision::Sq8);
    let dim512_scan = sq8_512.rows().scan_bytes() as f64 / (n512 * 512) as f64;
    eprintln!("[ablation_store] dim-512 sq8 scan footprint: {dim512_scan:.4} bytes/element");
    assert!(
        dim512_scan <= 1.1,
        "sq8 at dim 512 must scan ≤ 1.1 bytes/element, measured {dim512_scan:.4}"
    );

    // PQ capacity gates at the same width (ISSUE 9): the ADC code scan
    // must touch ≤ 0.6 bytes/element (m = 64 → 0.125), and an
    // mmap-loaded PQ index — f32 re-rank rows demand-paged from disk,
    // codes + codebooks resident — must hold ≤ 1.0 byte/element.
    // `SEESAW_QUANT_STRICT=0` downgrades gate failures to warnings
    // (e.g. while bisecting a regression).
    let strict = std::env::var("SEESAW_QUANT_STRICT").map_or(true, |v| v != "0");
    let gate = |ok: bool, msg: String| {
        if ok {
            return;
        }
        assert!(!strict, "{msg} (SEESAW_QUANT_STRICT=0 to downgrade)");
        eprintln!("[ablation_store] WARNING (gate skipped): {msg}");
    };
    let pq_512 = RowPrecision::Pq { m: 64, nbits: 8 };
    let pq_store = ExactStore::with_precision(512, wide, pq_512);
    let pq512_scan = pq_store.rows().scan_bytes() as f64 / (n512 * 512) as f64;
    eprintln!("[ablation_store] dim-512 pq scan footprint: {pq512_scan:.4} bytes/element");
    gate(
        pq512_scan <= 0.6,
        format!("pq at dim 512 must scan ≤ 0.6 bytes/element, measured {pq512_scan:.4}"),
    );
    let pq512_resident = {
        use seesaw_vecstore::{load_store, save_store, AnyStore};
        let path =
            std::env::temp_dir().join(format!("seesaw_quant_gate_{}.ssawidx", std::process::id()));
        save_store(&AnyStore::Exact(pq_store), &path).expect("saving pq gate index");
        let loaded = load_store(&path).expect("loading pq gate index");
        let _ = std::fs::remove_file(&path);
        let AnyStore::Exact(s) = &loaded else {
            panic!("pq gate index changed variant on load");
        };
        s.rows().resident_bytes() as f64 / (n512 * 512) as f64
    };
    eprintln!(
        "[ablation_store] dim-512 pq mmap-loaded resident: {pq512_resident:.4} bytes/element"
    );
    gate(
        pq512_resident <= 1.0,
        format!(
            "mmap-loaded pq at dim 512 must hold ≤ 1.0 byte/element, measured {pq512_resident:.4}"
        ),
    );
    // The recall half of the capacity claim: byte-per-element scans are
    // only useful if re-ranking recovers the accuracy. Gate on the
    // exact-backend PQ cell so coarse-probe loss cannot confound it.
    let pq_exact_recall = cells
        .iter()
        .find(|c| c.backend == "exact" && matches!(c.precision, RowPrecision::Pq { .. }))
        .map_or(0.0, |c| c.recall_at_10);
    gate(
        pq_exact_recall >= 0.85,
        format!("exact-pq recall@10 must stay ≥ 0.85 after re-rank, measured {pq_exact_recall:.4}"),
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"ablation_store_quant\",");
    let _ = writeln!(json, "  \"dim\": {dim},");
    let _ = writeln!(json, "  \"rows\": {},", n_elems / dim.max(1));
    let _ = writeln!(json, "  \"queries\": {},", queries.len());
    let _ = writeln!(
        json,
        "  \"rerank_pool_factor\": {},",
        seesaw_vecstore::RERANK_FACTOR
    );
    let _ = writeln!(
        json,
        "  \"sq8_dim512_scan_bytes_per_element\": {dim512_scan:.4},"
    );
    let _ = writeln!(
        json,
        "  \"pq_dim512_scan_bytes_per_element\": {pq512_scan:.4},"
    );
    let _ = writeln!(
        json,
        "  \"pq_dim512_mmap_resident_bytes_per_element\": {pq512_resident:.4},"
    );
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let n_probe = c
            .n_probe
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            json,
            "    {{\"backend\": \"{}\", \"precision\": \"{}\", \"n_probe\": {}, \
             \"scan_bytes_per_element\": {:.4}, \"resident_bytes_per_element\": {:.4}, \
             \"recall_at_10\": {:.4}, \"lookup_us\": {:.2}}}",
            c.backend,
            c.precision.label(),
            n_probe,
            c.scan_bytes_per_elem,
            c.resident_bytes_per_elem,
            c.recall_at_10,
            c.lookup_us
        );
        let _ = writeln!(json, "{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quant.json");
    let out_path = std::env::var("SEESAW_QUANT_OUT").unwrap_or_else(|_| default_path.to_string());
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("[ablation_store] wrote {out_path}");
}
