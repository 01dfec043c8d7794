//! Cross-backend equivalence suite for the vector-store layer.
//!
//! The contract this locks in (paper §2.2): the approximate backends
//! (RP forest, IVF) may trade recall for latency but must stay above
//! the floors documented in the `seesaw_vecstore` module docs (forest ≳ 0.85, IVF ≳ 0.70, exact-sq8
//! with re-ranking ≥ 0.90 at default knobs). The `recall_` tests
//! double as the CI recall-regression smoke: a backend change that
//! silently drops recall fails the build. ISSUE 8 adds the on-disk
//! index contract: an mmap-loaded store answers bit-identically to the
//! in-RAM store it was saved from, for every backend × precision.
//! ISSUE 9 extends both contracts to the PQ tier (exact-pq ≥ 0.85
//! recall@10 after re-rank).

use rand::rngs::StdRng;
use rand::SeedableRng;
use seesaw::linalg::random_unit_vector;
use seesaw::vecstore::{
    recall_at_k, ExactStore, IvfConfig, RowPrecision, RpForestConfig, StoreConfig, VectorStore,
};

fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n {
        data.extend_from_slice(&random_unit_vector(&mut rng, dim));
    }
    data
}

fn random_queries(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| random_unit_vector(&mut rng, dim)).collect()
}

/// Assert two hit lists are equal down to the score bits.
fn assert_bit_identical(truth: &[seesaw::vecstore::Hit], got: &[seesaw::vecstore::Hit], ctx: &str) {
    assert_eq!(truth.len(), got.len(), "{ctx}: hit count");
    for (t, g) in truth.iter().zip(got) {
        assert_eq!(t.id, g.id, "{ctx}: id");
        assert_eq!(
            t.score.to_bits(),
            g.score.to_bits(),
            "{ctx}: score bits for id {}",
            t.id
        );
    }
}

#[test]
fn recall_f16_storage_stays_above_floors() {
    // Half-precision rows round once at encode time; for unit-norm
    // embeddings the score perturbation is ~2⁻¹¹ relative, so recall
    // against the f32 exact scan stays near-perfect for the exact-f16
    // scan and within the IVF floor for ivf-f16.
    let (n, dim) = (2000usize, 24usize);
    let data = random_data(n, dim, 61);
    let exact = ExactStore::new(dim, data.clone());
    let queries = random_queries(20, dim, 62);
    let exact_f16 = StoreConfig::exact()
        .with_precision(RowPrecision::F16)
        .build(dim, data.clone());
    let recall = recall_at_k(&exact, &exact_f16, &queries, 10);
    assert!(recall > 0.95, "exact-f16 recall@10 = {recall}, floor 0.95");
    let ivf_f16 = StoreConfig::ivf(IvfConfig::default())
        .with_precision(RowPrecision::F16)
        .build(dim, data.clone());
    let recall = recall_at_k(&exact, &ivf_f16, &queries, 10);
    assert!(recall > 0.70, "ivf-f16 recall@10 = {recall}, floor 0.70");
}

#[test]
fn recall_sq8_with_rerank_stays_above_floor() {
    // SQ8 rows carry ~1 byte/element into the scan; the quantized
    // scores only *rank* a pool of k × RERANK_FACTOR candidates,
    // which are then re-scored against the exact f32 source rows. The
    // floor the ISSUE commits to is 0.90 recall@10 for the exact-sq8
    // scan; IVF-sq8 composes the probe loss on top, so it inherits the
    // IVF floor.
    let (n, dim) = (2000usize, 24usize);
    let data = random_data(n, dim, 81);
    let exact = ExactStore::new(dim, data.clone());
    let queries = random_queries(20, dim, 82);
    let exact_sq8 = StoreConfig::exact()
        .with_precision(RowPrecision::Sq8)
        .build(dim, data.clone());
    let recall = recall_at_k(&exact, &exact_sq8, &queries, 10);
    assert!(recall >= 0.90, "exact-sq8 recall@10 = {recall}, floor 0.90");
    let ivf_sq8 = StoreConfig::ivf(IvfConfig::default())
        .with_precision(RowPrecision::Sq8)
        .build(dim, data.clone());
    let recall = recall_at_k(&exact, &ivf_sq8, &queries, 10);
    assert!(recall > 0.70, "ivf-sq8 recall@10 = {recall}, floor 0.70");
}

#[test]
fn recall_pq_with_rerank_stays_above_floor() {
    // PQ rows carry `m` bytes per row into the scan (sub-byte per
    // element); the ADC scores rank a pool of k × RERANK_FACTOR
    // candidates, which are then re-scored exactly against the f32
    // re-rank rows. The ISSUE 9 floor is 0.85 recall@10 for the
    // exact-pq scan; IVF-pq composes coarse-probe loss on top, so it
    // inherits the IVF floor.
    let (n, dim) = (2000usize, 24usize);
    let data = random_data(n, dim, 101);
    let exact = ExactStore::new(dim, data.clone());
    let queries = random_queries(20, dim, 102);
    let pq = RowPrecision::Pq { m: 6, nbits: 8 };
    let exact_pq = StoreConfig::exact()
        .with_precision(pq)
        .build(dim, data.clone());
    let recall = recall_at_k(&exact, &exact_pq, &queries, 10);
    assert!(recall >= 0.85, "exact-pq recall@10 = {recall}, floor 0.85");
    let ivf_pq = StoreConfig::ivf(IvfConfig::default())
        .with_precision(pq)
        .build(dim, data.clone());
    let recall = recall_at_k(&exact, &ivf_pq, &queries, 10);
    assert!(recall > 0.70, "ivf-pq recall@10 = {recall}, floor 0.70");
}

#[test]
fn mmap_loaded_stores_answer_bit_identically_to_in_ram_stores() {
    // The on-disk index contract: saving a store to the `SSAWIDX1`
    // format and mmap-loading it back must change *nothing* about its
    // answers — same ids, same score bits — for every backend at every
    // precision, at the default and at full candidate budget.
    // (The RP forest has no zero-copy row layout: it persists its raw
    // rows and rebuilds from the saved seed, so the same guarantee
    // holds through reconstruction.)
    use seesaw::vecstore::{load_store, save_store};

    let (n, dim) = (600usize, 16usize);
    let data = random_data(n, dim, 91);
    let queries = random_queries(6, dim, 92);
    let keep = |id: u32| id % 4 != 2;
    let configs = [
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
            StoreConfig::exact().with_precision(RowPrecision::Pq { m: 4, nbits: 8 }),
        ),
        (
            "exact-pq8x6",
            StoreConfig::exact().with_precision(RowPrecision::Pq { m: 8, nbits: 6 }),
        ),
        (
            "ivf-pq",
            StoreConfig::ivf(IvfConfig::default())
                .with_precision(RowPrecision::Pq { m: 4, nbits: 8 }),
        ),
    ];
    for (label, cfg) in configs {
        let built = cfg.build(dim, data.clone());
        let path = std::env::temp_dir().join(format!(
            "seesaw_equiv_{}_{label}.ssawidx",
            std::process::id()
        ));
        save_store(&built, &path).unwrap_or_else(|e| panic!("{label}: save: {e}"));
        let loaded = load_store(&path).unwrap_or_else(|e| panic!("{label}: load: {e}"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(built.len(), loaded.len(), "{label}: len");
        assert_eq!(built.dim(), loaded.dim(), "{label}: dim");
        for (qi, q) in queries.iter().enumerate() {
            for k in [1usize, 10, n + 5] {
                assert_bit_identical(
                    &built.top_k(q, k),
                    &loaded.top_k(q, k),
                    &format!("{label} q={qi} k={k}"),
                );
            }
            assert_bit_identical(
                &built.top_k_filtered(q, 9, &keep),
                &loaded.top_k_filtered(q, 9, &keep),
                &format!("{label} filtered q={qi}"),
            );
            assert_bit_identical(
                &built.top_k_budgeted(q, 11, usize::MAX, &keep),
                &loaded.top_k_budgeted(q, 11, usize::MAX, &keep),
                &format!("{label} full-budget q={qi}"),
            );
        }
    }
}

#[test]
fn ivf_build_survives_denormal_rows_without_poisoning_centroids() {
    // Regression test for the normalize_rows zero-fill contract, end
    // to end through IVF training. Clustered data plus a few
    // denormal-norm junk rows: the junk rows are every centroid's
    // worst-served rows, so empty clusters reseed from them, and the
    // subsequent centroid normalization used to compute 1/‖x‖ on a
    // denormal norm — inf/NaN centroids that poison every probe
    // ranking. With the zero-fill contract the degenerate centroid
    // becomes the zero vector: inert, finite, and never probed first.
    let dim = 8usize;
    let mut data = Vec::new();
    // Two tight clusters on basis directions...
    for _ in 0..24 {
        let mut v = vec![0.0f32; dim];
        v[0] = 1.0;
        data.extend_from_slice(&v);
        let mut v = vec![0.0f32; dim];
        v[1] = 1.0;
        data.extend_from_slice(&v);
    }
    // ...and junk rows whose norm is far below f32::EPSILON.
    for _ in 0..4 {
        data.extend_from_slice(&[1.0e-24f32; 8]);
    }
    let n = data.len() / dim;
    let cfg = IvfConfig {
        n_lists: 8,
        ..IvfConfig::default()
    };
    for precision in [RowPrecision::F32, RowPrecision::F16] {
        let store = StoreConfig::ivf(cfg.clone())
            .with_precision(precision)
            .build(dim, data.clone());
        let mut q = vec![0.0f32; dim];
        q[0] = 1.0;
        let hits = store.top_k(&q, n);
        assert!(!hits.is_empty(), "{precision:?}");
        for h in &hits {
            assert!(
                h.score.is_finite(),
                "{precision:?}: non-finite score {} for id {}",
                h.score,
                h.id
            );
        }
        // The top hit must be one of the cluster-0 rows at score 1.0.
        assert_eq!(hits[0].score, 1.0, "{precision:?}");
    }
}

#[test]
fn recall_rp_forest_stays_above_floor() {
    let (n, dim) = (2000usize, 24usize);
    let data = random_data(n, dim, 21);
    let exact = ExactStore::new(dim, data.clone());
    let forest = StoreConfig::forest(RpForestConfig::default()).build(dim, data.clone());
    let queries = random_queries(20, dim, 22);
    let recall = recall_at_k(&exact, &forest, &queries, 10);
    assert!(recall > 0.85, "RP-forest recall@10 = {recall}, floor 0.85");
}

#[test]
fn recall_ivf_stays_above_floor() {
    let (n, dim) = (2000usize, 24usize);
    let data = random_data(n, dim, 31);
    let exact = ExactStore::new(dim, data.clone());
    let ivf = StoreConfig::ivf(IvfConfig::default()).build(dim, data.clone());
    let queries = random_queries(20, dim, 32);
    let recall = recall_at_k(&exact, &ivf, &queries, 10);
    assert!(recall > 0.70, "IVF recall@10 = {recall}, floor 0.70");
}

#[test]
fn every_backend_survives_a_full_session() {
    // The config plumbing end to end: preprocess + search with each
    // backend and make sure sessions behave.
    use seesaw::prelude::*;
    use seesaw::vecstore::StoreConfig;

    let ds = DatasetSpec::coco_like(0.001)
        .with_max_queries(6)
        .generate(66);
    let user = SimulatedUser::new(&ds);
    let concept = ds.queries()[0].concept;
    for cfg in [
        StoreConfig::forest(RpForestConfig::default()),
        StoreConfig::ivf(IvfConfig::default()),
    ] {
        let idx = Preprocessor::new(PreprocessConfig::fast().with_store(cfg.clone())).build(&ds);
        let mut session = Session::start(&idx, &ds, concept, MethodConfig::seesaw());
        let mut shown = Vec::new();
        for _ in 0..5 {
            let batch = session.next_batch(2);
            for img in batch {
                assert!(!shown.contains(&img), "{cfg:?}: repeated image {img}");
                shown.push(img);
                session.feedback(user.annotate(img, concept));
            }
        }
        assert_eq!(shown.len(), 10, "{cfg:?}: short batches");
    }
}
