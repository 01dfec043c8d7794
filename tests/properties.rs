//! Cross-crate property-based tests (proptest): invariants that must
//! hold for arbitrary inputs, not just the benchmark configurations.

use proptest::prelude::*;
use seesaw::aligner::{AlignerConfig, QueryAligner};
use seesaw::linalg::{cosine, dot, l2_norm, normalized};
use seesaw::metrics::{average_precision, BenchmarkProtocol, SearchTrace};
use seesaw::vecstore::{ExactStore, VectorStore};

fn unit_vector(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, dim).prop_filter_map("zero vector", |v| {
        let n = l2_norm(&v);
        (n > 1e-3).then(|| normalized(&v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ap_is_always_in_unit_interval(
        relevance in proptest::collection::vec(any::<bool>(), 0..80),
        total_relevant in 0usize..200,
    ) {
        let proto = BenchmarkProtocol::default();
        let ap = average_precision(&SearchTrace::new(relevance), total_relevant, &proto);
        prop_assert!((0.0..=1.0).contains(&ap));
    }

    #[test]
    fn ap_rewards_earlier_results(
        tail in proptest::collection::vec(any::<bool>(), 0..30),
        shift in 1usize..10,
    ) {
        // Moving a single positive earlier never lowers AP.
        let proto = BenchmarkProtocol::default();
        let mut late = vec![false; shift];
        late.push(true);
        late.extend(tail.iter().copied());
        let mut early = vec![true];
        early.extend(vec![false; shift]);
        early.extend(tail.iter().copied());
        let total = 1 + tail.iter().filter(|&&r| r).count();
        let ap_late = average_precision(&SearchTrace::new(late), total, &proto);
        let ap_early = average_precision(&SearchTrace::new(early), total, &proto);
        prop_assert!(ap_early >= ap_late - 1e-12);
    }

    #[test]
    fn aligner_output_is_unit_and_finite(
        q0 in unit_vector(16),
        examples in proptest::collection::vec(unit_vector(16), 1..8),
        labels in proptest::collection::vec(any::<bool>(), 8),
        lambda in 0.1f64..10.0,
        lambda_c in 0.0f64..10.0,
    ) {
        let cfg = AlignerConfig {
            lambda,
            lambda_c,
            lambda_d: 0.0,
            ..AlignerConfig::default()
        };
        let aligner = QueryAligner::new(&q0, cfg);
        let refs: Vec<&[f32]> = examples.iter().map(|v| v.as_slice()).collect();
        let labels = &labels[..refs.len()];
        let q = aligner.align(&refs, labels);
        prop_assert!(q.iter().all(|v| v.is_finite()));
        prop_assert!((l2_norm(&q) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn stronger_clip_anchor_stays_closer_to_q0(
        q0 in unit_vector(12),
        example in unit_vector(12),
    ) {
        // Monotonicity of the λc trade-off (§4.1): a larger λc never
        // lands farther from q0 (up to solver noise) for the same data.
        let refs: Vec<&[f32]> = vec![example.as_slice()];
        let labels = [true];
        let mut cosines = Vec::new();
        for lc in [0.1f64, 1.0, 10.0, 100.0] {
            let cfg = AlignerConfig { lambda: 1.0, lambda_c: lc, lambda_d: 0.0, ..AlignerConfig::default() };
            let q = QueryAligner::new(&q0, cfg).align(&refs, &labels);
            cosines.push(cosine(&q, &q0));
        }
        for w in cosines.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-3, "cosines not monotone: {cosines:?}");
        }
    }

    #[test]
    fn exact_store_top1_is_argmax(
        vectors in proptest::collection::vec(unit_vector(6), 2..40),
        query in unit_vector(6),
    ) {
        let dim = 6;
        let mut flat = Vec::new();
        for v in &vectors {
            flat.extend_from_slice(v);
        }
        let store = ExactStore::new(dim, flat);
        let top = store.top_k(&query, 1)[0];
        let best_by_scan = vectors
            .iter()
            .map(|v| dot(&query, v))
            .fold(f32::NEG_INFINITY, f32::max);
        prop_assert!((top.score - best_by_scan).abs() < 1e-5);
    }

    #[test]
    fn store_filtered_results_respect_filter(
        vectors in proptest::collection::vec(unit_vector(4), 4..30),
        query in unit_vector(4),
        modulus in 2u32..4,
    ) {
        let dim = 4;
        let mut flat = Vec::new();
        for v in &vectors {
            flat.extend_from_slice(v);
        }
        let store = ExactStore::new(dim, flat);
        let hits = store.top_k_filtered(&query, 5, &|id| id % modulus == 0);
        prop_assert!(hits.iter().all(|h| h.id % modulus == 0));
    }
}
