//! The "ideal query vector" of Fig. 4 (§3.1): a linear classifier fit on
//! the *entire* labeled dataset — an upper bound on what query alignment
//! could achieve, used to show that concept locality is high and most of
//! the gap is alignment.

use seesaw_aligner::{AlignerConfig, QueryAligner};
use seesaw_dataset::SyntheticDataset;
use seesaw_embed::ConceptId;
use seesaw_optim::LbfgsConfig;

use crate::index::DatasetIndex;

/// Fit the ideal vector for `concept` on the coarse embeddings of every
/// image with full ground-truth labels. "This linear model is certainly
/// over-fit from a prediction perspective; but … model fitting is a
/// simple and efficient search method to find out whether there are any
/// high-accuracy query vectors."
///
/// The fit is the aligner's loss with λc = λD = 0, i.e. the bias-free
/// L2-regularized logistic regression of Eq. 1. An empty or degenerate
/// solution falls back to the text query `q₀`.
pub fn ideal_query_vector(
    index: &DatasetIndex,
    dataset: &SyntheticDataset,
    concept: ConceptId,
) -> Vec<f32> {
    let n = index.n_images();
    let examples: Vec<&[f32]> = (0..n as u32).map(|i| index.coarse_vector(i)).collect();
    let labels: Vec<bool> = (0..n as u32)
        .map(|i| dataset.truth.is_relevant(concept, i))
        .collect();
    // Mild regularization only — we *want* the over-fit optimum — and a
    // positive class weight so rare concepts are not drowned out.
    let n_pos = labels.iter().filter(|&&l| l).count().max(1);
    let pos_weight = ((n - n_pos) as f64 / n_pos as f64).clamp(1.0, 100.0) as f32;
    let weights: Vec<f32> = labels
        .iter()
        .map(|&l| if l { pos_weight } else { 1.0 })
        .collect();
    let config = AlignerConfig {
        lambda: 0.01,
        lambda_c: 0.0,
        lambda_d: 0.0,
        solver: LbfgsConfig::default(),
    };
    QueryAligner::new(&dataset.model.embed_text(concept), config).align_weighted(
        &examples,
        &labels,
        Some(&weights),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{PreprocessConfig, Preprocessor};
    use crate::runner::run_benchmark_query;
    use crate::session::MethodConfig;
    use seesaw_dataset::DatasetSpec;
    use seesaw_metrics::BenchmarkProtocol;

    #[test]
    fn ideal_vector_beats_misaligned_text_query() {
        // Fig. 4's core claim: for concepts with high locality but poor
        // alignment, the ideal vector far outperforms q0.
        let ds = DatasetSpec::objectnet_like(0.004)
            .with_max_queries(0)
            .generate(17);
        let idx = Preprocessor::new(PreprocessConfig::fast().coarse_only()).build(&ds);
        let proto = BenchmarkProtocol::default();
        // The most misaligned, tightly clustered query.
        let q = ds
            .queries()
            .iter()
            .filter(|q| ds.model.spec(q.concept).modes == 1 && q.n_relevant >= 5)
            .max_by(|a, b| {
                ds.model
                    .spec(a.concept)
                    .deficit_angle
                    .total_cmp(&ds.model.spec(b.concept).deficit_angle)
            })
            .copied()
            .expect("a hard query exists");
        let ideal = ideal_query_vector(&idx, &ds, q.concept);
        let out_ideal =
            run_benchmark_query(&idx, &ds, q.concept, MethodConfig::fixed(ideal), &proto, 1);
        let out_zero =
            run_benchmark_query(&idx, &ds, q.concept, MethodConfig::zero_shot(), &proto, 1);
        assert!(
            out_ideal.ap >= out_zero.ap,
            "ideal {} must be at least zero-shot {}",
            out_ideal.ap,
            out_zero.ap
        );
        assert!(
            out_ideal.ap > 0.5,
            "ideal vector should make a hard query easy (got {})",
            out_ideal.ap
        );
    }
}
