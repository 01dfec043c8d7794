//! Drives one benchmark query end to end (§5.1): start from the
//! category text, loop with simulated region feedback, stop at 10 found
//! or 60 shown, and return the trace plus per-iteration system latency
//! (the Table 6 measurement).

use std::sync::Arc;
use std::time::Instant;

use seesaw_dataset::SyntheticDataset;
use seesaw_embed::ConceptId;
use seesaw_metrics::{average_precision, BenchmarkProtocol, SearchTrace};

use crate::index::DatasetIndex;
use crate::session::{MethodConfig, Session};
use crate::user::SimulatedUser;

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Shown-image relevance, in order.
    pub trace: SearchTrace,
    /// Average Precision under the protocol.
    pub ap: f64,
    /// System latency of each iteration (one batch) in seconds (lookup +
    /// align; the simulated user's annotation time is *not* included).
    pub iteration_seconds: Vec<f64>,
    /// Alignment solves the session ran ([`Session::n_solves`]).
    pub solves: usize,
}

/// Run `concept` against `index` with `method`, following `protocol`.
///
/// Each iteration of Listing 1's loop shows the next `batch` images
/// and feeds back every one's annotation, stopping mid-batch once the
/// protocol is met; `batch = 0` shows nothing.
pub fn run_benchmark_query(
    index: &Arc<DatasetIndex>,
    dataset: &SyntheticDataset,
    concept: ConceptId,
    method: MethodConfig,
    protocol: &BenchmarkProtocol,
    batch: usize,
) -> RunOutcome {
    let total_relevant = dataset.truth.relevant_images(concept).len();
    let user = SimulatedUser::new(dataset);
    let mut session = Session::start(index, dataset, concept, method);
    let mut relevance = Vec::with_capacity(protocol.image_budget);
    let mut iteration_seconds = Vec::with_capacity(protocol.image_budget);
    let mut found = 0usize;

    while !protocol.should_stop(relevance.len(), found) {
        let t0 = Instant::now();
        let images = session.next_batch(batch);
        if images.is_empty() {
            break; // database exhausted
        }
        for image in images {
            let fb = user.annotate(image, concept);
            let relevant = fb.relevant;
            // Feedback/alignment time is system latency; the user's
            // annotation time is modeled separately (Table 5).
            session.feedback(fb);
            relevance.push(relevant);
            found += usize::from(relevant);
            if protocol.should_stop(relevance.len(), found) {
                break;
            }
        }
        iteration_seconds.push(t0.elapsed().as_secs_f64());
    }

    let trace = SearchTrace::new(relevance);
    let ap = average_precision(&trace, total_relevant, protocol);
    RunOutcome {
        trace,
        ap,
        iteration_seconds,
        solves: session.n_solves(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{PreprocessConfig, Preprocessor};
    use crate::MethodConfig as MC;
    use seesaw_dataset::DatasetSpec;

    #[test]
    fn run_respects_protocol_limits() {
        let ds = DatasetSpec::coco_like(0.001)
            .with_max_queries(10)
            .generate(31);
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        let proto = BenchmarkProtocol::default();
        let q = ds.queries()[0];
        let out = run_benchmark_query(&idx, &ds, q.concept, MC::zero_shot(), &proto, 1);
        assert!(out.trace.shown() <= proto.image_budget);
        assert!(out.trace.found() <= proto.target_results);
        assert!((0.0..=1.0).contains(&out.ap));
        assert_eq!(out.iteration_seconds.len(), out.trace.shown());
    }

    #[test]
    fn batches_stop_mid_batch_and_time_per_batch() {
        let ds = DatasetSpec::coco_like(0.001)
            .with_max_queries(10)
            .generate(31);
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        let proto = BenchmarkProtocol::default();
        for q in ds.queries() {
            let out = run_benchmark_query(&idx, &ds, q.concept, MC::seesaw(), &proto, 7);
            let (shown, found) = (out.trace.shown(), out.trace.found());
            assert!(shown <= proto.image_budget && found <= proto.target_results);
            assert_eq!(out.iteration_seconds.len(), shown.div_ceil(7));
            // One solve per lookup after the first: the last batch's
            // labels are never read back.
            assert_eq!(out.solves, out.iteration_seconds.len() - 1);
            // The protocol is met only by the last image shown.
            assert!(!proto.should_stop(
                shown - 1,
                found - usize::from(out.trace.relevance[shown - 1])
            ));
        }
        let q = ds.queries()[0];
        let none = run_benchmark_query(&idx, &ds, q.concept, MC::seesaw(), &proto, 0);
        assert_eq!(none.trace.shown(), 0);
    }

    #[test]
    fn easy_query_yields_high_ap_for_zero_shot() {
        // A concept with near-zero alignment deficit must be easy.
        let ds = DatasetSpec::coco_like(0.002)
            .with_max_queries(0)
            .generate(7);
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        let proto = BenchmarkProtocol::default();
        // Pick the easiest eligible query (smallest deficit angle).
        let q = ds
            .queries()
            .iter()
            .min_by(|a, b| {
                ds.model
                    .spec(a.concept)
                    .deficit_angle
                    .total_cmp(&ds.model.spec(b.concept).deficit_angle)
            })
            .copied()
            .unwrap();
        let out = run_benchmark_query(&idx, &ds, q.concept, MC::zero_shot(), &proto, 1);
        assert!(
            out.ap > 0.5,
            "easiest query (deficit {:.2}) got AP {:.2}",
            ds.model.spec(q.concept).deficit_angle,
            out.ap
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let ds = DatasetSpec::bdd_like(0.0005).generate(13);
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        let proto = BenchmarkProtocol::default();
        let q = ds.queries()[0];
        let a = run_benchmark_query(&idx, &ds, q.concept, MC::seesaw(), &proto, 1);
        let b = run_benchmark_query(&idx, &ds, q.concept, MC::seesaw(), &proto, 1);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.ap, b.ap);
    }
}
