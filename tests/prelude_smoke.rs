//! Workspace smoke test: the `seesaw::prelude` facade must expose
//! everything a typical caller needs, and the end-to-end pipeline —
//! generate a dataset, preprocess it, run an interactive session with
//! simulated feedback — must complete quickly. This is the canary CI
//! runs on every push; it has to stay well under a minute.

use std::time::{Duration, Instant};

use seesaw::prelude::*;

#[test]
fn prelude_facade_is_constructible_end_to_end() {
    let started = Instant::now();

    // Every prelude type participates: DatasetSpec -> SyntheticDataset,
    // PreprocessConfig -> Preprocessor, MethodConfig -> Session, with
    // SimulatedUser closing the feedback loop (Listing 1 of the paper).
    let dataset: SyntheticDataset = DatasetSpec::bdd_like(0.001).generate(7);
    assert!(
        !dataset.queries().is_empty(),
        "generated dataset must come with benchmark queries"
    );

    let index = Preprocessor::new(PreprocessConfig::fast()).build(&dataset);

    let mut session = Session::start(
        &index,
        &dataset,
        dataset.queries()[0].concept,
        MethodConfig::seesaw(),
    );
    let user = SimulatedUser::new(&dataset);
    let mut shown = 0usize;
    for _ in 0..3 {
        let batch = session.next_batch(2);
        assert!(!batch.is_empty(), "session must keep producing results");
        for image in batch {
            let feedback: Feedback = user.annotate(image, session.concept());
            session.feedback(feedback);
            shown += 1;
        }
    }
    assert!(
        shown >= 6,
        "expected at least 6 annotated results, got {shown}"
    );

    // The other prelude re-exports must at minimum be nameable and
    // constructible.
    let _method: Method = Method::ZeroShot;
    let _aligner_cfg = AlignerConfig::default();
    let _protocol = BenchmarkProtocol::default();
    let _model_fn: fn(&_) -> EmbeddingModel = EmbeddingModel::build;
    let _ap = average_precision;

    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "smoke pipeline took {elapsed:?}; the facade canary must stay fast"
    );
}
