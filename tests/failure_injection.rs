//! Failure-injection and degenerate-input tests: the engine must stay
//! well-behaved on pathological datasets and hostile usage patterns —
//! none of these conditions may panic or emit non-finite queries.

use seesaw::core::run_benchmark_query;
use seesaw::prelude::*;

/// A dataset where the searched concept has zero relevant images: the
/// benchmark AP must be 0 and the session must survive the full budget.
#[test]
fn query_with_no_relevant_images() {
    let ds = DatasetSpec::coco_like(0.001).generate(3);
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    // Find a concept absent from the data.
    let absent = (0..ds.model.n_concepts() as u32)
        .find(|&c| ds.truth.relevant_images(c).is_empty())
        .expect("some concept never appears at this scale");
    let proto = BenchmarkProtocol::default();
    for cfg in [
        MethodConfig::zero_shot(),
        MethodConfig::seesaw(),
        MethodConfig::rocchio(),
    ] {
        let out = run_benchmark_query(&index, &ds, absent, cfg, &proto, 1);
        assert_eq!(out.ap, 0.0);
        assert_eq!(out.trace.found(), 0);
        assert_eq!(out.trace.shown(), proto.image_budget.min(ds.n_images()));
    }
}

/// All-negative feedback for many rounds: anchored methods must stay on
/// the unit sphere and near q0 rather than diverging.
#[test]
fn sustained_negative_feedback_is_stable() {
    let ds = DatasetSpec::bdd_like(0.001).generate(5);
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let concept = ds.queries()[0].concept;
    let mut s = Session::start(&index, &ds, concept, MethodConfig::seesaw());
    for _ in 0..25 {
        let Some(&img) = s.next_batch(1).first() else {
            break;
        };
        // Lie: everything is irrelevant.
        s.feedback(seesaw::core::Feedback {
            image: img,
            relevant: false,
            boxes: vec![],
        });
    }
    let q = s.current_query();
    assert!(q.iter().all(|v| v.is_finite()));
    assert!((seesaw::linalg::l2_norm(q) - 1.0).abs() < 1e-3);
}

/// Feedback boxes entirely outside every patch (degenerate UI input):
/// the image degrades to all-negative labels without panicking.
#[test]
fn out_of_image_feedback_boxes() {
    let ds = DatasetSpec::coco_like(0.001).generate(7);
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let concept = ds.queries()[0].concept;
    let mut s = Session::start(&index, &ds, concept, MethodConfig::seesaw());
    let img = s.next_batch(1)[0];
    s.feedback(seesaw::core::Feedback {
        image: img,
        relevant: true,
        boxes: vec![seesaw::dataset::BBox::new(-500.0, -500.0, 10.0, 10.0)],
    });
    assert!(s.current_query().iter().all(|v| v.is_finite()));
}

/// Minimum-size dataset (the 60-image floor) with every method.
#[test]
fn minimum_dataset_supports_all_methods() {
    let ds = DatasetSpec::objectnet_like(0.0).generate(1); // floor: 60 images
    assert_eq!(ds.n_images(), 60);
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let proto = BenchmarkProtocol::default();
    if let Some(q) = ds.queries().first() {
        for cfg in [
            MethodConfig::zero_shot(),
            MethodConfig::seesaw(),
            MethodConfig::seesaw_prop(),
            MethodConfig::ens(10),
        ] {
            let out = run_benchmark_query(&index, &ds, q.concept, cfg, &proto, 1);
            assert!(out.trace.shown() <= 60);
        }
    }
}

/// Batch requests far beyond the database size.
#[test]
fn oversized_batch_requests_are_clamped() {
    let ds = DatasetSpec::coco_like(0.0).generate(2);
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let concept = ds.queries()[0].concept;
    let mut s = Session::start(&index, &ds, concept, MethodConfig::zero_shot());
    let batch = s.next_batch(10_000);
    assert_eq!(batch.len(), ds.n_images());
    // Repeated oversized requests return nothing new.
    assert!(s.next_batch(10_000).is_empty());
}

/// Duplicate feedback boxes and duplicate concepts inside one image.
#[test]
fn duplicate_boxes_are_harmless() {
    let ds = DatasetSpec::lvis_like(0.001).generate(9);
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let concept = ds.queries()[0].concept;
    let user = SimulatedUser::new(&ds);
    let mut s = Session::start(&index, &ds, concept, MethodConfig::seesaw());
    let img = s.next_batch(1)[0];
    let mut fb = user.annotate(img, concept);
    let dup = fb.boxes.first().copied();
    if let Some(b) = dup {
        fb.boxes.push(b);
        fb.boxes.push(b);
    }
    s.feedback(fb);
    assert!((seesaw::linalg::l2_norm(s.current_query()) - 1.0).abs() < 1e-3);
}

/// The Platt scaler must decline to fit single-class inputs, and the
/// calibrated-ENS path must fall back gracefully.
#[test]
fn calibration_falls_back_on_degenerate_labels() {
    use seesaw::optim::PlattScaler;
    assert!(PlattScaler::fit(&[0.5, 0.9], &[true, true]).is_none());
    // ens_calibrated with constant priors still runs.
    let ds = DatasetSpec::coco_like(0.001).generate(4);
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let proto = BenchmarkProtocol::default();
    let q = ds.queries()[0];
    let priors = vec![0.5f32; ds.n_images()];
    let out = run_benchmark_query(
        &index,
        &ds,
        q.concept,
        MethodConfig::ens_calibrated(30, priors),
        &proto,
        1,
    );
    assert!(out.trace.shown() > 0);
}
