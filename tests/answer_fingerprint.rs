//! Answer fingerprint: every wire method's shown images, pinned.
//!
//! Each [`MethodSpec`] runs a fixed number of b = 1 rounds with
//! simulated feedback on a fixed-seed dataset; ENS runs on the
//! coarse-only index (its graph is over whole images) and every other
//! method on the multiscale one. Method name, concept and every shown
//! image id feed one FNV-1a hash. A change that is meant to leave
//! answers alone (a refactor, a kernel, a config cleanup) must leave
//! this constant alone; a change that moves answers on purpose updates
//! it and says why. The answers are the same on every SIMD tier, so the
//! constant holds under `SEESAW_SIMD=scalar` too.

use seesaw::prelude::*;
use seesaw::vecstore::fnv1a64;

/// Queries run per method.
const QUERIES: usize = 4;
/// b = 1 rounds per query.
const ROUNDS: usize = 30;
/// The hash of every method's answers at the pinned seed.
const EXPECTED: u64 = 0xb442_92d9_217b_08ed;

fn methods() -> [MethodSpec; 7] {
    [
        MethodSpec::ZeroShot,
        MethodSpec::FewShot,
        MethodSpec::Rocchio,
        MethodSpec::Ens { horizon: 60 },
        MethodSpec::SeeSaw,
        MethodSpec::SeeSawClipOnly,
        MethodSpec::SeeSawProp,
    ]
}

#[test]
fn every_method_shows_the_pinned_images() {
    let ds = DatasetSpec::coco_like(0.002)
        .with_max_queries(QUERIES)
        .generate(29);
    let multiscale = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let coarse = Preprocessor::new(PreprocessConfig::fast().coarse_only()).build(&ds);
    let user = SimulatedUser::new(&ds);

    let mut bytes: Vec<u8> = Vec::new();
    for spec in methods() {
        let index = match spec {
            MethodSpec::Ens { .. } => &coarse,
            _ => &multiscale,
        };
        for q in ds.queries().iter().take(QUERIES) {
            bytes.extend_from_slice(spec.name().as_bytes());
            bytes.extend_from_slice(&q.concept.to_le_bytes());
            let mut session = Session::start(index, &ds, q.concept, spec.to_config());
            for _ in 0..ROUNDS {
                for image in session.next_batch(1) {
                    bytes.extend_from_slice(&image.to_le_bytes());
                    session.feedback(user.annotate(image, q.concept));
                }
            }
        }
    }
    let hash = fnv1a64(&bytes);
    assert_eq!(
        hash, EXPECTED,
        "answers moved: fingerprint {hash:#018x}, pinned {EXPECTED:#018x}"
    );
}
