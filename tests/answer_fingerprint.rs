//! Answer fingerprint: every wire method's shown images, pinned.
//!
//! Each [`MethodSpec`] runs a fixed number of rounds with simulated
//! feedback on a fixed-seed dataset, once at b = 1 and once at b = 10
//! (where a batch's feedbacks all land before the next lookup); ENS
//! runs on the coarse-only index (its graph is over whole images) and
//! every other method on the multiscale one. Method name, concept and
//! every shown image id feed one FNV-1a hash per batch size. A change that is meant to leave
//! answers alone (a refactor, a kernel, a config cleanup) must leave
//! this constant alone; a change that moves answers on purpose updates
//! it and says why. The answers are the same on every SIMD tier, so the
//! constant holds under `SEESAW_SIMD=scalar` too.

use seesaw::prelude::*;
use seesaw::vecstore::fnv1a64;

/// Queries run per method.
const QUERIES: usize = 4;
/// Images shown per query.
const SHOWN: usize = 30;
/// The hash of every method's answers at the pinned seed, b = 1.
const EXPECTED: u64 = 0xb442_92d9_217b_08ed;
/// The same at b = 10.
const EXPECTED_B10: u64 = 0x300c_01b0_3155_b2c5;

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

/// FNV-1a over every method's answers to the pinned queries, showing
/// `batch` images per lookup until [`SHOWN`] have been shown.
fn fingerprint(batch: usize) -> u64 {
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
            for _ in 0..SHOWN / batch {
                for image in session.next_batch(batch) {
                    bytes.extend_from_slice(&image.to_le_bytes());
                    session.feedback(user.annotate(image, q.concept));
                }
            }
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn every_method_shows_the_pinned_images() {
    let hash = fingerprint(1);
    assert_eq!(
        hash, EXPECTED,
        "answers moved: fingerprint {hash:#018x}, pinned {EXPECTED:#018x}"
    );
}

#[test]
fn every_method_shows_the_pinned_images_in_batches_of_ten() {
    let hash = fingerprint(10);
    assert_eq!(
        hash, EXPECTED_B10,
        "answers moved: fingerprint {hash:#018x}, pinned {EXPECTED_B10:#018x}"
    );
}
