//! Statistical assertions of the paper's headline claims, at reduced
//! scale. These use moderate datasets and aggregate over queries, so
//! they test *orderings*, with slack for small-sample noise.

use seesaw::core::run_benchmark_query;
use seesaw::metrics::{hard_subset, mean, select_hard};
use seesaw::prelude::*;
use seesaw_bench::ap_per_query;

struct Bench {
    ds: SyntheticDataset,
    index: std::sync::Arc<seesaw::core::DatasetIndex>,
    coarse: std::sync::Arc<seesaw::core::DatasetIndex>,
}

fn build(spec: DatasetSpec, seed: u64) -> Bench {
    let ds = spec.generate(seed);
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let coarse = Preprocessor::new(PreprocessConfig::fast().coarse_only()).build(&ds);
    Bench { ds, index, coarse }
}

fn aps(b: &Bench, coarse: bool, make: &dyn Fn() -> MethodConfig) -> Vec<f64> {
    let idx = if coarse { &b.coarse } else { &b.index };
    ap_per_query(idx, &b.ds, &|_, _, _| make(), &BenchmarkProtocol::default())
}

#[test]
fn seesaw_beats_zero_shot_on_hard_queries() {
    // The paper's headline: SeeSaw lifts hard-subset AP substantially
    // (0.19 → 0.46 with multiscale). Check the ordering on the two
    // datasets with the largest hard subsets.
    for spec in [
        DatasetSpec::lvis_like(0.004).with_max_queries(25),
        DatasetSpec::objectnet_like(0.01).with_max_queries(25),
    ] {
        let b = build(spec, 41);
        let zs = aps(&b, true, &MethodConfig::zero_shot);
        let ss = aps(&b, false, &MethodConfig::seesaw);
        let hard = hard_subset(&zs);
        assert!(hard.len() >= 3, "{}: too few hard queries", b.ds.name);
        let zs_hard = mean(&select_hard(&zs, &hard));
        let ss_hard = mean(&select_hard(&ss, &hard));
        assert!(
            ss_hard > zs_hard + 0.03,
            "{}: seesaw hard {ss_hard:.3} vs zero-shot hard {zs_hard:.3}",
            b.ds.name
        );
    }
}

#[test]
fn few_shot_underperforms_zero_shot_on_average() {
    // §3.2 / Table 2: pure logistic refitting drops mean AP relative to
    // zero-shot CLIP ("the accuracy drop is evident empirically on all
    // our datasets").
    let b = build(DatasetSpec::coco_like(0.004).with_max_queries(25), 43);
    let zs = aps(&b, true, &MethodConfig::zero_shot);
    let fs = aps(&b, true, &MethodConfig::seesaw_few_shot);
    assert!(
        mean(&fs) < mean(&zs),
        "few-shot {:.3} should trail zero-shot {:.3}",
        mean(&fs),
        mean(&zs)
    );
}

#[test]
fn clip_alignment_undoes_the_few_shot_regression() {
    // Table 2: "few-shot CLIP when combined with alignment methods undo
    // this regression".
    let b = build(DatasetSpec::coco_like(0.004).with_max_queries(25), 43);
    let zs = aps(&b, true, &MethodConfig::zero_shot);
    let fs = aps(&b, true, &MethodConfig::seesaw_few_shot);
    let qa = aps(&b, true, &MethodConfig::seesaw_clip_only);
    assert!(
        mean(&qa) > mean(&fs),
        "align {:.3} vs few-shot {:.3}",
        mean(&qa),
        mean(&fs)
    );
    assert!(
        mean(&qa) >= mean(&zs) - 0.02,
        "align {:.3} must recover zero-shot {:.3}",
        mean(&qa),
        mean(&zs)
    );
}

#[test]
fn multiscale_amplifies_seesaw_on_small_object_data() {
    // §5.3: "Especially on BDD, the 3 hard queries improve from .02 to
    // .07 without multiscale, but from .10 to .24 with it" — multiscale
    // plus alignment beats coarse alignment on small-object datasets.
    let b = build(DatasetSpec::bdd_like(0.008), 47);
    let ss_coarse = aps(&b, true, &MethodConfig::seesaw);
    let ss_multi = aps(&b, false, &MethodConfig::seesaw);
    let zs = aps(&b, true, &MethodConfig::zero_shot);
    let hard = hard_subset(&zs);
    if hard.len() >= 2 {
        let coarse_hard = mean(&select_hard(&ss_coarse, &hard));
        let multi_hard = mean(&select_hard(&ss_multi, &hard));
        assert!(
            multi_hard >= coarse_hard - 0.02,
            "multiscale hard {multi_hard:.3} vs coarse hard {coarse_hard:.3}"
        );
    }
}

#[test]
fn ens_degrades_with_longer_horizons_without_calibration() {
    // Table 4, raw-γ row: mAP falls as the reward horizon grows because
    // uncalibrated scores poison the expected-value computation.
    let b = build(DatasetSpec::objectnet_like(0.01).with_max_queries(20), 53);
    let short = aps(&b, true, &|| MethodConfig::ens(1));
    let long = aps(&b, true, &|| MethodConfig::ens(60));
    assert!(
        mean(&short) >= mean(&long) - 0.02,
        "t=1 {:.3} should not trail t=60 {:.3}",
        mean(&short),
        mean(&long)
    );
}

#[test]
fn seesaw_latency_does_not_scale_with_database_like_propagation() {
    // Table 6's shape: going from a small to a larger database,
    // propagation latency grows by a larger factor than SeeSaw's.
    use seesaw::metrics::median;
    let proto = BenchmarkProtocol::default();
    let mut seesaw_lat = Vec::new();
    let mut prop_lat = Vec::new();
    for scale in [0.002, 0.008] {
        let b = build(DatasetSpec::coco_like(scale).with_max_queries(4), 59);
        let mut ss = Vec::new();
        let mut pp = Vec::new();
        for q in b.ds.queries().iter().take(3) {
            ss.extend(
                run_benchmark_query(
                    &b.index,
                    &b.ds,
                    q.concept,
                    MethodConfig::seesaw(),
                    &proto,
                    1,
                )
                .iteration_seconds,
            );
            pp.extend(
                run_benchmark_query(
                    &b.index,
                    &b.ds,
                    q.concept,
                    MethodConfig::seesaw_prop(),
                    &proto,
                    1,
                )
                .iteration_seconds,
            );
        }
        seesaw_lat.push(median(&ss));
        prop_lat.push(median(&pp));
    }
    let seesaw_growth = seesaw_lat[1] / seesaw_lat[0].max(1e-9);
    let prop_growth = prop_lat[1] / prop_lat[0].max(1e-9);
    assert!(
        prop_growth > seesaw_growth,
        "prop growth {prop_growth:.2}x should exceed seesaw growth {seesaw_growth:.2}x \
         (seesaw {seesaw_lat:?}, prop {prop_lat:?})"
    );
}
