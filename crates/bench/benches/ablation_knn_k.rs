//! **Ablation: kNN-graph degree for database alignment** (§5.2:
//! "Varying k from 5 to 20 also did not substantially affect results").
//!
//! Rebuild `M_D` with k ∈ {5, 10, 20} and measure full-SeeSaw mAP; also
//! report the no-DB-align (λD = 0) reference so the k-invariance claim
//! is read against the size of the DB-align contribution itself.

use seesaw_bench::{ap_per_query, bench_seed};
use seesaw_core::{MethodConfig, PreprocessConfig, Preprocessor};
use seesaw_dataset::DatasetSpec;
use seesaw_metrics::{mean, BenchmarkProtocol, TableBuilder};

fn main() {
    let scale = 0.01 * seesaw_bench::env_f64("SEESAW_SCALE", 1.0);
    let ds = DatasetSpec::lvis_like(scale)
        .with_max_queries(20)
        .generate(bench_seed());
    let proto = BenchmarkProtocol::default();

    let mut table = TableBuilder::new("SeeSaw mAP vs kNN-graph degree k (LVIS-like)").header([
        "k",
        "mAP (full SeeSaw)",
        "mAP (λD = 0)",
    ]);

    for k in [5usize, 10, 20] {
        eprintln!("[ablation_knn_k] building index with k = {k}…");
        let mut cfg = PreprocessConfig::fast();
        cfg.knn_k = k;
        let idx = Preprocessor::new(cfg).build(&ds);
        let full = ap_per_query(&idx, &ds, &|_, _, _| MethodConfig::seesaw(), &proto);
        let no_db = ap_per_query(
            &idx,
            &ds,
            &|_, _, _| MethodConfig::seesaw_clip_only(),
            &proto,
        );
        table.row([
            k.to_string(),
            format!("{:.3}", mean(&full)),
            format!("{:.3}", mean(&no_db)),
        ]);
    }
    println!("{table}");
    println!("claim under test: the full-SeeSaw column varies little across k");
    println!("(paper: k ∈ [5, 20] 'did not substantially affect results').");
}
