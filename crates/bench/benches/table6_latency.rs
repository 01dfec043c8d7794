//! **Table 6** — per-iteration system latency (seconds) vs database
//! size (number of vectors), for zero-shot CLIP, ENS, Rocchio, SeeSaw,
//! and the propagation variant. "−" rows are coarse (one vector per
//! image); plain rows are multiscale. ENS is coarse-only ("NA" on
//! multiscale rows), matching the paper.
//!
//! Paper reference values (their hardware, 50K–1.6M vectors):
//!
//! ```text
//!          vectors  CLIP  ENS  Rocchio SeeSaw prop.
//! ObjNet−  50K      0.11  0.10 0.14    0.27   0.83
//! BDD−     80K      0.09  0.11 0.10    0.23   0.90
//! COCO−    120K     0.10  0.22 0.16    0.34   1.11
//! BDD      1.6M     0.13  NA   0.16    0.34   2.95
//! COCO     1.6M     0.14  NA   0.23    0.47   2.88
//! ```
//!
//! Absolute numbers differ (different hardware and scale); the claim
//! under test is the *shape*: CLIP/Rocchio/SeeSaw stay interactive and
//! roughly flat as vectors grow 10–20×, ENS and propagation grow with
//! the database.

use seesaw_bench::{bench_store_config, bench_suite, build_indexes, IndexNeeds};
use seesaw_core::{run_benchmark_query, DatasetIndex, MethodConfig};
use seesaw_dataset::SyntheticDataset;
use seesaw_metrics::{median, BenchmarkProtocol, TableBuilder};

fn median_iteration_seconds(
    index: &std::sync::Arc<DatasetIndex>,
    dataset: &SyntheticDataset,
    method: impl Fn() -> MethodConfig,
    proto: &BenchmarkProtocol,
    n_queries: usize,
) -> f64 {
    let mut latencies = Vec::new();
    for q in dataset.queries().iter().take(n_queries) {
        let out = run_benchmark_query(index, dataset, q.concept, method(), proto);
        latencies.extend(out.iteration_seconds);
    }
    median(&latencies)
}

fn main() {
    let specs = bench_suite();
    // The store backend is configuration, not code: SEESAW_STORE
    // selects exact, forest, or IVF for every index this harness builds.
    let store = bench_store_config();
    eprintln!("[table6] store backend: {}", store.backend_name());
    let built = build_indexes(&specs, IndexNeeds::all());
    let proto = BenchmarkProtocol::default();
    let n_queries = 5;
    let horizon = proto.image_budget;

    let mut table = TableBuilder::new(format!(
        "Table 6 — median per-iteration latency (s) vs database size [{} store]",
        store.backend_name()
    ))
    .header([
        "dataset", "vectors", "CLIP", "ENS", "Rocchio", "SeeSaw", "prop.",
    ]);

    // Paper row order: ObjNet−, BDD−, COCO−, BDD, COCO (coarse rows
    // first, then multiscale; LVIS shares COCO's database).
    let row_plan: Vec<(&str, bool)> = vec![
        ("objectnet-like", false),
        ("bdd-like", false),
        ("coco-like", false),
        ("bdd-like", true),
        ("coco-like", true),
    ];

    for (name, multiscale) in row_plan {
        let b = built
            .iter()
            .find(|b| b.dataset.name == name)
            .expect("dataset present");
        let idx = if multiscale {
            b.multiscale.as_ref().unwrap()
        } else {
            b.coarse.as_ref().unwrap()
        };
        eprintln!("[table6] {name}{}…", if multiscale { "" } else { "−" });
        let clip =
            median_iteration_seconds(idx, &b.dataset, MethodConfig::zero_shot, &proto, n_queries);
        let ens = if multiscale {
            None // paper: ENS is only implemented for coarse embeddings
        } else {
            Some(median_iteration_seconds(
                idx,
                &b.dataset,
                || MethodConfig::ens(horizon),
                &proto,
                n_queries,
            ))
        };
        let rocchio =
            median_iteration_seconds(idx, &b.dataset, MethodConfig::rocchio, &proto, n_queries);
        let seesaw =
            median_iteration_seconds(idx, &b.dataset, MethodConfig::seesaw, &proto, n_queries);
        let prop = median_iteration_seconds(
            idx,
            &b.dataset,
            MethodConfig::seesaw_prop,
            &proto,
            n_queries,
        );
        table.row([
            format!("{name}{}", if multiscale { "" } else { "−" }),
            format!("{}", idx.n_patches()),
            format!("{clip:.4}"),
            ens.map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "NA".into()),
            format!("{rocchio:.4}"),
            format!("{seesaw:.4}"),
            format!("{prop:.4}"),
        ]);
    }

    println!("{table}");
    println!("claims under test: SeeSaw latency roughly flat from coarse to multiscale");
    println!("(10–20× more vectors); propagation grows with the vector count; ENS");
    println!("scales with N and is unavailable on multiscale rows.");
}
