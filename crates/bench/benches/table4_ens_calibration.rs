//! **Table 4** — ENS sensitivity to score calibration and reward
//! horizon. Mean AP averaged over the four datasets, for horizons
//! t ∈ {1, 2, 10, 60}, with raw γ_i (CLIP scores mapped to [0,1]) vs
//! Platt-calibrated γ_i (calibrated on ground truth — "not attainable in
//! practice", §5.4).
//!
//! Paper reference values:
//!
//! ```text
//! reward horizon t =   1    2    10   60
//!   raw γ_i          0.63 0.62 0.61 0.55
//!   calibrated γ_i   0.65 0.65 0.65 0.63
//! ```

use seesaw_bench::{ap_per_query, bench_suite, build_indexes, IndexNeeds};
use seesaw_core::MethodConfig;
use seesaw_metrics::{mean, BenchmarkProtocol, TableBuilder};
use seesaw_optim::PlattScaler;

fn main() {
    let specs = bench_suite();
    let needs = IndexNeeds {
        multiscale: false,
        coarse: true,
        db_matrix: false,
        propagation: false,
        ens_graph: true,
    };
    let built = build_indexes(&specs, needs);
    let proto = BenchmarkProtocol::default();
    let horizons = [1usize, 2, 10, 60];

    let mut table = TableBuilder::new("Table 4 — ENS mAP vs reward horizon (4-dataset average)")
        .header(["gamma", "t=1", "t=2", "t=10", "t=60"]);

    for calibrated in [false, true] {
        let mut cells = Vec::new();
        for &t in &horizons {
            let mut per_dataset = Vec::new();
            for b in &built {
                eprintln!(
                    "[table4] {} γ, t={t}, {}…",
                    if calibrated { "calibrated" } else { "raw" },
                    b.dataset.name
                );
                let idx = b.coarse.as_ref().unwrap();
                let aps = ap_per_query(
                    idx,
                    &b.dataset,
                    &|index, dataset, concept| {
                        if calibrated {
                            // Platt-scale the CLIP scores against ground
                            // truth for THIS query — the paper's
                            // deliberately unrealistic oracle.
                            let q0 = dataset.model.embed_text(concept);
                            // One blocked GEMV over the coarse block.
                            let scores = index.coarse_scores(&q0);
                            let labels: Vec<bool> = (0..index.n_images() as u32)
                                .map(|i| dataset.truth.is_relevant(concept, i))
                                .collect();
                            match PlattScaler::fit(&scores, &labels) {
                                Some(platt) => {
                                    MethodConfig::ens_calibrated(t, platt.calibrate_all(&scores))
                                }
                                None => MethodConfig::ens(t),
                            }
                        } else {
                            MethodConfig::ens(t)
                        }
                    },
                    &proto,
                );
                per_dataset.push(mean(&aps));
            }
            cells.push(per_dataset.iter().sum::<f64>() / per_dataset.len() as f64);
        }
        table.num_row(
            if calibrated {
                "calibrated γ_i"
            } else {
                "raw γ_i"
            },
            &cells,
            2,
        );
    }

    println!("{table}");
    println!("paper: raw 0.63/0.62/0.61/0.55; calibrated 0.65/0.65/0.65/0.63");
    println!("claims under test: (a) calibration helps at every horizon;");
    println!("(b) longer horizons degrade more sharply with uncalibrated scores.");
}
