//! **Table 7** — hyperparameter sensitivity: SeeSaw mean AP per dataset
//! for a grid of (λc, λD, λ) values spanning an order of magnitude
//! around the defaults.
//!
//! The paper's grid centres on (λc, λD, λ) = (10, 1000, 100) for 512-d
//! CLIP with unweighted multiscale feedback; this reproduction's
//! loss balance is calibrated at (1, 100, 1) (see `AlignerConfig` docs
//! and EXPERIMENTS.md), so the grid spans the same ×3 / ÷3 pattern
//! around *our* centre. The claim under test is the paper's: "SeeSaw
//! handles hyperparameter values varying an order of magnitude while
//! still improving results vs. zero-shot CLIP", with all datasets
//! peaking at similar values.

use seesaw_aligner::AlignerConfig;
use seesaw_bench::{ap_per_query, bench_suite, build_indexes, IndexNeeds};
use seesaw_core::{Method, MethodConfig};
use seesaw_metrics::{mean, BenchmarkProtocol, TableBuilder};

fn main() {
    let specs = bench_suite();
    let needs = IndexNeeds {
        multiscale: true,
        coarse: false,
        db_matrix: true,
        propagation: false,
        ens_graph: false,
    };
    let built = build_indexes(&specs, needs);
    let proto = BenchmarkProtocol::default();

    // Mirror the paper's 11-row grid pattern around our calibrated
    // centre (λc = 1, λD = 100, λ = 1).
    let grid: Vec<(f64, f64, f64)> = vec![
        (0.3, 30.0, 1.0),
        (0.3, 100.0, 1.0),
        (0.3, 300.0, 1.0),
        (1.0, 30.0, 1.0),
        (1.0, 100.0, 0.3),
        (1.0, 100.0, 1.0), // ← benchmark setting
        (1.0, 100.0, 3.0),
        (1.0, 300.0, 1.0),
        (3.0, 30.0, 1.0),
        (3.0, 100.0, 1.0),
        (3.0, 300.0, 1.0),
    ];

    let mut table = TableBuilder::new("Table 7 — SeeSaw mean AP per hyperparameter setting")
        .header(["λc", "λD", "λ", "BDD", "COCO", "LVIS", "ObjNet", "avg."]);

    let zero_shot_avg = {
        let mut vals = Vec::new();
        for b in &built {
            let idx = b.multiscale.as_ref().unwrap();
            let aps = ap_per_query(
                idx,
                &b.dataset,
                &|_, _, _| MethodConfig::zero_shot(),
                &proto,
            );
            vals.push(mean(&aps));
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    };

    for &(lc, ld, l) in &grid {
        eprintln!("[table7] λc={lc} λD={ld} λ={l}…");
        let mut per: std::collections::BTreeMap<&str, f64> = Default::default();
        for b in &built {
            let idx = b.multiscale.as_ref().unwrap();
            let aps = ap_per_query(
                idx,
                &b.dataset,
                &|_, _, _| MethodConfig {
                    method: Method::SeeSaw(AlignerConfig {
                        lambda: l,
                        lambda_c: lc,
                        lambda_d: ld,
                        ..AlignerConfig::default()
                    }),
                    search_k: 8192,
                },
                &proto,
            );
            per.insert(
                b.dataset.name.as_str().split('-').next().unwrap_or(""),
                mean(&aps),
            );
        }
        let bdd = per.get("bdd").copied().unwrap_or(f64::NAN);
        let coco = per.get("coco").copied().unwrap_or(f64::NAN);
        let lvis = per.get("lvis").copied().unwrap_or(f64::NAN);
        let objnet = per.get("objectnet").copied().unwrap_or(f64::NAN);
        let avg = (bdd + coco + lvis + objnet) / 4.0;
        table.row([
            format!("{lc}"),
            format!("{ld}"),
            format!("{l}"),
            format!("{bdd:.2}"),
            format!("{coco:.2}"),
            format!("{lvis:.2}"),
            format!("{objnet:.2}"),
            format!("{avg:.2}"),
        ]);
    }

    println!("{table}");
    println!("zero-shot multiscale avg for comparison: {zero_shot_avg:.2}");
    println!("claim under test: every row beats zero-shot; rows differ by ≲0.02,");
    println!("mirroring the paper's Table 7 stability (their rows: 0.78–0.80).");
}
