//! **Figure 1** — CDF of zero-shot CLIP Average Precision across the
//! four datasets, with the fraction (and count) of hard queries
//! (AP < .5) that the paper annotates on the dashed line:
//!
//! ```text
//! LVIS .38 (456/1203)   ObjNet .33 (102/313)
//! COCO .06 (5/80)       BDD   .25 (3/12)
//! ```

use seesaw_bench::{ap_per_query, bench_suite, build_indexes, IndexNeeds};
use seesaw_core::MethodConfig;
use seesaw_metrics::{cdf_points, fraction_below, hard_subset, BenchmarkProtocol, TableBuilder};

fn main() {
    let specs = bench_suite();
    let built = build_indexes(
        &specs,
        IndexNeeds {
            coarse: true,
            ..IndexNeeds::default()
        },
    );
    let proto = BenchmarkProtocol::default();

    let mut summary = TableBuilder::new("Figure 1 — zero-shot CLIP AP distribution").header([
        "dataset",
        "queries",
        "hard frac",
        "hard n",
        "paper frac",
    ]);
    let paper = [
        ("lvis-like", 0.38),
        ("objectnet-like", 0.33),
        ("coco-like", 0.06),
        ("bdd-like", 0.25),
    ];

    for b in &built {
        let idx = b.coarse.as_ref().unwrap();
        eprintln!("[fig1] {}…", b.dataset.name);
        let aps = ap_per_query(
            idx,
            &b.dataset,
            &|_, _, _| MethodConfig::zero_shot(),
            &proto,
        );
        let frac = fraction_below(&aps, 0.5);
        let n_hard = hard_subset(&aps).len();
        let paper_frac = paper
            .iter()
            .find(|(n, _)| *n == b.dataset.name)
            .map(|(_, f)| *f)
            .unwrap_or(f64::NAN);
        summary.row([
            b.dataset.name.clone(),
            aps.len().to_string(),
            format!("{frac:.2}"),
            format!("{n_hard}/{}", aps.len()),
            format!("{paper_frac:.2}"),
        ]);

        // The CDF series itself (the solid line of the figure).
        println!("# CDF of zero-shot AP — {}", b.dataset.name);
        for (x, f) in cdf_points(&aps, 0.0, 1.0, 21) {
            let bar = "#".repeat((f * 40.0).round() as usize);
            println!("  AP<={x:.2}  {f:.2}  {bar}");
        }
        println!();
    }

    println!("{summary}");
}
