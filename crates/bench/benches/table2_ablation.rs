//! **Table 2** — ablation of SeeSaw's optimizations: zero-shot CLIP →
//! +multiscale → +few-shot → +Query (CLIP) align → +DB align; mean AP
//! per dataset over all queries and over the hard subset (zero-shot
//! AP < .5).
//!
//! Paper reference values (512-d CLIP, full-size datasets):
//!
//! ```text
//! all queries            LVIS ObjNet COCO BDD  avg.
//!   zero-shot CLIP       0.63 0.64   0.90 0.74 0.72
//!   +multiscale          0.70 0.64   0.95 0.76 0.76
//!   +few-shot CLIP       0.67 0.59   0.87 0.68 0.70
//!   +Query align         0.75 0.69   0.96 0.77 0.79
//!   +DB align            0.76 0.70   0.96 0.79 0.80
//! hard subset
//!   zero-shot CLIP       0.19 0.28   0.27 0.02 0.19
//!   +multiscale          0.32 0.28   0.58 0.10 0.32
//!   +few-shot CLIP       0.34 0.28   0.57 0.07 0.31
//!   +Query align         0.42 0.39   0.74 0.20 0.44
//!   +DB align            0.44 0.40   0.75 0.24 0.46
//! ```

use seesaw_bench::{ap_per_query, bench_suite, build_indexes, IndexNeeds};
use seesaw_core::MethodConfig;
use seesaw_metrics::{hard_subset, mean, select_hard, BenchmarkProtocol, TableBuilder};

fn main() {
    let specs = bench_suite();
    let needs = IndexNeeds {
        multiscale: true,
        coarse: true,
        db_matrix: true,
        propagation: false,
        ens_graph: false,
    };
    let built = build_indexes(&specs, needs);
    let proto = BenchmarkProtocol::default();

    // Rows: (label, use multiscale index, method).
    type AblationRow<'a> = (&'a str, bool, fn() -> MethodConfig);
    let rows: Vec<AblationRow> = vec![
        ("zero-shot CLIP", false, MethodConfig::zero_shot),
        ("+multiscale", true, MethodConfig::zero_shot),
        ("+few-shot CLIP", true, MethodConfig::seesaw_few_shot),
        ("+Query align", true, MethodConfig::seesaw_clip_only),
        ("+DB align", true, MethodConfig::seesaw),
    ];

    let mut all_table = TableBuilder::new("Table 2 — all queries (mean AP)").header([
        "optimization",
        "LVIS",
        "ObjNet",
        "COCO",
        "BDD",
        "avg.",
    ]);
    let mut hard_table = TableBuilder::new("Table 2 — hard subset (mean AP)").header([
        "optimization",
        "LVIS",
        "ObjNet",
        "COCO",
        "BDD",
        "avg.",
    ]);

    // Per dataset: zero-shot (coarse) APs define the hard subset.
    let mut hard_sets = Vec::new();
    for b in &built {
        let coarse = b.coarse.as_ref().unwrap();
        let zs = ap_per_query(
            coarse,
            &b.dataset,
            &|_, _, _| MethodConfig::zero_shot(),
            &proto,
        );
        hard_sets.push(hard_subset(&zs));
    }

    for (label, use_multi, method) in &rows {
        let mut all_vals = Vec::new();
        let mut hard_vals = Vec::new();
        for (b, hard) in built.iter().zip(hard_sets.iter()) {
            eprintln!("[table2] {label} on {}…", b.dataset.name);
            let idx = if *use_multi {
                b.multiscale.as_ref().unwrap()
            } else {
                b.coarse.as_ref().unwrap()
            };
            let aps = ap_per_query(idx, &b.dataset, &|_, _, _| method(), &proto);
            all_vals.push(mean(&aps));
            hard_vals.push(mean(&select_hard(&aps, hard)));
        }
        let all_avg = all_vals.iter().sum::<f64>() / all_vals.len() as f64;
        let hard_avg = hard_vals.iter().sum::<f64>() / hard_vals.len() as f64;
        all_vals.push(all_avg);
        hard_vals.push(hard_avg);
        all_table.num_row(*label, &all_vals, 2);
        hard_table.num_row(*label, &hard_vals, 2);
    }

    println!("{all_table}");
    println!("{hard_table}");
    println!("paper (avg. column): all 0.72/0.76/0.70/0.79/0.80; hard 0.19/0.32/0.31/0.44/0.46");
}
