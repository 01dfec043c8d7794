//! **Table 3** — baseline comparison, *no multiscale for any method*:
//! zero-shot CLIP, few-shot CLIP, ENS, Rocchio, and SeeSaw ("this
//! work"), mean AP over all queries and over the hard subset.
//!
//! Paper reference values:
//!
//! ```text
//! all queries       LVIS ObjNet COCO BDD  avg.
//!   zero-shot CLIP  0.63 0.64   0.90 0.74 0.72
//!   few-shot CLIP   0.65 0.58   0.88 0.73 0.71
//!   ENS             0.50 0.43   0.86 0.70 0.62
//!   Rocchio         0.68 0.70   0.93 0.75 0.76
//!   this work       0.69 0.70   0.92 0.76 0.77
//! hard subset
//!   zero-shot CLIP  0.19 0.28   0.27 0.02 0.19
//!   few-shot CLIP   0.25 0.28   0.32 0.06 0.23
//!   ENS             0.16 0.24   0.37 0.03 0.20
//!   Rocchio         0.28 0.38   0.49 0.05 0.30
//!   this work       0.30 0.40   0.55 0.07 0.33
//! ```

use seesaw_bench::{ap_per_query, bench_suite, build_indexes, IndexNeeds};
use seesaw_core::MethodConfig;
use seesaw_metrics::{hard_subset, mean, select_hard, BenchmarkProtocol, TableBuilder};

fn main() {
    let specs = bench_suite();
    let needs = IndexNeeds {
        multiscale: false,
        coarse: true,
        db_matrix: true,
        propagation: false,
        ens_graph: true,
    };
    let built = build_indexes(&specs, needs);
    let proto = BenchmarkProtocol::default();
    let horizon = proto.image_budget;

    type MethodRow<'a> = (&'a str, Box<dyn Fn() -> MethodConfig>);
    let rows: Vec<MethodRow> = vec![
        ("zero-shot CLIP", Box::new(MethodConfig::zero_shot)),
        ("few-shot CLIP", Box::new(MethodConfig::seesaw_few_shot)),
        ("ENS", Box::new(move || MethodConfig::ens(horizon))),
        ("Rocchio", Box::new(MethodConfig::rocchio)),
        ("this work", Box::new(MethodConfig::seesaw)),
    ];

    let mut all_table = TableBuilder::new("Table 3 — all queries (mean AP, no multiscale)")
        .header(["method", "LVIS", "ObjNet", "COCO", "BDD", "avg."]);
    let mut hard_table = TableBuilder::new("Table 3 — hard subset (mean AP, no multiscale)")
        .header(["method", "LVIS", "ObjNet", "COCO", "BDD", "avg."]);

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

    for (label, method) in &rows {
        let mut all_vals = Vec::new();
        let mut hard_vals = Vec::new();
        for (b, hard) in built.iter().zip(hard_sets.iter()) {
            eprintln!("[table3] {label} on {}…", b.dataset.name);
            let idx = b.coarse.as_ref().unwrap();
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
    println!("paper (avg. column): all 0.72/0.71/0.62/0.76/0.77; hard 0.19/0.23/0.20/0.30/0.33");
}
