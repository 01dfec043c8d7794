//! **Figure 5** — distribution of the per-query change in AP
//! (ΔAP = SeeSaw − zero-shot CLIP) per dataset, over all queries and
//! over the hard subset: the [.1, .9] quantile interval, the share of
//! regressions (ΔAP < 0), and min/median/max.
//!
//! Paper claims: "more than 90% of the queries improving or staying the
//! same"; the min is usually close to 0; regressions trace back to the
//! multiscale representation occasionally demoting the first result.

use seesaw_bench::{ap_per_query, bench_suite, build_indexes, IndexNeeds};
use seesaw_core::MethodConfig;
use seesaw_metrics::{hard_subset, select_hard, BenchmarkProtocol, DeltaSummary, TableBuilder};

fn delta_row(table: &mut TableBuilder, label: &str, deltas: &[f64]) {
    let Some(s) = DeltaSummary::from_deltas(deltas) else {
        table.row([
            label.to_string(),
            "n/a".into(),
            "".into(),
            "".into(),
            "".into(),
            "".into(),
        ]);
        return;
    };
    table.row([
        label.to_string(),
        format!("{:.2}", s.min),
        format!("{:.2}", s.p10),
        format!("{:.2}", s.median),
        format!("{:.2}", s.p90),
        format!("{:.2}", s.max),
    ]);
    println!(
        "  {label}: {:.0}% of queries improved or unchanged",
        s.improved_or_equal * 100.0
    );
}

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

    let mut table =
        TableBuilder::new("Figure 5 — ΔAP (SeeSaw multiscale − zero-shot coarse) quantiles")
            .header(["dataset/subset", "min", "p10", "median", "p90", "max"]);

    for b in &built {
        eprintln!("[fig5] {}…", b.dataset.name);
        let coarse = b.coarse.as_ref().unwrap();
        let multi = b.multiscale.as_ref().unwrap();
        let zs = ap_per_query(
            coarse,
            &b.dataset,
            &|_, _, _| MethodConfig::zero_shot(),
            &proto,
        );
        let ss = ap_per_query(multi, &b.dataset, &|_, _, _| MethodConfig::seesaw(), &proto);
        let deltas: Vec<f64> = ss.iter().zip(zs.iter()).map(|(s, z)| s - z).collect();
        let hard = hard_subset(&zs);
        let hard_deltas = select_hard(&deltas, &hard);
        delta_row(&mut table, &format!("{} (all)", b.dataset.name), &deltas);
        delta_row(
            &mut table,
            &format!("{} (hard)", b.dataset.name),
            &hard_deltas,
        );
    }

    println!("\n{table}");
    println!("paper: >90% of queries improve or stay the same; ΔAP larger on the hard subset.");
}
