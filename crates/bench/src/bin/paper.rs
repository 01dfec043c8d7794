//! Reproduce the paper's figures and tables (arXiv 2208.06497 §5).
//!
//! ```sh
//! cargo run --release -p seesaw-bench --bin paper -- table3
//! SEESAW_SCALE=0.1 SEESAW_QUERIES=3 cargo run --release -p seesaw-bench --bin paper -- all
//! ```
//!
//! Each sub-command prints one table beside the paper's values; `all`
//! prints every one in turn. The `SEESAW_*` knobs are listed in the
//! `seesaw_bench` crate docs.

use seesaw_bench::experiments as e;

/// Every artifact, by sub-command name, in the order `all` runs them.
const ARTIFACTS: [(&str, fn()); 12] = [
    ("fig1", e::fig1),
    ("fig4", e::fig4),
    ("fig5", e::fig5),
    ("fig6", e::fig6),
    ("table2", e::table2),
    ("table3", e::table3),
    ("table4", e::table4),
    ("table5", e::table5),
    ("table6", e::table6),
    ("table7", e::table7),
    ("batch_size", e::batch_size),
    ("knn_k", e::knn_k),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    if name == "all" {
        for (name, run) in ARTIFACTS {
            println!("\n######## {name} ########\n");
            run();
        }
    } else if let Some((_, run)) = ARTIFACTS.iter().find(|(n, _)| *n == name) {
        run();
    } else {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: paper <{}|all>", names.join("|"));
        std::process::exit(2);
    }
}
