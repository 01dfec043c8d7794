//! Compare every search method on the same dataset: zero-shot CLIP,
//! few-shot CLIP, Rocchio, ENS, and SeeSaw (CLIP-align only and full),
//! reporting mean AP over all queries and over the hard subset — a
//! miniature of the paper's Tables 2 and 3.
//!
//! ```sh
//! cargo run --release --example method_faceoff
//! ```

use seesaw::metrics::{hard_subset, mean, select_hard};
use seesaw::prelude::*;
use seesaw_bench::ap_per_query;

fn main() {
    let dataset = DatasetSpec::lvis_like(0.005)
        .with_max_queries(30)
        .generate(3);
    let index = Preprocessor::new(PreprocessConfig::fast()).build(&dataset);
    let protocol = BenchmarkProtocol::default();
    println!(
        "lvis-like: {} images, {} patch vectors, {} queries\n",
        dataset.n_images(),
        index.n_patches(),
        dataset.queries().len()
    );

    let run_all = |make: &dyn Fn() -> MethodConfig| -> Vec<f64> {
        ap_per_query(&index, &dataset, &|_, _, _| make(), &protocol)
    };

    let zero_shot = run_all(&MethodConfig::zero_shot);
    let hard = hard_subset(&zero_shot);
    let hard_mean = |aps: &[f64]| mean(&select_hard(aps, &hard));

    println!("{:<22} {:>8} {:>12}", "method", "mean AP", "hard subset");
    println!("{}", "-".repeat(44));
    println!(
        "{:<22} {:>8.3} {:>12.3}",
        "zero-shot CLIP",
        mean(&zero_shot),
        hard_mean(&zero_shot)
    );
    type MethodRow<'a> = (&'a str, Box<dyn Fn() -> MethodConfig>);
    let methods: Vec<MethodRow> = vec![
        ("few-shot CLIP", Box::new(MethodConfig::seesaw_few_shot)),
        ("Rocchio", Box::new(MethodConfig::rocchio)),
        ("ENS (horizon 60)", Box::new(|| MethodConfig::ens(60))),
        (
            "SeeSaw (CLIP align)",
            Box::new(MethodConfig::seesaw_clip_only),
        ),
        ("SeeSaw (full)", Box::new(MethodConfig::seesaw)),
    ];
    for (name, make) in &methods {
        let aps = run_all(make.as_ref());
        println!("{:<22} {:>8.3} {:>12.3}", name, mean(&aps), hard_mean(&aps));
    }
    println!(
        "\nhard subset = {} queries with zero-shot AP < 0.5 (paper Fig. 1 definition)",
        hard.len()
    );
}
