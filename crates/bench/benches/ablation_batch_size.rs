//! **Ablation: feedback batch size** (Listing 1: "In reality, each loop
//! consists of a batch of a user specified size").
//!
//! Larger batches amortize alignment solves but delay feedback: the
//! query is updated less often per image shown, so accuracy should
//! degrade gracefully as the batch grows — quantified here.

use seesaw_bench::bench_seed;
use seesaw_core::{MethodConfig, PreprocessConfig, Preprocessor, Session, SimulatedUser};
use seesaw_dataset::DatasetSpec;
use seesaw_metrics::{average_precision, mean, BenchmarkProtocol, SearchTrace, TableBuilder};

fn main() {
    let scale = 0.01 * seesaw_bench::env_f64("SEESAW_SCALE", 1.0);
    let ds = DatasetSpec::objectnet_like(scale)
        .with_max_queries(20)
        .generate(bench_seed());
    let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
    let proto = BenchmarkProtocol::default();
    let user = SimulatedUser::new(&ds);

    let mut table = TableBuilder::new("SeeSaw mAP vs feedback batch size").header([
        "batch",
        "mAP",
        "mean solves/query",
    ]);

    for batch in [1usize, 3, 10, 30] {
        let mut aps = Vec::new();
        let mut solves = 0usize;
        for q in ds.queries() {
            let mut session = Session::start(&idx, &ds, q.concept, MethodConfig::seesaw());
            let mut relevance = Vec::new();
            let mut found = 0usize;
            'outer: loop {
                let images = session.next_batch(batch);
                if images.is_empty() {
                    break;
                }
                for img in images {
                    let fb = user.annotate(img, q.concept);
                    let rel = fb.relevant;
                    session.feedback(fb);
                    solves += 1;
                    relevance.push(rel);
                    if rel {
                        found += 1;
                    }
                    if proto.should_stop(relevance.len(), found) {
                        break 'outer;
                    }
                }
            }
            aps.push(average_precision(
                &SearchTrace::new(relevance),
                q.n_relevant,
                &proto,
            ));
        }
        table.row([
            batch.to_string(),
            format!("{:.3}", mean(&aps)),
            format!("{:.1}", solves as f64 / ds.queries().len() as f64),
        ]);
    }
    println!("{table}");
    println!("expectation: accuracy decays gently with batch size — feedback is");
    println!("incorporated less often, but the CLIP prior keeps early batches sane.");
}
