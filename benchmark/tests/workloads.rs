//! Every workload at `--tiny` size, against the real server child.

use std::path::Path;

use seesaw_benchmark::child::ServerChild;
use seesaw_benchmark::corpus::{out_dir, Corpus};
use seesaw_benchmark::load::measure;
use seesaw_benchmark::plan::SessionPlan;
use seesaw_benchmark::script::Tally;
use seesaw_benchmark::spec::{self, ServeShape, END_TO_END, PER_LAYER};
use seesaw_benchmark::{endtoend, traced, Error};

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_seesaw-benchmark"))
}

fn tiny(name: &str) -> spec::Workload {
    spec::workload(name)
        .expect("a workload of the manifest")
        .tiny()
}

fn is_name(s: &str, max: usize, extra: &str) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn benchmark_json_is_the_manifest_and_within_the_contract() {
    let committed =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        spec::manifest_json(),
        "regenerate with `seesaw-benchmark manifest`"
    );

    let workloads = spec::workloads();
    assert!((2..=8).contains(&workloads.len()));
    for w in &workloads {
        assert!(is_name(w.name, 64, "_.-"), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: {}",
            w.name,
            w.why.len()
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    for m in END_TO_END {
        assert!(is_name(m.name, 64, "_.-") && is_name(m.unit, 16, "_/%.-"));
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    assert!(PER_LAYER.len() <= 128);
    for m in PER_LAYER {
        assert!(is_name(m.name, 64, "_.-") && is_name(m.unit, 16, "_/%.-"));
    }
    let mut names: Vec<&str> = workloads
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

#[test]
fn every_workload_reports_every_metric_and_replays_bit_identically() {
    for w in spec::workloads() {
        let w = w.tiny();

        let outcome =
            endtoend::run(exe(), &w, 7, 0.3).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(outcome.tally.failed == 0 && outcome.tally.attempted > 0);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", w.name);
        for (metric, def) in outcome.metrics.iter().zip(END_TO_END) {
            assert_eq!(metric.unit, def.unit);
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{} {} = {}",
                w.name,
                metric.name,
                metric.value
            );
        }

        // Fails unless all three depths answer every request with the
        // same bytes and the leaf solve reproduces the session's query.
        let outcome = traced::run(exe(), &w, 7, 0.6).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", w.name);
        for (metric, def) in outcome.metrics.iter().zip(PER_LAYER) {
            assert_eq!(metric.unit, def.unit);
            assert!(metric.value.is_finite(), "{} {}", w.name, metric.name);
        }
        let solves = outcome.metric("aligner.align_us").expect("listed").samples;
        assert_eq!(solves == 0, w.name == "wire_churn", "{}", w.name);

        let trace = std::fs::read_to_string(out_dir().join(format!("trace-{}.jsonl", w.name)))
            .expect("the traced run writes its spans");
        assert!(trace.lines().count() > 10);
        assert!(trace
            .lines()
            .all(|l| l.starts_with("{\"id\": ") && l.ends_with('}')));
        assert!(trace.contains("\"name\": \"server.wire\""));
        assert!(trace.contains("\"name\": \"vecstore.top_k\""));
    }
}

#[test]
fn mean_ap_repeats_for_a_seed_and_moves_with_the_seed() {
    let w = tiny("solve_heavy");
    let mean_ap = |seed: u64| {
        endtoend::run(exe(), &w, seed, 0.2)
            .expect("a clean run")
            .metric("mean_ap")
            .expect("listed")
            .value
    };
    let first = mean_ap(7);
    assert_eq!(first.to_bits(), mean_ap(7).to_bits());
    assert_ne!(first.to_bits(), mean_ap(8).to_bits());
}

#[test]
fn a_child_that_sheds_fails_the_run() {
    let w = tiny("wire_churn");
    let corpus = Corpus::build(&w).expect("set-up");
    // Room for one connection: the second client is turned away with
    // an `overloaded` line.
    let shape = ServeShape {
        max_connections: 1,
        ..ServeShape::REFERENCE
    };
    let child = ServerChild::spawn(exe(), w.scale, &corpus.index_path, shape).expect("a child");
    let plan = SessionPlan::new(7, corpus.dataset.queries().len(), w.ap_sessions);
    let outcome = measure(exe(), &w, &corpus, child, Tally::default(), &plan, 0.2);
    assert!(
        matches!(outcome, Err(Error::Failed(_))),
        "a shed connection must fail the run"
    );
}
