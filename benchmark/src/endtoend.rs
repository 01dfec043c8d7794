//! The end-to-end run (`--trace 0`): what a user of the service and
//! its operator see, measured with tracing off.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use seesaw_core::SearchService;
use seesaw_metrics::quantile;

use crate::child::ServerChild;
use crate::corpus::Corpus;
use crate::load::{
    cold_start_probe, finish_child, mean_ap, measure, Cycle, SessionRecord, WireRun,
};
use crate::plan::SessionPlan;
use crate::report::{Metric, Outcome};
use crate::script::{run_session, InProcess, Recorder, Samples, Tally};
use crate::spec::{ServeShape, Workload, SETUP_BUDGET_S, SETUP_REPS, SETUP_REPS_MAX};
use crate::Error;

const MIB: f64 = 1024.0 * 1024.0;

/// A workload set up and ready for its first timed request.
pub struct Prepared {
    pub corpus: Corpus,
    pub child: ServerChild,
    /// What the cold-start probe sent to `child`.
    pub sent: Tally,
    /// Dataset generation + index build + save + child ready.
    pub setup_s: f64,
    /// Child spawn → first batch of a new session received.
    pub cold_start_ms: f64,
}

/// Set a workload up from nothing, as a first deployment would.
pub fn set_up(exe: &Path, workload: &Workload) -> Result<Prepared, Error> {
    let started = Instant::now();
    let corpus = Corpus::build(workload)?;
    let child = ServerChild::spawn(
        exe,
        workload.scale,
        &corpus.index_path,
        ServeShape::REFERENCE,
    )?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut sent = Tally::default();
    let cold_start_ms = cold_start_probe(&child, workload, &corpus.dataset, &mut sent)?;
    Ok(Prepared {
        corpus,
        child,
        sent,
        setup_s,
        cold_start_ms,
    })
}

/// The output check. Sessions are deterministic, so every session for
/// one concept must have shown the same images, and each client's
/// first session must match a replay against the index as built in
/// this process — through no socket, no child and no index file.
pub fn check_outputs(workload: &Workload, corpus: &Corpus, run: &WireRun) -> Result<(), Error> {
    let mut by_concept: HashMap<u32, &SessionRecord> = HashMap::new();
    for record in run.sessions.iter().flatten() {
        if record.shown.len() != workload.images_per_session() {
            return Err(Error::Incorrect(format!(
                "a session for concept {} showed {} images, not {}",
                record.query.concept,
                record.shown.len(),
                workload.images_per_session()
            )));
        }
        let first = by_concept.entry(record.query.concept).or_insert(record);
        if first.shown != record.shown {
            return Err(Error::Incorrect(format!(
                "two sessions for concept {} showed different images",
                record.query.concept
            )));
        }
    }

    let reference = SearchService::new(corpus.built.clone(), corpus.dataset.clone());
    for record in run.sessions.iter().filter_map(|client| client.first()) {
        let mut discarded = Samples::default();
        let replayed = run_session(
            &mut InProcess(&reference),
            workload,
            &corpus.dataset,
            record.query,
            &mut Tally::default(),
            &mut Recorder {
                samples: &mut discarded,
                until: None,
            },
        )?;
        if replayed != record.shown {
            return Err(Error::Incorrect(format!(
                "the session for concept {} over the wire differs from its in-process replay",
                record.query.concept
            )));
        }
    }
    Ok(())
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Run `workload` end to end: set up [`SETUP_REPS`] times or more,
/// measure for `seconds` starting with the last set-up's child, check
/// the outputs. Every round and first-batch timing is the median over
/// the measured cycles of the cycle's own statistic; every child
/// started, in set-up or in a cycle, is a cold start.
pub fn run(exe: &Path, workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, Error> {
    let mut setup_s = Vec::new();
    let mut cold_ms = Vec::new();
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut prepared = set_up(exe, workload)?;
    loop {
        setup_s.push(prepared.setup_s);
        cold_ms.push(prepared.cold_start_ms);
        let reps = setup_s.len();
        let spent = started.elapsed().as_secs_f64();
        if reps >= SETUP_REPS_MAX || (reps >= SETUP_REPS && spent >= SETUP_BUDGET_S) {
            break;
        }
        tally.add(prepared.sent);
        finish_child(prepared.child, prepared.sent)?;
        // Free the previous index and its file before building again.
        drop(prepared.corpus);
        prepared = set_up(exe, workload)?;
    }

    let Prepared {
        corpus,
        child,
        sent,
        ..
    } = prepared;
    let plan = SessionPlan::new(seed, corpus.dataset.queries().len(), workload.ap_sessions);
    let run = measure(exe, workload, &corpus, child, sent, &plan, seconds)?;
    check_outputs(workload, &corpus, &run)?;
    tally.add(run.tally);
    cold_ms.extend_from_slice(&run.cold_start_ms);
    let rss: Vec<f64> = run.peak_rss_bytes.iter().map(|&b| b as f64 / MIB).collect();

    let per_cycle: Vec<String> = run
        .cycles
        .iter()
        .map(|c| {
            format!(
                "{:.4}/{:.4}",
                quantile(&c.samples.round_ms, 0.5),
                quantile(&c.samples.round_ms, 0.9)
            )
        })
        .collect();
    eprintln!(
        "[benchmark] {} round p50/p90 ms per cycle: {}",
        workload.name,
        per_cycle.join(" ")
    );
    let count = |of: fn(&Cycle) -> usize| run.cycles.iter().map(of).sum::<usize>();
    let rounds = count(|c| c.samples.round_ms.len());
    let metrics = vec![
        metric("setup_s", quantile(&setup_s, 0.5), "s", setup_s.len()),
        metric(
            "round_p50_ms",
            run.over_cycles(|c| quantile(&c.samples.round_ms, 0.5)),
            "ms",
            rounds,
        ),
        metric(
            "round_p90_ms",
            run.over_cycles(|c| quantile(&c.samples.round_ms, 0.9)),
            "ms",
            rounds,
        ),
        metric(
            "rounds_per_s",
            run.over_cycles(Cycle::rounds_per_s),
            "1/s",
            rounds,
        ),
        metric(
            "first_batch_p50_ms",
            run.over_cycles(|c| quantile(&c.samples.first_batch_ms, 0.5)),
            "ms",
            count(|c| c.samples.first_batch_ms.len()),
        ),
        metric(
            "cold_start_p50_ms",
            quantile(&cold_ms, 0.5),
            "ms",
            cold_ms.len(),
        ),
        metric("rss_mib", quantile(&rss, 0.5), "MiB", rss.len()),
        metric("index_file_mib", corpus.file_bytes as f64 / MIB, "MiB", 1),
        metric(
            "mean_ap",
            mean_ap(workload, &corpus.dataset, &run),
            "ap",
            workload.ap_sessions * run.sessions.len(),
        ),
    ];
    Ok(Outcome {
        workload: workload.name,
        traced: false,
        tally,
        metrics,
    })
}
