//! Results: named metrics with units, the one-line JSON object the
//! driver reads, and the stamp that says where a result came from so
//! runs on different boxes are never compared silently.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::script::Tally;
use crate::spec::{Workload, CLIENTS, CYCLES, SETUP_REPS};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single reading).
    pub samples: usize,
}

/// The result of one run of one workload. There is no result for a
/// run whose outputs were wrong or whose requests failed — that run
/// ends in an [`crate::Error`] — so an `Outcome` is always a correct one.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The last line of a driver run's standard output.
    pub fn result_line(&self) -> String {
        let cells: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            cells.join(", ")
        )
    }

    /// Every metric by name with its unit and sample count, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} ({}): correct=true attempted={} failed={}",
            self.workload,
            if self.traced {
                "traced, per layer"
            } else {
                "end to end"
            },
            self.tally.attempted,
            self.tally.failed
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<42} {:>16.4} {:<7} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }
}

/// A JSON number with every digit of the measurement.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Where and on what a result was produced.
#[derive(Clone, Debug)]
pub struct Stamp {
    pub available_parallelism: usize,
    pub simd_tier: &'static str,
    pub git_commit: String,
    pub rustc: String,
    pub seconds: f64,
    pub tiny: bool,
}

impl Stamp {
    pub fn collect(seconds: f64, tiny: bool) -> Self {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let run = |program: &str, args: &[&str], ceiling: Option<&Path>| -> String {
            let mut command = Command::new(program);
            command.args(args);
            if let Some(dir) = ceiling {
                // Look for a repository here and no further up.
                command.env("GIT_CEILING_DIRECTORIES", dir);
            }
            command
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        let repo_str = repo.to_string_lossy().to_string();
        Self {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd_tier: seesaw_linalg::simd::active_tier().name(),
            git_commit: run(
                "git",
                &["-C", &repo_str, "rev-parse", "HEAD"],
                repo.canonicalize().ok().as_deref().and_then(Path::parent),
            ),
            rustc: run("rustc", &["-V"], None),
            seconds,
            tiny,
        }
    }

    /// The stamp, the seed and the resolved sizes of `workload` as JSON
    /// members (no surrounding braces).
    pub fn json_members(&self, workload: &Workload, seed: u64) -> String {
        format!(
            "\"available_parallelism\": {}, \"simd_tier\": \"{}\", \"git_commit\": \"{}\", \
             \"rustc\": \"{}\", \"seed\": {}, \"sizes\": {{\"seconds\": {}, \"tiny\": {}, \
             \"clients\": {}, \"setup_reps_min\": {}, \"cycles\": \"{}\", \"scale\": {}, \"batch\": {}, \
             \"batches_per_session\": {}, \"ap_sessions_per_client\": {}, \"idle_sessions\": {}}}",
            self.available_parallelism,
            self.simd_tier,
            self.git_commit,
            self.rustc,
            seed,
            json_number(self.seconds),
            self.tiny,
            CLIENTS,
            SETUP_REPS,
            workload.restart.map_or_else(
                || format!("{CYCLES} windows"),
                |n| format!("of {n} sessions per client")
            ),
            workload.scale,
            workload.batch,
            workload.batches,
            workload.ap_sessions,
            workload.idle_sessions
        )
    }

    pub fn line(&self) -> String {
        format!(
            "cores={} simd={} commit={} rustc=\"{}\" seconds={} tiny={}",
            self.available_parallelism,
            self.simd_tier,
            self.git_commit,
            self.rustc,
            self.seconds,
            self.tiny
        )
    }
}

/// One stamped result as a JSON object.
pub fn outcome_json(outcome: &Outcome, workload: &Workload, stamp: &Stamp, seed: u64) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"traced\": {}, {},\n  \"correct\": true, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {{\n{}\n  }}}}",
        outcome.workload,
        outcome.traced,
        stamp.json_members(workload, seed),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(",\n")
    )
}
