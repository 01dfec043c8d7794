//! Command line of the benchmark.
//!
//! ```text
//! seesaw-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last line of standard output is
//!     the result object the driver reads
//! seesaw-benchmark [--seed N] [--seconds S]
//!     every workload, end to end and traced; prints every metric
//! seesaw-benchmark repeat [--seed N] [--seconds S]
//!     two sets of runs of this build; exits non-zero when the medians
//!     of an end-to-end metric differ by more than its bound
//! seesaw-benchmark manifest
//!     prints BENCHMARK.json
//! ```
//!
//! `--tiny` shrinks every workload to test size. `serve` is the hidden
//! sub-command the server child runs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use seesaw_benchmark::corpus::out_dir;
use seesaw_benchmark::report::{outcome_json, Outcome, Stamp};
use seesaw_benchmark::spec::{self, Better, Workload, END_TO_END};
use seesaw_benchmark::{child, endtoend, traced, Error};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
}

fn parse(args: &[String]) -> Result<Args, Error> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| Error::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| Error::Usage("--seed takes a whole number".into()))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| Error::Usage("--seconds takes a positive number".into()))?
            }
            "--trace" => {
                parsed.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(Error::Usage("--trace takes 0 or 1".into())),
                }
            }
            "--tiny" => parsed.tiny = true,
            "repeat" | "manifest" if parsed.command.is_none() => parsed.command = Some(arg.clone()),
            other => return Err(Error::Usage(format!("unknown argument {other}"))),
        }
    }
    Ok(parsed)
}

fn sized(workload: Workload, tiny: bool) -> Workload {
    if tiny {
        workload.tiny()
    } else {
        workload
    }
}

/// One run of one workload, its stamped result written under
/// `benchmark/out/`.
fn run_one(
    exe: &Path,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    stamp: &Stamp,
) -> Result<Outcome, Error> {
    let outcome = if traced {
        traced::run(exe, workload, seed, seconds)?
    } else {
        endtoend::run(exe, workload, seed, seconds)?
    };
    std::fs::create_dir_all(out_dir())?;
    let file = out_dir().join(format!(
        "{}-{}.json",
        workload.name,
        if traced { "traced" } else { "endtoend" }
    ));
    std::fs::write(file, outcome_json(&outcome, workload, stamp, seed) + "\n")?;
    println!("{}", outcome.table());
    Ok(outcome)
}

/// Every workload, end to end and traced, printed as it completes.
fn run_all(exe: &Path, args: &Args, stamp: &Stamp) -> Result<(), Error> {
    for workload in spec::workloads() {
        let workload = sized(workload, args.tiny);
        for traced in [false, true] {
            run_one(exe, &workload, args.seed, args.seconds, traced, stamp)?;
        }
    }
    Ok(())
}

/// End-to-end runs per workload in each of `repeat`'s two sets.
const REPEAT_RUNS: u64 = 3;

/// Two sets of runs of this one build, held against the bounds: per
/// workload [`REPEAT_RUNS`] end-to-end runs (seeds `seed`, `seed + 1`,
/// …) and one traced run in each set, the sets taking turns to go
/// first so that a drifting box slows both alike. An end-to-end metric
/// disagrees when the medians of the two sets differ by more than its
/// bound.
fn repeat(exe: &Path, args: &Args, stamp: &Stamp) -> Result<bool, Error> {
    let mut sets: [Vec<(Workload, u64, Outcome)>; 2] = [Vec::new(), Vec::new()];
    for workload in spec::workloads() {
        let workload = sized(workload, args.tiny);
        for run in 0..REPEAT_RUNS {
            let order = if run % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let seed = args.seed + run;
                let outcome = run_one(exe, &workload, seed, args.seconds, false, stamp)?;
                sets[set].push((workload.clone(), seed, outcome));
            }
        }
        for set in &mut sets {
            let outcome = run_one(exe, &workload, args.seed, args.seconds, true, stamp)?;
            set.push((workload.clone(), args.seed, outcome));
        }
    }
    for (set, file) in sets.iter().zip(["repeat-a.json", "repeat-b.json"]) {
        let runs: Vec<String> = set
            .iter()
            .map(|(workload, seed, outcome)| outcome_json(outcome, workload, stamp, *seed))
            .collect();
        std::fs::write(
            out_dir().join(file),
            format!("[\n{}\n]\n", runs.join(",\n")),
        )?;
    }

    println!("# repeat: medians of {REPEAT_RUNS} runs, second set against the first");
    let mut agree = true;
    for workload in spec::workloads() {
        for def in END_TO_END {
            let median = |set: &[(Workload, u64, Outcome)]| {
                let values: Vec<f64> = set
                    .iter()
                    .filter(|(w, _, o)| w.name == workload.name && !o.traced)
                    .filter_map(|(_, _, o)| o.metric(def.name))
                    .map(|m| m.value)
                    .collect();
                seesaw_metrics::median(&values)
            };
            let (a, b) = (median(&sets[0]), median(&sets[1]));
            let worse = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let within = worse.abs() <= def.bound;
            agree &= within;
            println!(
                "{:<12} {:<20} {:>12.4} {:>12.4} {:<5} {:>+8.2}% of ±{:.0}% {}",
                workload.name,
                def.name,
                a,
                b,
                def.unit,
                worse * 100.0,
                def.bound * 100.0,
                if within { "ok" } else { "DISAGREES" }
            );
        }
    }
    Ok(agree)
}

fn real_main() -> Result<ExitCode, Error> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        child::serve_main(&argv[1..])?;
        return Ok(ExitCode::SUCCESS);
    }
    let args = parse(&argv)?;
    if args.command.as_deref() == Some("manifest") {
        print!("{}", spec::manifest_json());
        return Ok(ExitCode::SUCCESS);
    }

    let exe: PathBuf = std::env::current_exe()?;
    let stamp = Stamp::collect(args.seconds, args.tiny);
    eprintln!("[benchmark] {}", stamp.line());

    if args.command.as_deref() == Some("repeat") {
        let agree = repeat(&exe, &args, &stamp)?;
        return Ok(if agree {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    match &args.workload {
        Some(name) => {
            let workload = spec::workload(name)
                .ok_or_else(|| Error::Usage(format!("unknown workload {name}")))?;
            let workload = sized(workload, args.tiny);
            let outcome = run_one(
                &exe,
                &workload,
                args.seed,
                args.seconds,
                args.traced,
                &stamp,
            )?;
            println!("{}", outcome.result_line());
        }
        None => run_all(&exe, &args, &stamp)?,
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("seesaw-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
