//! Attack-job benchmark for the mlam workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's job set from the seed (the set-up, timed),
//! then runs the whole set in a closed loop, one job at a time, and
//! repeats both, round after round, for about `--seconds`. Every job's
//! output is checked after it finishes, outside the timed interval.
//! The last line of stdout is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `README.md` for the workloads and metrics.

mod report;
mod stats;
mod trace;
mod verify;
mod workloads;

use report::{Env, Metrics, Round};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Job, Workload};

/// Set-up time one sample accumulates. A sample rebuilds the job set
/// until this much has been spent building and reports the mean per
/// set, so a set-up of tens of microseconds is timed well above timer
/// and allocator noise.
const SETUP_SAMPLE_S: f64 = 0.02;

const USAGE: &str = "usage: perfbench --workload <sat-sarlock|sat-xorlock|puf-learn|br-tester> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The command line.
#[derive(Debug, PartialEq)]
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds ≤ 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one round: every job once, in order. A job's time excludes its
/// check; a panicking job is caught and counted as failed.
fn run_round(jobs: &[Job], tracer: &mut Tracer) -> Round {
    let traced = tracer.enabled();
    let first_span = tracer.spans().len();
    let mut round = Round::new(traced);
    for (i, job) in jobs.iter().enumerate() {
        tracer.begin_job(i as u32);
        let start = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(tracer)));
        let end = Instant::now();
        tracer.end_job(start, end);
        round.job_s.push((end - start).as_secs_f64());
        match result {
            Ok(outcome) => {
                if let Err(e) = job.verify(&outcome) {
                    round.failures.push(format!("job {i}: {e}"));
                }
                for (name, v) in outcome.counts {
                    *round.counts.entry(name).or_default() += v;
                }
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                round.failures.push(format!("job {i} panicked: {msg}"));
            }
        }
    }
    round.spans = first_span..tracer.spans().len();
    round
}

/// Rebuilds the workload's job set into `jobs` and returns one set-up
/// sample: the mean time to build one set. Only building is timed: the
/// old set is freed before the clock starts, so one set is alive at a
/// time.
fn timed_setup(workload: Workload, seed: u64, jobs: &mut Vec<Job>) -> f64 {
    let (mut spent, mut built) = (0.0, 0usize);
    while spent < SETUP_SAMPLE_S {
        drop(std::mem::take(jobs));
        let start = Instant::now();
        let set = std::hint::black_box(workload.setup(seed));
        spent += start.elapsed().as_secs_f64();
        built += 1;
        *jobs = set;
    }
    spent / built as f64
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = match Env::detect() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    // Closed loop over whole rounds until the next round would end past
    // the deadline. Each round runs on a freshly built job set, and that
    // build is one set-up sample: the host's speed drifts over tens of
    // seconds, so `setup_s` is sampled across the same stretch of time
    // as the rounds. The traced run alternates plain and traced rounds,
    // so the tracing overhead is measured in the same process.
    let mut tracer = Tracer::new(false);
    let mut jobs = Vec::new();
    let mut setup_s = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    let mut longest = 0.0f64;
    loop {
        let round_start = Instant::now();
        setup_s.push(timed_setup(args.workload, args.seed, &mut jobs));
        tracer.set_enabled(args.trace && rounds.len() % 2 == 1);
        rounds.push(run_round(&jobs, &mut tracer));
        longest = longest.max(round_start.elapsed().as_secs_f64());
        let have_both = !args.trace || rounds.len() >= 2;
        if have_both && start.elapsed().as_secs_f64() + longest > args.seconds {
            break;
        }
    }

    let mut metrics = Metrics::new(&env, &args, &jobs, &rounds, &setup_s, tracer.spans());
    metrics.write_files(args.trace.then(|| tracer.spans()));
    for f in &metrics.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("{}", metrics.meta);
    println!("{}", metrics.result_json(args.trace));
    if metrics.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload br-tester --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::BrTester,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload puf-learn --seed -1 --seconds 1 --trace 0",
            "--workload puf-learn --seed 1 --seconds 0 --trace 0",
            "--workload puf-learn --seed 1 --seconds 1 --trace 2",
            "--workload puf-learn --seed 1 --seconds 1",
            "--workload puf-learn --seed",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
