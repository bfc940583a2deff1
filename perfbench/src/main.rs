//! End-to-end and per-layer benchmark of the TELS pipeline.
//!
//! ```text
//! perfbench --workload <big_oneshot|wide_psi9|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures for the given
//! number of seconds, checks every output, and prints one JSON result as
//! the last line of standard output: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). Traced runs
//! also write their spans to `out/` next to this crate's manifest. See
//! README.md for the workloads and the metric vocabulary.

mod layers;
mod oneshot;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use crate::layers::{result_line, END_TO_END, PER_LAYER};
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::Tracer;

/// Set-ups per run: at least `SETUP_MIN_REPS`, repeated until they have
/// taken `SETUP_MIN_TOTAL_S` in all or `SETUP_MAX_REPS` have run.
/// `setup_s` is their median, so a set-up of a few ms is still the median
/// of many samples.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_TOTAL_S: f64 = 1.0;
/// Distinct circuits in `wide_psi9`. Their latencies differ by up to 25×:
/// this many fill the latency distribution, and an odd count puts the
/// median job inside one circuit's spread rather than in a gap between two.
const WIDE_CIRCUITS: usize = 31;

/// Correctness bookkeeping for one run: every attempted job, every
/// failure, and the first output of each distinct input, which every
/// later output of that input must repeat byte for byte.
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    first: Vec<Option<(String, [u64; 3])>>,
}

impl Checks {
    pub fn new(distinct: usize) -> Checks {
        Checks {
            attempted: 0,
            failed: 0,
            first: vec![None; distinct],
        }
    }

    pub fn fail(&mut self, msg: &str) {
        eprintln!("perfbench: FAILED: {msg}");
        self.failed += 1;
    }

    /// Records input `i`'s first `.tnet` and quality, or checks a later
    /// one against it. Returns whether the output is consistent.
    pub fn same_output(&mut self, i: usize, name: &str, tnet: &str, quality: [u64; 3]) -> bool {
        match &self.first[i] {
            None => {
                self.first[i] = Some((tnet.to_string(), quality));
                true
            }
            Some((t, q)) if t == tnet && *q == quality => true,
            Some(_) => {
                self.fail(&format!(
                    "{name}: output differs from an earlier run of the same input"
                ));
                false
            }
        }
    }

    /// `gates`, `levels` and `area`, each summed over one pass of the
    /// distinct inputs.
    pub fn quality_metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        for (k, name) in ["gates", "levels", "area"].into_iter().enumerate() {
            let sum: u64 = self.first.iter().flatten().map(|(_, q)| q[k]).sum();
            out.insert(name, sum as f64);
        }
    }

    /// The run's result: correct when no job failed and every distinct
    /// input produced an output.
    pub fn outcome(self, metrics: BTreeMap<&'static str, f64>) -> Outcome {
        Outcome {
            correct: self.failed == 0 && self.first.iter().all(Option::is_some),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Job latency percentiles and throughput of an untraced window.
pub fn latency_metrics(out: &mut BTreeMap<&'static str, f64>, latencies_ms: &[f64], wall_s: f64) {
    out.insert("job_p50_ms", median(latencies_ms));
    out.insert("job_p90_ms", percentile(latencies_ms, 90.0));
    out.insert("job_p99_ms", percentile(latencies_ms, 99.0));
    out.insert("jobs_per_s", latencies_ms.len() as f64 / wall_s);
    eprintln!(
        "perfbench: {} jobs in {wall_s:.2} s (p90 has {} samples beyond it, p99 {})",
        latencies_ms.len(),
        latencies_ms.len() - (0.9 * latencies_ms.len() as f64).ceil() as usize,
        latencies_ms.len() - (0.99 * latencies_ms.len() as f64).ceil() as usize,
    );
}

/// Prints each layer's share of the mean job time to standard error.
pub fn print_shares(job_ms: f64, shares: &[(&str, f64)]) {
    eprintln!("perfbench: mean traced job {job_ms:.3} ms; layer self-time shares:");
    for (layer, ms) in shares {
        eprintln!("  {layer:<36} {ms:>12.3} ms {:>7.2}%", ms / job_ms * 100.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `setup` repeatedly (see `SETUP_MIN_REPS`), handing all but the
/// last result to `teardown` outside the timed region; returns the last
/// result and the median set-up time in seconds.
fn timed_setup<T>(mut setup: impl FnMut(usize) -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_TOTAL_S && times.len() < SETUP_MAX_REPS)
    {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(setup(times.len()));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

fn run(args: &Args, tr: &mut Tracer) -> Result<(Outcome, f64), String> {
    Ok(match args.workload.as_str() {
        "big_oneshot" | "wide_psi9" => {
            let big = args.workload == "big_oneshot";
            let (circuits, setup_s) = timed_setup(
                |_| {
                    tels_core::prewarm_tier0();
                    if big {
                        oneshot::big_circuits()
                    } else {
                        oneshot::wide_circuits(WIDE_CIRCUITS)
                    }
                },
                drop,
            );
            let outcome = oneshot::run(&circuits, args.seed, args.seconds, tr);
            (outcome, setup_s)
        }
        "serve_mixed" => {
            let mut stop_error = Ok(());
            let (setup, setup_s) = timed_setup(serve::setup, |prev| {
                if let Err(e) = prev.and_then(|s| s.daemon.stop()) {
                    stop_error = Err(e);
                }
            });
            stop_error?;
            let outcome = serve::run(setup?, args.seed, args.seconds, tr);
            (outcome, setup_s)
        }
        other => return Err(format!("unknown workload {other}")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <big_oneshot|wide_psi9|serve_mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(args.trace, Instant::now());
    let (mut outcome, setup_s) = match run(&args, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        PER_LAYER
    } else {
        outcome.metrics.insert("setup_s", setup_s);
        outcome.metrics.insert("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            names,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
