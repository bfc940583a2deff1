//! # tels-fuzz — differential fuzzing of the TELS synthesis pipeline
//!
//! The pipeline has four distinct answer paths for every threshold query
//! (tier-0 truth-table oracle, canonical cache, Theorem-1 refutation, tiered ILP)
//! plus tier, trace, metrics, and serve knobs that must all be
//! observationally identical. This crate cross-checks them:
//!
//! - [`gen`] draws small seeded random Boolean networks, over-sampling the
//!   degenerate shapes that reach the synthesizer's edge paths;
//! - [`oracle`] runs each case through every configuration pair that must
//!   agree (and through `map_one_to_one` and the source network), turning
//!   panics into ordinary failures;
//! - [`shrink`](mod@shrink) greedily minimizes any failing case to a locally minimal
//!   reproducer, which [`fuzz`] writes into a corpus directory as plain
//!   BLIF so `cargo test` can replay it forever after.
//!
//! ## Quickstart
//!
//! ```
//! use tels_fuzz::{fuzz, FuzzOptions};
//!
//! let report = fuzz(&FuzzOptions {
//!     cases: 25,
//!     seed: 1,
//!     ..FuzzOptions::default()
//! });
//! assert_eq!(report.cases, 25);
//! assert!(report.failures.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod shrink;

use std::path::{Path, PathBuf};

use tels_logic::rng::SplitMix64;
use tels_logic::{blif, Network};

pub use gen::{gen_case, GenOptions};
pub use oracle::{run_case, tn_to_network, Failure, FailureKind, OracleOptions};
pub use shrink::{shrink, ShrinkResult};

/// Options of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of cases to generate and check.
    pub cases: usize,
    /// Master seed; case seeds are an independent SplitMix64 stream of it.
    pub seed: u64,
    /// Generator bounds.
    pub gen: GenOptions,
    /// Oracle knobs (ψ, simulation depth).
    pub oracle: OracleOptions,
    /// Minimize failing cases before reporting them.
    pub shrink: bool,
    /// Bound on accepted shrink steps per failure.
    pub max_shrink_steps: usize,
    /// Write each (shrunk) failing case into this directory as BLIF.
    pub corpus_dir: Option<PathBuf>,
    /// Print a progress line to stderr every this many cases (0 = never).
    pub progress_every: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cases: 200,
            seed: 1,
            gen: GenOptions::default(),
            oracle: OracleOptions::default(),
            shrink: true,
            max_shrink_steps: 256,
            corpus_dir: None,
            progress_every: 0,
        }
    }
}

/// One failing case, as reported by [`fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The per-case seed (reproduce with [`gen_case`] and this seed).
    pub case_seed: u64,
    /// 0-based index of the case within the campaign.
    pub case_index: usize,
    /// The oracle leg that disagreed.
    pub kind: FailureKind,
    /// Human-readable description from the first failing leg.
    pub detail: String,
    /// The minimized network (the original when shrinking is off).
    pub network: Network,
    /// Where the reproducer was written, when a corpus dir was given.
    pub corpus_path: Option<PathBuf>,
}

/// Summary of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases actually run.
    pub cases: usize,
    /// All failing cases, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

/// Serializes a reproducer as BLIF with a provenance header.
///
/// The header lines are `#` comments, so the file replays through the
/// ordinary BLIF parser.
pub fn reproducer_blif(failure: &FuzzFailure) -> String {
    format!(
        "# tels-fuzz reproducer\n# case seed: {}\n# oracle leg: {}\n# detail: {}\n{}",
        failure.case_seed,
        failure.kind.tag(),
        failure.detail.replace('\n', " "),
        blif::write(&failure.network)
    )
}

/// Runs a fuzzing campaign.
///
/// Panics inside the pipeline are caught per oracle leg and reported as
/// failures; the default panic hook is suppressed for the duration of the
/// run so expected panics do not spray backtraces over the progress output.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = fuzz_inner(opts);
    std::panic::set_hook(prev_hook);
    report
}

fn fuzz_inner(opts: &FuzzOptions) -> FuzzReport {
    let mut seeds = SplitMix64::new(opts.seed);
    let mut failures = Vec::new();
    for case_index in 0..opts.cases {
        let case_seed = seeds.next_u64();
        if opts.progress_every > 0 && case_index % opts.progress_every == 0 && case_index > 0 {
            eprintln!(
                "tels-fuzz: {case_index}/{} cases, {} failure(s)",
                opts.cases,
                failures.len()
            );
        }
        let net = gen_case(case_seed, &opts.gen);
        let Err(failure) = run_case(&net, &opts.oracle) else {
            continue;
        };
        let network = if opts.shrink {
            shrink(&net, failure.kind, &opts.oracle, opts.max_shrink_steps).network
        } else {
            net
        };
        let mut entry = FuzzFailure {
            case_seed,
            case_index,
            kind: failure.kind,
            detail: failure.detail,
            network,
            corpus_path: None,
        };
        if let Some(dir) = &opts.corpus_dir {
            match write_reproducer(dir, &entry) {
                Ok(path) => entry.corpus_path = Some(path),
                Err(e) => eprintln!("tels-fuzz: cannot write reproducer: {e}"),
            }
        }
        failures.push(entry);
    }
    FuzzReport {
        cases: opts.cases,
        failures,
    }
}

fn write_reproducer(dir: &Path, failure: &FuzzFailure) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "fuzz-{}-{:016x}.blif",
        failure.kind.tag(),
        failure.case_seed
    ));
    std::fs::write(&path, reproducer_blif(failure))?;
    Ok(path)
}

/// Replays every `.blif` file in `dir` through the full oracle.
///
/// Returns the number of files replayed; the error carries every file
/// that failed with its failure description. A missing or empty directory
/// replays zero files successfully (an empty corpus is healthy).
///
/// # Errors
///
/// Returns a `(path, description)` list of unparsable or failing files.
pub fn replay_corpus(dir: &Path, oracle: &OracleOptions) -> Result<usize, Vec<(PathBuf, String)>> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "blif"))
            .collect(),
        Err(_) => return Ok(0),
    };
    paths.sort();
    let mut bad = Vec::new();
    let mut replayed = 0;
    for path in paths {
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) => {
                bad.push((path, format!("unreadable: {e}")));
                continue;
            }
        };
        let net = match blif::parse_reader(std::io::BufReader::new(file)) {
            Ok(n) => n,
            Err(e) => {
                bad.push((path, format!("unparsable: {e}")));
                continue;
            }
        };
        replayed += 1;
        if let Err(f) = run_case(&net, oracle) {
            bad.push((path, format!("{:?} leg: {}", f.kind, f.detail)));
        }
    }
    if bad.is_empty() {
        Ok(replayed)
    } else {
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic() {
        let opts = FuzzOptions {
            cases: 10,
            seed: 7,
            shrink: false,
            ..FuzzOptions::default()
        };
        let a = fuzz(&opts);
        let b = fuzz(&opts);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn replay_of_missing_dir_is_empty_success() {
        let r = replay_corpus(
            Path::new("/definitely/not/a/dir"),
            &OracleOptions::default(),
        );
        assert_eq!(r.unwrap(), 0);
    }

    #[test]
    fn reproducer_blif_round_trips() {
        let failure = FuzzFailure {
            case_seed: 0xdead_beef,
            case_index: 0,
            kind: FailureKind::SynthEquiv,
            detail: "example\nwith newline".into(),
            network: gen_case(3, &GenOptions::default()),
            corpus_path: None,
        };
        let text = reproducer_blif(&failure);
        let net = blif::parse(&text).unwrap();
        assert_eq!(net.num_inputs(), failure.network.num_inputs());
    }
}
