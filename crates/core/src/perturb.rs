//! Parametric weight-variation analysis (§VI-C, Figs. 11 and 12).
//!
//! Each fabricated instance of a threshold network is modeled by disturbing
//! every input weight once — `w′ = w + v·U(−0.5, 0.5)` — and simulating the
//! disturbed network against the Boolean specification. The instance *fails*
//! if any input vector produces a wrong output. Larger synthesis margins
//! (δ_on) buy robustness at the cost of area, which is the paper's Fig. 12
//! trade-off.
//!
//! The Monte-Carlo loop runs on the word-parallel [`EvalPlan`] engine: the
//! Boolean reference is simulated **once** per configuration with the
//! packed [`sim::simulate`], then every disturbed instance streams through
//! the packed disturbed evaluator 64 vectors at a time, early-exiting on
//! the first mismatching word. Trials are distributed across the
//! work-stealing [`Scheduler`](crate::sched::Scheduler) with per-trial
//! derived RNG seeds, so the failure verdict of trial *t* depends only on
//! `(options.seed, t)` — results are bit-identical at any thread count.
//! [`failure_rate_scalar`] keeps the pre-engine per-row scalar evaluation
//! alive under the same seeding scheme as an A/B reference.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use tels_logic::rng::{SplitMix64, Xoshiro256};
use tels_logic::{sim, Network};

use crate::error::SynthError;
use crate::eval::{interface_perms, pattern_set, EvalPlan, EvalScratch};
use crate::sched::{DepGraph, Scheduler};
use crate::tnet::ThresholdNetwork;

/// Disturbed weights for every node, indexed by [`TnId::index`]. Inputs
/// (and any node left empty or beyond the length) use nominal weights.
///
/// [`TnId::index`]: crate::tnet::TnId::index
pub type Disturbance = Vec<Vec<f64>>;

/// Monte-Carlo settings for [`failure_rate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbOptions {
    /// The variation multiplier `v` of `w′ = w + v·U(−0.5, 0.5)`.
    pub variation: f64,
    /// Number of fabricated instances to draw.
    pub trials: usize,
    /// Use exhaustive input vectors when the input count is at most this.
    pub exhaustive_limit: u32,
    /// Number of random input vectors beyond the exhaustive limit.
    pub vectors: usize,
    /// RNG seed. Each trial derives its own weight-draw stream from
    /// `(seed, trial)`, and the input-vector set derives from `seed`, so
    /// results are independent of thread count and trial order.
    pub seed: u64,
    /// Worker threads for the trial loop (≤ 1 runs serially).
    pub threads: usize,
}

impl Default for PerturbOptions {
    fn default() -> Self {
        PerturbOptions {
            variation: 0.4,
            trials: 50,
            exhaustive_limit: 12,
            vectors: 512,
            seed: 0xde5ec7,
            threads: 1,
        }
    }
}

/// The derived seed for trial `trial` under master seed `seed`. The
/// pattern-set stream uses the reserved index [`PATTERN_STREAM`].
fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Reserved stream index for the input-vector draw (trial indices are
/// `usize` counters and never reach it).
const PATTERN_STREAM: u64 = u64::MAX;

/// Draws one disturbed-weight assignment for every gate of the network
/// into `out`, reusing its allocations. Inputs get empty entries.
pub fn draw_disturbance_into(
    tn: &ThresholdNetwork,
    variation: f64,
    rng: &mut Xoshiro256,
    out: &mut Disturbance,
) {
    let nodes = tn.node_ids().count();
    out.resize(nodes, Vec::new());
    for id in tn.node_ids() {
        let entry = &mut out[id.index()];
        entry.clear();
        if let Some(g) = tn.gate(id) {
            entry.extend(
                g.weights
                    .iter()
                    .map(|&w| w as f64 + variation * (rng.gen_f64() - 0.5)),
            );
        }
    }
}

/// Draws one disturbed-weight assignment for every gate of the network.
pub fn draw_disturbance(
    tn: &ThresholdNetwork,
    variation: f64,
    rng: &mut Xoshiro256,
) -> Disturbance {
    let mut out = Disturbance::new();
    draw_disturbance_into(tn, variation, rng, &mut out);
    out
}

/// Prepared state for repeated disturbed-instance checks of one
/// `(threshold network, reference)` configuration: interface permutations
/// resolved once, input-vector set materialized once, and the reference
/// simulated once — only the disturbed evaluation runs per trial.
pub struct PerturbContext {
    plan: EvalPlan,
    /// Packed pattern streams, in the *reference's* input order.
    patterns: Vec<Vec<u64>>,
    /// `my_perm[j]` = reference input index feeding tn input `j`.
    my_perm: Vec<usize>,
    /// `out_perm[oi]` = tn output position of reference output `oi`.
    out_perm: Vec<usize>,
    /// Reference output streams, in reference output order.
    ref_out: Vec<Vec<u64>>,
    words: usize,
    /// Valid-lane mask for the final (possibly partial) word.
    tail_mask: u64,
    valid_rows: usize,
    n_inputs: usize,
    variation: f64,
    seed: u64,
}

impl PerturbContext {
    /// Builds the context: resolves interfaces, materializes the pattern
    /// set (exhaustive or seeded-random per `options`), and simulates the
    /// reference once.
    ///
    /// # Errors
    ///
    /// Returns an error if the network interfaces mismatch.
    pub fn new(
        tn: &ThresholdNetwork,
        reference: &Network,
        options: &PerturbOptions,
    ) -> Result<PerturbContext, SynthError> {
        let (my_perm, out_perm) = interface_perms(tn, reference)?;
        let n = reference.inputs().len();
        let (patterns, valid_rows) = pattern_set(
            n,
            options.exhaustive_limit,
            options.vectors,
            derive_seed(options.seed, PATTERN_STREAM),
        );
        let ref_out = if n == 0 {
            // No streams to simulate: store the reference's constant
            // outputs as one-bit streams for the empty-assignment check.
            reference
                .eval(&[])?
                .into_iter()
                .map(|v| vec![u64::from(v)])
                .collect()
        } else {
            sim::simulate(reference, &patterns)?
        };
        let words = patterns.first().map_or(0, Vec::len);
        let tail_bits = valid_rows - (words.saturating_sub(1)) * 64;
        let tail_mask = if tail_bits >= 64 {
            !0u64
        } else {
            (1u64 << tail_bits) - 1
        };
        Ok(PerturbContext {
            plan: EvalPlan::new(tn),
            patterns,
            my_perm,
            out_perm,
            ref_out,
            words,
            tail_mask,
            valid_rows,
            n_inputs: n,
            variation: options.variation,
            seed: options.seed,
        })
    }

    /// Allocates an evaluation scratch for this context's plan.
    pub fn scratch(&self) -> EvalScratch {
        self.plan.scratch()
    }

    /// Whether one disturbed instance computes a wrong value on any
    /// simulated input vector (packed, early-exit per 64-vector word).
    pub fn instance_fails(&self, disturbed: &[Vec<f64>], scratch: &mut EvalScratch) -> bool {
        if self.n_inputs == 0 {
            return self.empty_assignment_fails(disturbed, scratch);
        }
        for w in 0..self.words {
            let mask = if w + 1 == self.words {
                self.tail_mask
            } else {
                !0u64
            };
            let out = self.plan.eval_word_disturbed_with(
                |j| self.patterns[self.my_perm[j]][w],
                disturbed,
                scratch,
            );
            for (oi, r) in self.ref_out.iter().enumerate() {
                if (r[w] ^ out[self.out_perm[oi]]) & mask != 0 {
                    return true;
                }
            }
        }
        false
    }

    /// Zero-input networks have no packed streams; compare the single
    /// empty assignment (the reference value is a constant, but disturbed
    /// gates above constant gates can still flip).
    fn empty_assignment_fails(&self, disturbed: &[Vec<f64>], scratch: &mut EvalScratch) -> bool {
        let got = self.plan.eval_word_disturbed(&[], disturbed, scratch);
        self.ref_out
            .iter()
            .enumerate()
            .any(|(oi, r)| (r[0] ^ got[self.out_perm[oi]]) & 1 != 0)
    }

    /// Runs trial `trial`: derives its seed, draws the disturbance into
    /// `dist` (reusing allocations), and checks the instance packed.
    pub fn trial_fails(
        &self,
        tn: &ThresholdNetwork,
        trial: u64,
        dist: &mut Disturbance,
        scratch: &mut EvalScratch,
    ) -> bool {
        let mut rng = Xoshiro256::seed_from_u64(derive_seed(self.seed, trial));
        draw_disturbance_into(tn, self.variation, &mut rng, dist);
        let failed = self.instance_fails(dist, scratch);
        tels_metrics::instruments::PERTURB_TRIALS.inc();
        failed
    }

    /// The scalar A/B twin of [`trial_fails`](Self::trial_fails): identical
    /// seed derivation and disturbance draw, but every row goes through
    /// `reference.eval` and `tn.eval_disturbed` one assignment at a time —
    /// the pre-engine evaluation path.
    ///
    /// # Errors
    ///
    /// Returns an error if evaluation fails (malformed networks).
    pub fn trial_fails_scalar(
        &self,
        tn: &ThresholdNetwork,
        reference: &Network,
        trial: u64,
        dist: &mut Disturbance,
    ) -> Result<bool, SynthError> {
        let mut rng = Xoshiro256::seed_from_u64(derive_seed(self.seed, trial));
        draw_disturbance_into(tn, self.variation, &mut rng, dist);
        let n = self.n_inputs;
        let rows = if n == 0 { 1 } else { self.valid_rows };
        for row in 0..rows {
            let (w, b) = (row / 64, row % 64);
            let assign: Vec<bool> = (0..n).map(|i| self.patterns[i][w] >> b & 1 != 0).collect();
            let expect = reference.eval(&assign)?;
            let my_assign: Vec<bool> = self.my_perm.iter().map(|&i| assign[i]).collect();
            let got = tn.eval_disturbed(&my_assign, dist)?;
            for (oi, &e) in expect.iter().enumerate() {
                if e != got[self.out_perm[oi]] {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

/// The fraction of disturbed instances (over `options.trials`) that compute
/// a wrong value on at least one simulated vector.
///
/// Runs on the packed engine; with `options.threads > 1` the trials are
/// distributed over the work-stealing scheduler. Per-trial derived seeds
/// make the result identical at every thread count.
///
/// # Errors
///
/// Returns an error if the network interfaces mismatch.
pub fn failure_rate(
    tn: &ThresholdNetwork,
    reference: &Network,
    options: &PerturbOptions,
) -> Result<f64, SynthError> {
    let mut span = tels_trace::span("core", "failure_rate");
    let ctx = PerturbContext::new(tn, reference, options)?;
    if options.trials == 0 {
        return Ok(0.0);
    }
    let threads = options.threads.max(1).min(options.trials);
    span.arg("trials", options.trials as u64);
    span.arg("threads", threads as u64);
    let failures = if threads <= 1 {
        let mut scratch = ctx.scratch();
        let mut dist = Disturbance::new();
        (0..options.trials)
            .filter(|&t| ctx.trial_fails(tn, t as u64, &mut dist, &mut scratch))
            .count()
    } else {
        let failed: Vec<AtomicBool> = (0..options.trials)
            .map(|_| AtomicBool::new(false))
            .collect();
        let states: Vec<Mutex<(Disturbance, EvalScratch)>> = (0..threads)
            .map(|_| Mutex::new((Disturbance::new(), ctx.scratch())))
            .collect();
        Scheduler::new(DepGraph::new(options.trials)).run(threads, |worker, task| {
            let mut state = states[worker].lock().expect("perturb worker state");
            let (dist, scratch) = &mut *state;
            if ctx.trial_fails(tn, task as u64, dist, scratch) {
                failed[task as usize].store(true, Ordering::Relaxed);
            }
        });
        failed.iter().filter(|f| f.load(Ordering::Relaxed)).count()
    };
    span.arg("failures", failures as u64);
    Ok(failures as f64 / options.trials as f64)
}

/// Scalar reference implementation of [`failure_rate`]: same seeding, same
/// pattern set, same trial decomposition, but each row is evaluated one
/// assignment at a time through `Network::eval` and
/// `ThresholdNetwork::eval_disturbed` (the pre-engine path). Kept for
/// regression tests and the bench's packed-vs-scalar A/B; always serial.
///
/// # Errors
///
/// Returns an error if the network interfaces mismatch.
pub fn failure_rate_scalar(
    tn: &ThresholdNetwork,
    reference: &Network,
    options: &PerturbOptions,
) -> Result<f64, SynthError> {
    let ctx = PerturbContext::new(tn, reference, options)?;
    if options.trials == 0 {
        return Ok(0.0);
    }
    let mut dist = Disturbance::new();
    let mut failures = 0usize;
    for t in 0..options.trials {
        if ctx.trial_fails_scalar(tn, reference, t as u64, &mut dist)? {
            failures += 1;
        }
    }
    Ok(failures as f64 / options.trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelsConfig;
    use crate::synth::synthesize;
    use tels_logic::blif;

    const SRC: &str =
        ".model m\n.inputs a b c d\n.outputs f\n.names a b c d f\n11-- 1\n--11 1\n.end\n";

    #[test]
    fn zero_variation_never_fails() {
        let net = blif::parse(SRC).unwrap();
        let tn = synthesize(&net, &TelsConfig::default()).unwrap();
        let opts = PerturbOptions {
            variation: 0.0,
            trials: 10,
            ..PerturbOptions::default()
        };
        assert_eq!(failure_rate(&tn, &net, &opts).unwrap(), 0.0);
    }

    #[test]
    fn huge_variation_always_fails() {
        let net = blif::parse(SRC).unwrap();
        let tn = synthesize(&net, &TelsConfig::default()).unwrap();
        let opts = PerturbOptions {
            variation: 50.0,
            trials: 20,
            seed: 3,
            ..PerturbOptions::default()
        };
        assert!(failure_rate(&tn, &net, &opts).unwrap() > 0.5);
    }

    #[test]
    fn delta_on_improves_robustness() {
        // Fig. 11's trend: larger δ_on ⇒ lower failure rate at a fixed v.
        let net = blif::parse(SRC).unwrap();
        let tight = synthesize(&net, &TelsConfig::default()).unwrap();
        let robust = synthesize(
            &net,
            &TelsConfig {
                delta_on: 3,
                ..TelsConfig::default()
            },
        )
        .unwrap();
        let opts = PerturbOptions {
            variation: 1.2,
            trials: 120,
            seed: 11,
            ..PerturbOptions::default()
        };
        let fr_tight = failure_rate(&tight, &net, &opts).unwrap();
        let fr_robust = failure_rate(&robust, &net, &opts).unwrap();
        assert!(
            fr_robust <= fr_tight,
            "δ_on=3 ({fr_robust}) should not fail more than δ_on=0 ({fr_tight})"
        );
        // Fig. 12's other axis: robustness costs area.
        assert!(robust.area() >= tight.area());
    }

    #[test]
    fn disturbance_draw_is_seeded() {
        let net = blif::parse(SRC).unwrap();
        let tn = synthesize(&net, &TelsConfig::default()).unwrap();
        let mut rng1 = Xoshiro256::seed_from_u64(9);
        let mut rng2 = Xoshiro256::seed_from_u64(9);
        let d1 = draw_disturbance(&tn, 0.5, &mut rng1);
        let d2 = draw_disturbance(&tn, 0.5, &mut rng2);
        assert_eq!(d1, d2);
        // Inputs carry empty entries; every gate has one draw per weight.
        for id in tn.node_ids() {
            match tn.gate(id) {
                Some(g) => assert_eq!(d1[id.index()].len(), g.weights.len()),
                None => assert!(d1[id.index()].is_empty()),
            }
        }
    }

    #[test]
    fn packed_matches_scalar_reference_path() {
        // Satellite regression: the packed engine must agree bit-for-bit
        // with the per-row scalar path at the same seeds.
        let net = blif::parse(SRC).unwrap();
        let tn = synthesize(&net, &TelsConfig::default()).unwrap();
        for seed in [0u64, 7, 0xde5ec7] {
            let opts = PerturbOptions {
                variation: 0.9,
                trials: 40,
                seed,
                ..PerturbOptions::default()
            };
            let packed = failure_rate(&tn, &net, &opts).unwrap();
            let scalar = failure_rate_scalar(&tn, &net, &opts).unwrap();
            assert_eq!(packed, scalar, "seed {seed}");
        }
    }

    #[test]
    fn thread_count_invariant() {
        let net = blif::parse(SRC).unwrap();
        let tn = synthesize(&net, &TelsConfig::default()).unwrap();
        let base = PerturbOptions {
            variation: 0.9,
            trials: 64,
            seed: 21,
            ..PerturbOptions::default()
        };
        let serial = failure_rate(&tn, &net, &base).unwrap();
        for threads in [2, 4, 7] {
            let opts = PerturbOptions { threads, ..base };
            assert_eq!(
                failure_rate(&tn, &net, &opts).unwrap(),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn per_trial_verdicts_are_order_independent() {
        // A single trial's verdict depends only on (seed, trial index).
        let net = blif::parse(SRC).unwrap();
        let tn = synthesize(&net, &TelsConfig::default()).unwrap();
        let opts = PerturbOptions {
            variation: 0.9,
            trials: 16,
            seed: 5,
            ..PerturbOptions::default()
        };
        let ctx = PerturbContext::new(&tn, &net, &opts).unwrap();
        let mut scratch = ctx.scratch();
        let mut dist = Disturbance::new();
        let forward: Vec<bool> = (0..16)
            .map(|t| ctx.trial_fails(&tn, t, &mut dist, &mut scratch))
            .collect();
        let backward: Vec<bool> = (0..16)
            .rev()
            .map(|t| ctx.trial_fails(&tn, t, &mut dist, &mut scratch))
            .collect();
        let backward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }
}
