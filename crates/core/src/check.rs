//! Threshold-function identification via ILP (Fig. 6 of the paper).
//!
//! Given a unate SOP, the checker transforms it to positive-unate form,
//! derives the minimal ON/OFF-set inequalities, and solves
//! `min Σwᵢ + T` with `wᵢ, T ≥ 0` integer. A feasible solution yields the
//! weight-threshold vector; infeasibility proves the function is not a
//! threshold function (over the cube constraints, which are exact for unate
//! covers).
//!
//! A one-pass *structure analysis* ([`crate::chow`]) runs before the ILP:
//! functions that violate 2-monotonicity (pairwise cofactor comparability
//! — a property of every threshold function) are rejected in time
//! proportional to the truth table, and for the functions that pass, the
//! Chow parameters computed on the same table shrink the ILP — equal-Chow
//! variables merge into one weight column and the Chow ordering adds
//! weight-chain constraints that prune the branch-and-bound. Duplicate
//! inequalities are dropped when the problem is built.
//!
//! The ILP itself is tiered ([`tels_ilp`]): every LP relaxation first runs
//! on a fraction-free `i128` integer simplex and falls back to the
//! exact-rational oracle only on overflow. [`SolverBreakdown`] reports
//! where each check spent its time across these tiers.
//!
//! [`check_threshold_cached`] additionally memoizes answers in a
//! [`RealizationCache`] keyed by the canonical positive-unate form, so
//! repeated queries for the same function — under any variable renaming or
//! phase assignment — are answered by an exact remap instead of a solve.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use tels_ilp::{Cmp, Problem, Status};
use tels_logic::{Cube, Polarity, SignatureScratch, Sop, TruthTable, Var};

use crate::cache::{CanonicalRealization, RealizationCache};
use crate::chow::{self, ChowAnalysis, Structure};
use crate::config::TelsConfig;
use crate::error::SynthError;
use crate::theorems::theorem1_refutes;
use crate::tier0;
use crate::tier05;

/// Per-tier breakdown of where the threshold-check solver spent its work.
///
/// `int_fast_path_solves + rational_fallbacks` is the number of ILP solves
/// that actually ran; a solve lands in `rational_fallbacks` as soon as any
/// of its LP relaxations needed the exact-rational simplex. The `*_ns`
/// fields are wall-clock nanoseconds, bucketed the same way;
/// `structure_ns` covers the combined 2-monotonicity/Chow truth-table
/// pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverBreakdown {
    /// Queries answered by the tier-0 truth-table oracle (hit or
    /// definitive miss) — each one is an ILP that never got built.
    pub tier0_lookups: usize,
    /// Queries whose realization the tier-0.5 decision procedure
    /// identified (each the merged ILP's unique optimum, solver skipped).
    pub tier05_hits: usize,
    /// Queries the tier-0.5 procedure proved non-threshold by
    /// 2-asummability violation.
    pub tier05_rejects: usize,
    /// ILP weight columns eliminated by merging equal-Chow variables.
    pub chow_merged_vars: usize,
    /// ILP solves that ran entirely on the fraction-free integer simplex.
    pub int_fast_path_solves: usize,
    /// ILP solves where at least one LP relaxation ran on the
    /// exact-rational simplex.
    pub rational_fallbacks: usize,
    /// Wall time of tier-0 lookups (truth-table pass + table probe).
    pub tier0_ns: u64,
    /// Wall time of tier-0.5 work: table build and the decision procedure
    /// itself (the shared structure pass stays in [`Self::structure_ns`]).
    pub tier05_ns: u64,
    /// Wall time of the structure pass (2-monotonicity + Chow parameters).
    pub structure_ns: u64,
    /// Wall time of ILP solves decided entirely on the integer fast path.
    pub int_solve_ns: u64,
    /// Wall time of ILP solves that touched the rational simplex.
    pub rational_solve_ns: u64,
    /// Post-merge query support sizes: bucket `k` counts queries whose
    /// positive form had `k` variables, with the last bucket collecting
    /// everything at or past [`Self::SUPPORT_BUCKETS`]` − 1`.
    pub support_hist: [u32; Self::SUPPORT_BUCKETS],
}

impl SolverBreakdown {
    /// Buckets of [`Self::support_hist`]: supports `0..=11` exactly, 12+
    /// collapsed (11 is the structure pass's truth-table limit).
    pub const SUPPORT_BUCKETS: usize = 13;

    /// Accumulates another breakdown into this one (thread-merge).
    pub fn merge(&mut self, other: &SolverBreakdown) {
        self.tier0_lookups += other.tier0_lookups;
        self.tier05_hits += other.tier05_hits;
        self.tier05_rejects += other.tier05_rejects;
        self.chow_merged_vars += other.chow_merged_vars;
        self.int_fast_path_solves += other.int_fast_path_solves;
        self.rational_fallbacks += other.rational_fallbacks;
        self.tier0_ns += other.tier0_ns;
        self.tier05_ns += other.tier05_ns;
        self.structure_ns += other.structure_ns;
        self.int_solve_ns += other.int_solve_ns;
        self.rational_solve_ns += other.rational_solve_ns;
        for (a, b) in self.support_hist.iter_mut().zip(other.support_hist.iter()) {
            *a += b;
        }
    }

    /// Total ILP solves that ran (either tier).
    pub fn ilp_solves(&self) -> usize {
        self.int_fast_path_solves + self.rational_fallbacks
    }

    /// Machine-readable form, shared by the CLI's `--stats-json` output
    /// and the bench harness.
    pub fn to_json(&self) -> tels_trace::json::Json {
        use tels_trace::json::Json;
        Json::obj([
            ("tier0_lookups", Json::Num(self.tier0_lookups as f64)),
            ("tier0_ns", Json::Num(self.tier0_ns as f64)),
            ("tier05_hits", Json::Num(self.tier05_hits as f64)),
            ("tier05_rejects", Json::Num(self.tier05_rejects as f64)),
            ("tier05_ns", Json::Num(self.tier05_ns as f64)),
            (
                "support_hist",
                Json::Arr(
                    self.support_hist
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
            ("chow_merged_vars", Json::Num(self.chow_merged_vars as f64)),
            (
                "int_fast_path_solves",
                Json::Num(self.int_fast_path_solves as f64),
            ),
            (
                "rational_fallbacks",
                Json::Num(self.rational_fallbacks as f64),
            ),
            ("structure_ns", Json::Num(self.structure_ns as f64)),
            ("int_solve_ns", Json::Num(self.int_solve_ns as f64)),
            (
                "rational_solve_ns",
                Json::Num(self.rational_solve_ns as f64),
            ),
        ])
    }
}

/// A threshold-gate realization of a logic function.
///
/// `weights` pairs each support variable with its (possibly negative)
/// weight; `positive_threshold` is the threshold of the positive-unate form
/// before back-substitution, which Theorem 2 needs when ORing an extra
/// input into the gate.
///
/// # Example
///
/// The paper's worked example (§V-B): `f = x₁x̄₂ ∨ x₁x̄₃` has
/// weight-threshold vector ⟨2, −1, −1; 1⟩.
///
/// ```
/// use tels_core::{check_threshold, TelsConfig};
/// use tels_logic::{Cube, Sop, Var};
///
/// # fn main() -> Result<(), tels_core::SynthError> {
/// let f = Sop::from_cubes([
///     Cube::from_literals([(Var(0), true), (Var(1), false)]),
///     Cube::from_literals([(Var(0), true), (Var(2), false)]),
/// ]);
/// let r = check_threshold(&f, &TelsConfig::default())?.expect("threshold");
/// assert_eq!(r.weights, vec![(Var(0), 2), (Var(1), -1), (Var(2), -1)]);
/// assert_eq!(r.threshold, 1);
/// assert_eq!(r.positive_threshold, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Realization {
    /// `(variable, weight)` pairs in ascending variable order.
    pub weights: Vec<(Var, i64)>,
    /// The gate threshold `T` (after back-substituting negative phases).
    pub threshold: i64,
    /// The threshold of the positive-unate form (used by Theorem 2).
    pub positive_threshold: i64,
}

impl Realization {
    /// The realization of the constant function `0` or `1`.
    ///
    /// A constant-1 gate has `T = −δ_on ≤ 0` (the empty sum always reaches
    /// it); a constant-0 gate has `T = max(δ_off, 1) > 0` (never reached).
    pub fn constant(value: bool, config: &TelsConfig) -> Realization {
        let threshold = if value {
            -config.delta_on
        } else {
            config.delta_off.max(1)
        };
        Realization {
            weights: Vec::new(),
            threshold,
            positive_threshold: threshold,
        }
    }
}

/// Decides whether the unate cover `f` is a threshold function, returning
/// its minimal-area weight-threshold vector when it is (Fig. 6).
///
/// Returns `Ok(None)` when `f` is not a threshold function — including when
/// `f` is syntactically binate (every threshold function is unate, §II-B)
/// or when the ILP effort limits are exhausted without a feasible incumbent
/// (§V-E treats that as "not threshold" and splits the node).
///
/// # Errors
///
/// Returns [`SynthError::Solver`] only on arithmetic failure inside the
/// exact solver.
pub fn check_threshold(f: &Sop, config: &TelsConfig) -> Result<Option<Realization>, SynthError> {
    let (r, _) = check_threshold_cached(
        f,
        config,
        &RealizationCache::new(),
        &mut SolverBreakdown::default(),
        &mut SignatureScratch::new(),
    )?;
    Ok(r)
}

/// Runs the structure pass with its time billed to `solver`.
fn timed_structure(positive: &Sop, order: &[Var], solver: &mut SolverBreakdown) -> Structure {
    let t0 = Instant::now();
    let structure = chow::analyze(positive, order);
    solver.structure_ns += t0.elapsed().as_nanos() as u64;
    structure
}

/// Outcome of the tier-0.5 layer for one query.
enum Tier05Flow {
    /// Tier inactive or support out of its 6–9 range — take the plain
    /// structure + solve path.
    NotApplicable,
    /// Identified: positive per-variable weights (in support order) and
    /// threshold — provably the merged ILP's unique optimum.
    Threshold(Vec<i64>, i64),
    /// Proven non-threshold by 2-asummability.
    NotThreshold,
    /// The shared structure pass rejected 2-monotonicity.
    PrefilterReject,
    /// No guarantee — carries the Chow analysis from the shared table
    /// pass to the ILP.
    Fallthrough(Option<ChowAnalysis>),
}

/// Runs the tier-0.5 layer: one truth-table build shared between the
/// structure analysis and the decision procedure. Table build and
/// decision time bill to `tier05_ns`; the structure pass bills to
/// `structure_ns` exactly as on the plain path.
fn tier05_flow(
    positive: &Sop,
    order: &[Var],
    config: &TelsConfig,
    solver: &mut SolverBreakdown,
) -> Tier05Flow {
    let k = order.len();
    if !config.tier05_active() || !(tier05::MIN_VARS..=tier05::MAX_VARS).contains(&k) {
        return Tier05Flow::NotApplicable;
    }
    let mut span = tels_trace::span("core", "tier05_decide");
    span.arg("support", k as u64);
    let t0 = Instant::now();
    let tt = TruthTable::from_sop(positive, order);
    solver.tier05_ns += t0.elapsed().as_nanos() as u64;
    let s0 = Instant::now();
    let structure = chow::analyze_table(&tt);
    solver.structure_ns += s0.elapsed().as_nanos() as u64;
    match structure {
        Structure::NotThreshold => {
            span.arg("verdict", "prefilter");
            Tier05Flow::PrefilterReject
        }
        Structure::TwoMonotonic(a) => {
            let d0 = Instant::now();
            let verdict = tier05::decide(&tt, &a);
            solver.tier05_ns += d0.elapsed().as_nanos() as u64;
            match verdict {
                tier05::Verdict::Threshold(w, t) => {
                    solver.tier05_hits += 1;
                    span.arg("verdict", "hit");
                    Tier05Flow::Threshold(w, t)
                }
                tier05::Verdict::NotThreshold => {
                    solver.tier05_rejects += 1;
                    span.arg("verdict", "reject");
                    Tier05Flow::NotThreshold
                }
                tier05::Verdict::Inconclusive => {
                    span.arg("verdict", "inconclusive");
                    Tier05Flow::Fallthrough(Some(a))
                }
            }
        }
        // Unreachable for supports 6–9 (within the structure pass's
        // range), kept total for safety.
        Structure::Unknown => Tier05Flow::Fallthrough(None),
    }
}

/// Buckets one post-merge query support size into the solver histogram.
fn record_support(pf: &PositiveForm, solver: &mut SolverBreakdown) {
    let bucket = pf.support.len().min(SolverBreakdown::SUPPORT_BUCKETS - 1);
    solver.support_hist[bucket] += 1;
}

/// Decides the query through the tier-0 oracle when the configuration and
/// support allow it: one truth-table pass — the same pass the Chow
/// analysis would have made, now doubling as the oracle key — then a
/// table probe. Returns `None` when tier 0 does not apply; `Some(None)`
/// is a definitive "not a threshold function".
fn tier0_answer(
    pf: &PositiveForm,
    config: &TelsConfig,
    solver: &mut SolverBreakdown,
) -> Option<Option<Realization>> {
    let k = pf.support.len();
    if !config.tier0_active() || !(1..=tier0::MAX_VARS).contains(&k) {
        return None;
    }
    let t0 = Instant::now();
    let mut span = tels_trace::span("core", "tier0_lookup");
    let key = TruthTable::from_sop(&pf.positive, &pf.support).as_u32();
    let entry = tier0::lookup(k, key);
    span.arg("support", k as u64);
    solver.tier0_lookups += 1;
    solver.tier0_ns += t0.elapsed().as_nanos() as u64;
    Some(entry.map(|e| {
        let wpos: Vec<i64> = e.weights[..k].iter().map(|&w| i64::from(w)).collect();
        back_substitute(&wpos, i64::from(e.threshold), pf)
    }))
}

/// How a [`check_threshold_cached`] query was decided (statistics
/// bucketing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckVia {
    /// Constant or syntactically binate — decided before any heavy work.
    Trivial,
    /// Answered by the tier-0 truth-table oracle (hit or definitive
    /// miss); never touches the cache or the ILP.
    Tier0,
    /// Settled by the tier-0.5 decision procedure — an identified unique
    /// optimum or a 2-asummability rejection.
    Tier05,
    /// Served from the canonical realization cache.
    CacheHit,
    /// Refuted by the Theorem-1 substitution filter (miss path).
    Theorem1,
    /// Rejected by the 2-monotonicity necessary condition (miss path).
    Prefilter,
    /// Decided by an actual ILP solve (miss path).
    Ilp,
}

impl CheckVia {
    /// Stable tag used in trace span arguments.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CheckVia::Trivial => "trivial",
            CheckVia::Tier0 => "tier0",
            CheckVia::Tier05 => "tier05",
            CheckVia::CacheHit => "cache-hit",
            CheckVia::Theorem1 => "theorem1",
            CheckVia::Prefilter => "prefilter",
            CheckVia::Ilp => "ilp",
        }
    }

    /// Bumps the live dispatch-mix counter for this decision path (a
    /// no-op while metrics are disabled).
    fn count_metric(self) {
        use tels_metrics::instruments as m;
        match self {
            CheckVia::Trivial => m::CHECK_TRIVIAL.inc(),
            CheckVia::Tier0 => m::CHECK_TIER0_HITS.inc(),
            CheckVia::Tier05 => m::CHECK_TIER05.inc(),
            CheckVia::CacheHit => m::CHECK_CACHE_HITS.inc(),
            CheckVia::Theorem1 => m::CHECK_THEOREM1.inc(),
            CheckVia::Prefilter => m::CHECK_PREFILTER.inc(),
            CheckVia::Ilp => m::CHECK_ILP_SOLVES.inc(),
        }
    }
}

/// [`check_threshold`] through the canonical realization cache.
///
/// Small-support queries are answered by the tier-0 oracle first (when
/// [`TelsConfig::tier0_active`]) and never touch the cache. On a miss the
/// query is decided *in canonical space* — the Theorem-1 filter (when
/// enabled), the 2-monotonicity pre-filter, then the ILP over the
/// canonical cover — and the canonical answer is memoized. Hit or miss,
/// the caller receives the canonical answer remapped onto the query's
/// variables and phases, so the result depends only on the function's
/// canonical form, never on which query populated the cache or on thread
/// scheduling. `scratch` carries the canonicalization buffers, reused
/// across calls by hot loops.
pub(crate) fn check_threshold_cached(
    f: &Sop,
    config: &TelsConfig,
    cache: &RealizationCache,
    solver: &mut SolverBreakdown,
    scratch: &mut SignatureScratch,
) -> Result<(Option<Realization>, CheckVia), SynthError> {
    let mut span = tels_trace::span("core", "threshold_check");
    let result = check_threshold_cached_impl(f, config, cache, solver, scratch);
    if let Ok((_, via)) = &result {
        span.arg("via", via.as_str());
        via.count_metric();
    }
    result
}

fn check_threshold_cached_impl(
    f: &Sop,
    config: &TelsConfig,
    cache: &RealizationCache,
    solver: &mut SolverBreakdown,
    scratch: &mut SignatureScratch,
) -> Result<(Option<Realization>, CheckVia), SynthError> {
    if f.is_zero() {
        return Ok((
            Some(Realization::constant(false, config)),
            CheckVia::Trivial,
        ));
    }
    if f.is_one() {
        return Ok((Some(Realization::constant(true, config)), CheckVia::Trivial));
    }
    let Some(pf) = positive_form(f) else {
        return Ok((None, CheckVia::Trivial));
    };
    record_support(&pf, solver);
    // Tier 0 bypasses the cache entirely: oracle lookups are cheaper than
    // canonicalize-hash-probe, so the cache only ever stores
    // large-support answers.
    if let Some(answer) = tier0_answer(&pf, config, solver) {
        return Ok((answer, CheckVia::Tier0));
    }
    let canon_t0 = tels_metrics::enabled().then(Instant::now);
    let canon_ok = pf.positive.canonical_signature_into(scratch);
    if let Some(t0) = canon_t0 {
        tels_metrics::instruments::CHECK_CANON_NS.add(t0.elapsed().as_nanos() as u64);
    }
    if !canon_ok {
        // Support too wide for a 64-bit canonical key: solve uncached
        // (such supports are also past the structure pass's limit).
        let chow = match timed_structure(&pf.positive, &pf.support, solver) {
            Structure::NotThreshold => return Ok((None, CheckVia::Prefilter)),
            Structure::TwoMonotonic(a) => Some(a),
            Structure::Unknown => None,
        };
        let solved = solve_positive(&pf.positive, &pf.support, chow.as_ref(), config, solver)?;
        return Ok((
            solved.map(|(wpos, t)| back_substitute(&wpos, t, &pf)),
            CheckVia::Ilp,
        ));
    }
    let (key, order) = (scratch.key(), scratch.order());
    if let Some(entry) = cache.lookup(key) {
        return Ok((
            realize_canonical(entry.as_ref(), order, &pf),
            CheckVia::CacheHit,
        ));
    }
    // Miss. Theorem 1 is a sound refutation (it never rejects a true
    // threshold function), so its verdict may be memoized under the
    // canonical key as well. Keys are copied out of the scratch only at
    // the (rare) insert points.
    if config.use_theorem1 && theorem1_refutes(f) {
        cache.insert(key.to_vec(), None);
        return Ok((None, CheckVia::Theorem1));
    }
    let k = key[0] as usize;
    let canon_order: Vec<Var> = (0..k as u32).map(Var).collect();
    let canon = Sop::from_cubes(key[1..].iter().map(|&m| {
        Cube::from_literals(
            (0..k as u32)
                .filter(|&j| m >> j & 1 == 1)
                .map(|j| (Var(j), true)),
        )
    }));
    // Tier 0.5 in canonical space: its answers are exactly what the ILP
    // would have produced, so they memoize in the realization cache the
    // same way.
    let chow = match tier05_flow(&canon, &canon_order, config, solver) {
        Tier05Flow::NotThreshold => {
            cache.insert(key.to_vec(), None);
            return Ok((None, CheckVia::Tier05));
        }
        Tier05Flow::PrefilterReject => {
            cache.insert(key.to_vec(), None);
            return Ok((None, CheckVia::Prefilter));
        }
        Tier05Flow::Threshold(weights, threshold) => {
            let entry = Some(CanonicalRealization { weights, threshold });
            let result = realize_canonical(entry.as_ref(), order, &pf);
            cache.insert(key.to_vec(), entry);
            return Ok((result, CheckVia::Tier05));
        }
        Tier05Flow::Fallthrough(chow) => chow,
        Tier05Flow::NotApplicable => match timed_structure(&canon, &canon_order, solver) {
            Structure::NotThreshold => {
                cache.insert(key.to_vec(), None);
                return Ok((None, CheckVia::Prefilter));
            }
            Structure::TwoMonotonic(a) => Some(a),
            Structure::Unknown => None,
        },
    };
    let entry = solve_positive(&canon, &canon_order, chow.as_ref(), config, solver)?
        .map(|(weights, threshold)| CanonicalRealization { weights, threshold });
    let result = realize_canonical(entry.as_ref(), order, &pf);
    cache.insert(key.to_vec(), entry);
    Ok((result, CheckVia::Ilp))
}

/// The positive-unate normal form of a unate cover.
struct PositiveForm {
    /// Support in ascending variable order.
    support: Vec<Var>,
    /// Phase flip per support position.
    negated: Vec<bool>,
    /// The cover with every negative-phase literal flipped positive.
    positive: Sop,
}

/// Computes the positive-unate form; `None` for binate covers (every
/// threshold function is unate, §II-B).
fn positive_form(f: &Sop) -> Option<PositiveForm> {
    let support: Vec<Var> = f.support().iter().collect();
    let mut negated = Vec::with_capacity(support.len());
    for &v in &support {
        match f.polarity(v) {
            Some(Polarity::Positive) => negated.push(false),
            Some(Polarity::Negative) => negated.push(true),
            Some(Polarity::Binate) => return None,
            None => unreachable!("support variable must appear"),
        }
    }
    // Var → phase flip, built once per call rather than scanned per literal.
    let flip: HashMap<Var, bool> = support
        .iter()
        .copied()
        .zip(negated.iter().copied())
        .collect();
    let positive = Sop::from_cubes(f.cubes().iter().map(|c| {
        Cube::from_literals(
            c.literals()
                .map(|(v, phase)| (v, if flip[&v] { !phase } else { phase })),
        )
    }));
    debug_assert!(positive.is_positive_unate());
    Some(PositiveForm {
        support,
        negated,
        positive,
    })
}

/// Builds and solves the ON/OFF ILP for the positive-unate cover
/// `positive`, with `order[i]`'s weight held by the column of its Chow
/// class (or its own column without Chow structure). Returns the
/// non-negative positive-form weights plus threshold, or `None` when the
/// cover is not a threshold function (or the effort limits ran out without
/// a feasible incumbent, §V-E).
///
/// With `chow` available the ILP is reduced two ways (see [`crate::chow`]
/// for the soundness arguments): equal-Chow variables share one weight
/// column scaled by multiplicity — skipped under a `weight_cap`, where the
/// completeness argument breaks — and consecutive columns are chained by
/// `wₐ ≥ w_b` ordering constraints, which are always sound.
fn solve_positive(
    positive: &Sop,
    order: &[Var],
    chow: Option<&ChowAnalysis>,
    config: &TelsConfig,
    solver: &mut SolverBreakdown,
) -> Result<Option<(Vec<i64>, i64)>, SynthError> {
    let k = order.len();
    debug_assert!(chow.is_none_or(|a| a.num_vars() == k));
    let merge = chow.is_some() && config.weight_cap.is_none();
    // One column per class; without merging, singleton classes in Chow
    // order (or plain index order when no structure is known).
    let classes: Vec<Vec<usize>> = match chow {
        Some(a) if merge => a.classes.clone(),
        Some(a) => a
            .classes
            .iter()
            .flat_map(|c| c.iter().map(|&i| vec![i]))
            .collect(),
        None => (0..k).map(|i| vec![i]).collect(),
    };
    let mut class_of = vec![0usize; k];
    for (ci, c) in classes.iter().enumerate() {
        for &i in c {
            class_of[i] = ci;
        }
    }
    if merge {
        solver.chow_merged_vars += k - classes.len();
    }

    // OFF-set cubes: ON-set of the complement. Minimization brings the
    // cover to its prime (negative-unate) form, which gives the fewest,
    // tightest OFF inequalities.
    let off = positive.complement().minimize();
    let index_of: HashMap<Var, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    let mut problem = Problem::new();
    let w: Vec<_> = classes.iter().map(|_| problem.add_int_var()).collect();
    let t = problem.add_int_var();
    // Objective Σwᵢ + T over the *original* variables: a merged column
    // counts once per class member.
    problem.set_objective(
        classes
            .iter()
            .enumerate()
            .map(|(ci, c)| (w[ci], c.len() as i64))
            .chain([(t, 1i64)]),
    );
    // Optional dynamic-range cap on weights and threshold.
    if let Some(cap) = config.weight_cap {
        for &v in w.iter().chain([&t]) {
            problem.add_constraint([(v, 1i64)], Cmp::Le, cap);
        }
    }
    // Chow ordering: weights descend along the class order.
    if chow.is_some() {
        for pair in w.windows(2) {
            problem.add_constraint([(pair[0], 1i64), (pair[1], -1i64)], Cmp::Ge, 0);
        }
    }

    // Inequalities with identical per-class multiplicities are identical
    // rows; dedup them as the problem is built (the side is part of the
    // key since ON and OFF rows differ in sense and right-hand side).
    let counts_of = |positions: &[usize]| {
        let mut counts = vec![0i64; classes.len()];
        for &i in positions {
            counts[class_of[i]] += 1;
        }
        counts
    };
    let mut seen: HashSet<(bool, Vec<i64>)> = HashSet::new();
    // ON inequalities: for each cube C, Σ_{v ∈ C} w_v − T ≥ δ_on.
    for cube in positive.cubes() {
        let idx: Vec<usize> = cube.literals().map(|(v, _)| index_of[&v]).collect();
        let counts = counts_of(&idx);
        if !seen.insert((true, counts.clone())) {
            continue;
        }
        let terms: Vec<_> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n != 0)
            .map(|(ci, &n)| (w[ci], n))
            .chain([(t, -1i64)])
            .collect();
        problem.add_constraint(terms, Cmp::Ge, config.delta_on);
    }
    // OFF inequalities: for each complement cube D, the largest weighted
    // sum over D's minterms (weights are non-negative, so every variable
    // not forced to 0 contributes): Σ_{v: D(v) ≠ 0} w_v − T ≤ −δ_off.
    // For a negative-unate prime cover this is exactly the paper's
    // "don't-care positions" rule.
    for cube in off.cubes() {
        let idx: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, &v)| cube.literal(v) != Some(false))
            .map(|(i, _)| i)
            .collect();
        let counts = counts_of(&idx);
        if !seen.insert((false, counts.clone())) {
            continue;
        }
        let terms: Vec<_> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n != 0)
            .map(|(ci, &n)| (w[ci], n))
            .chain([(t, -1i64)])
            .collect();
        problem.add_constraint(terms, Cmp::Le, -config.delta_off);
    }

    let t0 = Instant::now();
    let (solution, solve_stats) = problem.solve_with_stats(&config.ilp_limits)?;
    let solve_ns = t0.elapsed().as_nanos() as u64;
    if solve_stats.rational_lp_solves == 0 {
        solver.int_fast_path_solves += 1;
        solver.int_solve_ns += solve_ns;
    } else {
        solver.rational_fallbacks += 1;
        solver.rational_solve_ns += solve_ns;
    }
    let usable = matches!(solution.status, Status::Optimal)
        || (matches!(solution.status, Status::LimitReached) && !solution.values.is_empty());
    if !usable {
        return Ok(None);
    }
    let values = match solution.int_values() {
        Some(v) => v,
        // A feasible incumbent from a limit-hit is integral by construction;
        // anything else is unusable.
        None => match solution
            .values
            .iter()
            .map(|r| r.to_i64())
            .collect::<Option<Vec<_>>>()
        {
            Some(v) => v,
            None => return Ok(None),
        },
    };
    // Expand class columns back to per-variable weights.
    let t_pos = values[classes.len()];
    let mut wpos = vec![0i64; k];
    for (ci, c) in classes.iter().enumerate() {
        for &i in c {
            wpos[i] = values[ci];
        }
    }
    Ok(Some((wpos, t_pos)))
}

/// Back-substitution (§IV): negate weights of negative-phase variables;
/// the threshold drops by the sum of those (positive-form) weights.
fn back_substitute(weights_pos: &[i64], t_pos: i64, pf: &PositiveForm) -> Realization {
    let mut threshold = t_pos;
    let weights: Vec<(Var, i64)> = pf
        .support
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if pf.negated[i] {
                threshold -= weights_pos[i];
                (v, -weights_pos[i])
            } else {
                (v, weights_pos[i])
            }
        })
        .collect();
    Realization {
        weights,
        threshold,
        positive_threshold: t_pos,
    }
}

/// Remaps a canonical realization onto a query: canonical position `j`
/// carries the weight of the query variable `order[j]`; phases are then
/// back-substituted like a fresh solve.
fn realize_canonical(
    entry: Option<&CanonicalRealization>,
    order: &[Var],
    pf: &PositiveForm,
) -> Option<Realization> {
    let e = entry?;
    debug_assert_eq!(e.weights.len(), order.len());
    let mut by_var: Vec<(Var, i64)> = order
        .iter()
        .copied()
        .zip(e.weights.iter().copied())
        .collect();
    by_var.sort_unstable_by_key(|&(v, _)| v.0);
    let wpos: Vec<i64> = by_var.iter().map(|&(_, w)| w).collect();
    debug_assert!(by_var
        .iter()
        .map(|&(v, _)| v)
        .eq(pf.support.iter().copied()));
    Some(back_substitute(&wpos, e.threshold, pf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tels_logic::Cube;

    fn sop(cubes: &[&[(u32, bool)]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_literals(c.iter().map(|&(v, p)| (Var(v), p)))),
        )
    }

    fn check(f: &Sop) -> Option<Realization> {
        check_threshold(f, &TelsConfig::default()).unwrap()
    }

    /// One query through a fresh cache, reporting how it was decided.
    fn counted(
        f: &Sop,
        config: &TelsConfig,
        solver: &mut SolverBreakdown,
    ) -> (Option<Realization>, CheckVia) {
        let cache = RealizationCache::new();
        let mut scratch = SignatureScratch::new();
        check_threshold_cached(f, config, &cache, solver, &mut scratch).unwrap()
    }

    /// Exhaustively validates a realization against the function.
    fn validate(f: &Sop, r: &Realization) {
        let vars: Vec<Var> = f.support().iter().collect();
        for m in 0..1u32 << vars.len() {
            let assign = |v: Var| {
                let i = vars.iter().position(|&x| x == v).unwrap();
                m >> i & 1 != 0
            };
            let expect = f.eval(assign);
            let sum: i64 = r
                .weights
                .iter()
                .map(|&(v, w)| if assign(v) { w } else { 0 })
                .sum();
            assert_eq!(
                sum >= r.threshold,
                expect,
                "minterm {m} of {f}: sum {sum} vs T {}",
                r.threshold
            );
        }
    }

    #[test]
    fn and2_gate() {
        let f = sop(&[&[(0, true), (1, true)]]);
        let r = check(&f).expect("AND2 is threshold");
        assert_eq!(r.weights, vec![(Var(0), 1), (Var(1), 1)]);
        assert_eq!(r.threshold, 2);
        validate(&f, &r);
    }

    #[test]
    fn or3_gate() {
        let f = sop(&[&[(0, true)], &[(1, true)], &[(2, true)]]);
        let r = check(&f).expect("OR3 is threshold");
        assert_eq!(r.weights, vec![(Var(0), 1), (Var(1), 1), (Var(2), 1)]);
        assert_eq!(r.threshold, 1);
        validate(&f, &r);
    }

    #[test]
    fn inverter() {
        let f = sop(&[&[(0, false)]]);
        let r = check(&f).expect("NOT is threshold");
        assert_eq!(r.weights, vec![(Var(0), -1)]);
        assert_eq!(r.threshold, 0);
        validate(&f, &r);
    }

    #[test]
    fn papers_worked_example() {
        // g = x₁y₂ ∨ x₁y₃ → ⟨2,1,1;3⟩ (Eq. 8-13).
        let g = sop(&[&[(0, true), (1, true)], &[(0, true), (2, true)]]);
        let r = check(&g).expect("threshold");
        assert_eq!(r.weights, vec![(Var(0), 2), (Var(1), 1), (Var(2), 1)]);
        assert_eq!(r.threshold, 3);
        validate(&g, &r);
    }

    #[test]
    fn majority_function() {
        let f = sop(&[
            &[(0, true), (1, true)],
            &[(0, true), (2, true)],
            &[(1, true), (2, true)],
        ]);
        let r = check(&f).expect("majority is threshold");
        assert_eq!(r.weights, vec![(Var(0), 1), (Var(1), 1), (Var(2), 1)]);
        assert_eq!(r.threshold, 2);
        validate(&f, &r);
    }

    #[test]
    fn two_disjoint_ands_not_threshold() {
        // x₁x₂ ∨ x₃x₄ is the canonical non-threshold unate function.
        let f = sop(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]);
        assert_eq!(check(&f), None);
    }

    #[test]
    fn binate_cover_rejected() {
        let f = sop(&[&[(0, true), (1, false)], &[(0, false), (1, true)]]);
        assert_eq!(check(&f), None);
    }

    #[test]
    fn constants() {
        let cfg = TelsConfig::default();
        let zero = check_threshold(&Sop::zero(), &cfg).unwrap().unwrap();
        assert!(zero.weights.is_empty());
        assert!(zero.threshold > 0);
        let one = check_threshold(&Sop::one(), &cfg).unwrap().unwrap();
        assert!(one.threshold <= 0);
    }

    #[test]
    fn mixed_phase_realization() {
        // f = x₀ ∨ x̄₁: ON(positive form y=x̄₁): x₀ ∨ y.
        let f = sop(&[&[(0, true)], &[(1, false)]]);
        let r = check(&f).expect("threshold");
        validate(&f, &r);
        assert!(r.weights[1].1 < 0);
    }

    #[test]
    fn delta_on_raises_margin() {
        let cfg = TelsConfig {
            delta_on: 2,
            ..TelsConfig::default()
        };
        let f = sop(&[&[(0, true), (1, true)]]);
        let r = check_threshold(&f, &cfg).unwrap().expect("threshold");
        // ON sum must exceed T by ≥ 2: w0+w1 ≥ T+2 and wi ≤ T−1.
        let (w0, w1) = (r.weights[0].1, r.weights[1].1);
        assert!(w0 + w1 >= r.threshold + 2);
        assert!(w0 < r.threshold && w1 < r.threshold);
    }

    #[test]
    fn prefilter_rejects_disjoint_ands_without_ilp() {
        let f = sop(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]);
        let pf = positive_form(&f).unwrap();
        assert!(matches!(
            chow::analyze(&pf.positive, &pf.support),
            Structure::NotThreshold
        ));
        // The checker therefore reports that no solve happened (tier 0
        // and Theorem 1 off so the pre-filter answers).
        let cfg = TelsConfig {
            use_tier0: false,
            use_theorem1: false,
            ..TelsConfig::default()
        };
        let mut solver = SolverBreakdown::default();
        let (r, via) = counted(&f, &cfg, &mut solver);
        assert_eq!(r, None);
        assert_eq!(via, CheckVia::Prefilter);
        assert_eq!(solver.ilp_solves(), 0);
        assert_eq!(solver.tier0_lookups, 0);
    }

    #[test]
    fn prefilter_accepts_threshold_functions() {
        for f in [
            sop(&[
                &[(0, true), (1, true)][..],
                &[(0, true), (2, true)],
                &[(1, true), (2, true)],
            ]),
            sop(&[&[(0, true), (1, true)], &[(0, true), (2, true)]]),
            sop(&[&[(0, true)], &[(1, false)]]),
            sop(&[&[(0, false), (1, false), (2, false)]]),
        ] {
            let pf = positive_form(&f).unwrap();
            assert!(
                !matches!(
                    chow::analyze(&pf.positive, &pf.support),
                    Structure::NotThreshold
                ),
                "{f}"
            );
        }
    }

    #[test]
    fn equal_chow_variables_get_equal_weights() {
        // Majority-of-5 is fully symmetric: one Chow class, one weight.
        let cubes: Vec<Vec<(u32, bool)>> = (0..5u32)
            .flat_map(|i| {
                (i + 1..5).flat_map(move |j| {
                    (j + 1..5).map(move |l| vec![(i, true), (j, true), (l, true)])
                })
            })
            .collect();
        let refs: Vec<&[(u32, bool)]> = cubes.iter().map(Vec::as_slice).collect();
        let f = sop(&refs);
        // Tier 0 off: this test exercises the Chow column merging of the
        // ILP path, which the 5-var oracle would otherwise answer first.
        let cfg = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        let mut solver = SolverBreakdown::default();
        let (r, via) = counted(&f, &cfg, &mut solver);
        let r = r.expect("majority-of-5 is threshold");
        assert_eq!(via, CheckVia::Ilp);
        validate(&f, &r);
        let weights: Vec<i64> = r.weights.iter().map(|&(_, w)| w).collect();
        assert!(weights.windows(2).all(|p| p[0] == p[1]));
        // All 5 variables shared one column: 4 merged away.
        assert_eq!(solver.chow_merged_vars, 4);
        assert_eq!(solver.ilp_solves(), 1);
    }

    #[test]
    fn weight_cap_disables_merging_but_stays_correct() {
        let cfg = TelsConfig {
            weight_cap: Some(4),
            ..TelsConfig::default()
        };
        let g = sop(&[&[(0, true), (1, true)], &[(0, true), (2, true)]]);
        let mut solver = SolverBreakdown::default();
        let (r, _) = counted(&g, &cfg, &mut solver);
        let r = r.expect("threshold within cap");
        validate(&g, &r);
        assert!(r.weights.iter().all(|&(_, w)| w.abs() <= 4));
        assert_eq!(solver.chow_merged_vars, 0, "merging must be off under cap");
    }

    #[test]
    fn cache_hit_matches_miss() {
        // Tier 0 off so these small-support queries actually reach the
        // cache (the oracle bypasses it entirely).
        let cfg = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        let cache = RealizationCache::new();
        let fns = [
            sop(&[&[(0, true), (1, true)]]),
            sop(&[&[(0, true)], &[(1, true)], &[(2, true)]]),
            sop(&[&[(0, true), (1, true)], &[(0, true), (2, true)]]),
            sop(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]),
            sop(&[&[(0, true)], &[(1, false)]]),
            sop(&[&[(0, false)]]),
            sop(&[&[(0, true), (1, false)], &[(0, false), (1, true)]]), // binate
        ];
        let mut solver = SolverBreakdown::default();
        let mut scratch = SignatureScratch::new();
        for f in &fns {
            let direct = check_threshold(f, &cfg).unwrap();
            let (first, _) =
                check_threshold_cached(f, &cfg, &cache, &mut solver, &mut scratch).unwrap();
            let (second, _) =
                check_threshold_cached(f, &cfg, &cache, &mut solver, &mut scratch).unwrap();
            // Hit must equal miss bit-for-bit, and equal a fresh-cache
            // query through the public checker.
            assert_eq!(first, second, "{f}");
            assert_eq!(direct, first, "{f}");
            if let Some(r) = &first {
                validate(f, r);
            }
        }
    }

    #[test]
    fn cache_hits_across_renamings_and_phases() {
        // Tier 0 off so the cache (not the oracle) answers these queries.
        let cfg = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        let cache = RealizationCache::new();
        let mut solver = SolverBreakdown::default();
        let mut scratch = SignatureScratch::new();
        // x₁x₂ ∨ x₁x₃ populates the cache ...
        let a = sop(&[&[(1, true), (2, true)], &[(1, true), (3, true)]]);
        let (ra, via_a) =
            check_threshold_cached(&a, &cfg, &cache, &mut solver, &mut scratch).unwrap();
        assert_eq!(via_a, CheckVia::Ilp);
        // ... and x̄₅x₇ ∨ x̄₅x₉ — the same function up to renaming and
        // phase — must hit and remap exactly.
        let b = sop(&[&[(5, false), (7, true)], &[(5, false), (9, true)]]);
        let (rb, via_b) =
            check_threshold_cached(&b, &cfg, &cache, &mut solver, &mut scratch).unwrap();
        assert_eq!(via_b, CheckVia::CacheHit);
        let (ra, rb) = (ra.unwrap(), rb.unwrap());
        validate(&b, &rb);
        assert_eq!(ra.positive_threshold, rb.positive_threshold);
        assert_eq!(rb.weights, vec![(Var(5), -2), (Var(7), 1), (Var(9), 1)]);
        assert_eq!(rb.threshold, 1); // T_pos = 3 minus the flipped weight 2
    }

    #[test]
    fn cached_non_threshold_is_remembered() {
        // Tier 0 off so the Theorem-1/pre-filter/memoization chain runs.
        let cfg = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        let cache = RealizationCache::new();
        let mut solver = SolverBreakdown::default();
        let mut scratch = SignatureScratch::new();
        let f = sop(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]);
        let (r1, via1) =
            check_threshold_cached(&f, &cfg, &cache, &mut solver, &mut scratch).unwrap();
        assert_eq!(r1, None);
        // Theorem 1 (enabled by default) refutes this one before the
        // pre-filter gets a look.
        assert_eq!(via1, CheckVia::Theorem1);
        let (r2, via2) =
            check_threshold_cached(&f, &cfg, &cache, &mut solver, &mut scratch).unwrap();
        assert_eq!(r2, None);
        assert_eq!(via2, CheckVia::CacheHit);
        // With Theorem 1 disabled, the 2-monotonicity pre-filter catches it.
        let cfg2 = TelsConfig {
            use_theorem1: false,
            use_tier0: false,
            ..TelsConfig::default()
        };
        let cache2 = RealizationCache::new();
        let (_, via3) =
            check_threshold_cached(&f, &cfg2, &cache2, &mut solver, &mut scratch).unwrap();
        assert_eq!(via3, CheckVia::Prefilter);
    }

    #[test]
    fn counts_threshold_functions_of_3_vars() {
        // 104 of the 256 three-variable functions are threshold functions
        // (Muroga). Functional unateness is required first: syntactically
        // binate minterm covers of unate functions must be minimized before
        // checking.
        let vars = [Var(0), Var(1), Var(2)];
        let mut count = 0;
        for bits in 0u32..256 {
            let cubes: Vec<Cube> = (0..8u32)
                .filter(|m| bits >> m & 1 != 0)
                .map(|m| Cube::from_literals((0..3).map(|i| (vars[i as usize], m >> i & 1 != 0))))
                .collect();
            let f = Sop::from_cubes(cubes).minimize();
            if check(&f).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 104);
    }

    /// The minimized cover of an arbitrary `n`-variable function given by
    /// its truth-table bits (minterm `m` is ON iff bit `m` is set).
    fn sop_of_bits(n: u32, bits: u32) -> Sop {
        let cubes: Vec<Cube> = (0..1u32 << n)
            .filter(|m| bits >> m & 1 != 0)
            .map(|m| Cube::from_literals((0..n).map(|i| (Var(i), m >> i & 1 != 0))))
            .collect();
        Sop::from_cubes(cubes).minimize()
    }

    #[test]
    fn tier0_answers_small_queries_identically() {
        let on = TelsConfig::default();
        let off = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        assert!(on.tier0_active());
        for f in [
            sop(&[&[(0, true), (1, true)]]),
            sop(&[&[(0, true)], &[(1, true)], &[(2, true)]]),
            sop(&[&[(0, true), (1, true)], &[(0, true), (2, true)]]),
            sop(&[&[(0, true)], &[(1, false)]]),
            sop(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]),
        ] {
            let mut s_on = SolverBreakdown::default();
            let mut s_off = SolverBreakdown::default();
            let (r_on, via) = counted(&f, &on, &mut s_on);
            let (r_off, _) = counted(&f, &off, &mut s_off);
            // Same Option<Realization>, bit for bit: same weights, same
            // threshold, same variable order.
            assert_eq!(r_on, r_off, "{f}");
            assert_eq!(via, CheckVia::Tier0, "{f}");
            assert_eq!(s_on.tier0_lookups, 1, "{f}");
            assert_eq!(s_on.ilp_solves(), 0, "oracle path must not solve: {f}");
            assert_eq!(s_off.tier0_lookups, 0, "{f}");
            if let Some(r) = &r_on {
                validate(&f, r);
            }
        }
    }

    #[test]
    fn tier0_bypasses_the_cache() {
        let cfg = TelsConfig::default();
        let cache = RealizationCache::new();
        let mut solver = SolverBreakdown::default();
        let mut scratch = SignatureScratch::new();
        let f = sop(&[&[(0, true), (1, true)], &[(0, true), (2, true)]]);
        let (r1, via1) =
            check_threshold_cached(&f, &cfg, &cache, &mut solver, &mut scratch).unwrap();
        assert_eq!(via1, CheckVia::Tier0);
        assert!(r1.is_some());
        assert!(
            cache.is_empty(),
            "small-support answers must not be memoized"
        );
        // Second query re-resolves through the oracle, identically.
        let (r2, via2) =
            check_threshold_cached(&f, &cfg, &cache, &mut solver, &mut scratch).unwrap();
        assert_eq!(via2, CheckVia::Tier0);
        assert_eq!(r1, r2);
        assert_eq!(solver.tier0_lookups, 2);
    }

    /// Differential sweep of the *cached* path over 4-variable functions:
    /// tier 0 on (oracle, cache bypassed) vs off (Theorem 1 + pre-filter +
    /// ILP + cache) must agree bit for bit. Debug builds sample the space;
    /// release builds (and `--ignored` runs) sweep all 65,536.
    fn cached_tier0_differential(stride: u32) {
        let on = TelsConfig::default();
        let off = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        let cache_on = RealizationCache::new();
        let cache_off = RealizationCache::new();
        let mut s_on = SolverBreakdown::default();
        let mut s_off = SolverBreakdown::default();
        let mut scratch = SignatureScratch::new();
        for bits in (0u32..=u16::MAX as u32).step_by(stride as usize) {
            let f = sop_of_bits(4, bits);
            let (r_on, _) =
                check_threshold_cached(&f, &on, &cache_on, &mut s_on, &mut scratch).unwrap();
            let (r_off, _) =
                check_threshold_cached(&f, &off, &cache_off, &mut s_off, &mut scratch).unwrap();
            assert_eq!(r_on, r_off, "tt {bits:#06x}: {f}");
            if let Some(r) = &r_on {
                validate(&f, r);
            }
        }
        assert!(s_on.tier0_lookups > 0);
    }

    #[test]
    fn cached_tier0_differential_sampled() {
        // 331 is odd and coprime to 2^16, so the sample walks the whole
        // ring rather than an aligned sublattice.
        cached_tier0_differential(331);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive sweep; run in release")]
    fn cached_tier0_differential_exhaustive() {
        cached_tier0_differential(1);
    }
}
