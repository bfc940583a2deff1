//! Threshold-function identification via ILP (Fig. 6 of the paper).
//!
//! Given a unate SOP, the checker transforms it to positive-unate form,
//! derives the minimal ON/OFF-set inequalities, and solves
//! `min Σwᵢ + T` with `wᵢ, T ≥ 0` integer. A feasible solution yields the
//! weight-threshold vector; infeasibility proves the function is not a
//! threshold function (over the cube constraints, which are exact for unate
//! covers).
//!
//! [`check_threshold`] answers constants and syntactically binate covers
//! itself. Every other query — the only kind the synthesis driver asks —
//! goes to [`check_threshold_cached`], which brings the cover to its
//! positive form (support, negated variables and one bit mask of support
//! positions per cube, in reused buffers) and runs one fixed, ordered list
//! of deciders, each of which decides the query, refutes it, or passes it
//! on:
//!
//! 1. tier 0 ([`crate::tier0`]) — supports up to 5, keyed by the table
//!    of the cube masks, answered before the cache and never memoized;
//! 2. the [`RealizationCache`], keyed by the canonical positive-unate
//!    form, so repeated queries for the same function — under any
//!    variable renaming or phase assignment — are answered by an exact
//!    remap instead of a solve;
//! 3. on a miss, one truth table of the canonical cover (supports 2–12)
//!    feeds the rest: the 2-monotonicity test ([`crate::chow`]), which is
//!    the paper's Theorem 1 and refutes what it rejects, and for supports
//!    up to 11 the Chow classes that shrink the ILP — equal-Chow variables
//!    merge into one weight column and the Chow ordering adds
//!    weight-chain constraints that prune the branch-and-bound;
//! 4. tier 0.5 ([`crate::tier05`]) — supports 6–9, on the same table and
//!    classes;
//! 5. the ILP, which always answers.
//!
//! Every miss answer is memoized under the canonical key. The ILP itself
//! is tiered ([`tels_ilp`]): every LP relaxation first runs on a
//! fraction-free `i128` integer simplex and falls back to the
//! exact-rational oracle only on overflow. Duplicate inequalities are
//! dropped when the problem is built.
//!
//! The checker times its stages into a [`SolverBreakdown`] (and, while
//! tracing, opens one span per stage) through a single helper; how each
//! query was decided is returned as a [`CheckVia`] and counted by the
//! caller, once.

use std::collections::{HashMap, HashSet};

use tels_ilp::{Cmp, Problem, Status};
use tels_logic::{Cube, SignatureScratch, Sop, TruthTable, Var, VarSet};

use crate::cache::{CanonicalRealization, RealizationCache};
use crate::chow::{self, ChowAnalysis};
use crate::config::TelsConfig;
use crate::error::SynthError;
use crate::tier0;
use crate::tier05;

/// Per-tier breakdown of where the threshold-check solver spent its work.
///
/// `int_fast_path_solves + rational_fallbacks` is the number of ILP solves
/// that actually ran; a solve lands in `rational_fallbacks` as soon as any
/// of its LP relaxations needed the exact-rational simplex. The `*_ns`
/// fields are wall-clock nanoseconds per stage of the check;
/// `structure_ns` covers the miss path's truth-table build, its
/// 2-monotonicity refutation and its Chow classes. The outcome counters
/// (`tier0_lookups`, `tier05_*`) are tallied by the synthesis driver from
/// each query's `CheckVia`.
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
    /// Wall time of canonicalizing covers into cache keys.
    pub canon_ns: u64,
    /// Wall time of the tier-0.5 decision procedure (its table comes from
    /// the structure pass, billed to [`Self::structure_ns`]).
    pub tier05_ns: u64,
    /// Wall time of the structure pass: the miss path's truth table, the
    /// 2-monotonicity refutation and the Chow parameters.
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
    /// collapsed (11 is the Chow classes' support limit).
    pub const SUPPORT_BUCKETS: usize = 13;

    /// Total ILP solves that ran (either tier).
    pub fn ilp_solves(&self) -> usize {
        self.int_fast_path_solves + self.rational_fallbacks
    }

    /// Wall time of all timed stages of the check: tier 0,
    /// canonicalization, structure, tier 0.5 and the ILP solves.
    pub fn stage_ns(&self) -> u64 {
        self.tier0_ns
            + self.canon_ns
            + self.tier05_ns
            + self.structure_ns
            + self.int_solve_ns
            + self.rational_solve_ns
    }

    /// Machine-readable form, shared by the CLI's `--stats-json` output
    /// and the bench harness.
    pub fn to_json(&self) -> tels_trace::json::Json {
        use tels_trace::json::Json;
        let n = |v: usize| Json::Num(v as f64);
        let ns = |v: u64| Json::Num(v as f64);
        let hist = self.support_hist.iter().map(|&c| Json::Num(c.into()));
        Json::obj([
            ("tier0_lookups", n(self.tier0_lookups)),
            ("tier0_ns", ns(self.tier0_ns)),
            ("canon_ns", ns(self.canon_ns)),
            ("tier05_hits", n(self.tier05_hits)),
            ("tier05_rejects", n(self.tier05_rejects)),
            ("tier05_ns", ns(self.tier05_ns)),
            ("support_hist", Json::Arr(hist.collect())),
            ("chow_merged_vars", n(self.chow_merged_vars)),
            ("int_fast_path_solves", n(self.int_fast_path_solves)),
            ("rational_fallbacks", n(self.rational_fallbacks)),
            ("structure_ns", ns(self.structure_ns)),
            ("int_solve_ns", ns(self.int_solve_ns)),
            ("rational_solve_ns", ns(self.rational_solve_ns)),
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
    if f.is_zero() || f.is_one() {
        return Ok(Some(Realization::constant(f.is_one(), config)));
    }
    if !f.is_unate() {
        return Ok(None);
    }
    let mut span = tels_trace::span("core", "threshold_check");
    let (r, via) = check_threshold_cached(
        Query::Cover(f),
        config,
        &RealizationCache::new(),
        &mut SolverBreakdown::default(),
        &mut QueryScratch::default(),
    )?;
    span.arg("via", via.as_str());
    Ok(r)
}

/// What one decider of the threshold check made of a query.
pub(crate) enum Step<R> {
    /// A realization: the check ends here.
    Decided(R),
    /// Proven not a threshold function: the check ends here.
    Refuted,
    /// No answer: the next decider runs.
    Pass,
}

impl<R> Step<R> {
    /// The check's answer (`Some(None)` for a refutation), or `None` to
    /// pass.
    fn answer(self) -> Option<Option<R>> {
        match self {
            Step::Decided(r) => Some(Some(r)),
            Step::Refuted => Some(None),
            Step::Pass => None,
        }
    }
}

/// Runs one stage of the check (tier 0, canonicalization, structure, tier
/// 0.5 or the ILP): its wall time is added to the breakdown field that
/// `field` picks from the stage's result, and while tracing is on the
/// stage runs inside the `core` span `stage`, which `run` may annotate
/// and whose two clock reads the timer shares.
fn timed<T>(
    solver: &mut SolverBreakdown,
    stage: &'static str,
    field: for<'s> fn(&'s mut SolverBreakdown, &T) -> &'s mut u64,
    run: impl FnOnce(&mut tels_trace::Span) -> T,
) -> T {
    let mut span = tels_trace::span("core", stage);
    let t0 = span.start_ns();
    let out = run(&mut span);
    *field(solver, &out) += span.end_ns() - t0;
    out
}

/// Tier 0: the truth-table oracle, when the configuration and support
/// allow it. The table of the positive form's cube masks is the oracle
/// key; a table probe then decides or refutes.
fn tier0_step(
    pf: &PositiveForm,
    config: &TelsConfig,
    solver: &mut SolverBreakdown,
) -> Step<Realization> {
    let k = pf.support.len();
    if !config.tier0_active() || !(1..=tier0::MAX_VARS).contains(&k) {
        return Step::Pass;
    }
    let entry = timed(
        solver,
        "tier0_lookup",
        |s, _| &mut s.tier0_ns,
        |span| {
            span.arg("support", k as u64);
            tier0::lookup(k, small_table(k, &pf.cubes))
        },
    );
    match entry {
        Some(e) => {
            let wpos = pf.support.iter().zip(&e.weights[..k]);
            let wpos = wpos.map(|(&v, &w)| (v, i64::from(w))).collect();
            Step::Decided(back_substitute(wpos, i64::from(e.threshold), pf))
        }
        None => Step::Refuted,
    }
}

/// The table of a positive cover over `k ≤ 5` positions given as cube
/// masks, row `m` at bit `m` (the layout of [`TruthTable::as_u32`]): the
/// tier-0 key, built without a table allocation.
fn small_table(k: usize, cubes: &[u64]) -> u32 {
    /// Per position `i < 5`, the rows whose bit `i` is set.
    const ROWS_WITH: [u32; 5] = [
        0xaaaa_aaaa,
        0xcccc_cccc,
        0xf0f0_f0f0,
        0xff00_ff00,
        0xffff_0000,
    ];
    debug_assert!(k <= ROWS_WITH.len());
    let mut table = 0u32;
    for &c in cubes {
        let mut rows = !0u32;
        let mut rest = c;
        while rest != 0 {
            rows &= ROWS_WITH[rest.trailing_zeros() as usize];
            rest &= rest - 1;
        }
        table |= rows;
    }
    table & (!0u32 >> (32 - (1u32 << k)))
}

/// How a [`check_threshold_cached`] query was decided: the one record of
/// the outcome, which the synthesis driver tallies into its statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckVia {
    /// Answered by the tier-0 truth-table oracle (hit or definitive
    /// miss); never touches the cache or the ILP.
    Tier0,
    /// Settled by the tier-0.5 decision procedure — an identified unique
    /// optimum or a 2-asummability rejection.
    Tier05,
    /// Served from the canonical realization cache.
    CacheHit,
    /// Refuted by Theorem 1, run as the 2-monotonicity test on the miss
    /// path's truth table.
    Theorem1,
    /// Decided by an actual ILP solve (miss path).
    Ilp,
}

impl CheckVia {
    /// Stable tag used in trace span arguments.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CheckVia::Tier0 => "tier0",
            CheckVia::Tier05 => "tier05",
            CheckVia::CacheHit => "cache-hit",
            CheckVia::Theorem1 => "theorem1",
            CheckVia::Ilp => "ilp",
        }
    }
}

/// One threshold query: a cover, or one of the synthesis driver's
/// prototype gates over `Var(0..n)`, whose positive forms are written
/// without building a cover.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Query<'a> {
    /// A non-constant unate cover.
    Cover(&'a Sop),
    /// The AND of the literals `Var(i)` in the phases `phases[i]` (a
    /// single literal when there is one phase).
    And(&'a [bool]),
    /// The OR of `n ≥ 2` positive literals `Var(0..n)`.
    Or(usize),
}

impl Query<'_> {
    /// The query as a cover.
    fn to_cover(self) -> Sop {
        let lit = |i: usize, phase: bool| Cube::from_literals([(Var(i as u32), phase)]);
        match self {
            Query::Cover(f) => f.clone(),
            Query::And(phases) => Sop::from_cubes([Cube::from_literals(
                phases.iter().enumerate().map(|(i, &p)| (Var(i as u32), p)),
            )]),
            Query::Or(n) => Sop::from_cubes((0..n).map(|i| lit(i, true))),
        }
    }
}

/// Reusable buffers of one threshold query: its positive form and its
/// canonicalization. A synthesis run keeps one for all of its queries.
#[derive(Default)]
pub(crate) struct QueryScratch {
    form: PositiveForm,
    signature: SignatureScratch,
}

/// [`check_threshold`] through the canonical realization cache, running
/// the deciders in the module's order. `f` must be a non-constant unate
/// cover; [`check_threshold`] answers the others.
///
/// Small-support queries are answered by tier 0 (when
/// [`TelsConfig::tier0_active`]) and never touch the cache. A miss is
/// decided *in canonical space* and the canonical answer is memoized. Hit
/// or miss, the caller receives the canonical answer remapped onto the
/// query's variables and phases, so the result depends only on the
/// function's canonical form, never on which query populated the cache or
/// on thread scheduling. `scratch` carries the positive form and the
/// canonicalization buffers, reused across calls by hot loops. Callers
/// wrap the call in the `core` span `threshold_check`, annotated with the
/// deciding `via`.
pub(crate) fn check_threshold_cached(
    query: Query<'_>,
    config: &TelsConfig,
    cache: &RealizationCache,
    solver: &mut SolverBreakdown,
    scratch: &mut QueryScratch,
) -> Result<(Option<Realization>, CheckVia), SynthError> {
    debug_assert!(
        match query {
            Query::Cover(f) => !f.is_zero() && !f.is_one() && f.is_unate(),
            Query::And(phases) => !phases.is_empty(),
            Query::Or(n) => n >= 2,
        },
        "threshold queries are non-constant unate covers"
    );
    let QueryScratch {
        form: pf,
        signature,
    } = scratch;
    let masked = positive_form(query, pf);
    solver.support_hist[pf.support.len().min(SolverBreakdown::SUPPORT_BUCKETS - 1)] += 1;
    if let Some(answer) = tier0_step(pf, config, solver).answer() {
        return Ok((answer, CheckVia::Tier0));
    }
    if !masked {
        // Support too wide for a 64-bit canonical key (and for any truth
        // table): solve uncached, without Chow structure.
        let f = query.to_cover();
        let positive = Sop::from_cubes(f.cubes().iter().map(Cube::with_positive_phases));
        let solved = solve_positive(&positive, &pf.support, None, config, solver)?;
        let result = solved.map(|(wpos, t)| {
            let wpos = pf.support.iter().copied().zip(wpos).collect();
            back_substitute(wpos, t, pf)
        });
        return Ok((result, CheckVia::Ilp));
    }
    timed(
        solver,
        "canonicalize",
        |s, _| &mut s.canon_ns,
        |_| signature.canonicalize(&pf.support, &pf.cubes),
    );
    let (key, order) = (signature.key(), signature.order());
    if let Some(entry) = cache.lookup(key) {
        let result = realize_canonical(entry.as_ref(), order, pf);
        return Ok((result, CheckVia::CacheHit));
    }
    let (entry, via) = decide_miss(key, config, solver)?;
    let result = realize_canonical(entry.as_ref(), order, pf);
    // Keys are copied out of the scratch only here, on a miss.
    cache.insert(key.to_vec(), entry);
    Ok((result, via))
}

/// Decides a cache miss in canonical space: the canonical positive cover
/// over `Var(0..k)` is rebuilt from its `key`, tabulated once, and run
/// through the 2-monotonicity refutation, tier 0.5 and the ILP. Every
/// answer is what the ILP alone would give (refutations are sound), so
/// all of them memoize alike.
fn decide_miss(
    key: &[u64],
    config: &TelsConfig,
    solver: &mut SolverBreakdown,
) -> Result<(Option<CanonicalRealization>, CheckVia), SynthError> {
    let k = key[0] as usize;
    let (table, refuted, chow) = timed(
        solver,
        "structure",
        |s, _| &mut s.structure_ns,
        |_| {
            let table = (2..=chow::REFUTE_VAR_LIMIT)
                .contains(&k)
                .then(|| TruthTable::from_positive_cubes(k as u32, &key[1..]));
            let refuted = table.as_ref().is_some_and(|tt| !chow::two_monotonic(tt));
            let chow = match &table {
                Some(tt) if !refuted && k <= chow::STRUCTURE_VAR_LIMIT => {
                    Some(chow::chow_classes(tt))
                }
                _ => None,
            };
            (table, refuted, chow)
        },
    );
    if refuted {
        return Ok((None, CheckVia::Theorem1));
    }
    if let (Some(tt), Some(classes)) = (&table, &chow) {
        if let Some(answer) = tier05_step(tt, classes, config, solver).answer() {
            return Ok((answer, CheckVia::Tier05));
        }
    }
    let order: Vec<Var> = (0..k as u32).map(Var).collect();
    let cover = Sop::from_cubes(key[1..].iter().map(|&m| {
        Cube::from_literals(
            (0..k as u32)
                .filter(|&j| m >> j & 1 == 1)
                .map(|j| (Var(j), true)),
        )
    }));
    let entry = solve_positive(&cover, &order, chow.as_ref(), config, solver)?
        .map(|(weights, threshold)| CanonicalRealization { weights, threshold });
    Ok((entry, CheckVia::Ilp))
}

/// Tier 0.5 on supports 6–9: the decision procedure on the miss path's
/// table and Chow classes.
fn tier05_step(
    tt: &TruthTable,
    chow: &ChowAnalysis,
    config: &TelsConfig,
    solver: &mut SolverBreakdown,
) -> Step<CanonicalRealization> {
    let k = tt.num_vars() as usize;
    if !config.tier05_active() || !(tier05::MIN_VARS..=tier05::MAX_VARS).contains(&k) {
        return Step::Pass;
    }
    timed(
        solver,
        "tier05_decide",
        |s, _| &mut s.tier05_ns,
        |span| {
            span.arg("support", k as u64);
            let step = tier05::decide(tt, chow);
            let verdict = match &step {
                Step::Decided(_) => "hit",
                Step::Refuted => "reject",
                Step::Pass => "inconclusive",
            };
            span.arg("verdict", verdict);
            step
        },
    )
}

/// The positive-unate normal form of a unate cover, in buffers reused
/// from query to query.
#[derive(Default)]
struct PositiveForm {
    /// Support in ascending variable order.
    support: Vec<Var>,
    /// The support variables in negative phase.
    negated: VarSet,
    /// One mask of support positions per cube (bit `j` is `support[j]`),
    /// in cover order; empty when the support is wider than 64.
    cubes: Vec<u64>,
}

/// Writes the positive-unate form of a query into `pf`, and returns
/// whether its cube masks were written (support ≤ 64). In a unate cover
/// every literal of a variable has the same phase, so each positive cube
/// is just the set of its cube's variables. The cover is
/// single-cube-containment minimal, and so is its positive form: no cube
/// needs removing. A prototype's form is written directly, in the cube
/// order its cover would have.
fn positive_form(query: Query<'_>, pf: &mut PositiveForm) -> bool {
    pf.support.clear();
    pf.cubes.clear();
    pf.negated = VarSet::new();
    let n = match query {
        Query::Cover(f) => return cover_positive_form(f, pf),
        Query::And(phases) => phases.len(),
        Query::Or(n) => n,
    };
    pf.support.extend((0..n as u32).map(Var));
    if let Query::And(phases) = query {
        let negative = phases.iter().enumerate().filter(|&(_, &p)| !p);
        pf.negated.extend(negative.map(|(i, _)| Var(i as u32)));
    }
    if n > 64 {
        return false;
    }
    match query {
        Query::Or(_) => pf.cubes.extend((0..n).map(|i| 1u64 << i)),
        _ => pf.cubes.push(!0u64 >> (64 - n)),
    }
    true
}

fn cover_positive_form(f: &Sop, pf: &mut PositiveForm) -> bool {
    let (mut all, neg) = f.phase_vars();
    debug_assert!(!all.intersects(&neg), "binate cover {f}");
    all.union_with(&neg);
    pf.support.extend(all.iter());
    pf.negated = neg;
    if pf.support.len() > 64 {
        return false;
    }
    pf.cubes.extend(
        f.cubes()
            .iter()
            .map(|c| c.positive_vars().positions_in(&all) | c.negative_vars().positions_in(&all)),
    );
    true
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
    let mut seen: HashSet<(bool, Vec<i64>)> = HashSet::new();
    let mut add_row = |on: bool, positions: Vec<usize>| {
        let mut counts = vec![0i64; classes.len()];
        for i in positions {
            counts[class_of[i]] += 1;
        }
        if !seen.insert((on, counts.clone())) {
            return;
        }
        let terms = counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n != 0)
            .map(|(ci, &n)| (w[ci], n))
            .chain([(t, -1i64)]);
        if on {
            problem.add_constraint(terms, Cmp::Ge, config.delta_on);
        } else {
            problem.add_constraint(terms, Cmp::Le, -config.delta_off);
        }
    };
    // ON inequalities: for each cube C, Σ_{v ∈ C} w_v − T ≥ δ_on.
    for cube in positive.cubes() {
        add_row(true, cube.literals().map(|(v, _)| index_of[&v]).collect());
    }
    // OFF inequalities: for each complement cube D, the largest weighted
    // sum over D's minterms (weights are non-negative, so every variable
    // not forced to 0 contributes): Σ_{v: D(v) ≠ 0} w_v − T ≤ −δ_off.
    // For a negative-unate prime cover this is exactly the paper's
    // "don't-care positions" rule.
    for cube in off.cubes() {
        add_row(
            false,
            (0..k)
                .filter(|&i| cube.literal(order[i]) != Some(false))
                .collect(),
        );
    }

    let (solution, solve_stats) = timed(
        solver,
        "ilp_solve",
        |s, solved: &Result<(_, tels_ilp::SolveStats), _>| match solved {
            Ok((_, stats)) if stats.rational_lp_solves > 0 => &mut s.rational_solve_ns,
            _ => &mut s.int_solve_ns,
        },
        |_| problem.solve_with_stats(&config.ilp_limits),
    )?;
    if solve_stats.rational_lp_solves == 0 {
        solver.int_fast_path_solves += 1;
    } else {
        solver.rational_fallbacks += 1;
    }
    let usable = matches!(solution.status, Status::Optimal)
        || (matches!(solution.status, Status::LimitReached) && !solution.values.is_empty());
    if !usable {
        return Ok(None);
    }
    // A feasible incumbent from a limit-hit is integral by construction;
    // anything else is unusable.
    let Some(values) = solution
        .values
        .iter()
        .map(|r| r.to_i64())
        .collect::<Option<Vec<_>>>()
    else {
        return Ok(None);
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
/// `weights` pairs each support variable, ascending, with its
/// positive-form weight.
fn back_substitute(mut weights: Vec<(Var, i64)>, t_pos: i64, pf: &PositiveForm) -> Realization {
    let mut threshold = t_pos;
    for (v, w) in &mut weights {
        if pf.negated.contains(*v) {
            threshold -= *w;
            *w = -*w;
        }
    }
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
    debug_assert_eq!(order.len(), pf.support.len());
    let mut wpos: Vec<(Var, i64)> = pf.support.iter().map(|&v| (v, 0)).collect();
    for (v, &w) in order.iter().zip(&e.weights) {
        let i = pf
            .support
            .binary_search(v)
            .expect("order permutes the support");
        wpos[i].1 = w;
    }
    Some(back_substitute(wpos, e.threshold, pf))
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
        let mut scratch = QueryScratch::default();
        check_threshold_cached(Query::Cover(f), config, &cache, solver, &mut scratch).unwrap()
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

    /// Whether the 2-monotonicity refutation rejects `f`'s positive form.
    fn refuted(f: &Sop) -> bool {
        let mut pf = PositiveForm::default();
        assert!(positive_form(Query::Cover(f), &mut pf));
        let k = pf.support.len() as u32;
        !chow::two_monotonic(&TruthTable::from_positive_cubes(k, &pf.cubes))
    }

    #[test]
    fn two_monotonicity_refutes_disjoint_ands_without_ilp() {
        let f = sop(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]);
        assert!(refuted(&f));
        // The checker therefore reports that no solve happened (tier 0
        // off so the refutation answers).
        let cfg = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        let mut solver = SolverBreakdown::default();
        let (r, via) = counted(&f, &cfg, &mut solver);
        assert_eq!(r, None);
        assert_eq!(via, CheckVia::Theorem1);
        assert_eq!(solver.ilp_solves(), 0);
    }

    #[test]
    fn two_monotonicity_accepts_threshold_functions() {
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
            assert!(!refuted(&f), "{f}");
        }
    }

    #[test]
    fn support_limits_of_the_table_and_the_classes() {
        // OR of k variables: threshold, one Chow class. Tier 0 and tier
        // 0.5 off so every support reaches the ILP.
        let cfg = TelsConfig {
            use_tier0: false,
            use_tier05: false,
            ..TelsConfig::default()
        };
        for (k, merged) in [(1, 0), (2, 1), (11, 10), (12, 0)] {
            let cubes: Vec<Vec<(u32, bool)>> = (0..k).map(|v| vec![(v, true)]).collect();
            let refs: Vec<&[(u32, bool)]> = cubes.iter().map(Vec::as_slice).collect();
            let mut solver = SolverBreakdown::default();
            let (r, via) = counted(&sop(&refs), &cfg, &mut solver);
            assert_eq!(via, CheckVia::Ilp, "k = {k}");
            assert!(r.is_some(), "k = {k}");
            // Chow classes merge columns for supports 2–11 only.
            assert_eq!(solver.chow_merged_vars, merged, "k = {k}");
        }
        // Two disjoint pairs padded to support 12: refuted from the table
        // (no Chow classes at 12), padded to 13: past the table, the ILP
        // answers.
        for (k, via) in [(12, CheckVia::Theorem1), (13, CheckVia::Ilp)] {
            let mut cubes: Vec<Vec<(u32, bool)>> =
                vec![vec![(0, true), (1, true)], vec![(2, true), (3, true)]];
            cubes.extend((4..k).map(|v| vec![(v, true), (0, true), (2, true)]));
            let refs: Vec<&[(u32, bool)]> = cubes.iter().map(Vec::as_slice).collect();
            let f = sop(&refs);
            assert_eq!(f.support().len(), k as usize);
            let mut solver = SolverBreakdown::default();
            assert_eq!(counted(&f, &cfg, &mut solver), (None, via), "k = {k}");
        }
    }

    #[test]
    fn positive_form_matches_a_per_literal_flip() {
        let mut state = 0x9051_7e5e_ed00_0001u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut unate = 0;
        for round in 0..200 {
            // Up to 8 cubes over variables spread to 100, so some covers
            // reach past a VarSet's inline word; one fixed phase per
            // variable, except that every fourth cover flips one literal.
            let phases = [next(), next()];
            let phase = |v: u32| phases[v as usize / 64] >> (v % 64) & 1 == 1;
            let mut cubes: Vec<Vec<(u32, bool)>> = (0..1 + next() % 8)
                .map(|_| {
                    let mut vars: Vec<u32> =
                        (0..1 + next() % 5).map(|_| (next() % 100) as u32).collect();
                    vars.sort_unstable();
                    vars.dedup();
                    vars.into_iter().map(|v| (v, phase(v))).collect()
                })
                .collect();
            let binate = round % 4 == 3 && cubes.len() > 1;
            if binate {
                let (v, p) = cubes[0][0];
                cubes[1].retain(|&(u, _)| u != v);
                cubes[1].push((v, !p));
            }
            let refs: Vec<&[(u32, bool)]> = cubes.iter().map(Vec::as_slice).collect();
            let f = sop(&refs);
            if !f.is_unate() {
                assert!(binate, "{f}");
                continue;
            }
            let mut pf = PositiveForm::default();
            assert!(positive_form(Query::Cover(&f), &mut pf));
            unate += 1;
            // Reference: every literal's phase flipped through its
            // variable's polarity in the cover.
            let negative = |v: Var| f.polarity(v) == Some(tels_logic::Polarity::Negative);
            let flipped =
                Sop::from_cubes(f.cubes().iter().map(|c| {
                    Cube::from_literals(c.literals().map(|(v, p)| (v, p != negative(v))))
                }));
            // The masks name support positions, one per cube in cover
            // order, with nothing left for `scc` to remove.
            assert_eq!(pf.cubes.len(), f.num_cubes());
            let positive = Sop::from_cubes(pf.cubes.iter().map(|&m| {
                Cube::from_literals(
                    (0..pf.support.len())
                        .filter(|&j| m >> j & 1 == 1)
                        .map(|j| (pf.support[j], true)),
                )
            }));
            assert_eq!(positive, flipped, "{f}");
            assert_eq!(pf.support, f.support().iter().collect::<Vec<_>>());
            assert!(pf
                .support
                .iter()
                .all(|&v| pf.negated.contains(v) == negative(v)));
        }
        assert!((100..200).contains(&unate), "{unate} unate covers");
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
        let mut scratch = QueryScratch::default();
        for f in &fns {
            let direct = check_threshold(f, &cfg).unwrap();
            if !f.is_unate() {
                // The public checker answers binate covers itself.
                assert_eq!(direct, None, "{f}");
                continue;
            }
            let (first, _) =
                check_threshold_cached(Query::Cover(f), &cfg, &cache, &mut solver, &mut scratch)
                    .unwrap();
            let (second, _) =
                check_threshold_cached(Query::Cover(f), &cfg, &cache, &mut solver, &mut scratch)
                    .unwrap();
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
        let mut scratch = QueryScratch::default();
        // x₁x₂ ∨ x₁x₃ populates the cache ...
        let a = sop(&[&[(1, true), (2, true)], &[(1, true), (3, true)]]);
        let (ra, via_a) =
            check_threshold_cached(Query::Cover(&a), &cfg, &cache, &mut solver, &mut scratch)
                .unwrap();
        assert_eq!(via_a, CheckVia::Ilp);
        // ... and x̄₅x₇ ∨ x̄₅x₉ — the same function up to renaming and
        // phase — must hit and remap exactly.
        let b = sop(&[&[(5, false), (7, true)], &[(5, false), (9, true)]]);
        let (rb, via_b) =
            check_threshold_cached(Query::Cover(&b), &cfg, &cache, &mut solver, &mut scratch)
                .unwrap();
        assert_eq!(via_b, CheckVia::CacheHit);
        let (ra, rb) = (ra.unwrap(), rb.unwrap());
        validate(&b, &rb);
        assert_eq!(ra.positive_threshold, rb.positive_threshold);
        assert_eq!(rb.weights, vec![(Var(5), -2), (Var(7), 1), (Var(9), 1)]);
        assert_eq!(rb.threshold, 1); // T_pos = 3 minus the flipped weight 2
    }

    #[test]
    fn cached_non_threshold_is_remembered() {
        // Tier 0 off so the refutation/memoization chain runs.
        let cfg = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        let cache = RealizationCache::new();
        let mut solver = SolverBreakdown::default();
        let mut scratch = QueryScratch::default();
        let f = sop(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]);
        let (r1, via1) =
            check_threshold_cached(Query::Cover(&f), &cfg, &cache, &mut solver, &mut scratch)
                .unwrap();
        assert_eq!(r1, None);
        assert_eq!(via1, CheckVia::Theorem1);
        let (r2, via2) =
            check_threshold_cached(Query::Cover(&f), &cfg, &cache, &mut solver, &mut scratch)
                .unwrap();
        assert_eq!(r2, None);
        assert_eq!(via2, CheckVia::CacheHit);
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
            let (r_on, via_on) = counted(&f, &on, &mut s_on);
            let (r_off, via_off) = counted(&f, &off, &mut s_off);
            // Same Option<Realization>, bit for bit: same weights, same
            // threshold, same variable order.
            assert_eq!(r_on, r_off, "{f}");
            assert_eq!(via_on, CheckVia::Tier0, "{f}");
            assert_eq!(s_on.ilp_solves(), 0, "oracle path must not solve: {f}");
            assert_ne!(via_off, CheckVia::Tier0, "{f}");
            if let Some(r) = &r_on {
                validate(&f, r);
            }
        }
    }

    #[test]
    fn prototype_forms_match_their_covers() {
        let phases = [true, false, false, true, true, false, true];
        let queries = (1..=phases.len())
            .map(|k| Query::And(&phases[..k]))
            .chain((2..=9).map(Query::Or));
        for query in queries {
            let cover = query.to_cover();
            let (mut direct, mut via_cover) = (PositiveForm::default(), PositiveForm::default());
            assert!(positive_form(query, &mut direct));
            assert!(positive_form(Query::Cover(&cover), &mut via_cover));
            assert_eq!(direct.support, via_cover.support, "{cover}");
            assert_eq!(direct.negated, via_cover.negated, "{cover}");
            assert_eq!(direct.cubes, via_cover.cubes, "{cover}");
        }
        // Past 64 variables no masks are written.
        let wide = [false; 65];
        let mut pf = PositiveForm::default();
        assert!(!positive_form(Query::And(&wide), &mut pf));
        assert_eq!(pf.negated.len(), 65);
        assert!(!positive_form(Query::Or(65), &mut pf));
        assert!(pf.negated.is_empty());
    }

    #[test]
    fn small_table_matches_the_packed_table() {
        let mut state = 0x5a11_7ab1_e000_0001u64;
        for k in 1..=tier0::MAX_VARS {
            for _ in 0..64 {
                let cubes: Vec<u64> = (0..1 + state % 4)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state & ((1 << k) - 1)
                    })
                    .collect();
                let packed = TruthTable::from_positive_cubes(k as u32, &cubes).as_u32();
                assert_eq!(small_table(k, &cubes), packed, "k = {k}, {cubes:?}");
            }
        }
    }

    #[test]
    fn tier0_bypasses_the_cache() {
        let cfg = TelsConfig::default();
        let cache = RealizationCache::new();
        let mut solver = SolverBreakdown::default();
        let mut scratch = QueryScratch::default();
        let f = sop(&[&[(0, true), (1, true)], &[(0, true), (2, true)]]);
        let (r1, via1) =
            check_threshold_cached(Query::Cover(&f), &cfg, &cache, &mut solver, &mut scratch)
                .unwrap();
        assert_eq!(via1, CheckVia::Tier0);
        assert!(r1.is_some());
        assert!(
            cache.is_empty(),
            "small-support answers must not be memoized"
        );
        // Second query re-resolves through the oracle, identically.
        let (r2, via2) =
            check_threshold_cached(Query::Cover(&f), &cfg, &cache, &mut solver, &mut scratch)
                .unwrap();
        assert_eq!(via2, CheckVia::Tier0);
        assert_eq!(r1, r2);
    }

    /// Differential sweep of the *cached* path over 4-variable functions:
    /// tier 0 on (oracle, cache bypassed) vs off (Theorem 1 + ILP + cache)
    /// must agree bit for bit. Debug builds sample the space;
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
        let mut scratch = QueryScratch::default();
        let mut tier0_answers = 0;
        for bits in (0u32..=u16::MAX as u32).step_by(stride as usize) {
            let f = sop_of_bits(4, bits);
            // Constants and binate covers never reach the cached path.
            if f.is_zero() || f.is_one() || !f.is_unate() {
                continue;
            }
            let (r_on, via) =
                check_threshold_cached(Query::Cover(&f), &on, &cache_on, &mut s_on, &mut scratch)
                    .unwrap();
            tier0_answers += usize::from(via == CheckVia::Tier0);
            let (r_off, _) = check_threshold_cached(
                Query::Cover(&f),
                &off,
                &cache_off,
                &mut s_off,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(r_on, r_off, "tt {bits:#06x}: {f}");
            if let Some(r) = &r_on {
                validate(&f, r);
            }
        }
        assert!(tier0_answers > 0);
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
