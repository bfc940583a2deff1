//! Tier 0.5: a linear pseudo-Boolean decision procedure for supports 6–9.
//!
//! Tier 0 (`tier0.rs`) answers every support-≤5 query from a precomputed
//! enumeration; above that the checker used to go straight to the merged
//! ILP. This module closes the gap for supports 6–9 with a direct search
//! over the *same* feasible region the merged ILP optimizes, in the style
//! of the linear pseudo-Boolean procedures of arXiv 2301.03667:
//!
//! * the query arrives as a 2-monotonic positive-unate function with its
//!   Chow classes (`chow::chow_classes`), so by the merging argument in
//!   `chow.rs` an optimal realization exists with one weight per class,
//!   weights non-strictly descending in class order;
//! * every functionally relevant variable of a positive-unate function
//!   needs weight ≥ 1 (weight 0 would force `δ_on + δ_off ≤ 0`), and
//!   SCC-minimal positive covers have all-relevant support, so the search
//!   enumerates descending class-weight vectors `w₁ ≥ … ≥ w_c ≥ 1`
//!   (`decide` still verifies monotonicity and relevance on the table and
//!   declines if either invariant ever failed to hold);
//! * for a fixed weight vector the feasibility test is the paper's ILP
//!   row set (one row per ON cube of `f`, one per OFF cube of `f̄`): the
//!   ON set of a positive-unate function is an up-set and every weight
//!   is ≥ 1, so `min_ON` over all ON rows is attained at a minimal ON row
//!   and `max_OFF` at a maximal OFF row. `decide` collects those extreme
//!   rows once per query, each reduced to its count of set variables per
//!   Chow class with duplicates dropped, and a leaf takes one dot product
//!   per extreme point: feasible iff `min_ON − δ_on ≥ max_OFF + δ_off`,
//!   and the minimal threshold is then `T = max_OFF + δ_off`, so the
//!   merged objective `Σ nᵢwᵢ + T` is determined by `w` alone;
//! * branch-and-bound completeness comes from the incumbent: once a
//!   feasible vector is known, any partial vector whose objective lower
//!   bound (remaining weights at 1, `T ≥ δ_off`) exceeds the incumbent is
//!   pruned, and the `w₁` loop terminates the same way. Nodes with bound
//!   *equal* to the incumbent are still explored so optimum ties are
//!   counted.
//!
//! The procedure answers only when it can guarantee the ILP would have
//! produced the *identical* realization: a **unique** optimum over a
//! provably exhausted search space. Ties, an exhausted node budget, or no
//! feasible vector below the initial cap all return `Inconclusive` and
//! fall through to the ILP, so `.tnet` output is byte-identical with the
//! tier on or off by construction.
//!
//! Non-thresholdness is proved by a 2-asummability violation: minterm
//! pairs `a, b ∈ ON` and `c, d ∈ OFF` with `a + b = c + d` (coordinate
//! sums) are impossible for any threshold function with `δ_off ≥ 1`
//! (summing the four constraints gives `2T ≤ 2T − δ_on − δ_off`). The
//! check marks pairwise coordinate sums in a bitmap — 2 bits per
//! variable, so a support-9 sum packs into 18 bits and the bitmap takes
//! 32 KiB.

use tels_logic::TruthTable;

use crate::cache::CanonicalRealization;
use crate::check::Step;
use crate::chow::ChowAnalysis;

/// Smallest support handled by tier 0.5 (tier 0 owns everything below).
pub(crate) const MIN_VARS: usize = 6;
/// Largest support handled by tier 0.5.
pub(crate) const MAX_VARS: usize = 9;

/// Margins the tier is built for; `TelsConfig::tier05_active` gates the
/// dispatch to exactly these (the synthesis defaults).
const DELTA_ON: i64 = 0;
const DELTA_OFF: i64 = 1;

/// Largest top weight tried before any feasible incumbent exists. Real
/// synthesis queries at supports 6–9 have small optimal weights; anything
/// needing more falls through to the ILP.
const INIT_CAP: i64 = 16;
/// Maximum leaf feasibility evaluations (each one dot product per extreme
/// point) before the search gives up and declines.
const LEAF_BUDGET: u32 = 20_000;

/// A row of the table reduced to its number of set variables per Chow
/// class (classes in order, unused entries 0), so its weighted sum under
/// class weights `w` is the dot product with `w`.
type ClassCounts = [i64; MAX_VARS];

/// Runs the decision procedure on a positive-unate table with its Chow
/// classes. The table must not be constant.
///
/// Decides only with the merged ILP's provably unique optimum
/// (per-variable weights, indexed like the table's variables, and the
/// threshold), refutes only on a 2-asummability violation, and passes
/// whenever it has no guarantee either way.
pub(crate) fn decide(tt: &TruthTable, chow: &ChowAnalysis) -> Step<CanonicalRealization> {
    let k = tt.num_vars() as usize;
    debug_assert!((MIN_VARS..=MAX_VARS).contains(&k));

    let classes = &chow.classes;
    debug_assert_eq!(chow.num_vars(), k);
    let mut class_of = vec![0usize; k];
    let mut sizes = vec![0i64; classes.len()];
    for (ci, class) in classes.iter().enumerate() {
        for &pos in class {
            class_of[pos] = ci;
        }
        sizes[ci] = class.len() as i64;
    }

    // The search below is only complete for a positive-unate table whose
    // support variables are all functionally relevant. SCC-minimal
    // positive covers guarantee both, but `extreme_points` verifies them
    // on the table, and the tier declines rather than trust the caller:
    // an irrelevant variable legitimately takes weight 0 in the ILP's
    // optimum, and the extreme rows stand for the whole table only when
    // the ON set is an up-set.
    let Some((on, off)) = extreme_points(tt, &class_of) else {
        return Step::Pass;
    };
    let mut search = Search::new(sizes, on, off);
    search.run();

    if search.budget_exhausted {
        return Step::Pass;
    }
    match search.best {
        Some((_, weights, t)) if !search.tied => Step::Decided(CanonicalRealization {
            weights: class_of.iter().map(|&c| weights[c]).collect(),
            threshold: t,
        }),
        Some(_) => Step::Pass,
        // Search space exhausted without a feasible vector: either the
        // function needs weights above INIT_CAP or it is not threshold.
        // Only the 2-asummability proof may say which.
        None => {
            if two_asummability_violated(tt) {
                Step::Refuted
            } else {
                Step::Pass
            }
        }
    }
}

/// The minimal ON rows and the maximal OFF rows of a positive-unate
/// table, as distinct [`ClassCounts`] under the class map `class_of`;
/// `None` when the table is not positive unate or does not depend on
/// some variable.
///
/// A row is a minimal ON row when clearing any one of its set variables
/// turns it OFF, and a maximal OFF row when setting any one of its clear
/// variables turns it ON. Under weights ≥ 1 every ON row sums to at least
/// some minimal ON row below it, and every OFF row to at most some
/// maximal OFF row above it. All rows are tested at once, a word of 64
/// at a time, against the table with one variable flipped.
fn extreme_points(
    tt: &TruthTable,
    class_of: &[usize],
) -> Option<(Vec<ClassCounts>, Vec<ClassCounts>)> {
    let f = tt.words();
    let mut min_on = f.to_vec();
    let mut max_off: Vec<u64> = f.iter().map(|w| !w).collect();
    for i in 0..class_of.len() as u32 {
        let mut relevant = false;
        for (j, &word) in f.iter().enumerate() {
            let (x, g) = (tt.rows_with(i, j), tt.flipped_word(i, j));
            // A clear variable whose setting turns an ON row OFF.
            if word & !x & !g != 0 {
                return None;
            }
            relevant |= word != g;
            min_on[j] &= !x | !g;
            max_off[j] &= x | g;
        }
        if !relevant {
            return None;
        }
    }
    let points = |rows: &[u64]| {
        let mut out: Vec<ClassCounts> = Vec::new();
        for (j, &word) in rows.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let m = j * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let mut counts = [0i64; MAX_VARS];
                for (i, &c) in class_of.iter().enumerate() {
                    counts[c] += (m >> i & 1) as i64;
                }
                out.push(counts);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    };
    Some((points(&min_on), points(&max_off)))
}

struct Search {
    /// Variables per class, as i64 for objective arithmetic.
    sizes: Vec<i64>,
    /// Minimal ON rows of the table ([`extreme_points`]).
    on: Vec<ClassCounts>,
    /// Maximal OFF rows of the table ([`extreme_points`]).
    off: Vec<ClassCounts>,
    /// The pair bound of [`Search::may_reach`], one row per class `d` of
    /// one entry per kept (ON, OFF) pair: `(c_d, slope, floor)` where `c =
    /// a − b` and the bound over completions `w[d+1..] ∈ [1, v]` is
    /// `prefix + slope·v + floor`.
    pair_bounds: Vec<Vec<(i64, i64, i64)>>,
    /// `Σ_{j<d} c_j·w[j]` per kept pair, one row per depth `d`.
    prefix: Vec<Vec<i64>>,
    leaves_left: u32,
    /// `(objective, class weights, threshold)` of the incumbent.
    best: Option<(i64, Vec<i64>, i64)>,
    /// Two leaves reached the incumbent objective — optimum not unique.
    tied: bool,
    budget_exhausted: bool,
}

impl Search {
    fn new(sizes: Vec<i64>, on: Vec<ClassCounts>, off: Vec<ClassCounts>) -> Search {
        let classes = sizes.len();
        // A pair with `c ≥ 0` everywhere and `Σ c ≥ δ_on + δ_off` holds
        // under every weight vector (all weights are ≥ 1): it can never
        // prune, so it is dropped.
        let diffs: Vec<ClassCounts> = on
            .iter()
            .flat_map(|a| {
                off.iter().map(move |b| {
                    let mut c = [0i64; MAX_VARS];
                    for j in 0..classes {
                        c[j] = a[j] - b[j];
                    }
                    c
                })
            })
            .filter(|c| c.iter().any(|&x| x < 0) || c.iter().sum::<i64>() < DELTA_ON + DELTA_OFF)
            .collect();
        let pair_bounds = (0..classes)
            .map(|d| {
                diffs
                    .iter()
                    .map(|c| {
                        let rest = &c[d + 1..classes];
                        let up: i64 = rest.iter().filter(|&&x| x > 0).sum();
                        let down: i64 = rest.iter().filter(|&&x| x < 0).sum();
                        (c[d], c[d] + up, down)
                    })
                    .collect()
            })
            .collect();
        let prefix = vec![vec![0i64; diffs.len()]; classes + 1];
        Search {
            sizes,
            on,
            off,
            pair_bounds,
            prefix,
            leaves_left: LEAF_BUDGET,
            best: None,
            tied: false,
            budget_exhausted: false,
        }
    }

    fn run(&mut self) {
        let mut w = vec![0i64; self.sizes.len()];
        self.dfs(&mut w, 0, 0);
    }

    /// Explores class weights `w[d..]`, each in `1..=w[d-1]` (the top
    /// weight up to [`INIT_CAP`] until an incumbent exists), pruning on
    /// the incumbent objective and on the pair bound. `partial` is
    /// `Σ_{j<d} sizes[j]·w[j]`.
    fn dfs(&mut self, w: &mut [i64], d: usize, partial: i64) {
        if d == self.sizes.len() {
            self.leaf(w, partial);
            return;
        }
        let rest: i64 = self.sizes[d..].iter().sum();
        let mut v = 1i64;
        loop {
            // Objective lower bound with w[d] = v: remaining classes at
            // weight 1 and the minimal possible threshold. Strictly
            // increasing in v, so the loop may stop at the first miss;
            // equality is explored to count ties.
            let bound = partial + self.sizes[d] * v + (rest - self.sizes[d]) + DELTA_OFF;
            match &self.best {
                Some((obj, ..)) if bound > *obj => break,
                None if d == 0 && v > INIT_CAP => break,
                _ => {}
            }
            if d > 0 && v > w[d - 1] {
                break;
            }
            // The last class is left to the leaf test, so every complete
            // vector the search reaches counts against the budget.
            if d + 1 == self.sizes.len() || self.may_reach(d, v) {
                w[d] = v;
                self.dfs(w, d + 1, partial + self.sizes[d] * v);
                if self.budget_exhausted {
                    return;
                }
            }
            v += 1;
        }
    }

    /// The pair bound: whether every kept (minimal ON `a`, maximal OFF
    /// `b`) pair can still reach `Σ_j (a_j − b_j)·w_j ≥ δ_on + δ_off` with
    /// `w[d] = v` and the later weights anywhere in `[1, v]`. A pair that
    /// cannot fails at every leaf below, since a leaf is feasible exactly
    /// when all pairs hold; on success the prefix sums of depth `d + 1`
    /// are written.
    fn may_reach(&mut self, d: usize, v: i64) -> bool {
        let (done, next) = self.prefix.split_at_mut(d + 1);
        let (prefix, next) = (&done[d], &mut next[0]);
        let bounds = &self.pair_bounds[d];
        if prefix
            .iter()
            .zip(bounds)
            .any(|(&p, &(_, slope, floor))| p + slope * v + floor < DELTA_ON + DELTA_OFF)
        {
            return false;
        }
        for ((n, &p), &(c, ..)) in next.iter_mut().zip(prefix).zip(bounds) {
            *n = p + c * v;
        }
        true
    }

    /// Feasibility test for a complete weight vector: min over the
    /// minimal ON rows vs max over the maximal OFF rows, which equal the
    /// min over all ON rows and the max over all OFF rows.
    fn leaf(&mut self, w: &[i64], weight_sum: i64) {
        if self.leaves_left == 0 {
            self.budget_exhausted = true;
            return;
        }
        self.leaves_left -= 1;

        let (min_on, max_off) = extremes(&self.on, &self.off, w);
        if min_on - DELTA_ON < max_off + DELTA_OFF {
            return;
        }
        let t = max_off + DELTA_OFF;
        let obj = weight_sum + t;
        match &self.best {
            Some((best, ..)) if obj > *best => {}
            Some((best, ..)) if obj == *best => self.tied = true,
            _ => {
                self.best = Some((obj, w.to_vec(), t));
                self.tied = false;
            }
        }
    }
}

/// `(min_ON, max_OFF)`: the smallest weighted sum over `on` and the
/// largest over `off` under class weights `w`.
fn extremes(on: &[ClassCounts], off: &[ClassCounts], w: &[i64]) -> (i64, i64) {
    let dot = |p: &ClassCounts| p.iter().zip(w).map(|(&n, &wi)| n * wi).sum::<i64>();
    let min_on = on.iter().map(dot).min().expect("constant table");
    let max_off = off.iter().map(dot).max().expect("constant table");
    (min_on, max_off)
}

/// Sound non-thresholdness proof: finds ON minterms `a, b` and OFF
/// minterms `c, d` with equal coordinate sums `a + b = c + d`. Each
/// per-variable sum is 0..=2, packed 2 bits per variable (≤ 18 bits for
/// support 9), so the ON pair sums fit a bitmap of `4^k` bits.
fn two_asummability_violated(tt: &TruthTable) -> bool {
    let k = tt.num_vars() as usize;
    debug_assert!(k <= MAX_VARS);
    let rows = 1usize << k;
    let mut on = Vec::new();
    let mut off = Vec::new();
    for m in 0..rows {
        // Spread each minterm bit i to bit 2i so packed sums never carry.
        let mut spread = 0u32;
        for i in 0..k {
            spread |= ((m as u32 >> i) & 1) << (2 * i);
        }
        if tt.bit(m) {
            on.push(spread);
        } else {
            off.push(spread);
        }
    }
    let mut on_sums = vec![0u64; (1usize << (2 * k)).div_ceil(64)];
    for (i, &a) in on.iter().enumerate() {
        for &b in &on[i..] {
            let s = (a + b) as usize;
            on_sums[s / 64] |= 1 << (s % 64);
        }
    }
    for (i, &c) in off.iter().enumerate() {
        for &d in &off[i..] {
            let s = (c + d) as usize;
            if on_sums[s / 64] >> (s % 64) & 1 == 1 {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chow;
    use tels_logic::{Polarity, TruthTable};

    fn table_of_bits(k: usize, f: impl Fn(usize) -> bool) -> TruthTable {
        let mut tt = TruthTable::constant(k as u32, false);
        for m in 0..1usize << k {
            if f(m) {
                tt.set_bit(m, true);
            }
        }
        tt
    }

    fn analyze(tt: &TruthTable) -> ChowAnalysis {
        assert!(chow::two_monotonic(tt), "test table must be 2-monotonic");
        chow::chow_classes(tt)
    }

    /// Brute-force check that `(weights, t)` realizes the table.
    fn realizes(tt: &TruthTable, weights: &[i64], t: i64) -> bool {
        let k = tt.num_vars() as usize;
        (0..1usize << k).all(|m| {
            let sum: i64 = (0..k)
                .filter(|&i| m >> i & 1 != 0)
                .map(|i| weights[i])
                .sum();
            tt.bit(m) == (sum >= t)
        })
    }

    #[test]
    fn majority_of_seven_is_found() {
        let tt = table_of_bits(7, |m| m.count_ones() >= 4);
        match decide(&tt, &analyze(&tt)) {
            Step::Decided(CanonicalRealization {
                weights: w,
                threshold: t,
            }) => {
                assert_eq!(w, vec![1; 7]);
                assert_eq!(t, 4);
                assert!(realizes(&tt, &w, t));
            }
            _ => panic!("majority-7 must be identified"),
        }
    }

    #[test]
    fn weighted_threshold_recovers_minimal_weights() {
        // f(m) = [3a + 2b + c + d + e + g ≥ 4] over 6 variables.
        let w0 = [3i64, 2, 1, 1, 1, 1];
        let tt = table_of_bits(6, |m| {
            let s: i64 = (0..6).filter(|&i| m >> i & 1 != 0).map(|i| w0[i]).sum();
            s >= 4
        });
        match decide(&tt, &analyze(&tt)) {
            Step::Decided(CanonicalRealization {
                weights: w,
                threshold: t,
            }) => {
                assert!(realizes(&tt, &w, t));
                // Objective of the found optimum can't exceed the seed's.
                let seed_obj: i64 = w0.iter().sum::<i64>() + 4;
                assert!(w.iter().sum::<i64>() + t <= seed_obj);
            }
            _ => panic!("weighted threshold must be identified"),
        }
    }

    #[test]
    fn irrelevant_variable_declines() {
        // Variable 5 never matters: the w ≥ 1 search space would exclude
        // the ILP's optimum, so the tier must decline.
        let tt = table_of_bits(6, |m| (m & 0x1f).count_ones() >= 3);
        assert!(matches!(decide(&tt, &analyze(&tt)), Step::Pass));
    }

    #[test]
    fn two_asummability_catches_known_non_threshold() {
        // f = ab ∨ cd is famously not threshold:
        // (1100)+(0011) = (1010)+(0101) pairs ON minterms against OFF
        // minterms with equal coordinate sums. It is also not 2-monotonic
        // (a and c are incomparable), so in the full flow the
        // 2-monotonicity refutation answers before `decide` runs — here we
        // exercise the asummability proof directly, padded to support 6
        // with two relevant OR variables (violating pairs keep e = g = 0).
        let tt = table_of_bits(6, |m| {
            let (a, b, c, d) = (m & 1, m >> 1 & 1, m >> 2 & 1, m >> 3 & 1);
            let (e, g) = (m >> 4 & 1, m >> 5 & 1);
            (a & b | c & d | e | g) != 0
        });
        assert!(two_asummability_violated(&tt));
    }

    #[test]
    fn two_asummability_accepts_threshold_functions() {
        let tt = table_of_bits(6, |m| m.count_ones() >= 3);
        assert!(!two_asummability_violated(&tt));
    }

    /// Xorshift64 stream for the seeded table families.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Reference `(min_ON, max_OFF)`: a subset-sum walk over every row
    /// (`sums[m] = sums[m & (m-1)] + w[class of lowbit(m)]`).
    fn walk_extremes(tt: &TruthTable, class_of: &[usize], w: &[i64]) -> (i64, i64) {
        let rows = 1usize << tt.num_vars();
        let mut sums = vec![0i64; rows];
        let (mut min_on, mut max_off) = (i64::MAX, i64::MIN);
        for m in 0..rows {
            if m > 0 {
                sums[m] = sums[m & (m - 1)] + w[class_of[m.trailing_zeros() as usize]];
            }
            if tt.bit(m) {
                min_on = min_on.min(sums[m]);
            } else {
                max_off = max_off.max(sums[m]);
            }
        }
        (min_on, max_off)
    }

    /// A random 2-monotonic positive table: the smallest ON set that
    /// contains `generators` random rows and is closed under setting a
    /// variable and under moving a set variable `j` to a clear `i < j`.
    /// Both moves raise `Σ (k − i)` over the set variables, so one pass in
    /// that order sees every row's predecessors first.
    fn regular_table(k: usize, generators: usize, next: &mut impl FnMut() -> u64) -> TruthTable {
        let rows = 1usize << k;
        let mut on = vec![false; rows];
        for _ in 0..generators {
            on[next() as usize % rows] = true;
        }
        let potential = |m: usize| {
            (0..k)
                .filter(|&i| m >> i & 1 == 1)
                .map(|i| k - i)
                .sum::<usize>()
        };
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by_key(|&m| potential(m));
        for m in order {
            let set = |i: usize| m >> i & 1 == 1;
            on[m] = on[m]
                || (0..k).any(|i| set(i) && on[m ^ 1 << i])
                || (0..k).any(|i| (i + 1..k).any(|j| set(i) && !set(j) && on[m ^ 1 << i ^ 1 << j]));
        }
        table_of_bits(k, |m| on[m])
    }

    #[test]
    fn extreme_points_match_the_full_table_walk() {
        let mut next = xorshift(0x0e57_7e3e_5eed_0001);
        let mut tables = 0;
        let mut non_threshold = 0;
        for k in MIN_VARS..=MAX_VARS {
            for round in 0..32 {
                let tt = if round % 2 == 0 {
                    let w0: Vec<i64> = (0..k).map(|_| (next() % 8) as i64 + 1).collect();
                    let t0 = (next() % w0.iter().sum::<i64>() as u64) as i64 + 1;
                    table_of_bits(k, |m| {
                        (0..k)
                            .filter(|&i| m >> i & 1 == 1)
                            .map(|i| w0[i])
                            .sum::<i64>()
                            >= t0
                    })
                } else {
                    regular_table(k, 2 + next() as usize % 6, &mut next)
                };
                let ones = tt.count_ones();
                if ones == 0 || ones == 1 << k {
                    continue;
                }
                let chow = analyze(&tt);
                let mut class_of = vec![0usize; k];
                for (c, class) in chow.classes.iter().enumerate() {
                    for &pos in class {
                        class_of[pos] = c;
                    }
                }
                // Tables with an irrelevant variable are declined, and
                // so is the table with one row flipped unless it stays
                // positive unate in every variable.
                let mut flipped_row = tt.clone();
                let m = next() as usize % (1 << k);
                flipped_row.set_bit(m, !tt.bit(m));
                for t in [&tt, &flipped_row] {
                    let positive = (0..k as u32).all(|i| t.polarity(i) == Some(Polarity::Positive));
                    assert_eq!(extreme_points(t, &class_of).is_some(), positive);
                }
                let Some((on, off)) = extreme_points(&tt, &class_of) else {
                    continue;
                };
                tables += 1;
                non_threshold += usize::from(two_asummability_violated(&tt));
                for _ in 0..64 {
                    let mut w: Vec<i64> = chow
                        .classes
                        .iter()
                        .map(|_| (next() % 20) as i64 + 1)
                        .collect();
                    w.sort_unstable_by(|a, b| b.cmp(a));
                    assert_eq!(
                        extremes(&on, &off, &w),
                        walk_extremes(&tt, &class_of, &w),
                        "k = {k}, class weights {w:?}"
                    );
                }
            }
        }
        assert!(
            tables >= 80,
            "only {tables} tables with every variable relevant"
        );
        assert!(non_threshold > 0, "the family has no non-threshold table");
    }

    #[test]
    fn non_monotone_tables_decline() {
        // Symmetric, hence 2-monotonic with one Chow class, and every
        // variable is relevant, but neither table is positive unate. The
        // search would find no feasible vector, and parity would then be
        // refuted by the asummability proof; the tier declines first.
        for tt in [
            table_of_bits(7, |m| m.count_ones() <= 3),
            table_of_bits(7, |m| m.count_ones() % 2 == 1),
        ] {
            assert!(matches!(decide(&tt, &analyze(&tt)), Step::Pass));
        }
    }

    #[test]
    fn decide_answers_match_brute_force_search() {
        // Seeded family of weighted thresholds at support 6: whenever the
        // tier answers Threshold, the realization must be valid and its
        // objective must match an independent exhaustive minimum.
        let mut next = xorshift(0x1234_5678_9abc_def0);
        for _ in 0..20 {
            let w0: Vec<i64> = (0..6).map(|_| (next() % 4) as i64 + 1).collect();
            let total: i64 = w0.iter().sum();
            let t0 = (next() % (total as u64 - 1)) as i64 + 1;
            let tt = table_of_bits(6, |m| {
                (0..6)
                    .filter(|&i| m >> i & 1 != 0)
                    .map(|i| w0[i])
                    .sum::<i64>()
                    >= t0
            });
            if tt.count_ones() == 0 || tt.count_ones() == 64 {
                continue;
            }
            let chow = analyze(&tt);
            match decide(&tt, &chow) {
                Step::Decided(CanonicalRealization {
                    weights: w,
                    threshold: t,
                }) => {
                    assert!(
                        realizes(&tt, &w, t),
                        "invalid realization for {w0:?} ≥ {t0}"
                    );
                }
                Step::Refuted => panic!("threshold function rejected: {w0:?} ≥ {t0}"),
                Step::Pass => {} // legal (ties), ILP takes over
            }
        }
    }

    /// The search as it was before the pair bound: the oracle the pruned
    /// [`Search`] is held to.
    struct Unpruned {
        sizes: Vec<i64>,
        on: Vec<ClassCounts>,
        off: Vec<ClassCounts>,
        leaves_left: u32,
        best: Option<(i64, Vec<i64>, i64)>,
        tied: bool,
        budget_exhausted: bool,
    }

    impl Unpruned {
        fn run(&mut self) {
            let mut w = vec![0i64; self.sizes.len()];
            let rest: i64 = self.sizes.iter().sum();
            let mut v = 1i64;
            loop {
                let bound = self.sizes[0] * v + (rest - self.sizes[0]) + DELTA_OFF;
                match &self.best {
                    Some((obj, ..)) if bound > *obj => break,
                    None if v > INIT_CAP => break,
                    _ => {}
                }
                w[0] = v;
                self.dfs(&mut w, 1, self.sizes[0] * v);
                if self.budget_exhausted {
                    break;
                }
                v += 1;
            }
        }

        fn dfs(&mut self, w: &mut Vec<i64>, d: usize, partial: i64) {
            if self.budget_exhausted {
                return;
            }
            if d == self.sizes.len() {
                self.leaf(w, partial);
                return;
            }
            let rest: i64 = self.sizes[d..].iter().sum();
            for v in 1..=w[d - 1] {
                let bound = partial + self.sizes[d] * v + (rest - self.sizes[d]) + DELTA_OFF;
                if let Some((obj, ..)) = &self.best {
                    if bound > *obj {
                        break;
                    }
                }
                w[d] = v;
                self.dfs(w, d + 1, partial + self.sizes[d] * v);
                if self.budget_exhausted {
                    return;
                }
            }
        }

        fn leaf(&mut self, w: &[i64], weight_sum: i64) {
            if self.leaves_left == 0 {
                self.budget_exhausted = true;
                return;
            }
            self.leaves_left -= 1;
            let (min_on, max_off) = extremes(&self.on, &self.off, w);
            if min_on - DELTA_ON < max_off + DELTA_OFF {
                return;
            }
            let t = max_off + DELTA_OFF;
            let obj = weight_sum + t;
            match &self.best {
                Some((best, ..)) if obj > *best => {}
                Some((best, ..)) if obj == *best => self.tied = true,
                _ => {
                    self.best = Some((obj, w.to_vec(), t));
                    self.tied = false;
                }
            }
        }
    }

    /// Runs the pruned search and the oracle on one positive 2-monotonic
    /// table. The pruned search must visit no more leaves, and wherever
    /// the oracle stays within its budget both must end with the same
    /// incumbent and tie flag, which fix `decide`'s `Step`. Returns the
    /// leaves visited `(pruned, oracle)` and whether each ran out of
    /// budget, or `None` for a table `decide` declines before searching.
    fn compare_searches(tt: &TruthTable) -> Option<((u32, u32), (bool, bool))> {
        let chow = analyze(tt);
        let mut class_of = vec![0usize; tt.num_vars() as usize];
        let mut sizes = vec![0i64; chow.classes.len()];
        for (c, class) in chow.classes.iter().enumerate() {
            for &pos in class {
                class_of[pos] = c;
            }
            sizes[c] = class.len() as i64;
        }
        let (on, off) = extreme_points(tt, &class_of)?;
        let mut oracle = Unpruned {
            sizes: sizes.clone(),
            on: on.clone(),
            off: off.clone(),
            leaves_left: LEAF_BUDGET,
            best: None,
            tied: false,
            budget_exhausted: false,
        };
        oracle.run();
        let mut pruned = Search::new(sizes, on, off);
        pruned.run();
        let leaves = (
            LEAF_BUDGET - pruned.leaves_left,
            LEAF_BUDGET - oracle.leaves_left,
        );
        assert!(leaves.0 <= leaves.1, "pruned search visited more leaves");
        if !oracle.budget_exhausted {
            assert!(!pruned.budget_exhausted);
            assert_eq!(pruned.best, oracle.best);
            assert_eq!(pruned.tied, oracle.tied);
        }
        Some((leaves, (pruned.budget_exhausted, oracle.budget_exhausted)))
    }

    #[test]
    fn pair_bound_keeps_every_answer_on_seeded_tables() {
        let mut next = xorshift(0x9a12_b0de_5eed_0002);
        let (mut searched, mut pruned_any, mut decided) = (0, 0, 0);
        for k in MIN_VARS..=MAX_VARS {
            for round in 0..24 {
                let tt = if round % 2 == 0 {
                    let w0: Vec<i64> = (0..k).map(|_| (next() % 6) as i64 + 1).collect();
                    let t0 = (next() % w0.iter().sum::<i64>() as u64) as i64 + 1;
                    table_of_bits(k, |m| {
                        (0..k)
                            .filter(|&i| m >> i & 1 == 1)
                            .map(|i| w0[i])
                            .sum::<i64>()
                            >= t0
                    })
                } else {
                    regular_table(k, 2 + next() as usize % 6, &mut next)
                };
                let ones = tt.count_ones();
                if ones == 0 || ones == 1 << k {
                    continue;
                }
                let Some(((pruned, oracle), _)) = compare_searches(&tt) else {
                    continue;
                };
                searched += 1;
                pruned_any += usize::from(pruned < oracle);
                decided += usize::from(matches!(decide(&tt, &analyze(&tt)), Step::Decided(_)));
            }
        }
        assert!(searched >= 60, "only {searched} tables searched");
        assert!(pruned_any > 0, "the pair bound never cut a leaf");
        assert!(decided > 0, "no table was decided");
    }

    /// The wide benchmark networks (200 nodes, 24 inputs, fanin ≤ 6, ≤ 6
    /// cubes, one literal in five complemented), factored and synthesized
    /// at ψ = 9; every support-6–9 miss that survives the 2-monotonicity
    /// refutation is a tier-0.5 query. Debug builds take the first eight
    /// networks, release builds all 31.
    #[test]
    fn pair_bound_keeps_every_answer_on_wide_miss_tables() {
        use tels_circuits::{random_network, RandomNetOptions};
        let options = RandomNetOptions {
            inputs: 24,
            outputs: 12,
            nodes: 200,
            max_fanin: 6,
            max_cubes: 6,
            negation_pct: 20,
            ..RandomNetOptions::default()
        };
        let config = crate::TelsConfig {
            psi: 9,
            ..crate::TelsConfig::default()
        };
        let circuits = if cfg!(debug_assertions) { 8 } else { 31 };
        let (mut searched, mut oracle_out_of_budget, mut rescued) = (0, 0, 0);
        for i in 0..circuits {
            let net = random_network(&format!("wide_{i}"), 0x5EED_0000 + i, &options);
            let cache = crate::cache::RealizationCache::new();
            crate::synthesize_with_cache(&tels_logic::opt::script_algebraic(&net), &config, &cache)
                .unwrap();
            for (key, _) in cache.snapshot() {
                let k = key[0] as usize;
                if !(MIN_VARS..=MAX_VARS).contains(&k) {
                    continue;
                }
                let tt = TruthTable::from_positive_cubes(k as u32, &key[1..]);
                if !chow::two_monotonic(&tt) {
                    continue;
                }
                let Some((_, (pruned, oracle))) = compare_searches(&tt) else {
                    continue;
                };
                searched += 1;
                oracle_out_of_budget += usize::from(oracle);
                rescued += usize::from(oracle && !pruned);
            }
        }
        assert!(
            searched >= 5 * circuits as usize,
            "only {searched} miss tables"
        );
        // The one search of the benchmark set that runs out of budget
        // unpruned, among the first eight networks, finishes under the
        // pair bound.
        assert!(oracle_out_of_budget >= 1);
        assert_eq!(rescued, oracle_out_of_budget);
    }
}
