//! Chow-parameter structure analysis of positive-unate truth tables.
//!
//! The *Chow parameters* of a positive function `f` are
//! `pᵢ = |{m : f(m) = 1, mᵢ = 1}|` — how many ON minterms set each
//! variable. For 2-monotonic positive functions they order the variables:
//! `pᵢ ≥ pⱼ` iff the cofactor `f|xᵢ=1,xⱼ=0` dominates `f|xᵢ=0,xⱼ=1`
//! pointwise, so any feasible weight assignment can be re-sorted into Chow
//! order by a swap argument (exchanging the weights of a comparable pair
//! preserves every minterm inequality). When `pᵢ = pⱼ` the two dominations
//! hold simultaneously, the cofactors coincide, and the function is
//! *symmetric* in `(xᵢ, xⱼ)` — equal-Chow variables can share one ILP
//! weight column.
//!
//! The threshold checker uses both facts to shrink its ILP
//! ([`crate::check`]): weight-ordering chain constraints prune the
//! branch-and-bound without changing feasibility *or* the optimum, and
//! merging each equal-Chow class into one column collapses the symmetric
//! structures (majority, adder carries, comparators) that dominate
//! synthesis workloads. Merging preserves feasibility — average a
//! realization's weights over the class (the class is fully symmetric, so
//! the average still realizes `f` over the rationals) and scale by the
//! class size to restore integrality; `δ_on ≥ 0` and `δ_off ≥ 1` keep both
//! margin inequalities valid under scaling by `k ≥ 1`. Scaling can grow
//! weights, though, so the checker keeps classes *unmerged* whenever a
//! dynamic-range `weight_cap` is in force (the ordering constraints remain
//! sound: a swap never changes the multiset of weights).
//!
//! The checker's refutation is the 2-monotonicity test ([`two_monotonic`];
//! every threshold function is 2-monotonic). It is the paper's Theorem 1
//! (§IV) read on the positive form `f`: the substitution `xᵢ ← x̄ⱼ` gives
//! `g` with `g|xⱼ=1 = f|xᵢ=0,xⱼ=1` and `g|xⱼ=0 = f|xᵢ=1,xⱼ=0`, so `g` is
//! binate in `xⱼ` exactly when that pair of cofactors is incomparable.
//! Both passes run a word of 64 rows at a time on the checker's one table
//! per query.

use tels_logic::TruthTable;

/// Largest support for which the checker builds its truth table and runs
/// the 2-monotonicity refutation.
pub(crate) const REFUTE_VAR_LIMIT: usize = 12;

/// Largest support whose Chow classes reduce the ILP; wider queries reach
/// the ILP with one unordered column per variable.
pub(crate) const STRUCTURE_VAR_LIMIT: usize = 11;

/// Chow-parameter structure of a 2-monotonic positive table.
pub(crate) struct ChowAnalysis {
    /// Positions into the checker's variable order, grouped into classes
    /// of equal Chow parameter, classes sorted by strictly descending
    /// parameter (positions ascending within a class).
    pub classes: Vec<Vec<usize>>,
}

impl ChowAnalysis {
    /// Number of variables covered by the classes.
    pub fn num_vars(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }
}

/// Whether the table is 2-monotonic: for every pair of variables one of
/// the swapped cofactors `f|xᵢ=1,xⱼ=0` and `f|xᵢ=0,xⱼ=1` dominates the
/// other pointwise. Both cofactors are read on the rows where `xᵢ` and
/// `xⱼ` are clear, as the table with `xᵢ` flipped and the table with `xⱼ`
/// flipped.
pub(crate) fn two_monotonic(tt: &TruthTable) -> bool {
    let k = tt.num_vars();
    (0..k).all(|i| {
        (i + 1..k).all(|j| {
            let (mut i_only, mut j_only) = (0u64, 0u64);
            for w in 0..tt.words().len() {
                let clear = !tt.rows_with(i, w) & !tt.rows_with(j, w);
                let fi = tt.flipped_word(i, w) & clear;
                let fj = tt.flipped_word(j, w) & clear;
                i_only |= fi & !fj;
                j_only |= fj & !fi;
            }
            i_only == 0 || j_only == 0
        })
    })
}

/// The Chow classes of a positive table, each parameter counted as
/// `popcount(table & rows_with(i))`.
pub(crate) fn chow_classes(tt: &TruthTable) -> ChowAnalysis {
    let k = tt.num_vars();
    let p: Vec<u32> = (0..k)
        .map(|i| {
            tt.words()
                .iter()
                .enumerate()
                .map(|(w, &word)| (word & tt.rows_with(i, w)).count_ones())
                .sum()
        })
        .collect();
    classes_of(&p)
}

/// Groups positions by equal parameter, in strictly descending parameter
/// order and ascending position within a class.
fn classes_of(p: &[u32]) -> ChowAnalysis {
    let mut by_param: Vec<usize> = (0..p.len()).collect();
    by_param.sort_unstable_by_key(|&i| (std::cmp::Reverse(p[i]), i));
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for i in by_param {
        match classes.last_mut() {
            Some(c) if p[c[0]] == p[i] => c.push(i),
            _ => classes.push(vec![i]),
        }
    }
    ChowAnalysis { classes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tels_logic::{Cube, Sop, Var};

    fn table(cubes: &[&[u32]], k: u32) -> TruthTable {
        let f = Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_literals(c.iter().map(|&v| (Var(v), true)))),
        );
        TruthTable::from_sop(&f, &(0..k).map(Var).collect::<Vec<_>>())
    }

    fn table_of_bits(k: u32, f: impl Fn(usize) -> bool) -> TruthTable {
        let mut tt = TruthTable::constant(k, false);
        for m in 0..1usize << k {
            tt.set_bit(m, f(m));
        }
        tt
    }

    #[test]
    fn majority_is_one_class() {
        let tt = table(&[&[0, 1], &[0, 2], &[1, 2]], 3);
        assert!(two_monotonic(&tt));
        let a = chow_classes(&tt);
        assert_eq!(a.classes, vec![vec![0, 1, 2]]);
        assert_eq!(a.num_vars(), 3);
    }

    #[test]
    fn worked_example_splits_by_chow() {
        // x₀x₁ ∨ x₀x₂: p₀ = 3, p₁ = p₂ = 2.
        let tt = table(&[&[0, 1], &[0, 2]], 3);
        assert!(two_monotonic(&tt));
        assert_eq!(chow_classes(&tt).classes, vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn disjoint_ands_rejected() {
        assert!(!two_monotonic(&table(&[&[0, 1], &[2, 3]], 4)));
    }

    #[test]
    fn chow_order_is_descending() {
        // f = x₀ ∨ x₁x₂x₃: p₀ = 8, p₁ = p₂ = p₃ = 5.
        let tt = table(&[&[0], &[1, 2, 3]], 4);
        assert!(two_monotonic(&tt));
        assert_eq!(chow_classes(&tt).classes, vec![vec![0], vec![1, 2, 3]]);
    }

    /// Reference 2-monotonicity: every pair's swapped cofactors compared
    /// row by row.
    fn walk_two_monotonic(tt: &TruthTable) -> bool {
        let k = tt.num_vars() as usize;
        for i in 0..k {
            for j in i + 1..k {
                let (mut ge, mut le) = (true, true);
                for m in 0..1usize << k {
                    if m >> i & 1 == 1 && m >> j & 1 == 0 {
                        let a = tt.bit(m);
                        let b = tt.bit(m ^ (1 << i) ^ (1 << j));
                        ge &= a | !b;
                        le &= b | !a;
                    }
                }
                if !ge && !le {
                    return false;
                }
            }
        }
        true
    }

    /// Reference Chow classes: parameters counted row by row.
    fn walk_chow_classes(tt: &TruthTable) -> Vec<Vec<usize>> {
        let k = tt.num_vars() as usize;
        let mut p = vec![0u32; k];
        for m in 0..1usize << k {
            if tt.bit(m) {
                for (i, pi) in p.iter_mut().enumerate() {
                    *pi += (m >> i & 1) as u32;
                }
            }
        }
        classes_of(&p).classes
    }

    #[test]
    fn word_passes_match_the_row_walk() {
        let mut state = 0x2c40_5eed_0000_0001u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut monotonic, mut refuted) = (0, 0);
        for k in 2..=REFUTE_VAR_LIMIT as u32 {
            for round in 0..24 {
                let tt = match round % 3 {
                    // Weighted thresholds: 2-monotonic, often with ties.
                    0 => {
                        let w: Vec<u64> = (0..k).map(|_| next() % 4 + 1).collect();
                        let t = next() % w.iter().sum::<u64>() + 1;
                        table_of_bits(k, |m| {
                            (0..k as usize)
                                .filter(|&i| m >> i & 1 == 1)
                                .map(|i| w[i])
                                .sum::<u64>()
                                >= t
                        })
                    }
                    // Unions of a few random products of positive literals.
                    1 => {
                        let cubes: Vec<u64> = (0..1 + next() % 4)
                            .map(|_| next() & ((1 << k) - 1))
                            .collect();
                        table_of_bits(k, |m| cubes.iter().any(|&c| c & !(m as u64) == 0))
                    }
                    // Arbitrary tables.
                    _ => {
                        let seed = next();
                        table_of_bits(k, |m| {
                            (seed.rotate_left(m as u32 % 64) ^ (m as u64 * 0x9e37_79b9)) >> 7 & 1
                                == 1
                        })
                    }
                };
                let verdict = two_monotonic(&tt);
                assert_eq!(verdict, walk_two_monotonic(&tt), "k = {k}, round {round}");
                assert_eq!(
                    chow_classes(&tt).classes,
                    walk_chow_classes(&tt),
                    "k = {k}, round {round}"
                );
                if verdict {
                    monotonic += 1;
                } else {
                    refuted += 1;
                }
            }
        }
        assert!(
            monotonic > 50 && refuted > 50,
            "{monotonic} 2-monotonic, {refuted} refuted"
        );
    }
}
