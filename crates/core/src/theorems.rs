//! The paper's Theorems 1 and 2 (§IV), as executable procedures.

use tels_logic::{Cube, Polarity, Sop, TruthTable, Var};

use crate::check::Realization;
use crate::chow::REFUTE_VAR_LIMIT;
use crate::config::TelsConfig;

/// Theorem 1 as a non-threshold refutation, by literal substitution.
///
/// For a unate expression `f`, replacing literal `xᵢ` by `x̄ⱼ` yields `g`;
/// if `g` is not a threshold function, neither is `f`. We apply the cheap
/// sufficient condition from the paper's own example: if some substitution
/// makes `g` *functionally binate* in `xⱼ`, then `g` — and hence `f` — is
/// not threshold. Supports outside `2..=12` are not tested.
///
/// Returns `true` when `f` is **proven not** to be a threshold function;
/// `false` is inconclusive (the ILP still has to decide).
///
/// The threshold checker does not call this procedure: on the positive
/// form, `g|xⱼ=1` and `g|xⱼ=0` are the cofactors `f|xᵢ=0,xⱼ=1` and
/// `f|xᵢ=1,xⱼ=0`, so the substitution refutes exactly the unate functions
/// whose positive form is not 2-monotonic, which the checker tests on one
/// truth table instead of one per substitution. This function stays as
/// the paper's statement of the test and as its reference in tests.
///
/// # Example
///
/// ```
/// use tels_core::theorem1_refutes;
/// use tels_logic::{Cube, Sop, Var};
///
/// // x₁x₂ ∨ x₃x₄: replacing x₃ by x̄₁ gives x₁x₂ ∨ x̄₁x₄, binate in x₁.
/// let f = Sop::from_cubes([
///     Cube::from_literals([(Var(0), true), (Var(1), true)]),
///     Cube::from_literals([(Var(2), true), (Var(3), true)]),
/// ]);
/// assert!(theorem1_refutes(&f));
/// ```
pub fn theorem1_refutes(f: &Sop) -> bool {
    let support: Vec<Var> = f.support().iter().collect();
    if support.len() < 2 || support.len() > REFUTE_VAR_LIMIT {
        return false;
    }
    // Phase of each variable in the (unate) expression.
    let phase: Vec<bool> = support
        .iter()
        .map(|&v| match f.polarity(v) {
            Some(Polarity::Positive) | None => true,
            Some(Polarity::Negative) => false,
            Some(Polarity::Binate) => true, // filter only meant for unate f
        })
        .collect();

    for (ii, &vi) in support.iter().enumerate() {
        for (jj, &vj) in support.iter().enumerate() {
            if ii == jj {
                continue;
            }
            // Replace literal (vi, phase_i) by the complement-phase literal
            // of vj. Cubes where the two conflict become constant 0.
            let new_lit = (vj, !phase[jj]);
            let cubes = f.cubes().iter().filter_map(|c| match c.literal(vi) {
                None => Some(c.clone()),
                Some(_) => {
                    let mut out = c.without_var(vi);
                    if out.set_literal(new_lit.0, new_lit.1) {
                        Some(out)
                    } else {
                        None
                    }
                }
            });
            let g = Sop::from_cubes(cubes.collect::<Vec<Cube>>());
            let g_support: Vec<Var> = g.support().iter().collect();
            if !g_support.contains(&vj) || g_support.len() > REFUTE_VAR_LIMIT {
                continue;
            }
            let tt = TruthTable::from_sop(&g, &g_support);
            let j_pos = g_support.iter().position(|&v| v == vj).expect("vj present");
            if tt.polarity(j_pos as u32) == Some(Polarity::Binate) {
                return true;
            }
        }
    }
    false
}

/// Theorem 2: given a realization of a threshold function `f`, extends it to
/// realize `f ∨ x` for a fresh input `x`.
///
/// The new input's weight is the *positive-form* threshold plus δ_on, which
/// guarantees the output is 1 whenever `x` is, even in the presence of
/// negative back-substituted weights.
///
/// # Example
///
/// The paper's illustration (§IV): `x₁x̄₂` has vector ⟨1,−1;1⟩ with
/// positive-form threshold 2; extending by `x₃`, `x₁x̄₂ ∨ x₃` has vector
/// ⟨1,−1,2;1⟩ — the new weight equals the positive-form threshold.
///
/// ```
/// use tels_core::{check_threshold, theorem2_extend, TelsConfig};
/// use tels_logic::{Cube, Sop, Var};
///
/// # fn main() -> Result<(), tels_core::SynthError> {
/// let f = Sop::from_cubes([Cube::from_literals([(Var(0), true), (Var(1), false)])]);
/// let cfg = TelsConfig::default();
/// let r = check_threshold(&f, &cfg)?.expect("threshold");
/// let (extended, extra_weight) = theorem2_extend(&r, Var(2), &cfg);
/// assert_eq!(extra_weight, r.positive_threshold);
/// assert_eq!(extended.weights.last(), Some(&(Var(2), extra_weight)));
/// # Ok(())
/// # }
/// ```
pub fn theorem2_extend(
    realization: &Realization,
    extra: Var,
    config: &TelsConfig,
) -> (Realization, i64) {
    let weight = realization.positive_threshold + config.delta_on;
    let mut weights = realization.weights.clone();
    weights.push((extra, weight));
    (
        Realization {
            weights,
            threshold: realization.threshold,
            positive_threshold: realization.positive_threshold,
        },
        weight,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RealizationCache;
    use crate::check::{
        check_threshold, check_threshold_cached, CheckVia, Query, QueryScratch, SolverBreakdown,
    };
    use crate::chow;

    fn sop(cubes: &[&[(u32, bool)]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_literals(c.iter().map(|&(v, p)| (Var(v), p)))),
        )
    }

    #[test]
    fn refutes_disjoint_and_pair() {
        let f = sop(&[&[(0, true), (1, true)], &[(2, true), (3, true)]]);
        assert!(theorem1_refutes(&f));
    }

    #[test]
    fn does_not_refute_threshold_functions() {
        // Every 1-gate-realizable function must pass the filter (soundness).
        let cases = [
            sop(&[&[(0, true), (1, true)]]),
            sop(&[&[(0, true)], &[(1, true)]]),
            sop(&[
                &[(0, true), (1, true)],
                &[(0, true), (2, true)],
                &[(1, true), (2, true)],
            ]),
            sop(&[&[(0, true), (1, false)], &[(0, true), (2, false)]]),
        ];
        for f in &cases {
            assert!(
                check_threshold(f, &TelsConfig::default())
                    .unwrap()
                    .is_some(),
                "test premise: {f} is threshold"
            );
            assert!(!theorem1_refutes(f), "filter wrongly refuted {f}");
        }
    }

    #[test]
    fn filter_agrees_with_ilp_on_all_3var_unate_covers() {
        // Soundness sweep: for every unate 3-var function, theorem1_refutes
        // must never contradict a positive ILP answer.
        let vars = [Var(0), Var(1), Var(2)];
        for bits in 0u32..256 {
            let cubes: Vec<Cube> = (0..8u32)
                .filter(|m| bits >> m & 1 != 0)
                .map(|m| Cube::from_literals((0..3).map(|i| (vars[i as usize], m >> i & 1 != 0))))
                .collect();
            let f = Sop::from_cubes(cubes).minimize();
            if !f.is_unate() {
                continue;
            }
            let is_threshold = check_threshold(&f, &TelsConfig::default())
                .unwrap()
                .is_some();
            if theorem1_refutes(&f) {
                assert!(!is_threshold, "filter refuted threshold function {f}");
            }
        }
    }

    /// The checker's refutation decider: the positive form of the unate
    /// cover `f`, tabulated over its support, is not 2-monotonic (supports
    /// outside `2..=12` are never refuted).
    fn positive_form_not_two_monotonic(f: &Sop) -> bool {
        let support: Vec<Var> = f.support().iter().collect();
        let positive = Sop::from_cubes(f.cubes().iter().map(Cube::with_positive_phases));
        (2..=REFUTE_VAR_LIMIT).contains(&support.len())
            && !chow::two_monotonic(&TruthTable::from_sop(&positive, &support))
    }

    /// The prime cover of the positive function `on` of `k` variables (one
    /// cube per minimal ON row), with variable `i` complemented when bit
    /// `i` of `negated` is set.
    fn unate_cover(k: usize, on: impl Fn(usize) -> bool, negated: usize) -> Sop {
        let minimal = |m: usize| on(m) && (0..k).all(|i| m >> i & 1 == 0 || !on(m ^ 1 << i));
        Sop::from_cubes((0..1usize << k).filter(|&m| minimal(m)).map(|m| {
            Cube::from_literals(
                (0..k)
                    .filter(|&i| m >> i & 1 == 1)
                    .map(|i| (Var(i as u32), negated >> i & 1 == 0)),
            )
        }))
    }

    #[test]
    fn substitution_refutes_exactly_the_non_two_monotonic_up_to_4_vars() {
        // Every positive function of 4 variables (168, counting those that
        // ignore some variables) under every phase assignment.
        let config = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        let mut solver = SolverBreakdown::default();
        let mut scratch = QueryScratch::default();
        let (mut positive, mut refuted) = (0, 0);
        for bits in 0u32..1 << 16 {
            let on = |m: usize| bits >> m & 1 == 1;
            if !(0..16).all(|m| !on(m) || (0..4).all(|i| on(m | 1 << i))) {
                continue;
            }
            positive += 1;
            for negated in 0..16 {
                let f = unate_cover(4, on, negated);
                let expected = theorem1_refutes(&f);
                assert_eq!(positive_form_not_two_monotonic(&f), expected, "{f}");
                if f.is_zero() || f.is_one() {
                    continue;
                }
                // A fresh checker reports exactly these as Theorem-1
                // refutations.
                let cache = RealizationCache::new();
                let (_, via) = check_threshold_cached(
                    Query::Cover(&f),
                    &config,
                    &cache,
                    &mut solver,
                    &mut scratch,
                )
                .unwrap();
                assert_eq!(via == CheckVia::Theorem1, expected, "{f}");
                refuted += usize::from(expected);
            }
        }
        assert_eq!(positive, 168);
        assert!(refuted > 0);
    }

    #[test]
    fn substitution_refutes_exactly_the_non_two_monotonic_at_5_to_12_vars() {
        let mut state = 0x7e1_5eed_0000_0005u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut at_12 = [0usize; 2];
        for k in 5..=REFUTE_VAR_LIMIT {
            for round in 0..8 {
                let negated = next() as usize;
                let f = if round % 2 == 0 {
                    // Weighted thresholds: never refuted.
                    let w: Vec<u64> = (0..k).map(|_| next() % 5 + 1).collect();
                    let t = next() % w.iter().sum::<u64>() + 1;
                    let on = |m: usize| {
                        (0..k)
                            .filter(|&i| m >> i & 1 == 1)
                            .map(|i| w[i])
                            .sum::<u64>()
                            >= t
                    };
                    unate_cover(k, on, negated)
                } else {
                    // A few random products: usually refuted.
                    let cubes: Vec<usize> = (0..2 + next() % 4)
                        .map(|_| next() as usize & ((1 << k) - 1))
                        .collect();
                    unate_cover(k, |m| cubes.iter().any(|&c| c & !m == 0), negated)
                };
                let expected = theorem1_refutes(&f);
                assert_eq!(
                    positive_form_not_two_monotonic(&f),
                    expected,
                    "k = {k}: {f}"
                );
                if f.support().len() == 12 {
                    at_12[usize::from(expected)] += 1;
                }
            }
        }
        assert!(
            at_12[0] > 0 && at_12[1] > 0,
            "support-12 outcomes {at_12:?}"
        );
    }

    #[test]
    fn theorem2_weight_covers_negative_weights() {
        // f = x₀x̄₁: vector ⟨1,−1;1⟩; extending by x₂ must still output 1
        // when x₂=1 and x₁=1 (the negative weight pulls the sum down, which
        // the positive-form weight w₂ = T_pos must absorb).
        let cfg = TelsConfig::default();
        let f = sop(&[&[(0, true), (1, false)]]);
        let r = check_threshold(&f, &cfg).unwrap().unwrap();
        let (ext, w) = theorem2_extend(&r, Var(2), &cfg);
        // Exhaustive check of the extended gate against f ∨ x₂.
        for m in 0..8u32 {
            let assign = |v: Var| m >> v.0 & 1 != 0;
            let expect = f.eval(assign) || assign(Var(2));
            let sum: i64 = ext
                .weights
                .iter()
                .map(|&(v, wt)| if assign(v) { wt } else { 0 })
                .sum();
            assert_eq!(sum >= ext.threshold, expect, "minterm {m}, w={w}");
        }
    }
}
