//! Differential tests for the tier-0.5 pseudo-Boolean decision procedure:
//! with tier 0.5 on (the default) and off, `check_threshold` must return
//! exactly the same answer — same decision, same weights, same threshold —
//! because synthesized networks are required to be bit-identical either
//! way. The tier answers only when its branch-and-bound optimum is provably
//! the *unique* optimum of the merged ILP's feasible region, so structural
//! equality here is exactly the invariant the `.tnet` byte-identity legs
//! (CLI test, fuzz oracle) rely on.
//!
//! Coverage: seeded random support-6 tables (overwhelmingly non-threshold —
//! the reject-agreement side), random support-6/7 *threshold* functions
//! built from explicit weight vectors (the hit side, with the returned
//! realization re-verified word-parallel against a packed truth table and
//! its objective checked against the seed's), and known non-threshold
//! functions at supports 6–8 (disjoint AND pairs, which 2-asummability
//! refutes).

use tels::logic::rng::Xoshiro256;
use tels::logic::{Cube, Sop, TruthTable, Var};
use tels::{check_threshold, Realization, TelsConfig};

fn minterm_sop(n: u32, bits: u128) -> Sop {
    let cubes: Vec<Cube> = (0..1u128 << n)
        .filter(|m| bits >> m & 1 != 0)
        .map(|m| Cube::from_literals((0..n).map(|i| (Var(i), m >> i & 1 != 0))))
        .collect();
    Sop::from_cubes(cubes)
}

fn tier05_off() -> TelsConfig {
    TelsConfig {
        use_tier05: false,
        ..TelsConfig::default()
    }
}

/// Word-parallel re-verification: pack the function into a [`TruthTable`]
/// and rebuild the realization's table from its weights with the
/// subset-sum recurrence, then compare whole words — no per-minterm
/// `Sop::eval` walk.
fn validate_packed(f: &Sop, r: &Realization) {
    let vars: Vec<Var> = f.support().iter().collect();
    let k = vars.len();
    let tt = TruthTable::from_sop(f, &vars);
    let mut sums = vec![0i64; 1 << k];
    let weight_of = |v: Var| {
        r.weights
            .iter()
            .find(|&&(w, _)| w == v)
            .map_or(0, |&(_, w)| w)
    };
    let w: Vec<i64> = vars.iter().map(|&v| weight_of(v)).collect();
    let mut packed = TruthTable::constant(k as u32, false);
    for m in 1..1usize << k {
        let low = m.trailing_zeros() as usize;
        sums[m] = sums[m & (m - 1)] + w[low];
    }
    for (m, &sum) in sums.iter().enumerate() {
        if sum >= r.threshold {
            packed.set_bit(m, true);
        }
    }
    assert_eq!(
        packed, tt,
        "realization ⟨{:?};{}⟩ does not implement {f}",
        r.weights, r.threshold
    );
}

/// One differential probe: tier 0.5 on vs off, full structural equality,
/// plus packed re-verification of any returned realization.
fn probe(n: u32, bits: u128, on: &TelsConfig, off: &TelsConfig) {
    let f = minterm_sop(n, bits).minimize();
    let r_on = check_threshold(&f, on).unwrap();
    let r_off = check_threshold(&f, off).unwrap();
    assert_eq!(
        r_on, r_off,
        "tier-0.5 divergence on {n}-var tt {bits:#x}: {f}"
    );
    if let Some(r) = &r_on {
        validate_packed(&f, r);
    }
}

/// Seeded random support-6 tables: random functions at this support are
/// almost never threshold (most are not even unate), so this is the
/// reject-agreement side — Theorem-1, 2-asummability, and ILP "no" answers
/// must all be invisible to the caller.
#[test]
fn tier05_matches_ilp_on_random_6var_functions() {
    let (on, off) = (TelsConfig::default(), tier05_off());
    assert!(on.tier05_active());
    assert!(!off.tier05_active());
    let mut rng = Xoshiro256::seed_from_u64(0x7e15_0501);
    for _ in 0..60 {
        let bits = u128::from(rng.next_u64());
        probe(6, bits, &on, &off);
    }
}

/// Random support-6 and support-7 *threshold* functions built from
/// explicit positive weight vectors: the hit side. Both paths must
/// recognize them with identical realizations, the realization must
/// implement the function (packed check), and — optimality under the
/// merged objective `Σwᵢ + T` — the returned objective can never exceed
/// the constructing seed's.
#[test]
fn tier05_matches_ilp_on_random_threshold_functions() {
    let (on, off) = (TelsConfig::default(), tier05_off());
    let mut rng = Xoshiro256::seed_from_u64(0x7e15_0502);
    for n in [6u32, 7] {
        for _ in 0..40 {
            let w: Vec<i64> = (0..n).map(|_| rng.gen_range(1i64..=4)).collect();
            let total: i64 = w.iter().sum();
            let t: i64 = rng.gen_range(1i64..=total);
            let mut bits = 0u128;
            for m in 0..1u128 << n {
                let sum: i64 = (0..n)
                    .filter(|i| m >> i & 1 != 0)
                    .map(|i| w[i as usize])
                    .sum();
                if sum >= t {
                    bits |= 1 << m;
                }
            }
            let rows = 1u32 << n;
            let full = if rows == 128 {
                u128::MAX
            } else {
                (1u128 << rows) - 1
            };
            if bits == 0 || bits == full {
                continue; // constants exercise nothing
            }
            let f = minterm_sop(n, bits).minimize();
            let r_on = check_threshold(&f, &on).unwrap();
            let r_off = check_threshold(&f, &off).unwrap();
            assert_eq!(r_on, r_off, "divergence on ⟨{w:?};{t}⟩: {f}");
            let r = r_on.expect("constructed threshold function must be recognized");
            validate_packed(&f, &r);
            let obj: i64 = r.weights.iter().map(|&(_, w)| w).sum::<i64>() + r.threshold;
            assert!(
                obj <= total + t,
                "objective {obj} exceeds the seed's {} for ⟨{w:?};{t}⟩",
                total + t
            );
        }
    }
}

/// Known non-threshold functions: ORs of disjoint AND pairs
/// (`ab ∨ cd ∨ …`), the textbook 2-asummability violations. Both paths
/// must reject, at every support the tier covers that the pattern reaches.
#[test]
fn tier05_matches_ilp_on_known_non_threshold_functions() {
    let (on, off) = (TelsConfig::default(), tier05_off());
    for pairs in [3u32, 4] {
        let n = 2 * pairs;
        let f = Sop::from_cubes(
            (0..pairs).map(|p| Cube::from_literals([(Var(2 * p), true), (Var(2 * p + 1), true)])),
        );
        let r_on = check_threshold(&f, &on).unwrap();
        let r_off = check_threshold(&f, &off).unwrap();
        assert_eq!(r_on, r_off, "divergence on {pairs}-pair OR-of-ANDs");
        assert!(
            r_on.is_none(),
            "{n}-var OR of disjoint ANDs is not threshold"
        );
    }
}
