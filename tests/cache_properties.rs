//! Properties of the canonical realization cache: cached answers must be
//! exact after remapping.

use tels::logic::rng::Xoshiro256;
use tels::logic::{Cube, Sop, Var};
use tels::{check_threshold, Realization, TelsConfig};

/// Exhaustively validates a realization against the function it claims to
/// compute.
fn assert_exact(f: &Sop, r: &Realization) {
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

/// A cache hit after renaming and phase flips must reproduce exactly the
/// realization a fresh solve finds: every remapped realization from a
/// cache-enabled run must satisfy the original cover, which `validate`
/// checks exhaustively.
#[test]
fn cached_realizations_are_exact_on_random_unate_sops() {
    let mut rng = Xoshiro256::seed_from_u64(0xCAC4E);
    let config = TelsConfig::default();
    let mut checked = 0;
    for _ in 0..200 {
        let n = rng.gen_range(1..=4u32);
        let cubes = rng.gen_range(1..=3usize);
        // Random unate SOP: one global phase per variable.
        let phases: Vec<bool> = (0..n).map(|_| rng.gen_range(0..2u32) == 0).collect();
        let f = Sop::from_cubes(
            (0..cubes)
                .map(|_| {
                    Cube::from_literals((0..n).filter_map(|i| {
                        (rng.gen_range(0..3u32) > 0).then_some((Var(i), phases[i as usize]))
                    }))
                })
                .collect::<Vec<_>>(),
        );
        if let Some(r) = check_threshold(&f, &config).expect("check") {
            assert_exact(&f, &r);
            checked += 1;
        }
        // And the same function under a renaming + phase flip of every
        // variable still checks out (this is the transformation the cache
        // undoes on a hit).
        let renamed = Sop::from_cubes(
            f.cubes()
                .iter()
                .map(|c| Cube::from_literals(c.literals().map(|(v, ph)| (Var(v.0 * 2 + 7), !ph))))
                .collect::<Vec<_>>(),
        );
        if let Some(r) = check_threshold(&renamed, &config).expect("check") {
            assert_exact(&renamed, &r);
        }
    }
    assert!(checked > 20, "suite produced too few threshold functions");
}
