//! Randomized tests of the cube/SOP algebra against truth-table semantics,
//! driven by the in-tree seeded PRNG.

use tels_logic::rng::Xoshiro256;
use tels_logic::{Cube, Sop, TruthTable, Var};

const N: u32 = 5;
const CASES: u64 = 256;

fn arb_cube(rng: &mut Xoshiro256, n: u32) -> Cube {
    Cube::from_literals((0..n).filter_map(|i| match rng.gen_range(0..4u32) {
        0 => Some((Var(i), true)),
        1 => Some((Var(i), false)),
        _ => None,
    }))
}

fn arb_sop(rng: &mut Xoshiro256, n: u32, max_cubes: usize) -> Sop {
    let k = rng.gen_range(0..=max_cubes);
    Sop::from_cubes((0..k).map(|_| arb_cube(rng, n)).collect::<Vec<_>>())
}

fn tt(f: &Sop) -> TruthTable {
    TruthTable::from_sop(f, &(0..N).map(Var).collect::<Vec<_>>())
}

/// OR/AND agree with pointwise truth-table semantics.
#[test]
fn or_and_match_semantics() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 5);
        let g = arb_sop(&mut rng, N, 5);
        let fo = f.or(&g);
        let fa = f.and(&g);
        for m in 0..1usize << N {
            let assign = |v: Var| m >> v.0 & 1 != 0;
            assert_eq!(fo.eval(assign), f.eval(assign) || g.eval(assign));
            assert_eq!(fa.eval(assign), f.eval(assign) && g.eval(assign));
        }
    }
}

/// De Morgan: (f ∨ g)' ≡ f'·g'.
#[test]
fn de_morgan() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 4);
        let g = arb_sop(&mut rng, N, 4);
        let lhs = f.or(&g).complement();
        let rhs = f.complement().and(&g.complement());
        assert!(lhs.equivalent(&rhs), "seed {seed}: f={f} g={g}");
    }
}

/// Double complement is the identity.
#[test]
fn double_complement() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 5);
        assert!(f.complement().complement().equivalent(&f), "seed {seed}");
    }
}

/// Shannon expansion: f ≡ x·f_x ∨ x̄·f_x̄.
#[test]
fn shannon_expansion() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 5);
        let v = Var(rng.gen_range(0..N));
        let expanded = Sop::literal(v, true)
            .and(&f.cofactor(v, true))
            .or(&Sop::literal(v, false).and(&f.cofactor(v, false)));
        assert!(expanded.equivalent(&f), "seed {seed}: f={f} v={v}");
    }
}

/// Tautology checking agrees with the truth table.
#[test]
fn tautology_matches_truth_table() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 6);
        let full = tt(&f).count_ones() == 1 << N;
        assert_eq!(f.is_tautology(), full, "seed {seed}: f={f}");
    }
}

/// `covers_cube` agrees with minterm containment.
#[test]
fn covers_cube_matches_semantics() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 5);
        let c = arb_cube(&mut rng, N);
        let covered = (0..1usize << N)
            .filter(|&m| c.eval(|v| m >> v.0 & 1 != 0))
            .all(|m| f.eval(|v| m >> v.0 & 1 != 0));
        assert_eq!(f.covers_cube(&c), covered, "seed {seed}: f={f} c={c}");
    }
}

/// `implies` is a partial order embedding of minterm-set inclusion.
#[test]
fn implies_matches_inclusion() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 4);
        let g = arb_sop(&mut rng, N, 4);
        let inclusion = (0..1usize << N).all(|m| {
            let assign = |v: Var| m >> v.0 & 1 != 0;
            !f.eval(assign) || g.eval(assign)
        });
        assert_eq!(f.implies(&g), inclusion, "seed {seed}: f={f} g={g}");
    }
}

/// SCC keeps the function and never grows the cover; it is idempotent.
#[test]
fn scc_sound_and_idempotent() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 8);
        // from_cubes already applies SCC once.
        let g = Sop::from_cubes(f.cubes().to_vec());
        assert_eq!(g.num_cubes(), f.num_cubes(), "seed {seed}");
        assert!(g.equivalent(&f), "seed {seed}");
    }
}

/// `f`'s cubes with every variable `v` renamed to `map[v]`, unreduced.
fn renamed(f: &Sop, map: &[Var]) -> Vec<Cube> {
    f.cubes()
        .iter()
        .map(|c| Cube::from_literals(c.literals().map(|(v, p)| (map[v.0 as usize], p))))
        .collect()
}

/// Under a map injective on the support, `remap` returns the renamed
/// cubes as they are, which is what `from_cubes` of them gives.
#[test]
fn remap_under_injective_maps_keeps_the_cubes() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 8);
        // Distinct targets in any order, some past the first 64-bit word.
        let mut map: Vec<Var> = Vec::new();
        while map.len() < N as usize {
            let t = Var(rng.gen_range(0..200u32));
            if !map.contains(&t) {
                map.push(t);
            }
        }
        let g = f.remap(&map);
        assert_eq!(g.cubes(), &renamed(&f, &map)[..], "seed {seed}");
        assert_eq!(g, Sop::from_cubes(renamed(&f, &map)), "seed {seed}");
    }
}

/// Under a map that merges variables, `remap` still merges equal cubes
/// and drops contained ones, and keeps the function.
#[test]
fn remap_under_merging_maps_reduces_the_cover() {
    let mut shrunk = 0;
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let k = rng.gen_range(2..=3u32);
        let map: Vec<Var> = (0..N).map(|_| Var(rng.gen_range(0..k))).collect();
        // One phase per target, so that no renamed cube holds both phases.
        let phase: Vec<bool> = (0..k).map(|_| rng.gen_bool()).collect();
        let cubes = rng.gen_range(1..=6usize);
        let f = Sop::from_cubes((0..cubes).map(|_| {
            Cube::from_literals(
                (0..N)
                    .filter(|_| rng.gen_bool())
                    .map(|v| (Var(v), phase[map[v as usize].0 as usize])),
            )
        }));
        let g = f.remap(&map);
        assert_eq!(g, Sop::from_cubes(renamed(&f, &map)), "seed {seed}");
        for (i, a) in g.cubes().iter().enumerate() {
            for (j, b) in g.cubes().iter().enumerate() {
                assert!(i == j || !a.covers(b), "seed {seed}: {a} covers {b}");
            }
        }
        for m in 0..1u32 << k {
            let target = |v: Var| m >> v.0 & 1 != 0;
            assert_eq!(
                g.eval(target),
                f.eval(|v| target(map[v.0 as usize])),
                "seed {seed}"
            );
        }
        shrunk += usize::from(g.num_cubes() < f.num_cubes());
    }
    assert!(shrunk > 0, "no map merged a cube");
}

/// Minimization yields a cover where no literal can be dropped and no cube
/// removed (prime and irredundant).
#[test]
fn minimize_is_prime_and_irredundant() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, 4, 5);
        let m = f.minimize();
        // Irredundant: removing any cube changes the function.
        for i in 0..m.num_cubes() {
            let rest = Sop::from_cubes(
                m.cubes()
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, c)| c.clone()),
            );
            assert!(!rest.equivalent(&m), "cube {i} of {m} is redundant");
        }
        // Prime: expanding any literal away changes the function.
        for (i, cube) in m.cubes().iter().enumerate() {
            for (v, _) in cube.literals() {
                let mut cubes = m.cubes().to_vec();
                cubes[i] = cube.without_var(v);
                let grown = Sop::from_cubes(cubes);
                assert!(
                    !grown.equivalent(&m) || grown.num_cubes() < m.num_cubes(),
                    "literal {v} of cube {i} in {m} is expendable"
                );
            }
        }
    }
}

/// Unate covers satisfy the unate tautology property used by the recursive
/// algorithms: tautology iff the universal cube is present.
#[test]
fn unate_tautology_theorem() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, N, 6);
        if f.is_unate() {
            assert_eq!(f.is_tautology(), f.is_one(), "seed {seed}: f={f}");
        }
    }
}

/// Syntactic unateness implies functional unateness for minimized covers.
#[test]
fn minimized_unateness_is_functional() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let f = arb_sop(&mut rng, 4, 5);
        let m = f.minimize();
        let table = TruthTable::from_sop(&m, &(0..4).map(Var).collect::<Vec<_>>());
        if m.is_unate() {
            assert!(table.is_unate());
        } else {
            // A minimized (prime, irredundant) cover of a function is
            // syntactically binate only if the function is binate.
            assert!(!table.is_unate(), "{f} minimized to {m} stayed binate");
        }
    }
}
