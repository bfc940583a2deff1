//! Differential tests of the word-parallel evaluation engine: the packed
//! 64-lane evaluator must agree bit for bit with the scalar
//! `ThresholdNetwork::eval` / `eval_disturbed` paths — on the bundled
//! benchmark suite, on seeded random networks with negative weights, and
//! at every lane-boundary vector count (1, 63, 64, 65).

use tels::circuits::paper_suite;
use tels::core::perturb::{draw_disturbance, failure_rate, failure_rate_scalar, PerturbOptions};
use tels::core::{
    parse_tnet, synthesize, EvalPlan, TelsConfig, ThresholdGate, ThresholdNetwork, TnId,
};
use tels::logic::opt::script_algebraic;
use tels::logic::rng::Xoshiro256;

/// Draws `count` random assignments over `n` inputs and packs them into
/// `ceil(count / 64)` words per input (lane `l` of word `w` = assignment
/// `64w + l`).
fn packed_assignments(n: usize, count: usize, seed: u64) -> (Vec<Vec<bool>>, Vec<Vec<u64>>) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let assignments: Vec<Vec<bool>> = (0..count)
        .map(|_| (0..n).map(|_| rng.gen_bool()).collect())
        .collect();
    let words = count.div_ceil(64);
    let mut packed = vec![vec![0u64; words]; n];
    for (row, assign) in assignments.iter().enumerate() {
        for (j, &bit) in assign.iter().enumerate() {
            packed[j][row / 64] |= u64::from(bit) << (row % 64);
        }
    }
    (assignments, packed)
}

/// Asserts that the plan's packed exact and disturbed evaluators agree
/// with the scalar `eval` / `eval_disturbed` on `count` random vectors.
fn assert_packed_matches_scalar(tn: &ThresholdNetwork, count: usize, seed: u64) {
    let n = tn.num_inputs();
    let plan = EvalPlan::new(tn);
    let mut scratch = plan.scratch();
    let (assignments, packed) = packed_assignments(n, count, seed);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xd15b);
    let disturbed = draw_disturbance(tn, 0.7, &mut rng);
    let words = count.div_ceil(64);
    // `w` is a column index across every row of `packed`, not a row iterator.
    #[allow(clippy::needless_range_loop)]
    for w in 0..words {
        let inputs: Vec<u64> = (0..n).map(|j| packed[j][w]).collect();
        let exact = plan.eval_word(&inputs, &mut scratch).to_vec();
        for (row, assign) in assignments.iter().enumerate().skip(64 * w).take(64) {
            let scalar = tn.eval(assign).expect("scalar eval");
            for (oi, &word) in exact.iter().enumerate() {
                assert_eq!(
                    word >> (row % 64) & 1 != 0,
                    scalar[oi],
                    "{}: exact row {row} output {oi}",
                    tn.model()
                );
            }
        }
        let dist = plan
            .eval_word_disturbed(&inputs, &disturbed, &mut scratch)
            .to_vec();
        for (row, assign) in assignments.iter().enumerate().skip(64 * w).take(64) {
            let scalar = tn.eval_disturbed(assign, &disturbed).expect("scalar eval");
            for (oi, &word) in dist.iter().enumerate() {
                assert_eq!(
                    word >> (row % 64) & 1 != 0,
                    scalar[oi],
                    "{}: disturbed row {row} output {oi}",
                    tn.model()
                );
            }
        }
    }
}

#[test]
fn packed_matches_scalar_on_the_suite() {
    for b in paper_suite() {
        if b.name == "i10_like" {
            continue; // keep the scalar reference sweep fast
        }
        let tn =
            synthesize(&script_algebraic(&b.network), &TelsConfig::default()).expect("synthesis");
        assert_packed_matches_scalar(&tn, 128, 0x9ac4ed ^ b.name.len() as u64);
    }
}

/// A seeded random threshold network: layered, with negative weights and
/// thresholds of both signs — shapes synthesis never emits but the engine
/// must still evaluate exactly (clamped always-on/off gates included).
fn random_tn(seed: u64) -> ThresholdNetwork {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut tn = ThresholdNetwork::new(format!("rand{seed:x}"));
    let n = 4 + (rng.next_u64() % 5) as usize;
    let mut pool: Vec<TnId> = (0..n)
        .map(|i| tn.add_input(format!("x{i}")).expect("fresh"))
        .collect();
    let gates = 8 + (rng.next_u64() % 12) as usize;
    for g in 0..gates {
        let k = 1 + (rng.next_u64() % 4) as usize;
        let inputs: Vec<TnId> = (0..k)
            .map(|_| pool[(rng.next_u64() % pool.len() as u64) as usize])
            .collect();
        let weights: Vec<i64> = (0..k)
            .map(|_| {
                let w = 1 + (rng.next_u64() % 3) as i64;
                if rng.gen_bool() {
                    -w
                } else {
                    w
                }
            })
            .collect();
        let threshold = (rng.next_u64() % 11) as i64 - 4;
        let id = tn
            .add_gate(
                format!("g{g}"),
                ThresholdGate {
                    inputs,
                    weights,
                    threshold,
                },
            )
            .expect("fresh");
        pool.push(id);
    }
    for (o, &id) in pool.iter().rev().take(3).enumerate() {
        tn.add_output(format!("o{o}"), id).expect("fresh");
    }
    tn
}

#[test]
fn packed_matches_scalar_on_random_networks() {
    for seed in 0..20u64 {
        let tn = random_tn(0x5eed0 + seed);
        assert_packed_matches_scalar(&tn, 96, seed);
    }
}

#[test]
fn failure_rate_agrees_at_lane_boundaries() {
    let b = paper_suite()
        .into_iter()
        .find(|b| b.name == "cmb_like")
        .expect("suite has cmb_like");
    let tn = synthesize(&script_algebraic(&b.network), &TelsConfig::default()).expect("synthesis");
    // `exhaustive_limit: 0` forces the random-pattern path, so `vectors`
    // is the exact simulated row count: 1 and 63 exercise a masked single
    // word, 64 a full word, 65 a full word plus a masked tail.
    for vectors in [1usize, 63, 64, 65] {
        let opts = PerturbOptions {
            variation: 0.8,
            trials: 30,
            exhaustive_limit: 0,
            vectors,
            seed: 0xb0b + vectors as u64,
            threads: 1,
        };
        let packed = failure_rate(&tn, &b.network, &opts).expect("packed");
        let scalar = failure_rate_scalar(&tn, &b.network, &opts).expect("scalar");
        assert_eq!(
            packed.to_bits(),
            scalar.to_bits(),
            "vectors={vectors}: packed {packed} vs scalar {scalar}"
        );
        // Thread-count invariance at every boundary, too.
        for threads in [2usize, 5] {
            let threaded =
                failure_rate(&tn, &b.network, &PerturbOptions { threads, ..opts }).expect("packed");
            assert_eq!(
                packed.to_bits(),
                threaded.to_bits(),
                "vectors={vectors}, threads={threads}"
            );
        }
    }
}

#[test]
fn failure_rate_agrees_with_scalar_on_the_suite() {
    for b in paper_suite() {
        if b.name == "i10_like" {
            continue;
        }
        let tn =
            synthesize(&script_algebraic(&b.network), &TelsConfig::default()).expect("synthesis");
        let opts = PerturbOptions {
            variation: 0.6,
            trials: 25,
            exhaustive_limit: 8,
            vectors: 96,
            seed: 0xface ^ b.name.len() as u64,
            threads: 1,
        };
        let packed = failure_rate(&tn, &b.network, &opts).expect("packed");
        let scalar = failure_rate_scalar(&tn, &b.network, &opts).expect("scalar");
        assert_eq!(
            packed.to_bits(),
            scalar.to_bits(),
            "{}: packed {packed} vs scalar {scalar}",
            b.name
        );
    }
}

#[test]
fn verify_against_handles_boundary_pattern_counts() {
    let b = paper_suite()
        .into_iter()
        .find(|b| b.name == "cmb_like")
        .expect("suite has cmb_like");
    let tn = synthesize(&script_algebraic(&b.network), &TelsConfig::default()).expect("synthesis");
    for patterns in [1usize, 63, 64, 65] {
        assert!(
            tn.verify_against(&b.network, 0, patterns, 0xcafe)
                .expect("verify")
                .is_none(),
            "spurious counterexample at {patterns} patterns"
        );
    }
}

#[test]
fn extreme_weights_neither_overflow_nor_disagree() {
    // Gates a `.tnet` file may legally hold whose Σwᵢxᵢ, Σ|wᵢ| + |T| or
    // |w| leave i64: scalar and packed evaluation must still agree on
    // every assignment, and area and the report must not panic.
    let cases = [
        (
            ".model big\n.inputs a b\n.outputs g\n\
             .gate g T=1 a:9223372036854775807 b:9223372036854775807\n.end\n",
            i64::MAX.unsigned_abs(),
        ),
        (
            ".model small\n.inputs a b\n.outputs g\n\
             .gate g T=-9223372036854775808 a:-9223372036854775808 b:-9223372036854775808\n.end\n",
            i64::MIN.unsigned_abs(),
        ),
    ];
    for (text, max_weight) in cases {
        let tn = parse_tnet(text).expect("valid .tnet");
        let plan = EvalPlan::new(&tn);
        let mut scratch = plan.scratch();
        // Lane m carries assignment a = bit 0 of m, b = bit 1 of m.
        let word = plan.eval_word(&[0b1010, 0b1100], &mut scratch)[0];
        for m in 0..4 {
            let scalar = tn.eval(&[m & 1 != 0, m & 2 != 0]).expect("scalar eval")[0];
            assert_eq!(word >> m & 1 != 0, scalar, "{}: assignment {m}", tn.model());
        }
        assert_eq!(tn.area(), u64::MAX, "{}: area", tn.model());
        let report = tn.report();
        assert_eq!(report.max_weight, max_weight, "{}", tn.model());
        assert!(!report.to_string().is_empty());
    }
}
