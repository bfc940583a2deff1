//! End-to-end integration tests spanning all crates: benchmark generation →
//! Boolean optimization → threshold synthesis / one-to-one mapping →
//! simulation-based verification.

use tels::circuits::{comparator, mux_tree, paper_suite, parity_tree, ripple_adder};
use tels::logic::opt::{script_algebraic, script_boolean};
use tels::logic::sim::{check_equivalence, EquivOptions};
use tels::{map_one_to_one, synthesize, synthesize_best, synthesize_with_stats, TelsConfig};

/// The full paper flow on every suite benchmark: both implementations must
/// match the original circuit and respect the fanin restriction.
#[test]
fn paper_suite_full_flow() {
    let config = TelsConfig::default();
    for b in paper_suite() {
        // The two big ones are exercised by the release-mode harness.
        if b.name == "i10_like" || b.name == "cordic_like" {
            continue;
        }
        let algebraic = script_algebraic(&b.network);
        let boolean = script_boolean(&b.network);
        // Optimization preserves function.
        let opts = EquivOptions {
            exhaustive_limit: 12,
            random_patterns: 1024,
            seed: 1,
        };
        assert!(
            check_equivalence(&b.network, &algebraic, &opts)
                .unwrap()
                .is_equivalent(),
            "{}: script_algebraic changed the function",
            b.name
        );
        assert!(
            check_equivalence(&b.network, &boolean, &opts)
                .unwrap()
                .is_equivalent(),
            "{}: script_boolean changed the function",
            b.name
        );
        // Synthesis and baseline are both correct.
        let tels = synthesize(&algebraic, &config).expect(b.name);
        let baseline = map_one_to_one(&boolean, &config).expect(b.name);
        assert_eq!(
            tels.verify_against(&b.network, 12, 1024, 7).unwrap(),
            None,
            "{}: TELS network differs",
            b.name
        );
        assert_eq!(
            baseline.verify_against(&b.network, 12, 1024, 8).unwrap(),
            None,
            "{}: one-to-one network differs",
            b.name
        );
        for (_, g) in tels.gates().chain(baseline.gates()) {
            assert!(g.inputs.len() <= config.psi, "{}: ψ violated", b.name);
        }
    }
}

/// `synthesize_best` never returns more gates than the one-to-one baseline
/// (the §VI-A guarantee).
#[test]
fn best_flow_never_loses() {
    let config = TelsConfig::default();
    for b in paper_suite() {
        if b.name == "i10_like" || b.name == "cordic_like" {
            continue;
        }
        let algebraic = script_algebraic(&b.network);
        let best = synthesize_best(&algebraic, &config).expect(b.name);
        let baseline = map_one_to_one(&algebraic, &config).expect(b.name);
        assert!(
            best.num_gates() <= baseline.num_gates(),
            "{}: best ({}) worse than baseline ({})",
            b.name,
            best.num_gates(),
            baseline.num_gates()
        );
    }
}

/// TELS should beat the baseline on logic-rich circuits (the Table I trend)
/// — checked on the structured generators where the margin is robust.
#[test]
fn tels_beats_baseline_on_logic_rich_circuits() {
    let config = TelsConfig::default();
    for (name, net) in [
        ("comparator8", comparator(8)),
        ("adder4", ripple_adder(4)),
        ("majority7", tels::circuits::majority(7)),
    ] {
        let algebraic = script_algebraic(&net);
        let boolean = script_boolean(&net);
        let tels = synthesize(&algebraic, &config).expect(name);
        let baseline = map_one_to_one(&boolean, &config).expect(name);
        assert!(
            tels.num_gates() < baseline.num_gates(),
            "{name}: TELS {} !< one-to-one {}",
            tels.num_gates(),
            baseline.num_gates()
        );
    }
}

/// XOR-dominated circuits are adversarial for threshold synthesis (the
/// paper's tcon observation generalizes: "there exist Boolean functions
/// that require more threshold gates than Boolean gates"). The combined
/// flow must still never lose thanks to the §VI-A better-of-two rule.
#[test]
fn parity_is_adversarial_but_best_flow_rescues_it() {
    let config = TelsConfig::default();
    let net = parity_tree(8);
    let algebraic = script_algebraic(&net);
    let boolean = script_boolean(&net);
    let tels = synthesize(&algebraic, &config).unwrap();
    let baseline = map_one_to_one(&boolean, &config).unwrap();
    // Both are correct regardless of which wins.
    assert_eq!(tels.verify_against(&net, 12, 512, 1).unwrap(), None);
    assert_eq!(baseline.verify_against(&net, 12, 512, 2).unwrap(), None);
    let best = synthesize_best(&boolean, &config).unwrap();
    assert!(best.num_gates() <= map_one_to_one(&boolean, &config).unwrap().num_gates());
}

/// The fanin sweep of Fig. 10 in miniature: the one-to-one count falls as ψ
/// grows while TELS stays comparatively flat, and both stay correct.
#[test]
fn fanin_sweep_trend() {
    let net = comparator(6);
    let algebraic = script_algebraic(&net);
    let boolean = script_boolean(&net);
    let mut baseline_counts = Vec::new();
    let mut tels_counts = Vec::new();
    for psi in 3..=6 {
        let config = TelsConfig {
            psi,
            ..TelsConfig::default()
        };
        let baseline = map_one_to_one(&boolean, &config).unwrap();
        let tels = synthesize(&algebraic, &config).unwrap();
        assert_eq!(
            tels.verify_against(&net, 12, 512, psi as u64).unwrap(),
            None
        );
        baseline_counts.push(baseline.num_gates());
        tels_counts.push(tels.num_gates());
    }
    assert!(
        baseline_counts.first().unwrap() > baseline_counts.last().unwrap(),
        "one-to-one should shrink with relaxed fanin: {baseline_counts:?}"
    );
    let tels_drop = tels_counts[0] as isize - *tels_counts.last().unwrap() as isize;
    let base_drop = baseline_counts[0] as isize - *baseline_counts.last().unwrap() as isize;
    assert!(
        tels_drop <= base_drop,
        "TELS ({tels_counts:?}) should be flatter than one-to-one ({baseline_counts:?})"
    );
}

/// Gate count monotonicity against function size on the mux family, and
/// correctness at every size.
#[test]
fn mux_family_scales() {
    let config = TelsConfig::default();
    let mut last = 0;
    for bits in 1..=3 {
        let net = mux_tree(bits);
        let algebraic = script_algebraic(&net);
        let tn = synthesize(&algebraic, &config).unwrap();
        assert_eq!(tn.verify_against(&net, 12, 512, bits as u64).unwrap(), None);
        assert!(tn.num_gates() > last);
        last = tn.num_gates();
    }
}

/// Synthesis statistics are internally consistent.
#[test]
fn stats_are_consistent() {
    let net = comparator(6);
    let algebraic = script_algebraic(&net);
    let (tn, stats) = synthesize_with_stats(&algebraic, &TelsConfig::default()).unwrap();
    assert!(stats.ilp_calls >= tn.num_gates() / 2);
    assert!(
        stats.collapses > 0,
        "collapsing should fire on a comparator"
    );
}

/// Determinism: two synthesis runs produce byte-identical netlists.
#[test]
fn synthesis_is_deterministic() {
    let net = comparator(8);
    let algebraic = script_algebraic(&net);
    let a = synthesize(&algebraic, &TelsConfig::default()).unwrap();
    let b = synthesize(&algebraic, &TelsConfig::default()).unwrap();
    assert_eq!(a.to_tnet(), b.to_tnet());
}

/// A larger random network exercising the full flow at moderate scale
/// (120 nodes, both strategies, fanout-heavy).
#[test]
fn moderate_scale_stress() {
    use tels::circuits::{random_network, RandomNetOptions};
    let opts = RandomNetOptions {
        inputs: 20,
        outputs: 12,
        nodes: 120,
        max_fanin: 4,
        max_cubes: 3,
        negation_pct: 30,
        locality_pct: 50,
    };
    let net = random_network("stress", 0x57e55, &opts);
    let algebraic = script_algebraic(&net);
    let config = TelsConfig::default();
    let tn = synthesize(&algebraic, &config).unwrap();
    assert_eq!(tn.verify_against(&net, 12, 2048, 9).unwrap(), None);
    let baseline = map_one_to_one(&script_boolean(&net), &config).unwrap();
    assert_eq!(baseline.verify_against(&net, 12, 2048, 10).unwrap(), None);
    assert!(tn.num_gates() < baseline.num_gates());
}
