//! Golden `.tnet` digests: synthesis output is pinned byte for byte.
//!
//! Every factored paper-suite circuit is synthesized at ψ = 3..=9 under the
//! default configuration, and again at ψ = 6 with δ_on = 1, where the tier-0
//! and tier-0.5 oracles switch off and the ILP answers every query. Two
//! wide random networks are pinned at ψ = 6..=9 with Theorem 1 off, so
//! that non-threshold queries reach tier 0.5 and the ILP instead of being
//! refuted up front. Eight of the `wide_psi9` benchmark's random networks
//! are pinned at ψ = 9 with the default configuration (Theorem 1 on),
//! among them queries where tier 0.5 runs out of leaf budget or exhausts
//! its search space. The two 10k-node circuits of the big-circuit
//! benchmark are pinned at the default configuration, read back from BLIF
//! text as the benchmark's jobs are. The FNV-1a digest of each `.tnet`
//! text must equal the committed value, so any refactor of the synthesis
//! or threshold-check paths that changes a single emitted byte fails here.

use tels::circuits::{alu_array, paper_suite, parity_ladder, random_network, RandomNetOptions};
use tels::logic::blif;
use tels::logic::opt::script_algebraic;
use tels::{synthesize, TelsConfig};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(circuit, ψ, δ_on, digest)` for every pinned configuration.
const GOLDEN: &[(&str, usize, i64, u64)] = &[
    ("cm152a_like", 3, 0, 0x0ca7fad87853f2a3),
    ("cm152a_like", 4, 0, 0xe984d20c56f17b73),
    ("cm152a_like", 5, 0, 0x697e6ff98ce63a35),
    ("cm152a_like", 6, 0, 0x49cbfa4e6719f66d),
    ("cm152a_like", 7, 0, 0x5dc87888374b000d),
    ("cm152a_like", 8, 0, 0x37b3ad89f91f089d),
    ("cm152a_like", 9, 0, 0x2dced9e5d2368f25),
    ("cm152a_like", 6, 1, 0x8fafd08c556215c5),
    ("cordic_like", 3, 0, 0xde1e12f53f0979c0),
    ("cordic_like", 4, 0, 0x2eedc1cb0592becb),
    ("cordic_like", 5, 0, 0x667bcf951ec21b40),
    ("cordic_like", 6, 0, 0xef8ddff808edc866),
    ("cordic_like", 7, 0, 0xd1713f7635197108),
    ("cordic_like", 8, 0, 0x5b4cbb4b9b952cbf),
    ("cordic_like", 9, 0, 0xfb4dbad8f6805163),
    ("cordic_like", 6, 1, 0xbb886805ceb7e571),
    ("cm85a_like", 3, 0, 0x3eb910bda0be1c3b),
    ("cm85a_like", 4, 0, 0x7dffd99415e85609),
    ("cm85a_like", 5, 0, 0x7dffd99415e85609),
    ("cm85a_like", 6, 0, 0x7dffd99415e85609),
    ("cm85a_like", 7, 0, 0x7dffd99415e85609),
    ("cm85a_like", 8, 0, 0xb7a38d2d5c43dc67),
    ("cm85a_like", 9, 0, 0xb7a38d2d5c43dc67),
    ("cm85a_like", 6, 1, 0x0d14e98204587e88),
    ("comp_like", 3, 0, 0x3714d4275c00c1f9),
    ("comp_like", 4, 0, 0x2e9953c8ba8515ae),
    ("comp_like", 5, 0, 0x00948eed51ea80e5),
    ("comp_like", 6, 0, 0xdf671d2d992edeaf),
    ("comp_like", 7, 0, 0xdf671d2d992edeaf),
    ("comp_like", 8, 0, 0x4cb356aeed389b27),
    ("comp_like", 9, 0, 0x4cb356aeed389b27),
    ("comp_like", 6, 1, 0x53631b3ade22f364),
    ("cmb_like", 3, 0, 0x3ce538008c90e5ec),
    ("cmb_like", 4, 0, 0x5322d9a6ebdc1131),
    ("cmb_like", 5, 0, 0x3584d9a97ca3871b),
    ("cmb_like", 6, 0, 0x3584d9a97ca3871b),
    ("cmb_like", 7, 0, 0x3584d9a97ca3871b),
    ("cmb_like", 8, 0, 0xe6eb9ebbb02a155b),
    ("cmb_like", 9, 0, 0xe6eb9ebbb02a155b),
    ("cmb_like", 6, 1, 0xab791f73a47e16f5),
    ("term1_like", 3, 0, 0xbf541d5c4817e06b),
    ("term1_like", 4, 0, 0x8343f84955cb83e6),
    ("term1_like", 5, 0, 0x43c277eb3e6ed334),
    ("term1_like", 6, 0, 0x02d89dee7b73c383),
    ("term1_like", 7, 0, 0x803ebad5efc54dd9),
    ("term1_like", 8, 0, 0xc663cf3828957765),
    ("term1_like", 9, 0, 0x743fbb434e1c60c8),
    ("term1_like", 6, 1, 0xd7bc5ef57d6a443c),
    ("pm1_like", 3, 0, 0x0aa05436415099c6),
    ("pm1_like", 4, 0, 0xc3b24732b82fef1c),
    ("pm1_like", 5, 0, 0xc3b24732b82fef1c),
    ("pm1_like", 6, 0, 0xc3b24732b82fef1c),
    ("pm1_like", 7, 0, 0xc3b24732b82fef1c),
    ("pm1_like", 8, 0, 0xc3b24732b82fef1c),
    ("pm1_like", 9, 0, 0xc3b24732b82fef1c),
    ("pm1_like", 6, 1, 0x83ba8111d181717d),
    ("x1_like", 3, 0, 0xf894a07aa7a8b5fd),
    ("x1_like", 4, 0, 0x796f3b3179b3d955),
    ("x1_like", 5, 0, 0x0cc3da416acc280a),
    ("x1_like", 6, 0, 0xa63fef97e3a029fd),
    ("x1_like", 7, 0, 0xdbaa7191567ce99a),
    ("x1_like", 8, 0, 0xf046e3e563b4903f),
    ("x1_like", 9, 0, 0xf046e3e563b4903f),
    ("x1_like", 6, 1, 0xbadc2705830f66db),
    ("i10_like", 3, 0, 0x903eb2da0869b01a),
    ("i10_like", 4, 0, 0x86c93d7a29eba357),
    ("i10_like", 5, 0, 0x80b88db47e9404a1),
    ("i10_like", 6, 0, 0x2c8c4753ee141823),
    ("i10_like", 7, 0, 0xde1edd0435f04c9b),
    ("i10_like", 8, 0, 0x10ff445b9e5ea24e),
    ("i10_like", 9, 0, 0x53806b003c6cf21e),
    ("i10_like", 6, 1, 0x25d93487d5944fb8),
    ("tcon_like", 3, 0, 0xdc78ed6bda8a1005),
    ("tcon_like", 4, 0, 0xdc78ed6bda8a1005),
    ("tcon_like", 5, 0, 0xdc78ed6bda8a1005),
    ("tcon_like", 6, 0, 0xdc78ed6bda8a1005),
    ("tcon_like", 7, 0, 0xdc78ed6bda8a1005),
    ("tcon_like", 8, 0, 0xdc78ed6bda8a1005),
    ("tcon_like", 9, 0, 0xdc78ed6bda8a1005),
    ("tcon_like", 6, 1, 0xb6fc1a09e3270c65),
];

/// The configurations the golden table covers, in table order.
fn configurations() -> Vec<(usize, i64)> {
    let mut out: Vec<(usize, i64)> = (3..=9).map(|psi| (psi, 0)).collect();
    out.push((6, 1));
    out
}

#[test]
fn suite_tnet_bytes_match_golden_digests() {
    let mut actual = Vec::new();
    for b in paper_suite() {
        let factored = script_algebraic(&b.network);
        for (psi, delta_on) in configurations() {
            let config = TelsConfig {
                psi,
                delta_on,
                ..TelsConfig::default()
            };
            let tn = synthesize(&factored, &config).expect(b.name);
            actual.push((b.name, psi, delta_on, fnv1a(tn.to_tnet().as_bytes())));
        }
    }
    let listing: String = actual
        .iter()
        .map(|(name, psi, d, h)| format!("    ({name:?}, {psi}, {d}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "golden table has the wrong length; current digests:\n{listing}"
    );
    for (got, want) in actual.iter().zip(GOLDEN) {
        assert_eq!(
            got, want,
            "{} at ψ={} δ_on={}: .tnet bytes changed",
            got.0, got.1, got.2
        );
    }
}

/// `(seed, ψ, digest)` for the random networks synthesized with Theorem 1 off.
const GOLDEN_NO_THEOREM1: &[(u64, usize, u64)] = &[
    (0x5EED004C, 6, 0x399b3e7a39314245),
    (0x5EED004C, 7, 0x724b0307decc5667),
    (0x5EED004C, 8, 0xda9f7567349148ab),
    (0x5EED004C, 9, 0x0a8bb827ca4256dc),
    (0x5EED0030, 6, 0xee1b7190c8508158),
    (0x5EED0030, 7, 0x4d3b8f16ff336f7f),
    (0x5EED0030, 8, 0xc761e289cd6b5801),
    (0x5EED0030, 9, 0x704f5cecd01f2bcd),
];

#[test]
fn random_tnet_bytes_without_theorem1_match_golden_digests() {
    let options = RandomNetOptions {
        inputs: 24,
        outputs: 12,
        nodes: 200,
        max_fanin: 6,
        max_cubes: 6,
        negation_pct: 20,
        ..Default::default()
    };
    let mut actual = Vec::new();
    for seed in [0x5EED_004C_u64, 0x5EED_0030] {
        let factored = script_algebraic(&random_network("golden_random", seed, &options));
        for psi in 6..=9 {
            let config = TelsConfig {
                psi,
                use_theorem1: false,
                ..TelsConfig::default()
            };
            let tn = synthesize(&factored, &config).expect("random network");
            actual.push((seed, psi, fnv1a(tn.to_tnet().as_bytes())));
        }
    }
    let listing: String = actual
        .iter()
        .map(|(seed, psi, h)| format!("    (0x{seed:08X}, {psi}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        actual.as_slice(),
        GOLDEN_NO_THEOREM1,
        "random-network .tnet bytes changed; current digests:\n{listing}"
    );
}

/// `(seed, digest)` for `wide_psi9`'s random networks at ψ = 9 under the
/// default configuration (Theorem 1 on). Seeds 0 and 3 each make one
/// tier-0.5 query that spends the whole leaf budget; seeds 5, 14, 21 and
/// 24 each make one that exhausts the search space with no feasible
/// weight vector; seeds 1 and 2 take only unique-optimum answers.
const GOLDEN_WIDE_PSI9: &[(u64, u64)] = &[
    (0, 0x68fea0fc7d3aee4c),
    (1, 0xd402d83f2f36c984),
    (2, 0x542ed440773551a5),
    (3, 0xd55d7a75b31c9039),
    (5, 0xcd5bdef1017bba9f),
    (14, 0x2994fda7755a8daf),
    (21, 0xedcb4d8e3bc1fc55),
    (24, 0x08449475a35b32d4),
];

#[test]
fn wide_psi9_tnet_bytes_match_golden_digests() {
    // The benchmark's job path: factor, write BLIF, parse it back,
    // synthesize at ψ = 9.
    let options = RandomNetOptions {
        inputs: 24,
        outputs: 12,
        nodes: 200,
        max_fanin: 6,
        max_cubes: 6,
        negation_pct: 20,
        ..Default::default()
    };
    let config = TelsConfig {
        psi: 9,
        ..TelsConfig::default()
    };
    let actual: Vec<(u64, u64)> = [0u64, 1, 2, 3, 5, 14, 21, 24]
        .iter()
        .map(|&i| {
            let name = format!("wide_{i}");
            let net = random_network(&name, 0x5EED_0000 + i, &options);
            let text = blif::write(&script_algebraic(&net));
            let parsed = blif::parse_reader(text.as_bytes()).expect("writer output parses");
            let tn = synthesize(&parsed, &config).expect("random network");
            (i, fnv1a(tn.to_tnet().as_bytes()))
        })
        .collect();
    let listing: String = actual
        .iter()
        .map(|(i, h)| format!("    ({i}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        actual.as_slice(),
        GOLDEN_WIDE_PSI9,
        "wide ψ = 9 .tnet bytes changed; current digests:\n{listing}"
    );
}

/// `(circuit, digest)` for the two 10k-node circuits of the big-circuit
/// benchmark, synthesized at the default configuration.
const GOLDEN_BIG: &[(&str, u64)] = &[
    ("parity_ladder_160x64", 0x568c117d1cbb0b3d),
    ("alu_array_1200", 0x8db655b5098e49ac),
];

#[test]
fn big_circuit_tnet_bytes_match_golden_digests() {
    // BLIF text → streaming parse → factoring → synthesis, as a one-shot
    // `.blif` job runs them. Node ids reach past 10 000 here, so covers
    // span many bitset words and fanin lists are not in ascending order.
    let actual: Vec<(&str, u64)> = [
        ("parity_ladder_160x64", parity_ladder(160, 64)),
        ("alu_array_1200", alu_array(1200)),
    ]
    .iter()
    .map(|(name, net)| {
        let text = blif::write(net);
        let parsed = blif::parse_reader(text.as_bytes()).expect("writer output parses");
        let tn = synthesize(&script_algebraic(&parsed), &TelsConfig::default()).expect(name);
        (*name, fnv1a(tn.to_tnet().as_bytes()))
    })
    .collect();
    let listing: String = actual
        .iter()
        .map(|(name, h)| format!("    ({name:?}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        actual.as_slice(),
        GOLDEN_BIG,
        "big-circuit .tnet bytes changed; current digests:\n{listing}"
    );
}
