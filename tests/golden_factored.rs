//! Golden factored-BLIF digests: the optimization scripts are pinned byte
//! for byte.
//!
//! `tests/golden_tnet.rs` pins synthesis output on the small paper suite,
//! where a change in factoring order could hide behind an unchanged gate
//! count. This file pins the factored networks themselves — the FNV-1a
//! digest of `blif::write` after `script_algebraic` and after
//! `script_boolean` — on the paper suite, two families of random networks
//! and the two 10k-node circuits of the big-circuit benchmark (read back
//! from their BLIF text, as the benchmark's jobs are). Any change
//! to a factoring pass, its visiting order or its cube ordering that moves
//! a single byte fails here. The suite and random networks are also
//! factored by calling the passes one at a time, which must give the
//! script's bytes: the passes' memos live in the network, not the script.

use tels::circuits::{alu_array, paper_suite, parity_ladder, random_network, RandomNetOptions};
use tels::logic::opt::{
    eliminate, extract, resubstitute, script_algebraic, script_boolean, simplify, strash, sweep,
    OptOptions,
};
use tels::logic::{blif, Network};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(name, algebraic digest, boolean digest)` for one network.
fn digests(name: &str, net: &Network) -> (String, u64, u64) {
    (
        name.to_string(),
        fnv1a(blif::write(&script_algebraic(net)).as_bytes()),
        fnv1a(blif::write(&script_boolean(net)).as_bytes()),
    )
}

fn check(actual: &[(String, u64, u64)], golden: &[(&str, u64, u64)]) {
    let listing: String = actual
        .iter()
        .map(|(name, a, b)| format!("    ({name:?}, 0x{a:016x}, 0x{b:016x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        golden.len(),
        "golden table has the wrong length; current digests:\n{listing}"
    );
    for (got, want) in actual.iter().zip(golden) {
        assert_eq!(
            (got.0.as_str(), got.1, got.2),
            *want,
            "{}: factored BLIF bytes changed; current digests:\n{listing}",
            got.0
        );
    }
}

/// The random networks: `wide_psi9`'s generator settings (20% negation)
/// and the same shape with half the literals complemented.
fn random_networks() -> Vec<(String, Network)> {
    let wide = RandomNetOptions {
        inputs: 24,
        outputs: 12,
        nodes: 200,
        max_fanin: 6,
        max_cubes: 6,
        negation_pct: 20,
        ..RandomNetOptions::default()
    };
    let negated = RandomNetOptions {
        negation_pct: 50,
        ..wide
    };
    let mut out = Vec::new();
    for (tag, options) in [("wide", wide), ("neg50", negated)] {
        for i in 0..10u64 {
            let name = format!("{tag}_{i}");
            let net = random_network(&name, 0x5EED_0000 + i, &options);
            out.push((name, net));
        }
    }
    out
}

const GOLDEN_SMALL: &[(&str, u64, u64)] = &[
    ("cm152a_like", 0xd5ac9a217d43dc70, 0x106f57bbcfccc944),
    ("cordic_like", 0xd13602f7ce55d3ab, 0xd12bcebfe0358d9d),
    ("cm85a_like", 0x631f876199fdc614, 0xa13899a5e33374f9),
    ("comp_like", 0xb7ce6f2d453f4701, 0xf8b65d5452763d9f),
    ("cmb_like", 0x7c9c45672607533b, 0x58876d4b3758c2d1),
    ("term1_like", 0x6a95fb891eb25d4a, 0x31b5b7f82653202d),
    ("pm1_like", 0x37d5c75fc7585097, 0xd9956b7d0a59bff9),
    ("x1_like", 0x379fb3682a044cb0, 0x5dcbbbda530814aa),
    ("i10_like", 0x1d8c61a81b15fd43, 0x79f6c74f6d434c31),
    ("tcon_like", 0x7f1de86152afe445, 0x7f1de86152afe445),
    ("wide_0", 0xd83eec6120d35ac5, 0x697a995b49fb5536),
    ("wide_1", 0xe7679ab171c52940, 0x11edf22e16a43215),
    ("wide_2", 0x76a97e1fce8cb87d, 0xc1ca3e4889e3170b),
    ("wide_3", 0x3a92b5a6d3d078be, 0xf30a15f3189b19a5),
    ("wide_4", 0x4875a3d886c57eec, 0x24d8c8d193676039),
    ("wide_5", 0x83a9707a23160f88, 0xa4d5db779f5b5137),
    ("wide_6", 0x6d1c9628e5656915, 0xb3eef98a0d147559),
    ("wide_7", 0x510ae1384a3e3c42, 0x40af0da333c8ed28),
    ("wide_8", 0xdef35b2584657db4, 0xdf839c6d6602640a),
    ("wide_9", 0xc0d109551d2ed191, 0x57c040e6abbe5c97),
    ("neg50_0", 0x9c693c3e2e09edab, 0x8b8b91b0e64c4797),
    ("neg50_1", 0xdb82c9b9a31c9e3d, 0x8cceec71aef72237),
    ("neg50_2", 0xe07570e49632732d, 0x364c672d0bb5ca7c),
    ("neg50_3", 0x3db5099ba01743c2, 0x1f770cab26879fb2),
    ("neg50_4", 0xb8b0bfb31852dbb4, 0xa9c668ff6c9de88d),
    ("neg50_5", 0x184fbf7419ec3373, 0xa9dc919594aad17b),
    ("neg50_6", 0x6d76940b3762b926, 0xeb3e0e33854d2373),
    ("neg50_7", 0x8a4527c4bca6c388, 0xb7aac084d449600c),
    ("neg50_8", 0x74a9f17bf59e4e88, 0x68788170d57da4aa),
    ("neg50_9", 0xdb9b0ff545d4c57a, 0x9a642a12918a264c),
];

#[test]
fn suite_and_random_factored_bytes_match_golden_digests() {
    let mut actual = Vec::new();
    for b in paper_suite() {
        actual.push(digests(b.name, &b.network));
    }
    for (name, net) in random_networks() {
        actual.push(digests(&name, &net));
    }
    check(&actual, GOLDEN_SMALL);
}

/// `script_algebraic`'s passes called one at a time through the public
/// API, in its documented order — as a traced benchmark run calls them,
/// each in its own span. The passes keep their memos in the network, so
/// this must give the script's bytes.
fn algebraic_by_passes(net: &Network) -> Network {
    let opts = OptOptions::default();
    let mut n = net.compact();
    sweep(&mut n);
    eliminate(&mut n, -1, &opts);
    simplify(&mut n);
    eliminate(&mut n, -1, &opts);
    sweep(&mut n);
    eliminate(&mut n, 5, &opts);
    simplify(&mut n);
    resubstitute(&mut n);
    extract(&mut n, &opts);
    resubstitute(&mut n);
    strash(&mut n);
    sweep(&mut n);
    eliminate(&mut n, -1, &opts);
    sweep(&mut n);
    simplify(&mut n);
    n.compact()
}

#[test]
fn passes_one_at_a_time_match_the_script() {
    let mut nets: Vec<(String, Network)> = paper_suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.network))
        .collect();
    nets.extend(random_networks());
    for ((name, net), want) in nets.iter().zip(GOLDEN_SMALL) {
        assert_eq!(name, want.0);
        let got = fnv1a(blif::write(&algebraic_by_passes(net)).as_bytes());
        assert_eq!(
            got, want.1,
            "{name}: pass-by-pass bytes differ from script_algebraic's"
        );
    }
}

const GOLDEN_BIG: &[(&str, u64, u64)] = &[
    (
        "parity_ladder_160x64",
        0x580f94338318b983,
        0x5eac267489e793ff,
    ),
    ("alu_array_1200", 0x78a54c4b57fa6879, 0xa36897a5ac636aa9),
];

#[test]
fn big_circuit_factored_bytes_match_golden_digests() {
    // Read back from BLIF text, as a one-shot `.blif` job sees them.
    let actual: Vec<_> = [
        ("parity_ladder_160x64", parity_ladder(160, 64)),
        ("alu_array_1200", alu_array(1200)),
    ]
    .iter()
    .map(|(name, net)| {
        let parsed = blif::parse(&blif::write(net)).expect("writer output parses");
        digests(name, &parsed)
    })
    .collect();
    check(&actual, GOLDEN_BIG);
}
