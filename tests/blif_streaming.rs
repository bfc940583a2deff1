//! Streaming-vs-string BLIF parser equivalence and round-trip properties,
//! over the fuzz generator and the large deterministic generators.
//!
//! The contract pinned here: `parse_reader` over any chunking of the bytes
//! builds the same network as `parse` over the whole string (byte-identical
//! under `write`), and `parse(write(net))` preserves the function — for
//! networks far bigger and messier than the hand-written unit cases.

use std::io::BufReader;

use tels::circuits::{alu_array, array_multiplier, lfsr_cone, majority_grid, parity_ladder};
use tels::fuzz::{gen_case, GenOptions};
use tels::logic::sim::{check_equivalence, EquivOptions};
use tels::logic::{blif, opt, Network};

/// Asserts the three-way byte identity: string parse, coarse stream parse,
/// and a deliberately tiny-buffered stream parse all rebuild one network.
fn assert_stream_identity(net: &Network) {
    let text = blif::write(net);
    let via_string = blif::parse(&text).expect("string parse");
    let via_stream = blif::parse_reader(text.as_bytes()).expect("stream parse");
    let via_tiny =
        blif::parse_reader(BufReader::with_capacity(2, text.as_bytes())).expect("tiny parse");
    let canon = blif::write(&via_string);
    assert_eq!(canon, blif::write(&via_stream), "{}", net.model());
    assert_eq!(canon, blif::write(&via_tiny), "{}", net.model());
}

#[test]
fn fuzz_generator_round_trips_through_streaming_parser() {
    let opts = GenOptions::default();
    for seed in 0..200 {
        let net = gen_case(seed, &opts);
        assert_stream_identity(&net);
        let round = blif::parse(&blif::write(&net)).unwrap();
        let r = check_equivalence(&net, &round, &EquivOptions::default()).unwrap();
        assert!(r.is_equivalent(), "seed {seed}");
    }
}

#[test]
fn large_generators_round_trip_through_streaming_parser() {
    let nets = [
        array_multiplier(12),
        parity_ladder(48, 12),
        majority_grid(32, 12),
        lfsr_cone(24, 30),
        alu_array(24),
    ];
    for net in &nets {
        assert_stream_identity(net);
        // Sampled functional check on the reparse (exhaustive is infeasible
        // at these widths).
        let round = blif::parse(&blif::write(net)).unwrap();
        let mut assign = vec![false; net.num_inputs()];
        for trial in 0..64u64 {
            let mut h = trial.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            for slot in assign.iter_mut() {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                *slot = h & 1 != 0;
            }
            assert_eq!(
                net.eval(&assign).unwrap(),
                round.eval(&assign).unwrap(),
                "{} trial {trial}",
                net.model()
            );
        }
    }
}

#[test]
fn arena_round_trip_preserves_function_on_generated_networks() {
    let opts = GenOptions::default();
    for seed in 0..100 {
        let net = gen_case(seed, &opts);
        let mut back = net.clone();
        opt::strash(&mut back);
        let back = back.compact();
        assert!(back.num_logic_nodes() <= net.num_logic_nodes());
        let r = check_equivalence(&net, &back, &EquivOptions::default()).unwrap();
        assert!(
            r.is_equivalent(),
            "seed {seed}: strash round-trip changed the function"
        );
    }
}
