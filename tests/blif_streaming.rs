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
use tels::logic::{blif, opt, LogicError, Network};

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

/// Parses `text` through the string reader, the streaming reader and a
/// streaming reader whose buffer holds one byte, and asserts that all
/// three agree: byte-identical networks under `write`, or the same error
/// (on the same line).
fn parse_three_ways(text: &str) -> Result<Network, LogicError> {
    let via_string = blif::parse(text);
    let via_stream = blif::parse_reader(text.as_bytes());
    let via_byte = blif::parse_reader(BufReader::with_capacity(1, text.as_bytes()));
    let bytes = |r: &Result<Network, LogicError>| r.as_ref().map(blif::write).map_err(Clone::clone);
    assert_eq!(bytes(&via_string), bytes(&via_stream), "{text:?}");
    assert_eq!(bytes(&via_string), bytes(&via_byte), "{text:?}");
    via_string
}

/// Asserts that all three readers reject `text` at `line`.
fn fails_on_line(text: &str, line: usize) {
    match parse_three_ways(text) {
        Err(LogicError::Parse { line: at, .. }) => assert_eq!(at, line, "{text:?}"),
        other => panic!("expected a parse error on line {line} for {text:?}, got {other:?}"),
    }
}

/// Evaluates a one-output network on every input assignment, inputs in
/// declaration order with the first input as the low bit.
fn truth(net: &Network) -> Vec<bool> {
    let n = net.num_inputs();
    (0..1u32 << n)
        .map(|m| {
            let assign: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            net.eval(&assign).unwrap()[0]
        })
        .collect()
}

#[test]
fn repeated_fanin_merges_in_every_reader() {
    // Columns a, b, a: `1-1` is a, `01-` is a'b, and `1-0` asks a = 1 and
    // a = 0 at once, so that row vanishes: f = a + b.
    let text = ".model m\n.inputs a b\n.outputs f\n.names a b a f\n1-1 1\n01- 1\n1-0 1\n.end\n";
    let net = parse_three_ways(text).unwrap();
    let f = net.find("f").unwrap();
    assert_eq!(net.fanins(f).len(), 2);
    assert_eq!(truth(&net), [false, true, true, true]);
    // A row one column short, on line 6.
    fails_on_line(
        ".model m\n.inputs a b\n.outputs f\n.names a b a f\n1-1 1\n01 1\n.end\n",
        6,
    );
}

#[test]
fn off_set_cover_is_read_alike_by_every_reader() {
    // f = (ab + c)'.
    let text = ".model m\n.inputs a b c\n.outputs f\n.names a b c f\n11- 0\n--1 0\n.end\n";
    let net = parse_three_ways(text).unwrap();
    let want: Vec<bool> = (0..8u32).map(|m| !((m & 3) == 3 || m & 4 != 0)).collect();
    assert_eq!(truth(&net), want);
    // An ON-set row inside the OFF-set cover, on line 7.
    fails_on_line(
        ".model m\n.inputs a b c\n.outputs f\n.names a b c f\n11- 0\n--1 0\n000 1\n.end\n",
        7,
    );
}

#[test]
fn continuation_lines_join_in_every_reader() {
    // The `.inputs` and `.names` lines are each split over two physical
    // lines; the second half of the `.names` line carries a comment.
    let text = ".model m\n.inputs a \\\n b c\n.outputs f\n.names a b \\\nc f # f = ab + c\n11- 1\n--1 1\n.end\n";
    let net = parse_three_ways(text).unwrap();
    assert_eq!(net.num_inputs(), 3);
    let want: Vec<bool> = (0..8u32).map(|m| (m & 3) == 3 || m & 4 != 0).collect();
    assert_eq!(truth(&net), want);
    // Line numbers count physical lines: after a continued `.inputs` line,
    // the short row is line 6; a continuation left dangling at the end of
    // the text is reported on the last line, also 6.
    fails_on_line(
        ".model m\n.inputs a b \\\n c\n.outputs f\n.names a b c f\n11 1\n.end\n",
        6,
    );
    fails_on_line(
        ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end \\\n",
        6,
    );
}

#[test]
fn crlf_line_ends_read_like_lf_in_every_reader() {
    let lf = ".model m # crlf\n.inputs a b c\n.outputs f g\n.names a b t\n11 1\n.names t c f\n1- 1\n-1 1\n.names a c g\n0- 1\n-0 1\n.end\n";
    let crlf = lf.replace('\n', "\r\n");
    let from_lf = parse_three_ways(lf).unwrap();
    let from_crlf = parse_three_ways(&crlf).unwrap();
    assert_eq!(blif::write(&from_lf), blif::write(&from_crlf));
    // A bad pattern character on line 5, before a CRLF.
    fails_on_line(
        &".model m\n.inputs a b\n.outputs f\n.names a b f\n1x 1\n.end\n".replace('\n', "\r\n"),
        5,
    );
}

#[test]
fn reading_stops_at_end_in_every_buffer_split() {
    // Whatever follows `.end` is never read: a second model, a line that
    // is not BLIF, or bytes that are not UTF-8. Buffers of every size make
    // the `.end` line straddle two fills at every offset, with whole lines
    // of the tail in the second fill.
    let first = ".model first\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
    let want = blif::write(&blif::parse(first).unwrap());
    let tails: [&[u8]; 5] = [
        b".model second\n.inputs z\n.outputs y\n.names z y\n1 1\n.end\n",
        b".model b\n",
        b".names a b g\n00 1\n",
        b"x\n",
        b"\xff\xfe\n.end\n",
    ];
    for tail in tails {
        let mut text = first.as_bytes().to_vec();
        text.extend_from_slice(tail);
        for cap in 1..=text.len() {
            let net = blif::parse_reader(BufReader::with_capacity(cap, &text[..]))
                .unwrap_or_else(|e| panic!("capacity {cap}, tail {tail:?}: {e}"));
            assert_eq!(blif::write(&net), want, "capacity {cap}, tail {tail:?}");
        }
        let net = blif::parse_reader(&text[..]).unwrap();
        assert_eq!(blif::write(&net), want, "tail {tail:?}");
    }
}
