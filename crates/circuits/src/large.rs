//! Large deterministic circuit generators for scaling experiments.
//!
//! The paper-suite circuits (Table I) are small enough that per-call
//! overheads dominate; these generators produce wide/deep networks with
//! hundreds to thousands of nodes so the word-parallel simulation engine
//! and batched Monte Carlo yield analysis have something to push against.
//! Every generator is a pure function of its parameters.

use tels_logic::{Cube, Network, NodeId, Sop, Var};

fn sop(cubes: &[&[(u32, bool)]]) -> Sop {
    Sop::from_cubes(
        cubes
            .iter()
            .map(|c| Cube::from_literals(c.iter().map(|&(v, p)| (Var(v), p)))),
    )
}

/// AND over fanins 0,1.
fn and2() -> Sop {
    sop(&[&[(0, true), (1, true)]])
}

/// XOR over fanins 0,1 (half-adder sum).
fn xor2() -> Sop {
    sop(&[&[(0, true), (1, false)], &[(0, false), (1, true)]])
}

/// XOR3 over fanins 0,1,2 (full-adder sum).
fn xor3() -> Sop {
    sop(&[
        &[(0, true), (1, false), (2, false)],
        &[(0, false), (1, true), (2, false)],
        &[(0, false), (1, false), (2, true)],
        &[(0, true), (1, true), (2, true)],
    ])
}

/// Majority over fanins 0,1,2 (full-adder carry).
fn maj3() -> Sop {
    sop(&[
        &[(0, true), (1, true)],
        &[(0, true), (2, true)],
        &[(1, true), (2, true)],
    ])
}

/// An `n`×`n` array multiplier: inputs `a0..a(n−1)`, `b0..b(n−1)`; outputs
/// `p0..p(2n−1)` with `p = a·b`.
///
/// AND-gate partial products feed ripple rows of half/full adders — the
/// classic school-book array, `O(n²)` gates and `O(n)` depth.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn array_multiplier(n: usize) -> Network {
    assert!(n >= 2, "array multiplier needs n >= 2");
    let mut net = Network::new(format!("mult{n}"));
    let a: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("a{i}")).expect("fresh"))
        .collect();
    let b: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("b{i}")).expect("fresh"))
        .collect();
    let pp = |net: &mut Network, i: usize, j: usize| -> NodeId {
        net.add_node(format!("pp{i}_{j}"), vec![a[j], b[i]], and2())
            .expect("fresh")
    };

    // Row 0: a·b0. Bit 0 is final; bits 1.. carry into the next row.
    let row0: Vec<NodeId> = (0..n).map(|j| pp(&mut net, 0, j)).collect();
    net.add_output("p0", row0[0]).expect("fresh");
    // `high` holds the accumulated sum shifted down by the rows consumed
    // so far (an implicit 0 above its top bit).
    let mut high: Vec<NodeId> = row0[1..].to_vec();

    for i in 1..n {
        let row: Vec<NodeId> = (0..n).map(|j| pp(&mut net, i, j)).collect();
        let mut carry: Option<NodeId> = None;
        let mut sum = Vec::with_capacity(n);
        for (j, &r) in row.iter().enumerate() {
            let operands: Vec<NodeId> = [Some(r), high.get(j).copied(), carry]
                .into_iter()
                .flatten()
                .collect();
            match operands.len() {
                1 => {
                    sum.push(operands[0]);
                }
                2 => {
                    let s = net
                        .add_node(format!("s{i}_{j}"), operands.clone(), xor2())
                        .expect("fresh");
                    let c = net
                        .add_node(format!("c{i}_{j}"), operands, and2())
                        .expect("fresh");
                    sum.push(s);
                    carry = Some(c);
                }
                _ => {
                    let s = net
                        .add_node(format!("s{i}_{j}"), operands.clone(), xor3())
                        .expect("fresh");
                    let c = net
                        .add_node(format!("c{i}_{j}"), operands, maj3())
                        .expect("fresh");
                    sum.push(s);
                    carry = Some(c);
                }
            }
        }
        net.add_output(format!("p{i}"), sum[0]).expect("fresh");
        high = sum[1..].to_vec();
        if let Some(c) = carry {
            high.push(c);
        }
    }
    for (k, &bit) in high.iter().enumerate() {
        net.add_output(format!("p{}", n + k), bit).expect("fresh");
    }
    net
}

/// The tap positions of the [`lfsr_cone`] feedback polynomial for a given
/// register width (always includes bit `width − 1`).
fn lfsr_taps(width: usize) -> Vec<usize> {
    let mut taps = vec![0, 1, width / 2, width - 1];
    taps.sort_unstable();
    taps.dedup();
    taps.retain(|&t| t < width);
    taps
}

/// A Fibonacci LFSR unrolled for `steps` clock ticks: inputs
/// `s0..s(width−1)` are the initial register state, outputs
/// `o0..o(width−1)` the state after `steps` shifts.
///
/// Each tick XORs a fixed tap set into the fed-back bit and shifts the
/// register up, so output cones deepen with `steps` while early outputs
/// stay shallow — some may alias inputs outright, exercising the
/// output-is-input paths of the simulator.
///
/// # Panics
///
/// Panics if `width < 4` or `steps == 0`.
pub fn lfsr_cone(width: usize, steps: usize) -> Network {
    assert!(width >= 4 && steps >= 1);
    let mut net = Network::new(format!("lfsr{width}x{steps}"));
    let mut state: Vec<NodeId> = (0..width)
        .map(|i| net.add_input(format!("s{i}")).expect("fresh"))
        .collect();
    let taps = lfsr_taps(width);
    for t in 0..steps {
        let mut fb = state[taps[0]];
        for (k, &tap) in taps.iter().enumerate().skip(1) {
            fb = net
                .add_node(format!("fb{t}_{k}"), vec![fb, state[tap]], xor2())
                .expect("fresh");
        }
        // Shift up: s' = [fb, s0, …, s(width−2)].
        state.pop();
        state.insert(0, fb);
    }
    for (i, &bit) in state.iter().enumerate() {
        net.add_output(format!("o{i}"), bit).expect("fresh");
    }
    net
}

/// A `width`×`depth` grid of MAJ3 gates: layer `l` cell `i` is the
/// majority of cells `i−1`, `i`, `i+1` (wrapping) of layer `l−1`; layer 0
/// is the inputs `x0..x(width−1)`. Outputs `m0..m(width−1)` are the final
/// layer — a cellular-automaton-style mesh whose cones widen with depth.
///
/// # Panics
///
/// Panics if `width < 3` or `depth == 0`.
pub fn majority_grid(width: usize, depth: usize) -> Network {
    assert!(width >= 3 && depth >= 1);
    let mut net = Network::new(format!("majgrid{width}x{depth}"));
    let mut layer: Vec<NodeId> = (0..width)
        .map(|i| net.add_input(format!("x{i}")).expect("fresh"))
        .collect();
    for l in 0..depth {
        layer = (0..width)
            .map(|i| {
                let fanins = vec![
                    layer[(i + width - 1) % width],
                    layer[i],
                    layer[(i + 1) % width],
                ];
                net.add_node(format!("m{l}_{i}"), fanins, maj3())
                    .expect("fresh")
            })
            .collect();
    }
    for (i, &bit) in layer.iter().enumerate() {
        net.add_output(format!("m{i}"), bit).expect("fresh");
    }
    net
}

/// A `width`×`depth` ladder of XOR2 gates: layer `l` cell `i` is
/// `prev[i] ⊕ prev[(i+1) mod width]`. After `depth ≥ log₂(width)` layers
/// every output is a parity over a wide input window — deep XOR cones are
/// the worst case for SOP-based evaluation and a natural fit for the
/// packed engine.
///
/// # Panics
///
/// Panics if `width < 2` or `depth == 0`.
pub fn parity_ladder(width: usize, depth: usize) -> Network {
    assert!(width >= 2 && depth >= 1);
    let mut net = Network::new(format!("parlad{width}x{depth}"));
    let mut layer: Vec<NodeId> = (0..width)
        .map(|i| net.add_input(format!("x{i}")).expect("fresh"))
        .collect();
    for l in 0..depth {
        layer = (0..width)
            .map(|i| {
                let fanins = vec![layer[i], layer[(i + 1) % width]];
                net.add_node(format!("p{l}_{i}"), fanins, xor2())
                    .expect("fresh")
            })
            .collect();
    }
    for (i, &bit) in layer.iter().enumerate() {
        net.add_output(format!("o{i}"), bit).expect("fresh");
    }
    net
}

/// OR over fanins 0,1.
fn or2() -> Sop {
    sop(&[&[(0, true)], &[(1, true)]])
}

/// 4-way operation select over fanins `[op0, op1, and, or, xor, sum]`.
fn alu_mux() -> Sop {
    sop(&[
        &[(0, false), (1, false), (2, true)],
        &[(0, true), (1, false), (3, true)],
        &[(0, false), (1, true), (4, true)],
        &[(0, true), (1, true), (5, true)],
    ])
}

/// A `width`-bit ALU slice array: inputs `a0..`, `b0..`, `cin`, and a 2-bit
/// opcode `op0 op1` selecting AND / OR / XOR / ADD; outputs `f0..f(width−1)`
/// and the adder's `cout`.
///
/// Each bit builds the three bitwise results *and* an independent
/// generate/propagate pair for the ripple carry — so `a⊕b` and `a·b` are
/// each synthesized twice per bit (9 gates/bit, 2 of them structurally
/// redundant). That makes this the reference workload for measuring how much
/// structural hashing ([`tels_logic::opt::strash`]) shrinks a network
/// whose generator naively duplicates logic.
///
/// # Panics
///
/// Panics if `width < 2`.
pub fn alu_array(width: usize) -> Network {
    assert!(width >= 2, "alu array needs width >= 2");
    let mut net = Network::new(format!("alu{width}"));
    let a: Vec<NodeId> = (0..width)
        .map(|i| net.add_input(format!("a{i}")).expect("fresh"))
        .collect();
    let b: Vec<NodeId> = (0..width)
        .map(|i| net.add_input(format!("b{i}")).expect("fresh"))
        .collect();
    let cin = net.add_input("cin").expect("fresh");
    let op0 = net.add_input("op0").expect("fresh");
    let op1 = net.add_input("op1").expect("fresh");

    let mut carry = cin;
    for i in 0..width {
        let ab = vec![a[i], b[i]];
        let and_i = net
            .add_node(format!("and{i}"), ab.clone(), and2())
            .expect("fresh");
        let or_i = net
            .add_node(format!("or{i}"), ab.clone(), or2())
            .expect("fresh");
        let xor_i = net
            .add_node(format!("xor{i}"), ab.clone(), xor2())
            .expect("fresh");
        // Independent generate/propagate pair — duplicates and/xor above.
        let g_i = net
            .add_node(format!("g{i}"), ab.clone(), and2())
            .expect("fresh");
        let p_i = net.add_node(format!("p{i}"), ab, xor2()).expect("fresh");
        let sum_i = net
            .add_node(format!("sum{i}"), vec![p_i, carry], xor2())
            .expect("fresh");
        let t_i = net
            .add_node(format!("t{i}"), vec![p_i, carry], and2())
            .expect("fresh");
        carry = net
            .add_node(format!("c{}", i + 1), vec![g_i, t_i], or2())
            .expect("fresh");
        let f_i = net
            .add_node(
                format!("f{i}_mux"),
                vec![op0, op1, and_i, or_i, xor_i, sum_i],
                alu_mux(),
            )
            .expect("fresh");
        net.add_output(format!("f{i}"), f_i).expect("fresh");
    }
    net.add_output("cout", carry).expect("fresh");
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use tels_logic::opt;

    fn bits(v: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| v >> i & 1 != 0).collect()
    }

    #[test]
    fn multiplier_is_exhaustively_correct() {
        for n in [2usize, 3, 4] {
            let net = array_multiplier(n);
            assert_eq!(net.num_inputs(), 2 * n);
            assert_eq!(net.outputs().len(), 2 * n);
            for a in 0..1u64 << n {
                for b in 0..1u64 << n {
                    let mut assign = bits(a, n);
                    assign.extend(bits(b, n));
                    let out = net.eval(&assign).unwrap();
                    let p = a * b;
                    for (i, &o) in out.iter().enumerate() {
                        assert_eq!(o, p >> i & 1 != 0, "n={n} a={a} b={b} bit{i}");
                    }
                }
            }
        }
    }

    /// Software model of the unrolled LFSR.
    fn lfsr_model(width: usize, steps: usize, init: u64) -> u64 {
        let taps = lfsr_taps(width);
        let mut s = init;
        for _ in 0..steps {
            let fb = taps.iter().fold(0, |acc, &t| acc ^ (s >> t & 1));
            s = (s << 1 | fb) & ((1 << width) - 1);
        }
        s
    }

    #[test]
    fn lfsr_matches_software_model() {
        let (width, steps) = (8usize, 11usize);
        let net = lfsr_cone(width, steps);
        assert_eq!(net.num_inputs(), width);
        assert_eq!(net.outputs().len(), width);
        for trial in 0..64u64 {
            let init = trial.wrapping_mul(0x9e3779b97f4a7c15) >> 56 | trial << 2;
            let init = init & ((1 << width) - 1);
            let out = net.eval(&bits(init, width)).unwrap();
            let expect = lfsr_model(width, steps, init);
            for (i, &o) in out.iter().enumerate() {
                assert_eq!(o, expect >> i & 1 != 0, "init={init} bit{i}");
            }
        }
    }

    #[test]
    fn majority_grid_matches_software_model() {
        let (width, depth) = (7usize, 5usize);
        let net = majority_grid(width, depth);
        for trial in 0..1u64 << width {
            let mut layer = bits(trial, width);
            for _ in 0..depth {
                layer = (0..width)
                    .map(|i| {
                        let votes = u8::from(layer[(i + width - 1) % width])
                            + u8::from(layer[i])
                            + u8::from(layer[(i + 1) % width]);
                        votes >= 2
                    })
                    .collect();
            }
            assert_eq!(net.eval(&bits(trial, width)).unwrap(), layer, "x={trial}");
        }
    }

    #[test]
    fn parity_ladder_matches_software_model() {
        let (width, depth) = (6usize, 9usize);
        let net = parity_ladder(width, depth);
        for trial in 0..1u64 << width {
            let mut layer = bits(trial, width);
            for _ in 0..depth {
                layer = (0..width)
                    .map(|i| layer[i] ^ layer[(i + 1) % width])
                    .collect();
            }
            assert_eq!(net.eval(&bits(trial, width)).unwrap(), layer, "x={trial}");
        }
    }

    #[test]
    fn alu_array_matches_software_model() {
        for width in [2usize, 3] {
            let net = alu_array(width);
            assert_eq!(net.num_inputs(), 2 * width + 3);
            assert_eq!(net.outputs().len(), width + 1);
            let mask = (1u64 << width) - 1;
            for a in 0..1u64 << width {
                for b in 0..1u64 << width {
                    for cin in 0..2u64 {
                        for op in 0..4u64 {
                            let mut assign = bits(a, width);
                            assign.extend(bits(b, width));
                            assign.push(cin != 0);
                            assign.push(op & 1 != 0);
                            assign.push(op & 2 != 0);
                            let out = net.eval(&assign).unwrap();
                            let expect = match op {
                                0 => a & b,
                                1 => a | b,
                                2 => a ^ b,
                                _ => (a + b + cin) & mask,
                            };
                            for (i, &o) in out[..width].iter().enumerate() {
                                assert_eq!(
                                    o,
                                    expect >> i & 1 != 0,
                                    "w={width} a={a} b={b} cin={cin} op={op} bit{i}"
                                );
                            }
                            let cout = (a + b + cin) >> width & 1 != 0;
                            assert_eq!(out[width], cout, "w={width} a={a} b={b} cin={cin} cout");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn alu_array_dedups_under_structural_hashing() {
        // g/p duplicate and/xor per bit: strash must strip ≥ 2 gates a bit.
        let width = 8;
        let net = alu_array(width);
        let mut back = net.clone();
        let merged = opt::strash(&mut back);
        let back = back.compact();
        assert!(
            back.num_logic_nodes() + 2 * width <= net.num_logic_nodes(),
            "{} nodes after strash vs {} before",
            back.num_logic_nodes(),
            net.num_logic_nodes()
        );
        assert!(merged >= 2 * width);
        let mut assign = vec![false; net.num_inputs()];
        for trial in 0..1u64 << (2 * width + 3).min(14) {
            for (i, slot) in assign.iter_mut().enumerate() {
                *slot = trial >> (i % 14) & 1 != 0;
            }
            assert_eq!(net.eval(&assign).unwrap(), back.eval(&assign).unwrap());
        }
    }

    #[test]
    fn generators_scale() {
        // The whole point: these are much bigger than the paper suite.
        assert!(array_multiplier(8).num_logic_nodes() > 150);
        assert!(majority_grid(32, 16).num_logic_nodes() > 500);
        assert!(parity_ladder(32, 16).num_logic_nodes() > 500);
        assert!(lfsr_cone(24, 40).num_logic_nodes() > 100);
        assert!(alu_array(32).num_logic_nodes() > 250);
    }
}
