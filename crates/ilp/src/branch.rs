//! Branch-and-bound over the exact LP relaxation.
//!
//! Node selection is *best-bound*: open nodes live in a priority queue
//! keyed by their parent's LP-relaxation objective (ties broken FIFO for
//! determinism), so the search always expands the node that can still
//! reach the best objective. Once an incumbent is at hand, the first
//! popped node whose bound is no better proves optimality and the queue
//! is abandoned wholesale.
//!
//! Branching is *most-fractional*: among integer variables with
//! fractional LP values, the one whose fractional part is closest to ½ is
//! split (lowest index on ties), which empirically balances the two
//! subtrees far better than a fixed variable order.
//!
//! Each node's relaxation is first attempted on the fraction-free integer
//! simplex ([`crate::integer`]); an `i128` overflow falls back to the
//! exact-rational simplex ([`crate::simplex`]) for that node, so answers
//! are always exact while the common case never touches a gcd.

use std::collections::BinaryHeap;

use crate::error::SolveError;
use crate::integer::{solve_lp_int, to_int_objective, to_int_rows, IntLpOutcome, IntRow};
use crate::problem::{Cmp, Limits, Solution, SolveStats, Status};
use crate::rational::Rat;
use crate::simplex::{solve_lp, DenseRow, LpOutcome};

/// An open branch-and-bound node: the extra bound rows accumulated on the
/// path from the root, plus the parent relaxation's objective (the node's
/// best possible outcome). `bound == None` marks the root (no parent).
struct Node {
    bound: Option<Rat>,
    seq: u64,
    extra: Vec<DenseRow>,
}

impl Node {
    /// Ordering key: unknown bounds sort as −∞, then FIFO by sequence.
    fn key(&self) -> (bool, Rat, u64) {
        match self.bound {
            None => (false, Rat::ZERO, self.seq),
            Some(b) => (true, b, self.seq),
        }
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Node {}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap pops the maximum, we want the least bound.
        other.key().cmp(&self.key())
    }
}

/// Solves one node's LP relaxation, integer fast path first.
#[allow(clippy::too_many_arguments)]
fn solve_node_lp(
    n_vars: usize,
    rows: &[DenseRow],
    objective: &[Rat],
    extra: &[DenseRow],
    int_base: Option<&(Vec<IntRow>, Vec<i128>)>,
    pivots_left: &mut u64,
    stats: &mut SolveStats,
) -> Result<LpOutcome, SolveError> {
    if let Some((base_rows, int_obj)) = int_base {
        // Bound rows appended by branching are integral by construction.
        if let Some(extra_int) = to_int_rows(extra) {
            stats.int_lp_solves += 1;
            let mut int_rows = base_rows.clone();
            int_rows.extend(extra_int);
            match solve_lp_int(n_vars, &int_rows, int_obj, pivots_left) {
                IntLpOutcome::Optimal { x, obj } => return Ok(LpOutcome::Optimal { x, obj }),
                IntLpOutcome::Infeasible => return Ok(LpOutcome::Infeasible),
                IntLpOutcome::Unbounded => return Ok(LpOutcome::Unbounded),
                IntLpOutcome::LimitReached => return Ok(LpOutcome::LimitReached),
                IntLpOutcome::Abort => {
                    stats.int_aborts += 1;
                    tels_trace::instant("ilp", "int_abort");
                }
            }
        }
    }
    stats.rational_lp_solves += 1;
    let mut all_rows = rows.to_vec();
    all_rows.extend(extra.iter().cloned());
    solve_lp(n_vars, &all_rows, objective, pivots_left)
}

/// Picks the most-fractional integer variable (fractional part closest to
/// ½; lowest index on ties). `None` when the point is integral.
fn most_fractional(x: &[Rat], integer: &[bool]) -> Result<Option<(usize, i128)>, SolveError> {
    let half = Rat::new(1, 2);
    let mut pick: Option<(usize, Rat, i128)> = None;
    for (i, v) in x.iter().enumerate() {
        if !integer[i] || v.is_integer() {
            continue;
        }
        let frac = v.fract();
        let score = if frac <= half {
            frac
        } else {
            Rat::ONE.checked_sub(frac)?
        };
        if pick.as_ref().is_none_or(|&(_, s, _)| score > s) {
            pick = Some((i, score, v.floor()));
        }
    }
    Ok(pick.map(|(i, _, floor)| (i, floor)))
}

/// Solves the MILP `min obj·x, rows, x ≥ 0, xᵢ integer for integer[i]`.
///
/// `use_int` gates the integer fast path; with it off, every relaxation is
/// solved by the rational simplex (the correctness oracle the differential
/// tests compare against).
pub(crate) fn solve_ilp(
    n_vars: usize,
    integer: &[bool],
    rows: &[DenseRow],
    objective: &[Rat],
    limits: &Limits,
    use_int: bool,
) -> Result<(Solution, SolveStats), SolveError> {
    let mut span = tels_trace::span("ilp", "solve");
    let mut stats = SolveStats::default();
    let mut pivots_left = limits.max_pivots;
    let mut nodes_left = limits.max_nodes;
    let mut incumbent: Option<(Vec<Rat>, Rat)> = None;
    let mut hit_limit = false;

    // The integer images of the base rows and objective, converted once;
    // `None` (fractional data, or fast path disabled) keeps every node on
    // the rational simplex.
    let int_base: Option<(Vec<IntRow>, Vec<i128>)> = if use_int {
        to_int_rows(rows).zip(to_int_objective(objective))
    } else {
        None
    };

    let mut seq = 0u64;
    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    heap.push(Node {
        bound: None,
        seq,
        extra: Vec::new(),
    });

    while let Some(node) = heap.pop() {
        // Best-bound invariant: if this node cannot beat the incumbent, no
        // open node can — the search is complete.
        if let (Some(bound), Some((_, inc_obj))) = (node.bound, &incumbent) {
            if bound >= *inc_obj {
                break;
            }
        }
        if nodes_left == 0 {
            hit_limit = true;
            break;
        }
        nodes_left -= 1;
        stats.nodes += 1;

        let outcome = solve_node_lp(
            n_vars,
            rows,
            objective,
            &node.extra,
            int_base.as_ref(),
            &mut pivots_left,
            &mut stats,
        )?;

        match outcome {
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                // The relaxation is unbounded. If no integrality is involved
                // the MILP is unbounded too; with integrality the MILP is
                // unbounded or infeasible — report unbounded, which callers
                // treat as "no usable solution".
                stats.pivots = limits.max_pivots - pivots_left;
                finish_span(&mut span, &stats);
                return Ok((
                    Solution {
                        status: Status::Unbounded,
                        values: Vec::new(),
                        objective: None,
                    },
                    stats,
                ));
            }
            LpOutcome::LimitReached => {
                hit_limit = true;
                break;
            }
            LpOutcome::Optimal { x, obj } => {
                // Bound: prune if not better than the incumbent.
                if let Some((_, inc_obj)) = &incumbent {
                    if obj >= *inc_obj {
                        continue;
                    }
                }
                match most_fractional(&x, integer)? {
                    None => {
                        incumbent = Some((x, obj));
                    }
                    Some((i, floor)) => {
                        // Branch x_i ≤ floor, x_i ≥ floor + 1; both children
                        // inherit this relaxation's objective as their bound.
                        let mut coeffs = vec![Rat::ZERO; n_vars];
                        coeffs[i] = Rat::ONE;
                        let mut down = node.extra.clone();
                        down.push(DenseRow {
                            coeffs: coeffs.clone(),
                            cmp: Cmp::Le,
                            rhs: Rat::from_int(floor),
                        });
                        seq += 1;
                        heap.push(Node {
                            bound: Some(obj),
                            seq,
                            extra: down,
                        });
                        let mut up = node.extra;
                        up.push(DenseRow {
                            coeffs,
                            cmp: Cmp::Ge,
                            rhs: Rat::from_int(floor + 1),
                        });
                        seq += 1;
                        heap.push(Node {
                            bound: Some(obj),
                            seq,
                            extra: up,
                        });
                    }
                }
            }
        }
    }

    let solution = match incumbent {
        // If limits were hit with an incumbent in hand, the incumbent is a
        // *feasible* integer solution that may not be proven optimal; it is
        // still returned (status `LimitReached`, values populated) because a
        // feasible weight assignment is a valid threshold-gate realization.
        Some((values, obj)) => Solution {
            status: if hit_limit {
                Status::LimitReached
            } else {
                Status::Optimal
            },
            values,
            objective: Some(obj),
        },
        None => Solution {
            status: if hit_limit {
                Status::LimitReached
            } else {
                Status::Infeasible
            },
            values: Vec::new(),
            objective: None,
        },
    };
    stats.pivots = limits.max_pivots - pivots_left;
    finish_span(&mut span, &stats);
    Ok((solution, stats))
}

/// Attaches the end-of-solve counters to the `ilp:solve` span: which tier
/// finished the solve, branch-and-bound nodes, pivots, and overflow
/// fallbacks. No-op (empty span) when tracing is disabled.
fn finish_span(span: &mut tels_trace::Span, stats: &SolveStats) {
    let tier = if stats.rational_lp_solves == 0 {
        "int"
    } else {
        "rational"
    };
    span.arg("tier", tier);
    span.arg("nodes", stats.nodes);
    span.arg("pivots", stats.pivots);
    span.arg("int_aborts", stats.int_aborts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    #[test]
    fn integer_rounding_up() {
        // min x s.t. 2x >= 3, x integer → x = 2.
        let mut p = Problem::new();
        let x = p.add_int_var();
        p.set_objective([(x, 1)]);
        p.add_constraint([(x, 2)], Cmp::Ge, 3);
        let s = p.solve(&Limits::default()).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_values(), Some(vec![2]));
    }

    #[test]
    fn knapsack_style() {
        // min 3x + 2y s.t. 2x + y >= 5, x + 3y >= 6, integers.
        // LP relaxation is fractional; integer optimum must satisfy both.
        let mut p = Problem::new();
        let x = p.add_int_var();
        let y = p.add_int_var();
        p.set_objective([(x, 3), (y, 2)]);
        p.add_constraint([(x, 2), (y, 1)], Cmp::Ge, 5);
        p.add_constraint([(x, 1), (y, 3)], Cmp::Ge, 6);
        let s = p.solve(&Limits::default()).unwrap();
        assert_eq!(s.status, Status::Optimal);
        let v = s.int_values().unwrap();
        assert!(2 * v[0] + v[1] >= 5 && v[0] + 3 * v[1] >= 6);
        // Exhaustive check over a small grid that this really is optimal.
        let mut best = i64::MAX;
        for xx in 0..=10 {
            for yy in 0..=10 {
                if 2 * xx + yy >= 5 && xx + 3 * yy >= 6 {
                    best = best.min(3 * xx + 2 * yy);
                }
            }
        }
        assert_eq!(3 * v[0] + 2 * v[1], best);
    }

    #[test]
    fn integer_infeasible() {
        // 2x = 1 has no integer solution (and no LP solution issue: x=1/2 is
        // LP-feasible, so infeasibility must come from branching).
        let mut p = Problem::new();
        let x = p.add_int_var();
        p.set_objective([(x, 1)]);
        p.add_constraint([(x, 2)], Cmp::Eq, 1);
        let s = p.solve(&Limits::default()).unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min x + y s.t. x + y >= 5/2, x integer, y continuous.
        // Optimum: y carries the fraction → obj = 5/2.
        let mut p = Problem::new();
        let x = p.add_int_var();
        let y = p.add_var();
        p.set_objective([(x, 1), (y, 1)]);
        p.add_constraint([(x, 1), (y, 1)], Cmp::Ge, Rat::new(5, 2));
        let s = p.solve(&Limits::default()).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective, Some(Rat::new(5, 2)));
    }

    #[test]
    fn node_limit_reported() {
        let mut p = Problem::new();
        let x = p.add_int_var();
        p.set_objective([(x, 1)]);
        p.add_constraint([(x, 2)], Cmp::Ge, 3);
        let s = p
            .solve(&Limits {
                max_pivots: 200_000,
                max_nodes: 0,
            })
            .unwrap();
        assert_eq!(s.status, Status::LimitReached);
    }

    #[test]
    fn unbounded_integer_problem() {
        let mut p = Problem::new();
        let x = p.add_int_var();
        p.set_objective([(x, -1)]);
        p.add_constraint([(x, 1)], Cmp::Ge, 0);
        let s = p.solve(&Limits::default()).unwrap();
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn fast_path_is_exercised_and_rational_mode_agrees() {
        let mut p = Problem::new();
        let x = p.add_int_var();
        let y = p.add_int_var();
        p.set_objective([(x, 3), (y, 2)]);
        p.add_constraint([(x, 2), (y, 1)], Cmp::Ge, 5);
        p.add_constraint([(x, 1), (y, 3)], Cmp::Ge, 6);
        let (tiered, ts) = p.solve_with_stats(&Limits::default()).unwrap();
        let (oracle, os) = p.solve_rational(&Limits::default()).unwrap();
        assert!(ts.int_lp_solves > 0 && ts.rational_lp_solves == 0);
        assert!(os.int_lp_solves == 0 && os.rational_lp_solves > 0);
        assert_eq!(tiered.status, oracle.status);
        assert_eq!(tiered.objective, oracle.objective);
    }

    #[test]
    fn fractional_data_skips_fast_path() {
        let mut p = Problem::new();
        let x = p.add_int_var();
        p.set_objective([(x, 1)]);
        p.add_constraint([(x, Rat::new(1, 2))], Cmp::Ge, 1);
        let (s, stats) = p.solve_with_stats(&Limits::default()).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_values(), Some(vec![2]));
        assert_eq!(stats.int_lp_solves, 0);
        assert!(stats.rational_lp_solves > 0);
    }
}
